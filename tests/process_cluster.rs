//! Out-of-process cluster integration tests: spawn real `hsqp-node` child
//! processes, drive them with [`ProcessCluster`], and check row parity
//! against the in-process simulated cluster plus failure containment when
//! a node process is killed mid-query.

mod support;

use std::time::Duration;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::tpch_logical;
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::EngineError;

use support::NodeProc;

fn spawn_cluster(n: usize) -> (Vec<NodeProc>, ProcessCluster) {
    let nodes: Vec<NodeProc> = (0..n).map(|_| NodeProc::spawn()).collect();
    let addrs: Vec<String> = nodes.iter().map(|p| p.addr.clone()).collect();
    let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default())
        .expect("connect process cluster");
    (nodes, pc)
}

/// Q1/Q3/Q5/Q12 over three real node processes must return exactly the
/// row counts the in-process simulated cluster returns (same SF, same
/// node count — identical chunked placement, so identical results).
#[test]
fn process_cluster_rows_match_in_process() {
    const SF: f64 = 0.01;
    let (nodes, pc) = spawn_cluster(3);
    pc.load_tpch(SF).expect("load TPC-H on the node processes");

    let local = Cluster::start(ClusterConfig::quick(3)).expect("start in-process cluster");
    local.load_tpch(SF).expect("load TPC-H in-process");
    let planner = Planner::for_cluster(&local);

    for qn in [1u32, 3, 5, 12] {
        let logical = tpch_logical(qn).expect("build query");
        let query = planner.plan_query(&logical).expect("plan query");
        let remote = pc
            .run(&query)
            .unwrap_or_else(|e| panic!("Q{qn} remote: {e}"));
        let reference = local
            .run(&query)
            .unwrap_or_else(|e| panic!("Q{qn} local: {e}"));
        assert_eq!(
            remote.table.rows(),
            reference.table.rows(),
            "Q{qn}: process cluster rows diverge from in-process"
        );
    }
    local.shutdown();
    pc.shutdown();
    drop(nodes);
}

/// Killing a node process mid-query must surface as an error on the
/// coordinator within a bounded time — never a wedged exchange. The
/// surviving peers get `PeerGone` from their socket readers and the
/// coordinator's control reader fails the pending query.
#[test]
fn killing_a_node_mid_query_errors_within_timeout() {
    let (mut nodes, pc) = spawn_cluster(2);
    pc.load_tpch(0.01).expect("load TPC-H");

    // Sanity: the cluster works before the kill.
    let planner = Planner::for_tpch(2, 0.01, |t| pc.table_rows(t));
    let q3 = planner
        .plan_query(&tpch_logical(3).expect("build Q3"))
        .expect("plan Q3");
    pc.run(&q3).expect("Q3 before the kill");

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Loop until the kill lands mid-query; each iteration either
            // completes normally (pre-kill) or returns the error under test.
            let outcome = loop {
                match pc.run(&q3) {
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            let _ = tx.send(outcome);
        });
        std::thread::sleep(Duration::from_millis(100));
        let victim = &mut nodes[1];
        victim.child.kill().expect("kill node 1");
        victim.child.wait().expect("reap node 1");

        let err = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator must fail the query, not wedge");
        match err {
            EngineError::Execution(_) | EngineError::ClusterDown => {}
            other => panic!("unexpected error kind: {other:?}"),
        }
    });

    // The cluster is marked down; later submissions fail fast.
    assert!(pc.run(&q3).is_err(), "dead cluster must reject new queries");
}
