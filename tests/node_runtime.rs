//! One node runtime for both clusters, counted: a query starts exactly one
//! query worker on every node, however many stages it runs, on the
//! in-process cluster and on node servers over loopback TCP alike
//! (`exec.stage_workers_spawned`). A stage runner that spawned a thread
//! per stage and node would read Σ stages × nodes instead. And the worker
//! counts what its query hands the node's multiplexer, so a query that
//! fails is charged exactly what it sent.

mod support;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::exchange::HEADER_LEN;
use hsqp::engine::expr::{col, lit};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::{Coordinator, Plan};
use hsqp::tpch::TpchTable;

const SF: f64 = 0.005;
const NODES: u16 = 2;

/// Run the 22 builder queries, planned by `planner`, on `cluster`, loaded
/// at [`SF`] on [`NODES`] nodes; then the stages it ran and the query
/// workers its nodes started.
fn pass(cluster: &Coordinator, planner: &Planner) -> (u64, u64) {
    for n in ALL_QUERIES {
        let query = planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
        cluster.run(&query).unwrap_or_else(|e| panic!("Q{n}: {e}"));
    }
    let metrics = cluster.metrics();
    let counter = |name| metrics.counter(name).unwrap_or_else(|| panic!("no {name}"));
    (
        counter("stages.executed"),
        counter("exec.stage_workers_spawned"),
    )
}

#[test]
fn every_query_starts_one_worker_per_node_on_both_clusters() {
    let workers_per_pass = ALL_QUERIES.len() as u64 * u64::from(NODES);

    let local = Cluster::start(ClusterConfig::quick(NODES)).unwrap();
    local.load_tpch(SF).unwrap();
    let (stages, workers) = pass(&local, &Planner::for_cluster(&local));
    assert!(
        stages > ALL_QUERIES.len() as u64,
        "some query runs more than one stage ({stages} stages)"
    );
    assert_eq!(workers, workers_per_pass, "in-process, {stages} stages");
    // Retiring a query joined its workers and released what it left.
    assert_eq!(local.active_temp_namespaces(), 0);
    for node in 0..NODES {
        let hub = &local.node_ctx(node).hub;
        assert_eq!(hub.active_exchanges(), 0, "node {node} kept hub state");
    }
    local.shutdown();

    let nodes = support::loopback_nodes(NODES as usize);
    let remote = ProcessCluster::connect(&nodes, ProcessClusterConfig::default()).unwrap();
    remote.load_tpch(SF).unwrap();
    let planner = Planner::for_tpch(NODES, SF, |t| remote.table_rows(t));
    let (remote_stages, workers) = pass(&remote, &planner);
    assert_eq!(remote_stages, stages, "the same plans ran");
    assert_eq!(workers, workers_per_pass, "over sockets, {stages} stages");
    remote.shutdown();
}

/// Run a stage that no node compiles: every node refuses it and aborts its
/// peers with one header-only frame each, and those frames are all the
/// query sent. It fails, and they are counted as its traffic.
fn refused_query_charges_its_abort_frames(cluster: &Coordinator) {
    let refused = Plan::scan(TpchTable::Nation)
        .filter(col("n_comment").add(lit(1)).gt(lit(0)))
        .gather();
    assert!(cluster.run_plan(&refused).is_err());
    let metrics = cluster.metrics();
    let frames = u64::from(NODES) * u64::from(NODES - 1);
    assert_eq!(metrics.counter("queries.failed"), Some(1));
    assert_eq!(metrics.counter("queries.messages_sent"), Some(frames));
    assert_eq!(
        metrics.counter("queries.bytes_shuffled"),
        Some(frames * HEADER_LEN as u64)
    );
}

#[test]
fn a_failed_query_is_charged_what_it_sent_on_both_clusters() {
    let local = Cluster::start(ClusterConfig::quick(NODES)).unwrap();
    local.load_tpch(0.001).unwrap();
    refused_query_charges_its_abort_frames(&local);
    local.shutdown();

    let nodes = support::loopback_nodes(NODES as usize);
    let remote = ProcessCluster::connect(&nodes, ProcessClusterConfig::default()).unwrap();
    remote.load_tpch(0.001).unwrap();
    refused_query_charges_its_abort_frames(&remote);
    remote.shutdown();
}
