//! One node runtime for both clusters, counted: a query starts exactly one
//! query worker on every node, however many stages it runs, on the
//! in-process cluster and on node servers over loopback TCP alike
//! (`exec.stage_workers_spawned`). A stage runner that spawned a thread
//! per stage and node would read Σ stages × nodes instead.

mod support;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::planner::{Planner, PlannerConfig, TableStats};
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::Coordinator;

const SF: f64 = 0.005;
const NODES: u16 = 2;

/// Run the 22 builder queries on `cluster`, loaded at [`SF`] on [`NODES`]
/// nodes; then the stages it ran and the query workers its nodes started.
fn pass(cluster: &Coordinator) -> (u64, u64) {
    let planner = Planner::new(PlannerConfig {
        stats: TableStats::for_scale_factor(SF),
        ..PlannerConfig::new(NODES)
    });
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
    let (stages, workers) = pass(&local);
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
    let (remote_stages, workers) = pass(&remote);
    assert_eq!(remote_stages, stages, "the same plans ran");
    assert_eq!(workers, workers_per_pass, "over sockets, {stages} stages");
    remote.shutdown();
}
