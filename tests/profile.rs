//! Integration tests for the span-based query profiler: span nesting must
//! be physically consistent (children inside parents, network wait inside
//! exchange walls), exchanges must conserve rows across the cluster,
//! concurrent queries must keep their profiles isolated, and a cancelled
//! query must yield its partial profile without wedging anything.

mod support;

use hsqp::engine::cluster::{Cluster, ClusterConfig, QueryHandle};
use hsqp::engine::error::EngineError;
use hsqp::engine::planner::Planner;
use hsqp::engine::profile::{QueryProfile, StageProfile};
use hsqp::engine::queries::{tpch_logical, Query};
use hsqp::tpch::TpchDb;

const SF: f64 = 0.002;

fn cluster(nodes: u16, max_concurrent: u16) -> Cluster {
    let cluster = Cluster::start(ClusterConfig {
        max_concurrent,
        ..ClusterConfig::quick(nodes)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    cluster
}

fn plan(cluster: &Cluster, n: u32) -> Query {
    Planner::for_cluster(cluster)
        .plan_query(&tpch_logical(n).unwrap())
        .unwrap()
}

/// Timer granularity slack for span-nesting comparisons: start/end stamps
/// of parent and child are taken nanoseconds apart, never out of order by
/// more than scheduling noise.
const SLACK: std::time::Duration = std::time::Duration::from_micros(100);

fn assert_spans_nest(stage: &StageProfile, context: &str) {
    for (idx, op) in stage.ops.iter().enumerate() {
        let children = stage.children_of(idx);
        for node in 0..op.nodes.len() {
            let parent = &op.nodes[node];
            // Execution on a node is a depth-first walk on one thread, so
            // child spans are disjoint sub-intervals of the parent span.
            let child_sum: std::time::Duration = children
                .iter()
                .map(|&c| stage.ops[c].nodes[node].wall)
                .sum();
            assert!(
                child_sum <= parent.wall + SLACK,
                "{context} op {idx} ({}) node {node}: children walls sum to \
                 {child_sum:?} > parent wall {parent:?}",
                op.label,
                parent = parent.wall,
            );
            // An exchange's average per-worker network wait happens inside
            // its own span.
            assert!(
                parent.net_wait() <= parent.wall + SLACK,
                "{context} op {idx} ({}) node {node}: net wait {:?} > wall {:?}",
                op.label,
                parent.net_wait(),
                parent.wall,
            );
        }
    }
}

/// Q3 (two joins, pre-aggregation, gather) on 2 nodes: every operator's
/// children must fit inside it on every node, on every stage.
#[test]
fn child_spans_fit_inside_parents() {
    let cluster = cluster(2, 1);
    let q3 = plan(&cluster, 3);
    let result = cluster.run(&q3).unwrap();
    let profile = result.profile.as_ref().expect("profiling defaults on");
    assert_eq!(profile.stages.len(), q3.stages.len());
    for (i, stage) in profile.stages.iter().enumerate() {
        assert_spans_nest(stage, &format!("Q3 stage {}", i + 1));
        assert!(
            stage
                .ops
                .iter()
                .any(|op| op.nodes.iter().any(|n| !n.wall.is_zero())),
            "stage {} recorded no spans at all",
            i + 1
        );
    }
    // The root gather's output is the query result.
    assert_eq!(
        profile.stages.last().unwrap().actual_rows(),
        result.row_count() as u64
    );
    cluster.shutdown();
}

/// A repartition exchange must conserve rows cluster-wide: the rows every
/// node feeds into the shuffle equal the rows all nodes hold afterwards.
#[test]
fn repartition_conserves_rows_across_nodes() {
    let cluster = cluster(3, 1);
    // Q10 repartitions lineitem-joined tuples by custkey on 3 nodes.
    let q10 = plan(&cluster, 10);
    let result = cluster.run(&q10).unwrap();
    let profile = result.profile.as_ref().expect("profiling defaults on");
    let mut checked = 0;
    for stage in &profile.stages {
        for op in &stage.ops {
            if op.label.starts_with("Exchange HashPartition") {
                assert_eq!(
                    op.rows_in(),
                    op.rows_out(),
                    "repartition {} lost or duplicated rows",
                    op.label
                );
                assert!(op.rows_in() > 0, "repartition {} saw no rows", op.label);
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "Q10 profile contained no repartition exchange");
    cluster.shutdown();
}

/// What the exchange writer and the consumers report must add up to what
/// the fabric and the nodes saw: every data message is attributed to its
/// exchange operator (the fabric additionally carries one 15-byte last
/// marker per sender and target), every message is one consume batch, and
/// the per-worker consume loads are the rows the consumers decoded.
#[test]
fn exchanges_account_for_their_traffic_and_their_rows() {
    use hsqp::engine::expr::lit;
    use hsqp::engine::plan::{AggFunc, AggSpec, Plan};
    use hsqp::tpch::TpchTable;

    let cluster = cluster(2, 1);
    let count = vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")];
    let plan = Plan::scan(TpchTable::Lineitem)
        .repartition(&["l_orderkey"])
        .aggregate(&[], count)
        .gather();
    let loads = |c: &Cluster| -> u64 {
        (0..2)
            .map(|n| c.node_ctx(n).consume_loads.lock().iter().sum::<u64>())
            .sum()
    };
    let loads_before = loads(&cluster);
    let result = cluster.run_plan(&plan).unwrap();
    let profile = result.profile.as_ref().expect("profiling defaults on");
    let ops = &profile.stages[0].ops;
    let repartition = ops
        .iter()
        .find(|op| op.label.starts_with("Exchange HashPartition"))
        .expect("a repartition");
    let gather = ops
        .iter()
        .find(|op| op.label.starts_with("Exchange Gather"))
        .expect("a gather");

    let lineitems = cluster.table_rows(TpchTable::Lineitem).unwrap();
    assert_eq!(repartition.rows_in(), lineitems);
    assert_eq!(repartition.rows_out(), lineitems);
    let sum = |op: &hsqp::engine::profile::OpProfile,
               f: fn(&hsqp::engine::profile::OpNodeProfile) -> u64| {
        op.nodes.iter().map(f).sum::<u64>()
    };
    let data_messages = sum(repartition, |n| n.messages_sent) + sum(gather, |n| n.messages_sent);
    assert!(
        sum(repartition, |n| n.messages_sent) >= 2,
        "both nodes ship remote partitions"
    );
    assert_eq!(
        sum(gather, |n| n.messages_sent),
        1,
        "node 1 ships its count"
    );
    // Last markers: each node to the other for the repartition, node 1 to
    // node 0 for the gather.
    assert_eq!(result.messages_sent, data_messages + 3);
    assert_eq!(
        result.bytes_shuffled,
        repartition.bytes_sent() + gather.bytes_sent() + 3 * 15
    );
    // Remote messages and the node's own partitions are consumed alike.
    assert!(sum(repartition, |n| n.batches) > sum(repartition, |n| n.messages_sent));
    assert_eq!(sum(gather, |n| n.batches), 1);
    // Everything but the coordinator's own count went through a consumer.
    assert_eq!(loads(&cluster) - loads_before, lineitems + 1);
    cluster.shutdown();
}

/// Four clients running different queries concurrently: each handle's
/// profile must describe its *own* query — stage count, plan labels, and
/// result cardinality — not a neighbour's.
#[test]
fn concurrent_queries_keep_profiles_isolated() {
    let cluster = cluster(2, 4);
    let queries: Vec<(u32, Query)> = [1u32, 3, 6, 12]
        .iter()
        .map(|&n| (n, plan(&cluster, n)))
        .collect();

    let handles: Vec<(u32, usize, QueryHandle)> = queries
        .iter()
        .map(|(n, q)| (*n, q.stages.len(), cluster.submit(q).unwrap()))
        .collect();
    for (n, stage_count, handle) in handles {
        let id = handle.id();
        let result = handle.wait().unwrap();
        let profile = result.profile.as_ref().expect("profiling defaults on");
        assert_eq!(profile.query, id, "Q{n} profile tagged with wrong query id");
        assert_eq!(
            profile.stages.len(),
            stage_count,
            "Q{n} profile has the wrong stage count"
        );
        assert_eq!(
            profile.stages.last().unwrap().actual_rows(),
            result.row_count() as u64,
            "Q{n} profile root cardinality diverged from its result"
        );
        for (i, stage) in profile.stages.iter().enumerate() {
            assert_spans_nest(stage, &format!("concurrent Q{n} stage {}", i + 1));
        }
    }
    cluster.shutdown();
}

/// A cancelled query keeps the stages that finished before the cancel took
/// effect — no panic, no wedge, and the cluster stays fully usable.
#[test]
fn cancelled_query_yields_partial_profile() {
    let cluster = cluster(2, 1); // force a queue: later submissions cancel while queued
    let q2 = plan(&cluster, 2);
    let full_stages = q2.stages.len();
    let serial_rows = cluster.run(&q2).unwrap().row_count();

    let mut saw_partial = false;
    for _ in 0..6 {
        let handles: Vec<QueryHandle> = (0..4).map(|_| cluster.submit(&q2).unwrap()).collect();
        for h in &handles {
            h.cancel();
        }
        for h in handles {
            let profile: QueryProfile = h.profile();
            assert!(
                profile.stages.len() <= full_stages,
                "profile grew more stages than the query has"
            );
            match h.wait() {
                Err(EngineError::Cancelled) => {
                    if profile.stages.len() < full_stages {
                        saw_partial = true;
                    }
                }
                Ok(r) => assert_eq!(r.row_count(), serial_rows),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
    assert!(saw_partial, "no cancellation ever truncated a profile");
    // Still answers correctly afterwards, with a complete profile.
    let after = cluster.run(&q2).unwrap();
    assert_eq!(after.row_count(), serial_rows);
    assert_eq!(
        after.profile.expect("profiling on").stages.len(),
        full_stages
    );
    cluster.shutdown();
}

/// With profiling disabled, results carry no profile and handles return an
/// empty one — the off switch really is off.
#[test]
fn profiling_off_leaves_no_profile() {
    let cluster = Cluster::start(ClusterConfig {
        profiling: false,
        ..ClusterConfig::quick(2)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    let q6 = plan(&cluster, 6);
    let result = cluster.run(&q6).unwrap();
    assert!(result.profile.is_none());
    cluster.shutdown();
}

/// The aggregates under a join's build side keep only the groups the probe
/// side can match, counted exactly at SF 0.01 on two nodes of one worker:
/// Q21's two `COUNT(DISTINCT)` aggregates by order keep the 531 orders the
/// joins above them need (of some 15 000 without a seed); Q18's orders are
/// a quarter of its lineitems, too many to seed with, so its aggregate
/// still emits every order. The registry counts the two seeded aggregates
/// on each node and the rows they dropped — the same over sockets, where
/// the nodes report them through `Stats`. Those rows are few: the joins
/// filter the repartitions under both aggregates by the same probe keys,
/// so only the rows a filter passes by mistake reach a seeded aggregate
/// without a group to go to.
#[test]
fn seeded_aggregates_keep_only_the_groups_the_probe_side_matches() {
    use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
    use hsqp::engine::Coordinator;

    const SF: f64 = 0.01;
    let counters = |cluster: &Coordinator| {
        let metrics = cluster.metrics();
        let counter = |name| metrics.counter(name).unwrap_or_else(|| panic!("no {name}"));
        (
            counter("exec.aggs_seeded"),
            counter("exec.agg_rows_dropped"),
        )
    };
    let aggregates = |result: &hsqp::engine::cluster::QueryResult| -> Vec<(String, u64)> {
        let profile = result.profile.as_ref().expect("profiling defaults on");
        let ops = profile.stages.iter().flat_map(|s| &s.ops);
        ops.filter(|op| op.label.starts_with("Aggregate"))
            .map(|op| (op.label.clone(), op.rows_out()))
            .collect()
    };

    let local = Cluster::start(ClusterConfig {
        workers_per_node: 1,
        ..ClusterConfig::quick(2)
    })
    .unwrap();
    local.load_tpch(SF).unwrap();
    // Both clusters run the plans of the loaded simulated one.
    let planner = Planner::for_cluster(&local);
    let plan = |n: u32| planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
    let q21 = aggregates(&local.run(&plan(21)).unwrap());
    let by_order: Vec<u64> = q21
        .iter()
        .filter(|(label, _)| label.starts_with("Aggregate Single by [ao_orderkey]"))
        .chain(
            q21.iter()
                .filter(|(label, _)| label.starts_with("Aggregate Single by [lo_orderkey]")),
        )
        .map(|(_, rows)| *rows)
        .collect();
    assert_eq!(by_order, [531, 531], "Q21's aggregates: {q21:?}");
    let q18 = aggregates(&local.run(&plan(18)).unwrap());
    let per_order: Vec<u64> = q18
        .iter()
        .filter(|(label, _)| label.contains("by [l_orderkey]") && !label.contains("Partial"))
        .map(|(_, rows)| *rows)
        .collect();
    assert_eq!(per_order, [15_000], "Q18's aggregates: {q18:?}");
    let (seeded, dropped) = counters(&local);
    assert_eq!(seeded, 4, "Q21's two aggregates on each node");
    assert_eq!(dropped, 639);
    local.shutdown();

    let remote = ProcessCluster::connect(
        &support::loopback_nodes(2),
        ProcessClusterConfig {
            engine: RemoteEngineConfig {
                workers_per_node: 1,
                ..RemoteEngineConfig::default()
            },
            ..ProcessClusterConfig::default()
        },
    )
    .unwrap();
    remote.load_tpch(SF).unwrap();
    for n in [21, 18] {
        remote.run(&plan(n)).unwrap();
    }
    assert_eq!(counters(&remote), (seeded, dropped), "over sockets");
    remote.shutdown();
}
