//! Join filters against the reference evaluator: a repartitioned hash join
//! that filters one side's repartition by the other side's keys (a Bloom
//! filter per node, exchanged in one summary round) must return what the
//! same join returns unfiltered — whatever side it filters, whatever the
//! join kind allows, on every cluster shape — and refuse a side whose
//! unmatched rows the result keeps. The TPC-H queries must answer alike
//! with their filters as planned and with none, and both clusters must
//! count what the filters drop and what their rounds send exactly alike.

mod support;

use std::sync::OnceLock;

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, QueryResult};
use hsqp::engine::error::EngineError;
use hsqp::engine::expr::{col, lit, litf};
use hsqp::engine::logical::{JoinStrategy, LogicalPlan, LogicalQuery};
use hsqp::engine::plan::{AggFunc, AggSpec, JoinKind, JoinSide, MapExpr, Plan};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, Query, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
use hsqp::engine::Coordinator;
use hsqp::tpch::{TpchDb, TpchTable};

use support::oracle::{Answer, Oracle};

/// The hand-built joins run at this scale factor: a few thousand orders.
const SF: f64 = 0.002;

fn db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchDb::generate(SF))
}

const KINDS: [JoinKind; 4] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::LeftSemi,
    JoinKind::LeftAnti,
];

/// The sides each join kind may filter, written out here rather than asked
/// of the engine: never a side whose unmatched rows are in the result.
fn allowed(kind: JoinKind, side: JoinSide) -> bool {
    match kind {
        JoinKind::Inner | JoinKind::LeftSemi => true,
        JoinKind::LeftOuter | JoinKind::LeftAnti => side == JoinSide::Build,
    }
}

/// One hand-built join: a probe and a build side, the keys they join on.
struct Shape {
    name: &'static str,
    probe: LogicalPlan,
    build: LogicalPlan,
    probe_keys: &'static [&'static str],
    build_keys: &'static [&'static str],
}

impl Shape {
    fn join(&self, kind: JoinKind) -> LogicalQuery {
        let join = self.probe.clone().join_with(
            self.build.clone(),
            self.probe_keys,
            self.build_keys,
            kind,
            JoinStrategy::Repartition,
        );
        LogicalQuery::stage(join)
    }
}

/// Lines of some orders, with duplicate order keys on one side.
fn lines() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_quantity").lt(litf(20.0)))
        .project(&["l_orderkey", "l_linenumber", "l_quantity"])
}

/// Orders under `below`, renamed so they can join lineitem or themselves.
fn orders(below: i64) -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_orderkey").lt(lit(below)))
        .select(vec![
            MapExpr::new("ok", col("o_orderkey")),
            MapExpr::new("ostatus", col("o_orderstatus")),
        ])
}

/// Orders left-outer-joined to their lines of quantity under 5: `lk` is
/// NULL for the orders that have none.
fn orders_with_null_keys() -> LogicalPlan {
    let small = LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_quantity").lt(litf(5.0)))
        .select(vec![
            MapExpr::new("lk", col("l_orderkey")),
            MapExpr::new("lline", col("l_linenumber")),
        ]);
    LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_orderkey").lt(lit(3_000)))
        .project(&["o_orderkey", "o_custkey"])
        .join(small, &["o_orderkey"], &["lk"], JoinKind::LeftOuter)
}

/// Each part's lowest supply cost (a Float64) and the part it is for,
/// repartitioned by part when aggregated.
fn min_costs() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Partsupp)
        .filter(col("ps_partkey").lt(lit(200)))
        .aggregate(
            &["ps_partkey"],
            vec![AggSpec::new(AggFunc::Min, col("ps_supplycost"), "min_cost")],
        )
        .select(vec![
            MapExpr::new("mc_partkey", col("ps_partkey")),
            MapExpr::new("mc_cost", col("min_cost")),
        ])
}

/// Supply costs as Decimals.
fn supply_costs() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Partsupp).project(&["ps_partkey", "ps_suppkey", "ps_supplycost"])
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "lines by order (duplicate probe keys)",
            probe: lines(),
            build: orders(2_000),
            probe_keys: &["l_orderkey"],
            build_keys: &["ok"],
        },
        Shape {
            name: "orders by line (duplicate build keys)",
            probe: orders(4_000),
            build: lines(),
            probe_keys: &["ok"],
            build_keys: &["l_orderkey"],
        },
        Shape {
            name: "NULL probe keys",
            probe: orders_with_null_keys(),
            build: orders(6_000),
            probe_keys: &["lk"],
            build_keys: &["ok"],
        },
        Shape {
            name: "NULL build keys",
            probe: orders(6_000),
            build: orders_with_null_keys(),
            probe_keys: &["ok"],
            build_keys: &["lk"],
        },
        // The aggregate is partitioned by part alone, so the other side is
        // repartitioned on the first key of two; its Decimal costs meet
        // the Float64 minimum by value.
        Shape {
            name: "Decimal probe keys, Float64 build keys, repartitioned on one of two",
            probe: supply_costs(),
            build: min_costs(),
            probe_keys: &["ps_partkey", "ps_supplycost"],
            build_keys: &["mc_partkey", "mc_cost"],
        },
        Shape {
            name: "Float64 probe keys, Decimal build keys, repartitioned on one of two",
            probe: min_costs(),
            build: supply_costs(),
            probe_keys: &["mc_partkey", "mc_cost"],
            build_keys: &["ps_partkey", "ps_supplycost"],
        },
        Shape {
            name: "an empty side",
            probe: lines(),
            build: orders(0),
            probe_keys: &["l_orderkey"],
            build_keys: &["ok"],
        },
        Shape {
            name: "an empty probe side",
            probe: lines().filter(col("l_orderkey").lt(lit(0))),
            build: orders(2_000),
            probe_keys: &["l_orderkey"],
            build_keys: &["ok"],
        },
        Shape {
            name: "a side of three orders, none on most nodes",
            probe: lines(),
            build: orders(5),
            probe_keys: &["l_orderkey"],
            build_keys: &["ok"],
        },
    ]
}

/// `query` with the filter of its topmost join set to `filter`.
fn with_filter(query: &Query, filter: Option<JoinSide>) -> Query {
    fn set(plan: &mut Plan, side: Option<JoinSide>) -> bool {
        if let Plan::HashJoin { filter, .. } = plan {
            *filter = side;
            return true;
        }
        match plan {
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Exchange { input, .. } => set(input, side),
            _ => false,
        }
    }
    let mut query = query.clone();
    let last = query.stages.last_mut().expect("a stage");
    assert!(
        set(&mut last.plan, filter),
        "no join in {}",
        last.plan.explain()
    );
    query
}

/// The topmost join of `query`.
fn top_join(query: &Query) -> &Plan {
    fn find(plan: &Plan) -> Option<&Plan> {
        match plan {
            Plan::HashJoin { .. } => Some(plan),
            _ => plan.children().into_iter().find_map(find),
        }
    }
    find(&query.stages.last().expect("a stage").plan).expect("a join")
}

fn dropped(cluster: &Coordinator) -> u64 {
    let metrics = cluster.metrics();
    metrics.counter("exec.bloom_rows_dropped").unwrap()
}

/// One join of a shape: its name, kind, plan and the oracle's answer.
struct Case {
    name: String,
    kind: JoinKind,
    planned: Query,
    answer: Answer,
}

/// Every shape joined four ways, planned and answered once per binary.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let planner = Planner::for_tpch(2, SF, |_| None);
        let oracle = Oracle::new(db());
        let mut cases = Vec::new();
        for shape in shapes() {
            for kind in KINDS {
                let logical = shape.join(kind);
                cases.push(Case {
                    name: format!("{} ({kind:?}", shape.name),
                    kind,
                    planned: planner.plan_query(&logical).unwrap(),
                    answer: oracle.answer(&logical),
                });
            }
        }
        cases
    })
}

/// Every case on `cluster`, with no filter and with a filter on each side
/// its kind allows and a repartition ships, against the oracle; and with a
/// filter on a side its kind keeps whole, refused before it runs. Returns
/// the rows the filters dropped.
fn cases_match_oracle_on(cluster: &Coordinator, what: &str) -> u64 {
    let before = dropped(cluster);
    for Case {
        name,
        kind,
        planned,
        answer,
    } in cases()
    {
        for side in [None, Some(JoinSide::Probe), Some(JoinSide::Build)] {
            let case = format!("{name}, filter {side:?}, {what})");
            let query = with_filter(planned, side);
            let shipped = side.is_none_or(|s| top_join(&query).filter_site(s).is_some());
            match side {
                Some(s) if !allowed(*kind, s) => match cluster.run(&query) {
                    Err(EngineError::Planner(why)) => {
                        assert!(why.contains("cannot filter"), "{case}: {why}")
                    }
                    other => panic!("{case} ran: {:?}", other.map(|r| r.table.rows())),
                },
                _ if !shipped => {}
                _ => {
                    let got = cluster
                        .run(&query)
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    support::assert_matches(&got.table, answer, &case);
                }
            }
        }
    }
    dropped(cluster) - before
}

#[test]
fn filtered_joins_match_the_oracle_on_every_cluster_shape() {
    for nodes in [1, 2, 4] {
        for workers in [1, 3] {
            for engine in [EngineKind::Hybrid, EngineKind::Classic] {
                let cluster = Cluster::start(ClusterConfig {
                    workers_per_node: workers,
                    engine,
                    ..ClusterConfig::quick(nodes)
                })
                .unwrap();
                cluster.load_tpch_db(db().clone()).unwrap();
                let what = format!("{nodes} nodes × {workers} workers, {engine:?}");
                let dropped = cases_match_oracle_on(&cluster, &what);
                assert!(dropped > 0, "no filter dropped a row ({what})");
                cluster.shutdown();
            }
        }
    }
    let remote =
        ProcessCluster::connect(&support::loopback_nodes(2), ProcessClusterConfig::default())
            .unwrap();
    remote.load_tpch(SF).unwrap();
    let dropped = cases_match_oracle_on(&remote, "2 nodes over loopback sockets");
    assert!(dropped > 0, "no filter dropped a row over sockets");
    remote.shutdown();
}

/// The 22 TPC-H queries at SF 0.01 on two nodes, planned as the cluster
/// plans them and with every join filter cleared: both return the
/// oracle's answers.
#[test]
fn tpch_answers_do_not_depend_on_join_filters() {
    fn clear(plan: &mut Plan) -> usize {
        let own = match plan {
            Plan::HashJoin { filter, .. } => usize::from(filter.take().is_some()),
            _ => 0,
        };
        own + match plan {
            Plan::Scan { .. } | Plan::TempScan { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Exchange { input, .. } => clear(input),
            Plan::HashJoin { probe, build, .. } => clear(probe) + clear(build),
        }
    }
    const TPCH_SF: f64 = 0.01;
    let db = TpchDb::generate(TPCH_SF);
    let oracle = Oracle::new(&db);
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(db).unwrap();
    let planner = Planner::for_cluster(&cluster);
    let mut filtered = 0;
    for n in ALL_QUERIES {
        let logical = tpch_logical(n).unwrap();
        let answer: Answer = oracle.answer(&logical);
        let planned = planner.plan_query(&logical).unwrap();
        let mut cleared = planned.clone();
        let filters: usize = cleared.stages.iter_mut().map(|s| clear(&mut s.plan)).sum();
        filtered += filters;
        for (query, how) in [(&planned, "as planned"), (&cleared, "with no filter")] {
            let got = cluster
                .run(query)
                .unwrap_or_else(|e| panic!("Q{n} {how}: {e}"));
            support::assert_matches(&got.table, &answer, &format!("Q{n} {how}"));
        }
    }
    assert!(filtered >= 5, "only {filtered} joins are filtered");
    cluster.shutdown();
}

/// Q3 and Q21 at SF 0.01 on two nodes of one worker, on the simulated
/// cluster and on two node servers over loopback sockets: the rows the
/// filters dropped, the bytes the summary rounds sent, and each query's
/// bytes and messages are exact, and the same on both.
#[test]
fn both_clusters_count_join_filters_exactly() {
    const TPCH_SF: f64 = 0.01;
    const MESSAGE: usize = 32 * 1024;
    type Counts = (u64, u64, Vec<(u64, u64)>);
    let counts = |cluster: &Coordinator, queries: &[Query]| -> Counts {
        let traffic: Vec<(u64, u64)> = queries
            .iter()
            .map(|q| {
                let result: QueryResult = cluster.run(q).unwrap();
                (result.bytes_shuffled, result.messages_sent)
            })
            .collect();
        let metrics = cluster.metrics();
        let counter = |name| metrics.counter(name).unwrap_or_else(|| panic!("no {name}"));
        (
            counter("exec.bloom_rows_dropped"),
            counter("exchange.bloom_bytes"),
            traffic,
        )
    };

    let local = Cluster::start(ClusterConfig {
        workers_per_node: 1,
        message_capacity: MESSAGE,
        ..ClusterConfig::quick(2)
    })
    .unwrap();
    local.load_tpch(TPCH_SF).unwrap();
    let planner = Planner::for_cluster(&local);
    let queries: Vec<Query> = [3, 21]
        .iter()
        .map(|&n| planner.plan_query(&tpch_logical(n).unwrap()).unwrap())
        .collect();
    let in_process = counts(&local, &queries);
    local.shutdown();

    let remote = ProcessCluster::connect(
        &support::loopback_nodes(2),
        ProcessClusterConfig {
            engine: RemoteEngineConfig {
                workers_per_node: 1,
                message_capacity: MESSAGE,
            },
            ..ProcessClusterConfig::default()
        },
    )
    .unwrap();
    remote.load_tpch(TPCH_SF).unwrap();
    let over_sockets = counts(&remote, &queries);
    remote.shutdown();

    assert_eq!(
        in_process,
        (124_771, 41_112, vec![(41_834, 18), (128_625, 41)]),
        "rows dropped, summary bytes, (bytes, messages) of Q3 and Q21"
    );
    assert_eq!(over_sockets, in_process, "over sockets");
}
