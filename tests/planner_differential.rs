//! Differential tests for the distributed planner: all 22 TPC-H queries on
//! the logical query builder must return the reference evaluator's answers
//! (`tests/support/oracle.rs`, which shares no code with the engine) on 2-
//! and 4-node clusters, run through `Session::run` — plus property tests
//! that random filter/aggregate logical plans and random
//! multi-stage `LogicalQuery`s (random parameter arity, CTE reuse) lower
//! through the planner without panicking.

mod support;

use std::sync::OnceLock;

use proptest::prelude::*;

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::expr::{col, lit, litf, param, Expr};
use hsqp::engine::logical::{LogicalPlan, LogicalQuery};
use hsqp::engine::plan::{AggFunc, AggSpec, JoinSide, Plan, SortKey};
use hsqp::engine::planner::{Planner, PlannerConfig, TableStats};
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::session::Session;
use hsqp::engine::Coordinator;
use hsqp::storage::{date_from_ymd, Table};
use hsqp::tpch::{TpchDb, TpchTable};

use support::oracle::{Answer, Oracle};

const SF: f64 = 0.01;

fn db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchDb::generate(SF))
}

/// The oracle's answers to all 22 queries, computed once per test binary.
/// At SF 0.01 every query except Q9 returns rows, so an empty answer
/// elsewhere is a bug in the data or the oracle, and agreeing with it would
/// prove nothing.
fn answers() -> &'static [Answer] {
    static ANSWERS: OnceLock<Vec<Answer>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let oracle = Oracle::new(db());
        let answers: Vec<Answer> = ALL_QUERIES
            .iter()
            .map(|&n| oracle.answer(&tpch_logical(n).unwrap()))
            .collect();
        for (n, answer) in ALL_QUERIES.iter().zip(&answers) {
            assert!(
                *n == 9 || !answer.rel.rows.is_empty(),
                "Q{n}'s answer is empty at SF {SF}"
            );
        }
        answers
    })
}

fn assert_answers(n: u32, got: &Table, what: &str) {
    support::assert_matches(got, &answers()[n as usize - 1], &format!("Q{n} ({what})"));
}

/// The session path a caller takes: `Session::run` plans each query with
/// `Planner::for_cluster` on a `ClusterConfig::quick` cluster and runs it.
fn builder_matches_oracle_on(nodes: u16) {
    let session = Session::builder().nodes(nodes).build().unwrap();
    session.load_tpch_db(db().clone()).unwrap();
    for n in ALL_QUERIES {
        let built = session
            .run(tpch_logical(n).unwrap())
            .unwrap_or_else(|e| panic!("builder Q{n} failed: {e}"))
            .table;
        assert_answers(n, &built, &format!("{nodes} nodes"));
    }
    session.shutdown();
}

#[test]
fn builder_matches_oracle_on_2_nodes() {
    builder_matches_oracle_on(2);
}

#[test]
fn builder_matches_oracle_on_4_nodes() {
    builder_matches_oracle_on(4);
}

/// Regression: a fixed-point Decimal key equi-joined against a Float64 key
/// (e.g. an aggregate output) must match by value, in the hash join *and*
/// in the partition hashing a forced repartition exercises. Before join
/// keys were canonicalized by logical type this silently returned zero
/// rows (i64 cents vs f64 bits), which is why Q2 needed an explicit
/// `MapExpr::typed` cast.
#[test]
fn decimal_joins_float64_keys_across_repartition() {
    use hsqp::engine::logical::JoinStrategy;
    use hsqp::engine::plan::JoinKind;
    let cluster = Cluster::start(ClusterConfig::quick(3)).unwrap();
    cluster.load_tpch_db(TpchDb::generate(0.002)).unwrap();
    let planner = Planner::for_cluster(&cluster);

    // MIN(ps_supplycost) per part is a Float64 column; ps_supplycost is a
    // Decimal. Joining partsupp back on (partkey, cost) keeps exactly the
    // rows achieving their part's minimum — at least one per part.
    let min_cost = LogicalPlan::scan(TpchTable::Partsupp)
        .aggregate(
            &["ps_partkey"],
            vec![AggSpec::new(AggFunc::Min, col("ps_supplycost"), "min_cost")],
        )
        .select(vec![
            hsqp::engine::plan::MapExpr::new("mc_partkey", col("ps_partkey")),
            hsqp::engine::plan::MapExpr::new("mc_cost", col("min_cost")),
        ]);
    // Force hash-repartitioning both sides on the mixed-type key pair so
    // the partition hash (not just the join hash) must agree.
    let winners = LogicalPlan::scan(TpchTable::Partsupp).join_with(
        min_cost,
        &["ps_partkey", "ps_supplycost"],
        &["mc_partkey", "mc_cost"],
        JoinKind::LeftSemi,
        JoinStrategy::Repartition,
    );
    let parts = cluster
        .run(
            &planner
                .plan_query(&LogicalQuery::stage(
                    LogicalPlan::scan(TpchTable::Partsupp).aggregate(
                        &[],
                        vec![AggSpec::new(
                            AggFunc::CountDistinct,
                            col("ps_partkey"),
                            "parts",
                        )],
                    ),
                ))
                .unwrap(),
        )
        .unwrap()
        .table
        .value(0, 0)
        .as_i64();
    let matched = cluster
        .run(&planner.plan_query(&LogicalQuery::stage(winners)).unwrap())
        .unwrap();
    assert!(
        matched.row_count() as i64 >= parts,
        "every part has at least one minimum-cost supplier ({} matched, {parts} parts)",
        matched.row_count()
    );
    cluster.shutdown();
}

// --- joins over an aggregate build side ----------------------------------

/// Joins whose build side is an aggregate keyed by the join key: a tiny
/// probe — the first orders' keys times 300, so that half of them are an
/// order's and half are not — joined four ways to lineitem grouped by
/// order. Last, a Decimal probe key (`l_quantity`) joined by value to an
/// Int64 group (`p_size`): a filter over either side's keys must hold the
/// other side's by value, not by their raw cents.
fn aggregate_build_cases() -> Vec<(String, LogicalQuery)> {
    use hsqp::engine::logical::JoinStrategy;
    use hsqp::engine::plan::{JoinKind, MapExpr};
    let probe = LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_orderkey").lt(lit(100)))
        .select(vec![
            MapExpr::new("k", col("o_orderkey").mul(lit(300))),
            MapExpr::new("o_orderstatus", col("o_orderstatus")),
        ]);
    let per_order = LogicalPlan::scan(TpchTable::Lineitem).aggregate(
        &["l_orderkey"],
        vec![
            AggSpec::new(AggFunc::Count, lit(1), "lines"),
            AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty"),
            AggSpec::new(AggFunc::CountDistinct, col("l_suppkey"), "suppliers"),
            AggSpec::new(AggFunc::Max, col("l_shipmode"), "last_mode"),
        ],
    );
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::LeftSemi,
        JoinKind::LeftAnti,
    ];
    let mut cases: Vec<(String, LogicalQuery)> = kinds
        .iter()
        .map(|&kind| {
            let join = probe
                .clone()
                .join(per_order.clone(), &["k"], &["l_orderkey"], kind);
            (format!("{kind:?} join to lines per order"), (&join).into())
        })
        .collect();
    // COUNT(DISTINCT) has no partial phase, so every part row is shipped
    // to the aggregate.
    let quantities = LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_orderkey").lt(lit(20)))
        .project(&["l_orderkey", "l_linenumber", "l_quantity"]);
    let sizes = LogicalPlan::scan(TpchTable::Part).aggregate(
        &["p_size"],
        vec![AggSpec::new(
            AggFunc::CountDistinct,
            col("p_brand"),
            "brands",
        )],
    );
    let join = quantities.join_with(
        sizes,
        &["l_quantity"],
        &["p_size"],
        JoinKind::Inner,
        JoinStrategy::Repartition,
    );
    cases.push(("Decimal key joined to Int64 groups".into(), (&join).into()));
    cases
}

/// Set the filter of every join in `plan` to `side`; `false` if a join's
/// [`Plan::filter_site`] finds no such side.
fn set_join_filters(plan: &mut Plan, side: Option<JoinSide>) -> bool {
    let own = match plan {
        Plan::HashJoin { .. } if side.is_some_and(|s| plan.filter_site(s).is_none()) => false,
        Plan::HashJoin { filter, .. } => {
            *filter = side;
            true
        }
        _ => true,
    };
    own && match plan {
        Plan::Scan { .. } | Plan::TempScan { .. } => true,
        Plan::Filter { input, .. }
        | Plan::Map { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Exchange { input, .. } => set_join_filters(input, side),
        Plan::HashJoin { probe, build, .. } => {
            set_join_filters(probe, side) && set_join_filters(build, side)
        }
    }
}

/// Every case of [`aggregate_build_cases`] on `cluster`, of `nodes` nodes,
/// against the oracle: with its join's filter cleared, and then set to
/// each side `Plan::filter_site` allows, of which there is at least one.
fn aggregate_builds_match_oracle_on(cluster: &Coordinator, nodes: u16, what: &str) {
    // No column statistics: these hand-made cases are not TPC-H queries
    // anyone plans with `Planner::for_tpch`.
    let planner = Planner::new(PlannerConfig {
        stats: TableStats::for_scale_factor(SF),
        ..PlannerConfig::new(nodes)
    });
    let oracle = Oracle::new(db());
    for (name, query) in &aggregate_build_cases() {
        let answer = oracle.answer(query);
        assert!(!answer.rel.rows.is_empty(), "{name} has an empty answer");
        let planned = planner.plan_query(query).unwrap();
        let mut filtered = 0;
        for side in [None, Some(JoinSide::Probe), Some(JoinSide::Build)] {
            let mut query = planned.clone();
            if !query
                .stages
                .iter_mut()
                .all(|s| set_join_filters(&mut s.plan, side))
            {
                continue;
            }
            filtered += usize::from(side.is_some());
            let case = format!("{name}, filter {side:?} ({what})");
            let got = cluster
                .run(&query)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            support::assert_matches(&got.table, &answer, &case);
        }
        assert!(filtered > 0, "{name} has no side to filter ({what})");
    }
}

#[test]
fn joins_over_an_aggregate_build_match_oracle() {
    for nodes in [2, 4] {
        for workers in [1, 3] {
            let cluster = Cluster::start(ClusterConfig {
                workers_per_node: workers,
                ..ClusterConfig::quick(nodes)
            })
            .unwrap();
            cluster.load_tpch_db(db().clone()).unwrap();
            let what = format!("{nodes} nodes, {workers} workers");
            aggregate_builds_match_oracle_on(&cluster, nodes, &what);
            cluster.shutdown();
        }
    }
    let remote =
        ProcessCluster::connect(&support::loopback_nodes(2), ProcessClusterConfig::default())
            .unwrap();
    remote.load_tpch(SF).unwrap();
    aggregate_builds_match_oracle_on(&remote, 2, "2 nodes over loopback sockets");
    remote.shutdown();
}

// --- property test: random logical plans lower without panicking ---------

const NUM_COLS: [&str; 5] = [
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_orderkey",
    "l_suppkey",
];
const GROUP_COLS: [&str; 3] = ["l_returnflag", "l_linestatus", "l_shipmode"];

/// A random comparison over one numeric lineitem column.
fn arb_leaf() -> impl Strategy<Value = Expr> {
    (0usize..NUM_COLS.len(), 0usize..6, -50i64..50_000).prop_map(|(c, op, v)| {
        let lhs = col(NUM_COLS[c]);
        let rhs = if c <= 2 {
            litf(v as f64 / 100.0)
        } else {
            lit(v)
        };
        match op {
            0 => lhs.eq(rhs),
            1 => lhs.ne(rhs),
            2 => lhs.lt(rhs),
            3 => lhs.le(rhs),
            4 => lhs.gt(rhs),
            _ => lhs.ge(rhs),
        }
    })
}

/// 1–3 leaves combined with AND/OR/NOT.
fn arb_predicate() -> impl Strategy<Value = Expr> {
    (
        proptest::collection::vec(arb_leaf(), 1..4),
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(leaves, combine, negate)| {
            let mut it = leaves.into_iter();
            let mut e = it.next().expect("at least one leaf");
            for next in it {
                e = match combine {
                    0 => e.and(next),
                    1 => e.or(next),
                    _ => e.and(next.not()),
                };
            }
            if negate {
                e = e.not();
            }
            e
        })
}

/// A random aggregate spec (index-named so outputs never collide).
fn arb_agg(idx: usize) -> impl Strategy<Value = AggSpec> {
    (0usize..6, 0usize..NUM_COLS.len()).prop_map(move |(f, c)| {
        let name = format!("agg{idx}");
        match f {
            0 => AggSpec::new(AggFunc::Sum, col(NUM_COLS[c]), &name),
            1 => AggSpec::new(AggFunc::Min, col(NUM_COLS[c]), &name),
            2 => AggSpec::new(AggFunc::Max, col(NUM_COLS[c]), &name),
            3 => AggSpec::new(AggFunc::Avg, col(NUM_COLS[c]), &name),
            4 => AggSpec::new(AggFunc::CountDistinct, col(NUM_COLS[c]), &name),
            _ => AggSpec::new(AggFunc::Count, lit(1), &name),
        }
    })
}

/// scan(lineitem) → optional filter → aggregate → optional sort/limit.
fn arb_logical() -> impl Strategy<Value = LogicalPlan> {
    (
        proptest::option::of(arb_predicate()),
        0usize..GROUP_COLS.len() + 1,
        (arb_agg(0), proptest::option::of(arb_agg(1))),
        any::<bool>(),
        proptest::option::of(1usize..100),
    )
        .prop_map(|(pred, groups, (agg0, agg1), sorted, limit)| {
            let mut lp = LogicalPlan::scan(TpchTable::Lineitem);
            if let Some(p) = pred {
                lp = lp.filter(p);
            }
            let group_by: Vec<&str> = GROUP_COLS[..groups].to_vec();
            let mut aggs = vec![agg0];
            aggs.extend(agg1);
            lp = lp.aggregate(&group_by, aggs);
            if sorted && groups > 0 {
                lp = lp.sort(vec![SortKey::asc(GROUP_COLS[0])]);
            }
            if let Some(n) = limit {
                lp = lp.limit(n);
            }
            lp
        })
}

proptest! {
    #[test]
    fn random_logical_plans_lower_without_panicking(
        lp in arb_logical(),
        nodes in 1u16..6,
    ) {
        // The planner must lower every valid plan: cost-based pruning may
        // pick different exchanges, never reject or panic.
        let plan = Planner::for_tpch(nodes, 0.01, |_| None).plan(&lp);
        prop_assert!(plan.is_ok(), "valid logical plan rejected: {:?}", plan.err());
        // The lowered plan must end complete on the coordinator: its root
        // is a gather, a sort above one, or a coordinator-only aggregate.
        prop_assert!(plan.unwrap().exchange_count() >= 1);
    }
}

// --- property test: random multi-stage LogicalQuerys lower cleanly -------

proptest! {
    #[test]
    fn random_multi_stage_queries_lower_without_panicking(
        n_params in 1usize..4,
        param_ref in 0usize..3,
        cte_uses in 0usize..3,
        nodes in 1u16..6,
    ) {
        let param_ref = param_ref.min(n_params - 1);
        // Scalar stage: n_params global aggregates over lineitem.
        let aggs: Vec<AggSpec> = (0..n_params)
            .map(|i| AggSpec::new(AggFunc::Min, col(NUM_COLS[i % NUM_COLS.len()]), &format!("p{i}")))
            .collect();
        let scalar = LogicalPlan::scan(TpchTable::Lineitem).aggregate(&[], aggs);
        // Final stage: filter against a random bound parameter, plus
        // `cte_uses` semi joins against the shared supplier CTE.
        let mut fin = LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_quantity").ge(param(param_ref)));
        for _ in 0..cte_uses {
            fin = fin.join(
                LogicalPlan::from_cte("suppliers"),
                &["l_suppkey"],
                &["s_suppkey"],
                hsqp::engine::plan::JoinKind::LeftSemi,
            );
        }
        let fin = fin.aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let query = LogicalQuery::cte(
            "suppliers",
            LogicalPlan::scan(TpchTable::Supplier).project(&["s_suppkey"]),
        )
        .then(scalar)
        .then(fin);

        let planner = Planner::new(PlannerConfig::new(nodes));
        let physical = planner.plan_query(&query);
        prop_assert!(physical.is_ok(), "valid multi-stage query rejected: {:?}", physical.err());
        let physical = physical.unwrap();
        // One materialize stage, one parameter stage, one result stage.
        prop_assert_eq!(physical.stages.len(), 3);
    }
}

/// Invalid multi-stage queries are rejected with planner errors, never
/// panics: unbound parameters, unknown CTEs, CTEs referencing parameters,
/// duplicate CTE names, and stage-less queries.
#[test]
fn invalid_multi_stage_queries_are_rejected() {
    use hsqp::engine::error::EngineError;
    let planner = Planner::new(PlannerConfig::new(2));
    let count =
        |p: LogicalPlan| p.aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);

    // Parameter 0 is never bound (single-stage query).
    let unbound = LogicalQuery::stage(count(
        LogicalPlan::scan(TpchTable::Lineitem).filter(col("l_quantity").ge(param(0))),
    ));
    assert!(matches!(
        planner.plan_query(&unbound),
        Err(EngineError::Planner(_))
    ));

    // Unknown CTE name.
    let unknown = LogicalQuery::stage(count(LogicalPlan::from_cte("nope")));
    assert!(matches!(
        planner.plan_query(&unknown),
        Err(EngineError::Planner(_))
    ));

    // A CTE may reference stage parameters only when an earlier stage
    // binds them; here the sole (result) stage would have to, so the
    // materialization could never run.
    let cte_param = LogicalQuery::cte(
        "v",
        LogicalPlan::scan(TpchTable::Lineitem).filter(col("l_quantity").ge(param(0))),
    )
    .then(count(LogicalPlan::from_cte("v")));
    assert!(matches!(
        planner.plan_query(&cte_param),
        Err(EngineError::Planner(_))
    ));

    // Duplicate CTE names.
    let dup = LogicalQuery::cte("v", LogicalPlan::scan(TpchTable::Nation))
        .with("v", LogicalPlan::scan(TpchTable::Region))
        .then(count(LogicalPlan::from_cte("v")));
    assert!(matches!(
        planner.plan_query(&dup),
        Err(EngineError::Planner(_))
    ));

    // A query with CTEs but no stages has no result.
    let no_stage = LogicalQuery::cte("v", LogicalPlan::scan(TpchTable::Nation));
    assert!(matches!(
        planner.plan_query(&no_stage),
        Err(EngineError::Planner(_))
    ));
}

/// A hand-built physical plan reading a temp relation no stage
/// materialized, or referencing a parameter no earlier stage bound, must
/// be rejected by the cluster up front — not panic in a node thread
/// mid-execution.
#[test]
fn dangling_temp_scan_and_unbound_param_are_errors_not_panics() {
    use hsqp::engine::error::EngineError;
    use hsqp::engine::plan::Plan;
    let cluster = Cluster::start(ClusterConfig::quick(1)).unwrap();
    cluster.load_tpch_db(TpchDb::generate(0.001)).unwrap();
    let r = cluster.run_plan(&Plan::temp_scan("nope").gather());
    assert!(matches!(r, Err(EngineError::Planner(_))), "got {r:?}");
    let unbound = Plan::scan(TpchTable::Lineitem)
        .filter(col("l_quantity").gt(param(0)))
        .gather();
    let r = cluster.run_plan(&unbound);
    assert!(matches!(r, Err(EngineError::Planner(_))), "got {r:?}");
    cluster.shutdown();
}

/// A hand-rolled multi-stage query executed for real: the scalar stage
/// binds the average quantity, the CTE is scanned twice, and the result
/// must match the equivalent single-stage computation.
#[test]
fn multi_stage_query_executes_end_to_end() {
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(TpchDb::generate(0.002)).unwrap();
    let planner = Planner::for_cluster(&cluster);

    // Average lineitem quantity, computed inline as the oracle.
    let avg = {
        let plan = LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &[],
            vec![AggSpec::new(AggFunc::Avg, col("l_quantity"), "avg_qty")],
        );
        let r = cluster
            .run(&planner.plan_query(&(&plan).into()).unwrap())
            .unwrap();
        r.table.value(0, 0).as_f64()
    };
    let oracle = {
        let plan = LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_quantity").lt(litf(avg)))
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let r = cluster
            .run(&planner.plan_query(&(&plan).into()).unwrap())
            .unwrap();
        r.table.value(0, 0).as_i64()
    };

    // The same computation as a two-stage query with a shared CTE scanned
    // by both stages.
    let staged = LogicalQuery::cte(
        "items",
        LogicalPlan::scan(TpchTable::Lineitem).project(&["l_quantity"]),
    )
    .then(LogicalPlan::from_cte("items").aggregate(
        &[],
        vec![AggSpec::new(AggFunc::Avg, col("l_quantity"), "avg_qty")],
    ))
    .then(
        LogicalPlan::from_cte("items")
            .filter(col("l_quantity").lt(param(0)))
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]),
    );
    let physical = planner.plan_query(&staged).unwrap();
    assert_eq!(physical.stages.len(), 3);
    let r = cluster.run(&physical).unwrap();
    assert_eq!(r.table.value(0, 0).as_i64(), oracle);
    cluster.shutdown();
}

/// A CTE whose subplan consumes an earlier stage's scalar parameter: its
/// materialization is deferred past the binding stage, and the staged
/// result must match the equivalent inline computation.
#[test]
fn param_dependent_cte_executes_end_to_end() {
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(TpchDb::generate(0.002)).unwrap();
    let planner = Planner::for_cluster(&cluster);

    // Oracle: max supplier key, then lineitem rows for suppliers under
    // half of it, computed inline.
    let max_supp = {
        let plan = LogicalPlan::scan(TpchTable::Supplier)
            .aggregate(&[], vec![AggSpec::new(AggFunc::Max, col("s_suppkey"), "m")]);
        let r = cluster
            .run(&planner.plan_query(&(&plan).into()).unwrap())
            .unwrap();
        r.table.value(0, 0).as_i64()
    };
    let oracle = {
        let plan = LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_suppkey").mul(lit(2)).le(lit(max_supp)))
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let r = cluster
            .run(&planner.plan_query(&(&plan).into()).unwrap())
            .unwrap();
        r.table.value(0, 0).as_i64()
    };

    // Staged: stage 1 binds param(0) = max(s_suppkey); the CTE filters
    // lineitem against it, so it can only materialize after that stage.
    let staged = LogicalQuery::stage(LogicalPlan::scan(TpchTable::Supplier).aggregate(
        &[],
        vec![AggSpec::new(AggFunc::Max, col("s_suppkey"), "max_supp")],
    ))
    .with(
        "cheap_lines",
        LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_suppkey").mul(lit(2)).le(param(0)))
            .project(&["l_suppkey"]),
    )
    .then(
        LogicalPlan::from_cte("cheap_lines")
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]),
    );
    let physical = planner.plan_query(&staged).unwrap();
    assert_eq!(physical.stages.len(), 3);
    assert_eq!(
        physical.stages[0].role.label(),
        "params",
        "the binding stage must precede the dependent materialization"
    );
    let r = cluster.run(&physical).unwrap();
    assert_eq!(r.table.value(0, 0).as_i64(), oracle);
    cluster.shutdown();
}

/// A parameter stage whose output column is Decimal (fixed-point i64 in
/// storage) must bind as the promoted float — the representation every
/// downstream expression reads — not as raw cents.
#[test]
fn decimal_param_stage_binds_promoted_floats() {
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(TpchDb::generate(0.002)).unwrap();
    let planner = Planner::for_cluster(&cluster);

    // Stage 1: the single largest l_extendedprice, passed through as a raw
    // Decimal column (no aggregate, so no float promotion on the way out).
    // Stage 2: count rows at or above it — exactly the maximal row(s).
    // Were the parameter bound as cents, the count would be zero.
    let staged = LogicalQuery::stage(
        LogicalPlan::scan(TpchTable::Lineitem)
            .project(&["l_extendedprice"])
            .top_k(vec![SortKey::desc("l_extendedprice")], 1),
    )
    .then(
        LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_extendedprice").ge(param(0)))
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]),
    );
    let physical = planner.plan_query(&staged).unwrap();
    let r = cluster.run(&physical).unwrap();
    let cnt = r.table.value(0, 0).as_i64();
    assert!(
        (1..100).contains(&cnt),
        "expected only the maximal row(s) to pass the bound, got {cnt}"
    );
    cluster.shutdown();
}

/// A couple of the random shapes, executed for real on a small cluster —
/// the planner's output must not just build, it must run and return the
/// oracle's answer.
#[test]
fn random_shapes_execute_end_to_end() {
    use hsqp::engine::plan::MapExpr;

    let db = TpchDb::generate(0.002);
    let oracle = Oracle::new(&db);
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(db).unwrap();
    let planner = Planner::for_cluster(&cluster);

    let twice = vec![
        MapExpr::new("key", col("n_nationkey")),
        MapExpr::new("next", col("n_nationkey").add(lit(1))),
        MapExpr::new("n_name", col("n_name")),
        MapExpr::new("key_again", col("n_nationkey")),
    ];
    let shapes: Vec<LogicalPlan> = vec![
        // Global (ungrouped) count(distinct) — raw rows gathered to the
        // coordinator, no pre-aggregation.
        LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &[],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("l_suppkey"),
                "suppliers",
            )],
        ),
        // Grouped count(distinct) — forced raw reshuffle by group key.
        LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &["l_returnflag"],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("l_suppkey"),
                "suppliers",
            )],
        ),
        // Filter + grouped aggregate + top-k.
        LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_shipdate").ge(lit(date_from_ymd(1995, 1, 1))))
            .aggregate(
                &["l_shipmode"],
                vec![
                    AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty"),
                    AggSpec::new(AggFunc::Avg, col("l_discount"), "disc"),
                ],
            )
            .top_k(vec![SortKey::desc("qty")], 3),
        // Bare limit with no ordering.
        LogicalPlan::scan(TpchTable::Nation).limit(7),
        // A map that names one column twice beside a computed output, over
        // a scan and over a filter's output: the bare references are taken
        // whole from the input, the last of them moving it.
        LogicalPlan::scan(TpchTable::Nation).select(twice.clone()),
        LogicalPlan::scan(TpchTable::Nation)
            .filter(col("n_regionkey").lt(lit(3)))
            .select(twice),
    ];
    for (i, lp) in shapes.iter().enumerate() {
        let r = cluster
            .run_plan(&planner.plan(lp).unwrap())
            .unwrap_or_else(|e| panic!("shape {i} failed: {e}"));
        assert!(r.row_count() > 0, "shape {i} returned no rows");
        let answer = oracle.answer(&lp.into());
        support::assert_matches(&r.table, &answer, &format!("shape {i}"));
    }
    cluster.shutdown();
}

/// Map outputs only a parameter types — a float one and an integer one —
/// filtered and aggregated in the stage that binds them: the nodes type them
/// from the stage's parameters, and the answer is the oracle's.
#[test]
fn param_typed_outputs_execute_end_to_end() {
    use hsqp::engine::plan::MapExpr;

    let db = TpchDb::generate(0.002);
    let oracle = Oracle::new(&db);
    let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
    cluster.load_tpch_db(db).unwrap();
    let planner = Planner::for_cluster(&cluster);

    let staged = LogicalQuery::stage(LogicalPlan::scan(TpchTable::Customer).aggregate(
        &[],
        vec![
            AggSpec::new(AggFunc::Avg, col("c_acctbal"), "avg_bal"),
            AggSpec::new(AggFunc::Max, col("c_nationkey"), "max_nation"),
        ],
    ))
    .then(
        LogicalPlan::scan(TpchTable::Customer)
            .select(vec![
                MapExpr::new("c_mktsegment", col("c_mktsegment")),
                MapExpr::new("above", col("c_acctbal").sub(param(0))),
                MapExpr::new("shifted", col("c_nationkey").sub(param(1))),
            ])
            .filter(col("above").gt(litf(-2000.0)))
            .aggregate(
                &["c_mktsegment"],
                vec![
                    AggSpec::new(AggFunc::Sum, col("above"), "sum_above"),
                    AggSpec::new(AggFunc::Max, col("above"), "max_above"),
                    AggSpec::new(AggFunc::Min, col("shifted"), "min_shifted"),
                    AggSpec::new(AggFunc::Count, lit(1), "n"),
                ],
            )
            .sort(vec![SortKey::asc("c_mktsegment")]),
    );
    let r = cluster
        .run(&planner.plan_query(&staged).unwrap())
        .unwrap_or_else(|e| panic!("the parameter-typed stage failed: {e}"));
    assert!(r.row_count() > 0);
    support::assert_matches(&r.table, &oracle.answer(&staged), "parameter-typed outputs");
    cluster.shutdown();
}

/// Regression: Int64 join keys must equi-join Float64 keys *by value*
/// after a cross-node repartition. Both exchange bucketing and the join
/// hash tables canonicalize exactly-representable integers into the f64
/// key domain — if either side skipped the canonicalization, the two
/// sides of a matching pair would land on different nodes (or in
/// different hash buckets) and the join would silently drop rows.
#[test]
fn int64_and_float64_keys_co_partition_across_nodes() {
    use hsqp::engine::plan::{JoinKind, Plan};
    use hsqp::engine::queries::Query;
    use hsqp::storage::{Column, DataType, Field, Schema};

    let nodes: u16 = 3;
    let cluster = Cluster::start(ClusterConfig::quick(nodes)).unwrap();

    // Int64 side: keys 0..150, dealt round-robin across the nodes.
    let int_schema = Schema::new(vec![Field::new("ik", DataType::Int64)]);
    let int_parts: Vec<Table> = (0..nodes as i64)
        .map(|p| {
            let keys: Vec<i64> = (0..150).filter(|k| k % nodes as i64 == p).collect();
            Table::new(int_schema.clone(), vec![Column::I64(keys, None)])
        })
        .collect();

    // Float64 side: every third key as f64 — with key 0 written as -0.0 to
    // exercise zero canonicalization — dealt with a deliberate offset so
    // matching pairs start on *different* nodes and must be repartitioned.
    let f_schema = Schema::new(vec![Field::new("fk", DataType::Float64)]);
    let f_parts: Vec<Table> = (0..nodes as i64)
        .map(|p| {
            let keys: Vec<f64> = (0..150)
                .filter(|k| k % 3 == 0 && (k / 3) % nodes as i64 == p)
                .map(|k| if k == 0 { -0.0 } else { k as f64 })
                .collect();
            Table::new(f_schema.clone(), vec![Column::F64(keys, None)])
        })
        .collect();

    cluster.load_table(TpchTable::Nation, int_parts).unwrap();
    cluster.load_table(TpchTable::Region, f_parts).unwrap();

    let plan = Plan::scan(TpchTable::Nation)
        .repartition(&["ik"])
        .join(
            Plan::scan(TpchTable::Region).repartition(&["fk"]),
            &["ik"],
            &["fk"],
            JoinKind::Inner,
        )
        .gather();
    let result = cluster.run(&Query::single(0, plan)).unwrap();
    // 50 float keys (0, 3, .., 147), each matching exactly one int key.
    assert_eq!(
        result.row_count(),
        50,
        "mixed Int64/Float64 join dropped or duplicated matches"
    );
    cluster.shutdown();
}
