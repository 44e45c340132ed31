//! The streamed exchange path: an aggregate directly above an exchange is
//! fed the decoded batches as they land and the exchange's result is never
//! a table.
//!
//! * Whatever the cluster shape, message size, exchange kind, aggregate and
//!   phase, every node must produce what the plain table aggregate produces
//!   over the rows the exchange, by its definition, delivers to that node.
//! * A query that is cancelled, or loses a peer, while its sink is in the
//!   middle of an exchange ends in the typed error it always ended in,
//!   leaves nothing behind — no hub state, no message buffer out of its
//!   pool — and the next query is answered correctly.

use proptest::prelude::*;

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind};
use hsqp::engine::error::EngineError;
use hsqp::engine::exec::{row_bucket, NodeExec};
use hsqp::engine::expr::{col, lit};
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::aggregate;
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, ExchangeKind, Plan};
use hsqp::engine::queries::Query;
use hsqp::engine::QueryId;
use hsqp::numa::Topology;
use hsqp::storage::placement::chunk_split;
use hsqp::storage::{Column, DataType, Field, Schema, Table, Value};
use hsqp::tpch::{TpchDb, TpchTable};

/// Columns `g1`, `g2` to group and partition by, `v`, `ns`, `s` to
/// aggregate, and — so that the same relation can be merged by a `Final`
/// phase — one column under the name of every aggregate's partial state.
/// Every float is a multiple of 1/16 of modest size: sums are exact in
/// whatever order workers add them up.
fn arb_relation() -> impl Strategy<Value = Table> {
    let sixteenths = || (-4000i64..4000).prop_map(|x| x as f64 / 16.0);
    let row = (
        (0i64..7, proptest::option::of("[aé語]{0,2}")),
        (
            proptest::option::of(sixteenths()),
            proptest::option::of(0i64..50),
            "[a-cü日]{0,6}",
        ),
        (proptest::option::of(sixteenths()), 0i64..9),
        (
            proptest::option::of("[a-cü日]{0,6}"),
            proptest::option::of(-500i64..500),
        ),
        (sixteenths(), 0i64..5, 0i64..4),
    );
    proptest::collection::vec(row, 0..6000).prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("g1", DataType::Int64),
            Field::nullable("g2", DataType::Utf8),
            Field::nullable("v", DataType::Float64),
            Field::nullable("ns", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::nullable("total", DataType::Float64),
            Field::new("cnt", DataType::Int64),
            Field::nullable("lo", DataType::Utf8),
            Field::nullable("hi", DataType::Int64),
            Field::new("mean__sum", DataType::Float64),
            Field::new("mean__cnt", DataType::Int64),
            Field::new("kinds", DataType::Int64),
        ]);
        let mut cols: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        for ((g1, g2), (v, ns, s), (total, cnt), (lo, hi), (sum, n, kinds)) in rows {
            let values = [
                Value::I64(g1),
                opt(g2.map(Value::Str)),
                opt(v.map(Value::F64)),
                opt(ns.map(Value::I64)),
                Value::Str(s),
                opt(total.map(Value::F64)),
                Value::I64(cnt),
                opt(lo.map(Value::Str)),
                opt(hi.map(Value::I64)),
                Value::F64(sum),
                Value::I64(n),
                Value::I64(kinds),
            ];
            for (column, value) in cols.iter_mut().zip(&values) {
                column.push_value(value);
            }
        }
        Table::new(schema, cols)
    })
}

/// One aggregate of every function, under the names [`arb_relation`] has
/// partial-state columns for.
fn all_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, col("v"), "total"),
        AggSpec::new(AggFunc::Count, col("ns"), "cnt"),
        AggSpec::new(AggFunc::Min, col("s"), "lo"),
        AggSpec::new(AggFunc::Max, col("ns"), "hi"),
        AggSpec::new(AggFunc::Avg, col("v"), "mean"),
        AggSpec::new(AggFunc::CountDistinct, col("g2"), "kinds"),
    ]
}

/// The rows of `t`, each rendered, in sorted order: tables as multisets.
fn sorted_rows(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..t.rows()).map(|r| format!("{:?}", t.row(r))).collect();
    rows.sort();
    rows
}

/// Run `plan` SPMD the way the cluster does and return every node's share
/// of the result.
fn run_on_every_node(c: &Cluster, plan: &Plan, query: u32) -> Vec<Table> {
    std::thread::scope(|scope| {
        let nodes: Vec<_> = (0..c.config().nodes)
            .map(|n| {
                scope.spawn(move || {
                    NodeExec::new(c.node_ctx(n), QueryId(query), &[], 0).execute(plan)
                })
            })
            .collect();
        nodes.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #[test]
    fn aggregate_over_an_exchange_equals_the_aggregate_over_what_it_delivers(
        relation in arb_relation(),
        shape in (1u16..4, 0usize..2, 0usize..3, 0usize..2),
        what in (0usize..3, 0usize..3, 0usize..4, 1u32..64, 0usize..3),
    ) {
        let (nodes, workers, capacity, engine) = shape;
        let workers = [1u16, 3][workers];
        // 1 KiB is the smallest message a cluster accepts.
        let capacity = [1024usize, 4096, 32 * 1024][capacity];
        let engine = [EngineKind::Hybrid, EngineKind::Classic][engine];
        let (kind, phase, grouping, agg_mask, keys) = what;
        let phase = [AggPhase::Single, AggPhase::Partial, AggPhase::Final][phase];
        let group_by: &[&str] = [&[][..], &["g1"], &["g2"], &["g2", "g1"]][grouping];
        let keys: &[&str] = [&["g1"][..], &["g2"], &["s", "g1"]][keys];
        let kind = match kind {
            0 => ExchangeKind::HashPartition(keys.iter().map(|k| k.to_string()).collect()),
            1 => ExchangeKind::Broadcast,
            _ => ExchangeKind::Gather,
        };
        // A non-empty subset of the six aggregates; count(distinct) has no
        // partial state.
        let aggs: Vec<AggSpec> = all_aggs()
            .into_iter()
            .enumerate()
            .filter(|(i, a)| {
                agg_mask >> i & 1 == 1
                    && !(phase == AggPhase::Partial && a.func == AggFunc::CountDistinct)
            })
            .map(|(_, a)| a)
            .collect();
        let aggs = if aggs.is_empty() {
            vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]
        } else {
            aggs
        };

        let c = Cluster::start(ClusterConfig {
            workers_per_node: workers,
            engine,
            message_capacity: capacity,
            ..ClusterConfig::quick(nodes)
        })
        .unwrap();
        c.load_table(TpchTable::Region, chunk_split(relation.clone(), nodes as usize)).unwrap();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Exchange {
                input: Box::new(Plan::scan(TpchTable::Region)),
                kind: kind.clone(),
            }),
            group_by: group_by.iter().map(|g| g.to_string()).collect(),
            aggs: aggs.clone(),
            phase,
        };
        let got = run_on_every_node(&c, &plan, 1);

        // What each node is delivered, by the definition of the exchange.
        let units = match engine {
            EngineKind::Classic => workers as usize,
            EngineKind::Hybrid => 1,
        };
        let delivered = |node: usize| -> Table {
            let rows: Vec<usize> = match &kind {
                ExchangeKind::Broadcast => (0..relation.rows()).collect(),
                ExchangeKind::Gather if node == 0 => (0..relation.rows()).collect(),
                ExchangeKind::Gather => Vec::new(),
                ExchangeKind::HashPartition(keys) => {
                    let key_cols: Vec<(&Column, bool)> = keys
                        .iter()
                        .map(|k| (relation.column_by_name(k), false))
                        .collect();
                    let buckets = nodes as usize * units;
                    (0..relation.rows())
                        .filter(|&row| row_bucket(&key_cols, row, buckets) / units == node)
                        .collect()
                }
            };
            relation.gather(&rows)
        };
        let driver = MorselDriver::new(1, &Topology::uniform(1), 512, true);
        let group_idx: Vec<usize> =
            group_by.iter().map(|g| relation.schema().index_of(g)).collect();
        for (node, got) in got.iter().enumerate() {
            let expect = aggregate(&delivered(node), &group_idx, &aggs, phase, &driver, &[]);
            prop_assert_eq!(got.schema(), expect.schema());
            prop_assert_eq!(
                sorted_rows(got),
                sorted_rows(&expect),
                "node {} of {} x {} {:?}, {} B messages: {:?} under {:?} by {:?}",
                node, nodes, workers, engine, capacity, kind, phase, group_by
            );
        }
        for node in 0..nodes {
            prop_assert_eq!(c.node_ctx(node).pool.outstanding(), 0);
        }
        c.shutdown();
    }
}

/// `scan(lineitem).repartition(l_orderkey)` under a global `count(*)`, the
/// rows it must count, and a cluster it takes a while on.
fn streaming_query() -> (Cluster, Query, i64) {
    let cluster = Cluster::start(ClusterConfig {
        max_concurrent: 1,
        message_capacity: 1024,
        ..ClusterConfig::quick(3)
    })
    .unwrap();
    let db = TpchDb::generate(0.02);
    let lineitems = db.table(TpchTable::Lineitem).rows() as i64;
    cluster.load_tpch_db(db).unwrap();
    let count = |name: &str, of| vec![AggSpec::new(AggFunc::Sum, of, name)];
    let plan = Plan::scan(TpchTable::Lineitem)
        .repartition(&["l_orderkey"])
        .aggregate(&[], count("cnt", lit(1)))
        .gather()
        .aggregate(&[], count("total", col("cnt")));
    (cluster, Query::single(0, plan), lineitems)
}

/// Submit `query`, wait until node 0 has an exchange of it open, call
/// `disturb` with its id, and return how it ended.
fn disturbed_mid_exchange(
    cluster: &Cluster,
    query: &Query,
    disturb: impl FnOnce(&hsqp::engine::cluster::QueryHandle),
) -> Result<hsqp::engine::cluster::QueryResult, EngineError> {
    let handle = cluster.submit(query).unwrap();
    while cluster.node_ctx(0).hub.active_exchanges() == 0 {
        assert!(
            handle.wait_timeout(std::time::Duration::ZERO).is_none(),
            "the query ended before any of its exchanges was seen open"
        );
        std::thread::yield_now();
    }
    disturb(&handle);
    handle.wait()
}

/// Nothing of any query is left on any node, and the cluster still counts
/// right.
fn assert_clean_and_correct(cluster: &Cluster, query: &Query, lineitems: i64) {
    for node in 0..cluster.config().nodes {
        let ctx = cluster.node_ctx(node);
        // Stragglers of the dead query may still be on their way to being
        // turned away: wait for the count to settle, and give up (fail)
        // only after far longer than that can take.
        let waiting = std::time::Instant::now();
        while ctx.pool.outstanding() != 0 {
            assert!(
                waiting.elapsed() < std::time::Duration::from_secs(20),
                "node {node} never got {} message buffers back",
                ctx.pool.outstanding()
            );
            std::thread::yield_now();
        }
        assert_eq!(ctx.hub.active_exchanges(), 0, "node {node} kept hub state");
    }
    let after = cluster.run(query).unwrap();
    assert_eq!(after.table.value(0, 0).as_f64(), lineitems as f64);
    for node in 0..cluster.config().nodes {
        assert_eq!(cluster.node_ctx(node).pool.outstanding(), 0);
        assert_eq!(cluster.node_ctx(node).hub.active_exchanges(), 0);
    }
}

#[test]
fn cancel_mid_exchange_is_cancelled_and_leaves_nothing_behind() {
    let (cluster, query, lineitems) = streaming_query();
    let ended = disturbed_mid_exchange(&cluster, &query, |handle| handle.cancel());
    assert!(
        matches!(ended, Err(EngineError::Cancelled)),
        "a query cancelled mid-exchange ended in {:?}",
        ended.map(|r| r.row_count())
    );
    assert_clean_and_correct(&cluster, &query, lineitems);
    cluster.shutdown();
}

#[test]
fn peer_abort_mid_exchange_is_an_execution_error_and_leaves_nothing_behind() {
    let (cluster, query, lineitems) = streaming_query();
    // What a node does on receiving a peer's abort frame.
    let ended = disturbed_mid_exchange(&cluster, &query, |handle| {
        cluster
            .node_ctx(1)
            .hub
            .abort(handle.id(), "aborted by a peer node");
    });
    assert!(
        matches!(ended, Err(EngineError::Execution(_))),
        "a query aborted mid-exchange ended in {:?}",
        ended.map(|r| r.row_count())
    );
    assert_clean_and_correct(&cluster, &query, lineitems);
    cluster.shutdown();
}
