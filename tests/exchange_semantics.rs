//! Integration tests of the exchange operator semantics across the real
//! multiplexer path: broadcast retain behaviour, gather, classic-mode
//! per-unit broadcast cost, message-pool accounting, shuffle metrics, and
//! — in `content` — what each exchange delivers, value for value and node
//! by node, on every cluster shape from 1 × 1 to 4 × 3, hybrid and classic.

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::expr::{col, lit};
use hsqp::engine::plan::{AggSpec, JoinKind, Plan, SortKey};
use hsqp::engine::AggFunc;
use hsqp::tpch::{TpchDb, TpchTable};

fn quick_cluster(nodes: u16) -> Cluster {
    let c = Cluster::start(ClusterConfig::quick(nodes)).unwrap();
    c.load_tpch(0.002).unwrap();
    c
}

#[test]
fn gather_collects_everything_at_the_coordinator() {
    let c = quick_cluster(3);
    let total_rows = {
        // Count lineitem rows per node via a local aggregate + gather.
        let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
            .gather();
        let r = c.run_plan(&plan).unwrap();
        // One partial row per node arrives at node 0.
        assert_eq!(r.row_count(), 3);
        (0..3).map(|i| r.table.value(i, 0).as_i64()).sum::<i64>()
    };
    // Cross-check against a full gather of the raw rows.
    let gathered = c
        .run_plan(&Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"]).gather())
        .unwrap();
    assert_eq!(gathered.row_count() as i64, total_rows);
    c.shutdown();
}

#[test]
fn broadcast_replicates_build_side_exactly_once_per_node() {
    let c = quick_cluster(3);
    // Join against a broadcast nation table: every lineitem-side row of the
    // probe must match exactly one build row, so result cardinality equals
    // the probe cardinality (suppkey → supplier → nation is total).
    let probe = Plan::scan_cols(TpchTable::Supplier, &["s_suppkey", "s_nationkey"]);
    let build = Plan::scan_cols(TpchTable::Nation, &["n_nationkey", "n_name"]).broadcast();
    let plan = probe
        .join(build, &["s_nationkey"], &["n_nationkey"], JoinKind::Inner)
        .gather();
    let suppliers = c
        .run_plan(&Plan::scan_cols(TpchTable::Supplier, &["s_suppkey"]).gather())
        .unwrap()
        .row_count();
    let joined = c.run_plan(&plan).unwrap();
    assert_eq!(joined.row_count(), suppliers, "broadcast duplicated rows");
    c.shutdown();
}

#[test]
fn classic_broadcast_ships_one_copy_per_unit() {
    let db = TpchDb::generate(0.002);
    let plan = Plan::scan_cols(TpchTable::Orders, &["o_orderkey", "o_custkey"])
        .join(
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).broadcast(),
            &["o_custkey"],
            &["n_nationkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();

    let bytes = |engine: EngineKind, workers: u16| {
        let cfg = ClusterConfig {
            engine,
            workers_per_node: workers,
            transport: Transport::rdma_unscheduled(),
            ..ClusterConfig::quick(2)
        };
        let c = Cluster::start(cfg).unwrap();
        c.load_tpch_db(db.clone()).unwrap();
        let r = c.run_plan(&plan).unwrap();
        c.shutdown();
        (r.bytes_shuffled, r.table.value(0, 0).as_i64())
    };
    let (hybrid_bytes, hybrid_cnt) = bytes(EngineKind::Hybrid, 2);
    let (classic_bytes, classic_cnt) = bytes(EngineKind::Classic, 2);
    assert_eq!(hybrid_cnt, classic_cnt, "results must agree");
    // Classic sends t copies of every broadcast message per remote node.
    assert!(
        classic_bytes > hybrid_bytes + hybrid_bytes / 2,
        "classic broadcast should cost ~t x hybrid: {classic_bytes} vs {hybrid_bytes}"
    );
}

#[test]
fn message_pool_reuses_registrations_across_queries() {
    let c = quick_cluster(2);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
        .repartition(&["l_orderkey"])
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    c.run_plan(&plan).unwrap();
    let after_first = c.node_ctx(0).pool.registrations();
    assert!(after_first > 0, "first query must register buffers");
    for _ in 0..3 {
        c.run_plan(&plan).unwrap();
    }
    let after_more = c.node_ctx(0).pool.registrations();
    let reuses = c.node_ctx(0).pool.reuses();
    assert!(
        after_more <= after_first + 2,
        "later queries should reuse the pool ({after_first} -> {after_more})"
    );
    assert!(reuses > 0, "no reuse happened");
    c.shutdown();
}

/// One `take` is one registration or one reuse, and one buffer out of the
/// pool until its last holder lets go — also under a broadcast, where a
/// message is retained by the local hub and by every remote target (and,
/// classic, duplicated per unit). Returning a buffer once per holder used
/// to count idle buffers that did not exist and read as a reuse ratio of
/// exactly 1.
#[test]
fn pool_accounting_balances_under_broadcast_and_repartition() {
    for engine in [EngineKind::Hybrid, EngineKind::Classic] {
        let c = Cluster::start(ClusterConfig {
            engine,
            // Several messages per node and exchange.
            message_capacity: 1024,
            ..ClusterConfig::quick(3)
        })
        .unwrap();
        c.load_tpch(0.002).unwrap();
        let count = || vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")];
        let plans = [
            Plan::scan_cols(TpchTable::Orders, &["o_orderkey", "o_clerk"]).broadcast(),
            Plan::scan_cols(TpchTable::Orders, &["o_orderkey", "o_clerk"])
                .broadcast()
                .aggregate(&[], count())
                .gather(),
            Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey", "l_comment"])
                .repartition(&["l_orderkey"])
                .aggregate(&[], count())
                .gather(),
        ];
        for round in 0..3 {
            for plan in &plans {
                c.run_plan(plan).unwrap();
                for node in 0..3 {
                    let pool = &c.node_ctx(node).pool;
                    let context = format!("{engine:?}, round {round}, node {node}");
                    assert!(pool.takes() > 0, "{context}: nothing was sent");
                    assert_eq!(
                        pool.registrations() + pool.reuses(),
                        pool.takes(),
                        "{context}"
                    );
                    // The query is over: every buffer taken is back, and a
                    // shelf cannot hold more buffers than ever existed.
                    assert_eq!(pool.outstanding(), 0, "{context}");
                    assert!(pool.idle() as u64 <= pool.registrations(), "{context}");
                    assert!(pool.idle() > 0, "{context}: nothing came back");
                }
            }
        }
        // Warm, a pool hands out what it got back.
        assert!(c.node_ctx(1).pool.reuses() > c.node_ctx(1).pool.registrations());
        c.shutdown();
    }
}

#[test]
fn shuffle_metrics_reflect_placement() {
    // Partitioned placement makes the orders/lineitem orderkey join local;
    // chunked placement must shuffle more.
    let db = TpchDb::generate(0.005);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey", "l_quantity"])
        .repartition(&["l_orderkey"])
        .join(
            Plan::scan_cols(TpchTable::Orders, &["o_orderkey"]).repartition(&["o_orderkey"]),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    let shuffled = |placement| {
        let cfg = ClusterConfig {
            placement,
            ..ClusterConfig::quick(3)
        };
        let c = Cluster::start(cfg).unwrap();
        c.load_tpch_db(db.clone()).unwrap();
        let r = c.run_plan(&plan).unwrap();
        c.shutdown();
        r.bytes_shuffled
    };
    use hsqp::storage::placement::Placement;
    let chunked = shuffled(Placement::Chunked);
    let partitioned = shuffled(Placement::Partitioned);
    assert!(
        partitioned < chunked / 2,
        "partitioned placement should shuffle far less: {partitioned} vs {chunked}"
    );
}

#[test]
fn repeated_queries_are_stable() {
    // Exchange ids must not collide across runs; results stay identical.
    let c = quick_cluster(2);
    let plan = Plan::scan_cols(TpchTable::Orders, &["o_custkey", "o_totalprice"])
        .repartition(&["o_custkey"])
        .aggregate(
            &["o_custkey"],
            vec![AggSpec::new(AggFunc::Sum, col("o_totalprice"), "spent")],
        )
        .gather()
        .sort(vec![SortKey::desc("spent")], Some(5));
    let first = c.run_plan(&plan).unwrap().table;
    for _ in 0..4 {
        let again = c.run_plan(&plan).unwrap().table;
        assert_eq!(again.rows(), first.rows());
        for r in 0..first.rows() {
            assert_eq!(again.value(r, 0), first.value(r, 0));
        }
    }
    c.shutdown();
}

#[test]
fn single_node_cluster_never_touches_the_fabric() {
    let c = quick_cluster(1);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
        .repartition(&["l_orderkey"])
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    let r = c.run_plan(&plan).unwrap();
    assert_eq!(r.bytes_shuffled, 0);
    assert_eq!(r.messages_sent, 0);
    // Its multiplexer was given nothing to do, so nothing woke it.
    assert_eq!(c.metrics().counter("exchange.mux.wakeups"), Some(0));
    assert_eq!(c.metrics().counter("exchange.mux.empty_wakeups"), Some(0));
    c.shutdown();
}

#[test]
fn polling_completion_mode_works_end_to_end() {
    use hsqp::net::CompletionMode;
    let cfg = ClusterConfig {
        transport: Transport::Rdma {
            scheduling: true,
            completion: CompletionMode::Polling,
        },
        ..ClusterConfig::quick(2)
    };
    let c = Cluster::start(cfg).unwrap();
    c.load_tpch(0.001).unwrap();
    let q6 = hsqp::engine::queries::tpch_logical(6).unwrap();
    let q = hsqp::engine::planner::Planner::for_cluster(&c)
        .plan_query(&q6)
        .unwrap();
    let r = c.run(&q).unwrap();
    assert_eq!(r.row_count(), 1);
    c.shutdown();
}

// -- content, not counts ------------------------------------------------------
//
// The benchmark's shuffle digests only count rows for three of its five
// templates, so what an exchange delivers — every value, every NULL, on the
// node that owns it — is checked here, across cluster shapes.

mod content {
    use std::collections::HashMap;

    use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind};
    use hsqp::engine::exec::{row_bucket, NodeExec};
    use hsqp::engine::plan::Plan;
    use hsqp::engine::QueryId;
    use hsqp::storage::placement::chunk_split;
    use hsqp::storage::{Column, DataType, Field, Schema, Table, Value};
    use hsqp::tpch::TpchTable;

    /// Two morsels of rows with a unique `id`, a key `k` that is not always
    /// an exact f64, strings from empty to longer than a small message, and
    /// NULLs in a fixed-size and a string column.
    fn mixed_table() -> Table {
        const ROWS: usize = 20_000;
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Utf8),
            Field::nullable("f", DataType::Float64),
            Field::nullable("ns", DataType::Utf8),
        ]);
        let mut cols: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        let words = ["", "pending", "größer", "日本語のコメント", "x"];
        for i in 0..ROWS {
            let key = match i % 5 {
                0 => (1i64 << 53) + 1 + i as i64, // not an exact f64
                _ => (i as i64 * 7919) % 1013,
            };
            let s = match i {
                // One row that no 1 KiB message can hold.
                777 => "long ".repeat(600),
                _ => format!("{}{}", words[i % words.len()], i % 11),
            };
            cols[0].push_value(&Value::I64(i as i64));
            cols[1].push_value(&Value::I64(key));
            cols[2].push_value(&Value::Str(s));
            cols[3].push_value(&match i % 3 {
                0 => Value::Null,
                _ => Value::F64(i as f64 / 16.0),
            });
            cols[4].push_value(&match i % 4 {
                1 => Value::Null,
                _ => Value::Str(words[(i / 4) % words.len()].to_string()),
            });
        }
        Table::new(schema, cols)
    }

    /// Run `plan` SPMD the way the cluster does and return every node's
    /// share of the result, not just the coordinator's.
    fn run_on_every_node(c: &Cluster, plan: &Plan, query: u32) -> Vec<Table> {
        std::thread::scope(|scope| {
            let nodes: Vec<_> = (0..c.config().nodes)
                .map(|n| {
                    scope.spawn(move || {
                        NodeExec::new(c.node_ctx(n), QueryId(query), &[], 0)
                            .execute(plan)
                            .into_table()
                    })
                })
                .collect();
            nodes.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// How often each `id` occurs in `part`, after checking that every row
    /// of `part` is, value for value, the row of `whole` with that id.
    fn ids_of(part: &Table, whole: &Table, context: &str) -> HashMap<i64, usize> {
        let ids: Vec<usize> = part
            .column(0)
            .i64_values()
            .iter()
            .map(|&id| id as usize)
            .collect();
        let expect = whole.gather(&ids);
        for row in 0..part.rows() {
            assert_eq!(part.row(row), expect.row(row), "{context}: row {row}");
        }
        let mut seen = HashMap::new();
        for id in ids {
            *seen.entry(id as i64).or_insert(0) += 1;
        }
        seen
    }

    #[test]
    fn exchanges_deliver_every_row_intact_to_the_node_that_owns_it() {
        let whole = mixed_table();
        let once: HashMap<i64, usize> = (0..whole.rows() as i64).map(|id| (id, 1)).collect();
        let mut query = 1 << 20;
        for nodes in 1..=4u16 {
            for workers in 1..=3u16 {
                for engine in [EngineKind::Hybrid, EngineKind::Classic] {
                    let context = format!("{nodes} nodes x {workers} workers, {engine:?}");
                    let c = Cluster::start(ClusterConfig {
                        workers_per_node: workers,
                        engine,
                        // Small messages on the odd shapes: many cuts, and
                        // one row that outgrows a message.
                        message_capacity: if (nodes + workers) % 2 == 1 {
                            1024
                        } else {
                            32 * 1024
                        },
                        ..ClusterConfig::quick(nodes)
                    })
                    .unwrap();
                    c.load_table(TpchTable::Region, chunk_split(&whole, nodes as usize))
                        .unwrap();
                    let units = match engine {
                        EngineKind::Classic => workers as usize,
                        EngineKind::Hybrid => 1,
                    };
                    let buckets = nodes as usize * units;
                    let mut run = |plan: Plan| {
                        query += 1;
                        run_on_every_node(&c, &plan, query)
                    };

                    // Repartition: the input as a multiset, each row on the
                    // node its key's bucket belongs to.
                    for keys in [&["k"][..], &["ns", "k"]] {
                        let parts = run(Plan::scan(TpchTable::Region).repartition(keys));
                        let mut seen = HashMap::new();
                        for (node, part) in parts.iter().enumerate() {
                            let key_cols: Vec<(&Column, bool)> = keys
                                .iter()
                                .map(|k| (part.column_by_name(k), false))
                                .collect();
                            for row in 0..part.rows() {
                                assert_eq!(
                                    row_bucket(&key_cols, row, buckets) / units,
                                    node,
                                    "{context}: {keys:?} row {row} is on the wrong node"
                                );
                            }
                            for (id, n) in ids_of(part, &whole, &context) {
                                *seen.entry(id).or_insert(0) += n;
                            }
                        }
                        assert_eq!(seen, once, "{context}: repartition by {keys:?}");
                    }

                    // Broadcast: the whole input once on every node.
                    for part in run(Plan::scan(TpchTable::Region).broadcast()) {
                        assert_eq!(
                            ids_of(&part, &whole, &context),
                            once,
                            "{context}: broadcast"
                        );
                    }

                    // Gather: the whole input once at node 0, nothing elsewhere.
                    let parts = run(Plan::scan(TpchTable::Region).gather());
                    assert_eq!(
                        ids_of(&parts[0], &whole, &context),
                        once,
                        "{context}: gather"
                    );
                    for part in &parts[1..] {
                        assert_eq!(part.rows(), 0, "{context}: gather left rows behind");
                    }
                    c.shutdown();
                }
            }
        }
    }
}
