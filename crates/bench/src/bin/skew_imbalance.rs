//! §3.1 — attribute-value skew vs the number of parallel units.
//!
//! The classic exchange model splits the hash space into n·t partitions
//! with static ownership; hybrid parallelism has only n partitions and
//! steals work within a server. Part 1 reproduces the paper's imbalance
//! arithmetic (Zipf z = 0.84 "more than doubles" the overloaded unit's
//! input at 240 units but adds "a mere 2.8 %" at 6); part 2 measures actual
//! runtimes of a skewed shuffle under both engines.

use hsqp_engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp_engine::expr::lit;
use hsqp_engine::plan::{AggFunc, AggSpec, Plan, SortKey};
use hsqp_storage::placement::chunk_split;
use hsqp_storage::{Column, Field, Schema, Table};
use hsqp_tpch::gen::TpchDb;
use hsqp_tpch::skew::{imbalance, ZipfGenerator};
use hsqp_tpch::TpchTable;

const Z: f64 = 0.84;
const KEYS: usize = 20_000;

fn skewed_lineitem(rows: usize) -> Table {
    let zipf = ZipfGenerator::new(KEYS, Z);
    let keys = zipf.sample_many(rows, 99);
    let schema = Schema::new(vec![
        Field::new("l_orderkey", hsqp_storage::DataType::Int64),
        Field::new("l_quantity", hsqp_storage::DataType::Int64),
    ]);
    Table::new(
        schema,
        vec![
            Column::I64(keys.iter().map(|&k| k as i64).collect(), None),
            Column::I64(vec![1; rows], None),
        ],
    )
}

fn unit_imbalance(cluster: &Cluster, nodes: u16, engine: EngineKind) -> f64 {
    // Parallel units: whole servers under hybrid parallelism (any worker
    // consumes any message), individual workers under classic exchange
    // (static bucket ownership).
    let mut loads: Vec<u64> = Vec::new();
    for node in 0..nodes {
        let per_worker = cluster.node_ctx(node).consume_loads.lock().clone();
        match engine {
            EngineKind::Hybrid => loads.push(per_worker.iter().sum()),
            EngineKind::Classic => loads.extend(per_worker),
        }
    }
    let fair = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    *loads.iter().max().expect("loads") as f64 / fair
}

fn shuffle_time(engine: EngineKind, nodes: u16, workers: u16, table: &Table) -> (f64, f64) {
    let cfg = ClusterConfig {
        engine,
        workers_per_node: workers,
        transport: Transport::rdma_unscheduled(),
        ..ClusterConfig::paper(nodes)
    };
    let cluster = Cluster::start(cfg).expect("cluster");
    // Only lineitem matters for this micro-plan; load a tiny db for the rest.
    cluster.load_tpch_db(TpchDb::generate(0.001)).expect("load");
    cluster
        .load_table(
            TpchTable::Lineitem,
            chunk_split(table.clone(), nodes as usize),
        )
        .expect("load skewed");
    let plan = Plan::scan(TpchTable::Lineitem)
        .repartition(&["l_orderkey"])
        .aggregate(
            &["l_orderkey"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")],
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "groups")])
        .gather()
        .sort(vec![SortKey::asc("groups")], Some(1));
    let r = cluster.run_plan(&plan).expect("run");
    let imbalance = unit_imbalance(&cluster, nodes, engine);
    cluster.shutdown();
    (r.elapsed.as_secs_f64(), imbalance)
}

fn main() {
    hsqp_bench::banner(
        "§3.1 skew",
        "parallel-unit count vs skew sensitivity (Zipf z = 0.84)",
    );

    println!("part 1: hash-partition imbalance (max unit load / fair share)\n");
    let zipf = ZipfGenerator::new(KEYS, Z);
    let keys = zipf.sample_many(600_000, 7);
    let mut rows = Vec::new();
    for units in [6usize, 12, 60, 240] {
        let f = imbalance(&keys, units);
        rows.push(vec![
            units.to_string(),
            format!("{f:.2}x"),
            format!("{:+.1}%", (f - 1.0) * 100.0),
        ]);
    }
    hsqp_bench::print_table(&["parallel units", "overload", "extra input"], &rows);
    println!("\npaper: 240 units more than double the overloaded unit's input;");
    println!("6 units add a mere 2.8%\n");

    println!("part 2: measured skewed-shuffle input imbalance, 3 servers x 8 workers\n");
    let table = skewed_lineitem(400_000);
    let (hybrid_t, hybrid_imb) = shuffle_time(EngineKind::Hybrid, 3, 8, &table);
    let (classic_t, classic_imb) = shuffle_time(EngineKind::Classic, 3, 8, &table);
    hsqp_bench::print_table(
        &["engine", "units", "time ms", "busiest unit load"],
        &[
            vec![
                "hybrid (stealing)".into(),
                "3".into(),
                format!("{:.1}", hybrid_t * 1e3),
                format!("{hybrid_imb:.2}x fair share"),
            ],
            vec![
                "classic exchange".into(),
                "24".into(),
                format!("{:.1}", classic_t * 1e3),
                format!("{classic_imb:.2}x fair share"),
            ],
        ],
    );
    println!();
    println!("on multi-core hosts the classic engine's overloaded unit becomes");
    println!("the critical path; its load factor is the slowdown bound");
}
