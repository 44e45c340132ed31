//! Attribute-value skew and work stealing (§3.1): the same Zipf-skewed
//! shuffle under hybrid parallelism (n parallel units, intra-server work
//! stealing) and under the classic exchange model (n·t units, static
//! ownership).
//!
//! ```bash
//! cargo run --release --example skew_stealing
//! ```

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::expr::lit;
use hsqp::engine::plan::{AggSpec, Plan};
use hsqp::engine::AggFunc;
use hsqp::storage::placement::chunk_split;
use hsqp::storage::{Column, DataType, Field, Schema, Table};
use hsqp::tpch::{skew::imbalance, TpchDb, TpchTable, ZipfGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zipf = ZipfGenerator::new(10_000, 0.84);
    let keys = zipf.sample_many(300_000, 17);

    // The paper's argument in one table: the more parallel units, the worse
    // a Zipf-skewed key distribution overloads the busiest one.
    println!("hash-partition overload factor (Zipf z = 0.84):");
    for units in [3usize, 6, 48, 240] {
        println!(
            "  {units:>4} units: {:.2}x fair share",
            imbalance(&keys, units)
        );
    }
    println!();

    // Measure it: a skewed repartition + aggregation, hybrid vs classic.
    let schema = Schema::new(vec![
        Field::new("l_orderkey", DataType::Int64),
        Field::new("l_quantity", DataType::Int64),
    ]);
    let skewed = Table::new(
        schema,
        vec![
            Column::I64(keys.iter().map(|&k| k as i64).collect(), None),
            Column::I64(vec![1; keys.len()], None),
        ],
    );
    let plan = Plan::scan(TpchTable::Lineitem)
        .repartition(&["l_orderkey"])
        .aggregate(
            &["l_orderkey"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")],
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "groups")])
        .gather();

    for engine in [EngineKind::Hybrid, EngineKind::Classic] {
        let cfg = ClusterConfig {
            engine,
            workers_per_node: 4,
            transport: Transport::rdma_unscheduled(),
            ..ClusterConfig::quick(3)
        };
        let cluster = Cluster::start(cfg)?;
        cluster.load_tpch_db(TpchDb::generate(0.001))?;
        cluster.load_table(TpchTable::Lineitem, chunk_split(skewed.clone(), 3))?;
        let r = cluster.run_plan(&plan)?;
        // Input per parallel unit: whole servers under hybrid parallelism
        // (any worker consumes any message), workers under classic exchange
        // (static bucket ownership) — the Zipf-heavy bucket lands on one.
        let mut loads: Vec<u64> = Vec::new();
        for node in 0..3u16 {
            let per_worker = cluster.node_ctx(node).consume_loads.lock().clone();
            match engine {
                EngineKind::Hybrid => loads.push(per_worker.iter().sum()),
                EngineKind::Classic => loads.extend(per_worker),
            }
        }
        let fair = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        let max = *loads.iter().max().unwrap() as f64;
        println!(
            "{engine:?}: {:.1} ms, {} units, busiest got {:.2}x its fair share",
            r.elapsed.as_secs_f64() * 1e3,
            loads.len(),
            max / fair,
        );
        cluster.shutdown();
    }
    Ok(())
}
