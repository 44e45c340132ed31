//! Quickstart: start a simulated cluster, load TPC-H, run a query.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::tpch_logical;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-server cluster over simulated 4xQDR InfiniBand with the paper's
    // engine: RDMA + round-robin network scheduling, hybrid parallelism.
    let cluster = Cluster::start(ClusterConfig::quick(3))?;

    // Generate TPC-H at scale factor 0.01 and distribute chunks to the
    // servers exactly as dbgen would (no redistribution, §4.1).
    cluster.load_tpch(0.01)?;

    // TPC-H Q1, the pricing summary report, lowered by the distributed
    // planner against the loaded row counts.
    let query = Planner::for_cluster(&cluster).plan_query(&tpch_logical(1)?)?;
    let result = cluster.run(&query)?;

    println!(
        "Q1: {} groups in {:.1} ms ({} bytes shuffled over the fabric)",
        result.row_count(),
        result.elapsed.as_secs_f64() * 1e3,
        result.bytes_shuffled,
    );
    for row in 0..result.row_count() {
        let t = &result.table;
        println!(
            "  {} {}  qty={:<12} count={}",
            t.value(row, 0),
            t.value(row, 1),
            t.value(row, t.schema().index_of("sum_qty")),
            t.value(row, t.schema().index_of("count_order")),
        );
    }

    cluster.shutdown();
    Ok(())
}
