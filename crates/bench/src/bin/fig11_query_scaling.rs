//! Figure 11 — scalability of the individual TPC-H queries for the three
//! query-execution engines (RDMA + scheduling, TCP/InfiniBand, TCP/GbE).

use std::time::Duration;

use hsqp_bench::corrected_time;
use hsqp_engine::cluster::{Cluster, ClusterConfig};
use hsqp_engine::planner::Planner;
use hsqp_engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp_tpch::TpchDb;

const SF: f64 = 0.005;
const SIZES: [u16; 3] = [1, 3, 6];

fn per_query(cfg: ClusterConfig, db: &TpchDb) -> Vec<Duration> {
    let cluster = Cluster::start(cfg).expect("cluster");
    cluster.load_tpch_db(db.clone()).expect("load");
    let planner = Planner::for_cluster(&cluster);
    let times = ALL_QUERIES
        .iter()
        .map(|&n| {
            let logical = tpch_logical(n).expect("query");
            let q = planner.plan_query(&logical).expect("plan");
            cluster.run(&q).expect("run").elapsed
        })
        .collect();
    cluster.shutdown();
    times
}

fn main() {
    hsqp_bench::banner(
        "Figure 11",
        "per-query speed-up vs cluster size for three engines (SF fixed)",
    );
    let db = TpchDb::generate(SF);
    println!("scale factor {SF}; cells are speed-up over 1 server\n");

    let baseline = per_query(ClusterConfig::paper(1), &db);

    let engines: [(&str, fn(u16) -> ClusterConfig); 3] = [
        ("RDMA+sched", ClusterConfig::paper),
        ("TCP/IB", ClusterConfig::tcp_infiniband),
        ("TCP/GbE", ClusterConfig::tcp_gbe),
    ];

    for (name, make) in engines {
        println!("engine: {name}");
        let mut columns: Vec<Vec<Duration>> = Vec::new();
        for &n in &SIZES[1..] {
            let mut cfg = make(n);
            cfg.workers_per_node = 2;
            columns.push(per_query(cfg, &db));
        }
        let rows: Vec<Vec<String>> = ALL_QUERIES
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut row = vec![format!("Q{q}")];
                row.push(format!("{:.0}", baseline[i].as_secs_f64() * 1e3));
                for (col, &n) in columns.iter().zip(&SIZES[1..]) {
                    let corrected = corrected_time(col[i], baseline[i], u64::from(n));
                    row.push(format!(
                        "{:.2}x",
                        baseline[i].as_secs_f64() / corrected.as_secs_f64()
                    ));
                }
                row
            })
            .collect();
        hsqp_bench::print_table(&["query", "1-node ms", "3 nodes", "6 nodes"], &rows);
        println!();
    }
    println!("paper: only RDMA+scheduling improves all queries (3.5x overall @6);");
    println!("GbE collapses except Q1/Q6; TCP/IB hovers near single-server.");
}
