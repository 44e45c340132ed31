//! Figure 3 — TPC-H speed-up when adding servers, for RDMA + scheduling,
//! TCP over InfiniBand, and TCP over Gigabit Ethernet (fixed data volume).

use hsqp_bench::{corrected_time, run_suite};
use hsqp_engine::cluster::{Cluster, ClusterConfig};
use hsqp_engine::queries::ALL_QUERIES;
use hsqp_tpch::TpchDb;

const SF: f64 = 0.01;

fn suite_time(cfg: ClusterConfig, db: &TpchDb) -> std::time::Duration {
    let cluster = Cluster::start(cfg).expect("cluster");
    cluster.load_tpch_db(db.clone()).expect("load");
    let r = run_suite(&cluster, &ALL_QUERIES);
    cluster.shutdown();
    r.total()
}

fn main() {
    hsqp_bench::banner(
        "Figure 3",
        "speed-up vs number of servers for three network stacks (TPC-H)",
    );
    let db = TpchDb::generate(SF);
    println!("scale factor {SF}, all 22 queries, workers/node = 2,");
    println!("link bandwidths rescaled 1/32 (see hsqp_bench::rescaled_link)\n");

    let mut single_cfg = ClusterConfig::paper(1);
    single_cfg.workers_per_node = 2;
    single_cfg.link = hsqp_bench::rescaled_link(single_cfg.link);
    let single = suite_time(single_cfg, &db);
    println!(
        "single-server baseline: {:.0} ms\n",
        single.as_secs_f64() * 1e3
    );

    let variants: [(&str, fn(u16) -> ClusterConfig); 3] = [
        ("RDMA + scheduling", ClusterConfig::paper),
        ("TCP (InfiniBand)", ClusterConfig::tcp_infiniband),
        ("TCP (GbE)", ClusterConfig::tcp_gbe),
    ];

    let mut rows = Vec::new();
    for nodes in [1u16, 2, 3, 4, 6] {
        let mut row = vec![nodes.to_string()];
        for (_, make) in &variants {
            let mut cfg = make(nodes);
            cfg.workers_per_node = 2;
            cfg.link = hsqp_bench::rescaled_link(cfg.link);
            let t = suite_time(cfg, &db);
            let corrected = corrected_time(t, single, u64::from(nodes));
            row.push(format!(
                "{:.2}x",
                single.as_secs_f64() / corrected.as_secs_f64()
            ));
        }
        rows.push(row);
    }
    hsqp_bench::print_table(&["servers", "RDMA+sched", "TCP/IB", "TCP/GbE"], &rows);
    println!();
    println!("paper @6 servers: RDMA+sched 3.5x, TCP/IB ~1x, TCP/GbE ~0.16x");
    println!("(speed-ups use the single-core compute correction, see hsqp_bench::corrected_time)");
}
