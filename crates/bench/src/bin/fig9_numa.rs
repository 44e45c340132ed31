//! Figure 9 — impact of NUMA-aware message allocation on a 4-socket
//! server: NUMA-aware vs interleaved vs single-socket buffer placement.

use hsqp_bench::{run_suite, FAST_SUITE};
use hsqp_engine::cluster::{Cluster, ClusterConfig};
use hsqp_numa::AllocPolicy;
use hsqp_tpch::TpchDb;

const SF: f64 = 0.01;

fn qph(policy: AllocPolicy, db: &TpchDb) -> f64 {
    let cfg = ClusterConfig {
        sockets: 4,
        workers_per_node: 4,
        // Amplified QPI penalty: laptop-scale shuffles are orders of
        // magnitude smaller than the paper's, so the per-byte stall is
        // raised to keep the Figure 9 ratios visible (the links are
        // rescaled for the same reason, see `hsqp_bench::rescaled_link`).
        numa_cost_ns: 25.0,
        alloc_policy: policy,
        link: hsqp_bench::rescaled_link(hsqp_net::LinkSpec::IB_4X_QDR),
        ..ClusterConfig::paper(2)
    };
    let cluster = Cluster::start(cfg).expect("cluster");
    cluster.load_tpch_db(db.clone()).expect("load");
    let r = run_suite(&cluster, &FAST_SUITE);
    cluster.shutdown();
    r.queries_per_hour()
}

fn main() {
    hsqp_bench::banner(
        "Figure 9",
        "NUMA-aware message allocation on a 4-socket server (queries/hour)",
    );
    let db = TpchDb::generate(SF);
    let aware = qph(AllocPolicy::NumaAware, &db);
    let inter = qph(AllocPolicy::Interleaved, &db);
    let single = qph(AllocPolicy::SingleSocket, &db);
    hsqp_bench::print_table(
        &["allocation policy", "queries/hour", "vs NUMA-aware"],
        &[
            vec!["NUMA-aware".into(), format!("{aware:.0}"), "100%".into()],
            vec![
                "interleaved".into(),
                format!("{inter:.0}"),
                format!("{:.0}%", inter / aware * 100.0),
            ],
            vec![
                "one socket".into(),
                format!("{single:.0}"),
                format!("{:.0}%", single / aware * 100.0),
            ],
        ],
    );
    println!();
    println!("paper: interleaved -17%, single socket -52% vs NUMA-aware");
}
