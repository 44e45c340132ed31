//! Figure 2 — hybrid parallelism vs classic exchange operators when the
//! number of cores per server grows (fixed 3-server cluster).

use hsqp_bench::{corrected_time, run_suite, FAST_SUITE};
use hsqp_engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp_tpch::TpchDb;

const SF: f64 = 0.01;
const NODES: u16 = 3;

fn suite_time(engine: EngineKind, workers: u16, db: &TpchDb) -> std::time::Duration {
    let cfg = ClusterConfig {
        workers_per_node: workers,
        engine,
        // The paper's Figure 2 isolates the exchange model; classic mode
        // additionally loses network scheduling in their engine.
        transport: if engine == EngineKind::Classic {
            Transport::rdma_unscheduled()
        } else {
            Transport::rdma_scheduled()
        },
        ..ClusterConfig::paper(NODES)
    };
    let cluster = Cluster::start(cfg).expect("cluster");
    cluster.load_tpch_db(db.clone()).expect("load");
    let r = run_suite(&cluster, &FAST_SUITE);
    cluster.shutdown();
    r.total()
}

fn main() {
    hsqp_bench::banner(
        "Figure 2",
        "hybrid parallelism scales with cores; classic exchange does not",
    );
    let db = TpchDb::generate(SF);
    println!("scale factor {SF}, {NODES} servers, query subset {FAST_SUITE:?}\n");

    let base_hybrid = suite_time(EngineKind::Hybrid, 1, &db);
    let base_classic = suite_time(EngineKind::Classic, 1, &db);

    let mut rows = Vec::new();
    for workers in [1u16, 2, 4, 8] {
        let h = suite_time(EngineKind::Hybrid, workers, &db);
        let c = suite_time(EngineKind::Classic, workers, &db);
        let hc = corrected_time(h, base_hybrid, u64::from(workers));
        let cc = corrected_time(c, base_classic, u64::from(workers));
        rows.push(vec![
            workers.to_string(),
            format!("{:.2}x", base_hybrid.as_secs_f64() / hc.as_secs_f64()),
            format!("{:.2}x", base_classic.as_secs_f64() / cc.as_secs_f64()),
        ]);
    }
    hsqp_bench::print_table(&["cores/server", "hybrid", "classic exchange"], &rows);
    println!();
    println!("paper @20 cores: hybrid ~12x, classic exchange ~4x");
    println!("(speed-ups use the single-core compute correction, see hsqp_bench::corrected_time)");
}
