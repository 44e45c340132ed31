//! Cross-crate integration: the 22 TPC-H builder queries must return the
//! reference evaluator's answers on one server and on three, across
//! transports, exchange-operator models and data placements — the core
//! correctness invariant of distributed query execution. Every
//! configuration is compared with the oracle, never with another run of
//! the engine.

mod support;

use std::sync::OnceLock;

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::storage::placement::Placement;
use hsqp::tpch::TpchDb;

use support::oracle::{Answer, Oracle};

const SF: f64 = 0.002;

fn db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchDb::generate(SF))
}

/// The oracle's answers to all 22 queries, computed once per test binary.
fn answers() -> &'static [Answer] {
    static ANSWERS: OnceLock<Vec<Answer>> = OnceLock::new();
    ANSWERS.get_or_init(|| {
        let oracle = Oracle::new(db());
        ALL_QUERIES
            .iter()
            .map(|&n| oracle.answer(&tpch_logical(n).unwrap()))
            .collect()
    })
}

/// Run `queries` on a cluster started with `cfg` and compare each result
/// with the oracle's answer.
fn matches_oracle(cfg: ClusterConfig, queries: &[u32], what: &str) {
    let cluster = Cluster::start(cfg).unwrap();
    cluster.load_tpch_db(db().clone()).unwrap();
    let planner = Planner::for_cluster(&cluster);
    for &n in queries {
        let query = planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
        let result = cluster
            .run(&query)
            .unwrap_or_else(|e| panic!("Q{n} ({what}) failed: {e}"));
        support::assert_matches(
            &result.table,
            &answers()[n as usize - 1],
            &format!("Q{n} ({what})"),
        );
    }
    cluster.shutdown();
}

#[test]
fn all_queries_match_across_cluster_sizes() {
    matches_oracle(ClusterConfig::quick(1), &ALL_QUERIES, "1 node");
    matches_oracle(ClusterConfig::quick(3), &ALL_QUERIES, "3 nodes");
}

#[test]
fn queries_match_over_tcp_transport() {
    let tcp = ClusterConfig {
        transport: Transport::tcp(),
        ..ClusterConfig::quick(2)
    };
    // A representative subset (all operator shapes) to keep runtime sane.
    matches_oracle(tcp, &[1, 3, 6, 13, 16, 17, 21, 22], "tcp");
}

#[test]
fn classic_engine_matches_hybrid() {
    let classic = ClusterConfig {
        engine: EngineKind::Classic,
        transport: Transport::rdma_unscheduled(),
        ..ClusterConfig::quick(2)
    };
    matches_oracle(classic, &[1, 4, 5, 10, 12, 14, 18], "classic");
}

#[test]
fn partitioned_placement_matches_chunked() {
    let partitioned = ClusterConfig {
        placement: Placement::Partitioned,
        ..ClusterConfig::quick(2)
    };
    matches_oracle(partitioned, &[2, 3, 9, 11, 15, 19, 20], "partitioned");
}
