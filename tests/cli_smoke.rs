//! Smoke test for the `hsqp` end-to-end driver binary: a 2-node SF 0.01
//! run must complete, emit well-formed JSON, and report the row counts the
//! reference evaluator (`tests/support/oracle.rs`) computes for the same
//! queries.

mod support;

use std::process::{Command, Output};

use hsqp::benchjson::{parse, Json};
use hsqp::engine::queries::tpch_logical;
use hsqp::tpch::TpchDb;

use support::oracle::Oracle;

/// Run the driver with `args`; it must succeed.
fn run_driver(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args(args)
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "driver {args:?} failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The report on the driver's stdout, which must be one JSON document.
fn report(out: &Output) -> Json {
    parse(std::str::from_utf8(&out.stdout).expect("utf8 stdout")).expect("well-formed report")
}

/// Number member `key` of `v`.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number {key:?} in {v:?}"))
}

/// Array member `key` of `v`.
fn arr<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no array {key:?} in {v:?}"))
}

/// The oracle's row count for each of `queries` at scale factor `sf`.
fn oracle_rows(sf: f64, queries: &[u32]) -> Vec<usize> {
    let oracle = Oracle::new(&TpchDb::generate(sf));
    queries
        .iter()
        .map(|&n| oracle.answer(&tpch_logical(n).unwrap()).rel.rows.len())
        .collect()
}

/// Every run of `args` must be rejected with a usage error.
fn assert_rejected(cases: &[&[&str]]) {
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
            .args(*args)
            .output()
            .expect("driver ran");
        assert!(!out.status.success(), "args {args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: "),
            "args {args:?} must fail with a usage error, got: {stderr}"
        );
    }
}

#[test]
fn driver_2node_sf001_emits_wellformed_json() {
    let sf = 0.01;
    let out = run_driver(&[
        "--sf",
        "0.01",
        "--nodes",
        "2",
        "--queries",
        "1,6",
        "--message-kb",
        "32",
    ]);
    let report = report(&out);
    assert_eq!(num(&report, "sf"), sf);
    assert_eq!(num(&report, "nodes"), 2.0);
    assert_eq!(num(&report, "failures"), 0.0);
    let queries = arr(&report, "queries");
    assert_eq!(queries.len(), 2);

    // A default run is the closed loop's one-client, one-round case.
    assert_eq!(num(&report, "clients"), 1.0);
    assert_eq!(num(&report, "rounds"), 1.0);
    let throughput = report.get("throughput").expect("throughput block");
    assert_eq!(num(throughput, "total_queries"), queries.len() as f64);
    assert!(num(&report, "geomean_ms").is_finite());
    // The driver's own peak resident set: at least the generated data.
    assert!(num(&report, "peak_rss_mb") > 1.0);

    let q1 = &queries[0];
    assert_eq!(num(q1, "query"), 1.0);
    assert!(num(q1, "ms") > 0.0);
    assert_eq!(num(q1, "executions"), 1.0);
    assert_eq!(
        num(q1, "rows") as usize,
        oracle_rows(sf, &[1])[0],
        "driver row count for Q1 must match the oracle"
    );
}

#[test]
fn driver_clients_mode_reports_throughput_and_matching_rows() {
    let sf = 0.005;
    let out = run_driver(&[
        "--sf",
        "0.005",
        "--nodes",
        "2",
        "--queries",
        "1,2,6",
        "--clients",
        "2",
        "--rounds",
        "2",
    ]);
    let report = report(&out);
    assert_eq!(num(&report, "clients"), 2.0);
    assert_eq!(num(&report, "rounds"), 2.0);
    assert_eq!(num(&report, "failures"), 0.0);
    let tp = report.get("throughput").expect("throughput block");
    // 2 clients x 2 rounds x 3 queries, all succeeding.
    assert_eq!(num(tp, "total_queries"), 12.0);
    assert!(num(tp, "queries_per_hour") > 0.0);
    let latency = tp.get("latency_ms").expect("latency percentiles");
    assert!(num(latency, "p50") > 0.0);
    assert!(
        num(latency, "p99") >= num(latency, "p50"),
        "p99 must dominate p50"
    );
    let queries = arr(&report, "queries");
    assert_eq!(queries.len(), 3);
    assert_eq!(num(&queries[0], "executions"), 4.0);
    assert_eq!(
        num(&queries[0], "rows") as usize,
        oracle_rows(sf, &[1])[0],
        "concurrent row count for Q1 must match the oracle"
    );
}

#[test]
fn driver_rejects_bad_flags() {
    // The flags that picked one of two query sources and one of two
    // expression engines are unknown now, as are the trajectory file, the
    // profiling switch, the planner's legacy heuristics, the open-loop
    // driver's six and the statistics mode.
    let plan_mode = format!("--{}-mode", "plan");
    let expr_engine = format!("--{}-engine", "expr");
    let bench_out = format!("--{}-out", "bench");
    assert_rejected(&[
        &["--sf", "0"],
        &["--nodes", "two"],
        &["--nodes", "0"],
        &["--workers", "0"],
        &["--workers", "-1"],
        &["--queries", "0"],
        &["--queries", "23"],
        &["--queries", ""],
        &["--message-kb", "0"],
        &["--message-kb", "18014398509481984"],
        &["--clients", "0"],
        &["--rounds", "0"],
        &["--clients", "many"],
        &["--transport", "carrier-pigeon"],
        &["--frobnicate", "yes"],
        &[plan_mode.as_str(), "builder"],
        &[expr_engine.as_str(), "vm"],
        &[bench_out.as_str(), "x"],
        &["--profile", "on"],
        &["--stats", "off"],
        &["--stats", "static"],
        &["--stats", "feedback"],
        &["--open-loop", "1000"],
        &["--duration", "4"],
        &["--arrivals", "uniform"],
        &["--tenants", "gold:4,silver:1"],
        &["--deadline-ms", "50"],
        &["--seed", "42"],
    ]);
}

#[test]
fn driver_row_counts_match_the_oracle() {
    const QUERIES: [u32; 5] = [1, 2, 6, 12, 15];
    let out = run_driver(&["--sf", "0.005", "--nodes", "2", "--queries", "1,2,6,12,15"]);
    let report = report(&out);
    let queries = arr(&report, "queries");
    let want = oracle_rows(0.005, &QUERIES);
    assert_eq!(queries.len(), QUERIES.len());
    for ((q, n), rows) in queries.iter().zip(QUERIES).zip(want) {
        assert_eq!(num(q, "query"), f64::from(n));
        assert_eq!(
            num(q, "rows") as usize,
            rows,
            "row counts must match the oracle for query {n}"
        );
    }
}

/// The observability surfaces end to end, with two clients: `--analyze`
/// prints an annotated tree to stderr for every execution, `--trace-out`
/// writes well-formed trace JSON holding every execution, and `--metrics`
/// dumps the registry.
#[test]
fn driver_observability_flags() {
    let dir = std::env::temp_dir().join(format!("hsqp_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");

    let out = run_driver(&[
        "--sf",
        "0.005",
        "--nodes",
        "2",
        "--queries",
        "3,6",
        "--clients",
        "2",
        "--analyze",
        "--metrics",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("Exchange Gather") && stderr.contains("net wait"),
        "--analyze must print an annotated plan tree, got:\n{stderr}"
    );
    assert_eq!(
        stderr.matches("-- stage 1/").count(),
        4,
        "--analyze prints one block per execution (2 clients x 2 queries):\n{stderr}"
    );
    assert!(
        stderr.contains("queries.completed"),
        "--metrics must print the registry, got:\n{stderr}"
    );

    let trace_doc =
        parse(&std::fs::read_to_string(&trace).expect("trace written")).expect("well-formed trace");
    let events = arr(&trace_doc, "traceEvents");
    let executions = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .count();
    assert_eq!(executions, 4, "one trace process per execution");
    assert!(events.len() > executions, "trace must contain spans");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--explain` prints the compiled program for every filter / map /
/// aggregate input next to the operator tree.
#[test]
fn driver_explain_prints_compiled_programs() {
    let out = run_driver(&["--queries", "6", "--explain"]);
    let vm = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(vm.contains("== Q6 ("), "banner must name the query:\n{vm}");
    assert!(
        vm.contains("(p0") || vm.contains("(p0)"),
        "operators must be annotated with program ids:\n{vm}"
    );
    assert!(
        vm.contains("p0 =") && vm.contains("p1 ="),
        "Q6 must list its filter and aggregate-input programs:\n{vm}"
    );
    assert!(
        vm.contains("cmp_i64") && vm.contains("arith_f64"),
        "listings must show typed kernels:\n{vm}"
    );
}

/// The query banners and cost-model decisions of a plan listing, in order.
fn decisions(listing: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(listing)
        .lines()
        .filter(|l| l.starts_with("== Q") || l.trim_start().starts_with("decision:"))
        .map(str::to_string)
        .collect()
}

/// `--explain` shows the plans a run executes: it plans from the same
/// exact row counts, so every cost-model decision it prints is the one
/// `--explain --analyze` prints for the execution.
#[test]
fn driver_explain_decides_as_the_run_does() {
    let args = ["--sf", "0.05", "--nodes", "2", "--explain"];
    let listed = decisions(&run_driver(&args).stdout);
    let ran = decisions(&run_driver(&[&args[..], &["--analyze"]].concat()).stderr);
    assert_eq!(listed.iter().filter(|l| l.starts_with("== Q")).count(), 22);
    assert!(listed.len() > 2 * 22, "too few decisions:\n{listed:#?}");
    for (i, (l, r)) in listed.iter().zip(&ran).enumerate() {
        assert_eq!(l, r, "line {i} of the decisions differs");
    }
    assert_eq!(listed.len(), ran.len());
}

/// `--explain --analyze` executes the queries and emits each query's plan
/// (with compiled programs) and its profile as one coherent stderr block —
/// the profiler must not interleave into the middle of a plan.
#[test]
fn driver_explain_analyze_blocks_are_wellformed() {
    let out = run_driver(&[
        "--sf",
        "0.005",
        "--nodes",
        "2",
        "--queries",
        "3,6",
        "--explain",
        "--analyze",
    ]);

    // stdout still carries the well-formed JSON report, untouched by the
    // explain/profile stream.
    let report = report(&out);
    assert_eq!(num(&report, "failures"), 0.0);
    assert_eq!(arr(&report, "queries").len(), 2);

    let stderr = String::from_utf8_lossy(&out.stderr);
    // One block per query: header, stages with program annotations,
    // program listings, then the profile's annotated tree — in that order,
    // with nothing wedged between the plan and its programs.
    for n in [3, 6] {
        let start = stderr
            .find(&format!("== Q{n} "))
            .unwrap_or_else(|| panic!("missing explain block for Q{n}:\n{stderr}"));
        let block_end = stderr[start + 4..]
            .find("== Q")
            .map_or(stderr.len(), |i| start + 4 + i);
        let block = &stderr[start..block_end];
        let stage = block.find("-- stage 1/").expect("stage header in block");
        let program = block.find("p0 =").expect("program listing in block");
        let profile = block.find("net wait").expect("profile in block");
        assert!(
            stage < program && program < profile,
            "Q{n} block out of order (stage@{stage}, program@{program}, profile@{profile}):\n{block}"
        );
        // No per-query progress line may split the block: the progress
        // line for this query precedes its block.
        let progress = format!("Q{n} ");
        assert!(
            !block[block.find('\n').unwrap_or(0) + 1..].starts_with(&progress),
            "progress line interleaved into Q{n}'s block:\n{block}"
        );
    }
}

/// Observability flags reject bad values and the one combination they
/// cannot serve: a socket cluster's nodes ship no profiles back.
#[test]
fn driver_rejects_bad_observability_flags() {
    assert_rejected(&[
        &["--trace-out"],
        &["--cluster", "127.0.0.1:1", "--analyze"],
        &["--cluster", "127.0.0.1:1", "--trace-out", "trace.json"],
    ]);
}
