//! Smoke test for the `hsqp` end-to-end driver binary: a 2-node SF 0.01
//! run must complete, emit well-formed JSON, and report the row counts the
//! reference evaluator (`tests/support/oracle.rs`) computes for the same
//! queries.

mod support;

use std::collections::HashMap;
use std::process::Command;

use hsqp::engine::queries::tpch_logical;
use hsqp::tpch::TpchDb;

use support::oracle::Oracle;

/// A minimal JSON value, parsed by [`parse_json`]. Enough structure to
/// verify well-formedness and pull scalar fields out of the report.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("expected object for key {key:?}, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

/// Strict recursive-descent JSON parser: rejects trailing garbage,
/// unterminated strings, and malformed numbers — the point of the test.
fn parse_json(s: &str) -> Json {
    let b: Vec<char> = s.chars().collect();
    let mut pos = 0;
    let v = parse_value(&b, &mut pos);
    skip_ws(&b, &mut pos);
    assert_eq!(pos, b.len(), "trailing garbage after JSON document");
    v
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) {
    skip_ws(b, pos);
    assert!(
        *pos < b.len() && b[*pos] == c,
        "expected {c:?} at offset {pos}"
    );
    *pos += 1;
}

fn parse_value(b: &[char], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut map = HashMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos) {
                    Json::Str(k) => k,
                    other => panic!("object key must be a string, got {other:?}"),
                };
                expect(b, pos, ':');
                map.insert(key, parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Json::Obj(map);
                    }
                    other => panic!("expected ',' or '}}' in object, got {other:?}"),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Json::Arr(arr);
            }
            loop {
                arr.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Json::Arr(arr);
                    }
                    other => panic!("expected ',' or ']' in array, got {other:?}"),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    Some('"') => {
                        *pos += 1;
                        return Json::Str(out);
                    }
                    Some('\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some('n') => out.push('\n'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                let hex: String = b[*pos + 1..*pos + 5].iter().collect();
                                let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                                out.push(char::from_u32(code).expect("valid codepoint"));
                                *pos += 4;
                            }
                            Some(&c) => out.push(c),
                            None => panic!("unterminated escape"),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        out.push(c);
                        *pos += 1;
                    }
                    None => panic!("unterminated string"),
                }
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len()
                && (b[*pos].is_ascii_digit() || matches!(b[*pos], '-' | '+' | '.' | 'e' | 'E'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            Json::Num(
                text.parse()
                    .unwrap_or_else(|_| panic!("bad number {text:?}")),
            )
        }
        Some('t') | Some('f') | Some('n') => {
            for (lit, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(&lit.chars().collect::<Vec<_>>()[..]) {
                    *pos += lit.len();
                    return v;
                }
            }
            panic!("bad literal at offset {pos}");
        }
        other => panic!("unexpected {other:?} at offset {pos}"),
    }
}

/// The oracle's row count for each of `queries` at scale factor `sf`.
fn oracle_rows(sf: f64, queries: &[u32]) -> Vec<usize> {
    let oracle = Oracle::new(&TpchDb::generate(sf));
    queries
        .iter()
        .map(|&n| oracle.answer(&tpch_logical(n).unwrap()).rel.rows.len())
        .collect()
}

#[test]
fn driver_2node_sf001_emits_wellformed_json() {
    let sf = 0.01;
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args([
            "--sf",
            "0.01",
            "--nodes",
            "2",
            "--queries",
            "1,6",
            "--message-kb",
            "32",
        ])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "driver failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = parse_json(&String::from_utf8(out.stdout).expect("utf8 stdout"));
    assert_eq!(report.get("sf").num(), sf);
    assert_eq!(report.get("nodes").num(), 2.0);
    assert_eq!(report.get("failures").num(), 0.0);
    let queries = report.get("queries").arr();
    assert_eq!(queries.len(), 2);

    let q1 = &queries[0];
    assert_eq!(q1.get("query").num(), 1.0);
    assert!(q1.get("ms").num() > 0.0);
    assert_eq!(
        q1.get("rows").num() as usize,
        oracle_rows(sf, &[1])[0],
        "driver row count for Q1 must match the oracle"
    );
}

#[test]
fn driver_clients_mode_reports_throughput_and_matching_rows() {
    let sf = 0.005;
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args([
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
        ])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "clients mode failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = parse_json(&String::from_utf8(out.stdout).expect("utf8 stdout"));
    assert_eq!(report.get("clients").num(), 2.0);
    assert_eq!(report.get("rounds").num(), 2.0);
    assert_eq!(report.get("failures").num(), 0.0);
    let tp = report.get("throughput");
    // 2 clients x 2 rounds x 3 queries, all succeeding.
    assert_eq!(tp.get("total_queries").num(), 12.0);
    assert!(tp.get("queries_per_hour").num() > 0.0);
    assert!(tp.get("latency_ms").get("p50").num() > 0.0);
    assert!(
        tp.get("latency_ms").get("p99").num() >= tp.get("latency_ms").get("p50").num(),
        "p99 must dominate p50"
    );
    let queries = report.get("queries").arr();
    assert_eq!(queries.len(), 3);
    assert_eq!(queries[0].get("executions").num(), 4.0);
    assert_eq!(
        queries[0].get("rows").num() as usize,
        oracle_rows(sf, &[1])[0],
        "concurrent row count for Q1 must match the oracle"
    );
}

#[test]
fn driver_rejects_bad_flags() {
    // The flags that picked one of two query sources and one of two
    // expression engines are unknown now.
    let plan_mode = format!("--{}-mode", "plan");
    let expr_engine = format!("--{}-engine", "expr");
    for args in [
        &["--sf", "0"][..],
        &["--nodes", "two"][..],
        &["--nodes", "0"][..],
        &["--workers", "0"][..],
        &["--workers", "-1"][..],
        &["--queries", "0"][..],
        &["--queries", "23"][..],
        &["--queries", ""][..],
        &["--message-kb", "0"][..],
        &["--clients", "0"][..],
        &["--rounds", "0"][..],
        &["--clients", "many"][..],
        &["--transport", "carrier-pigeon"][..],
        &["--frobnicate", "yes"][..],
        &[plan_mode.as_str(), "builder"][..],
        &[expr_engine.as_str(), "vm"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
            .args(args)
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
fn driver_row_counts_match_the_oracle() {
    const QUERIES: [u32; 5] = [1, 2, 6, 12, 15];
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args(["--sf", "0.005", "--nodes", "2", "--queries", "1,2,6,12,15"])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "driver failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = parse_json(&String::from_utf8(out.stdout).expect("utf8 stdout"));
    let queries = report.get("queries").arr();
    let want = oracle_rows(0.005, &QUERIES);
    assert_eq!(queries.len(), QUERIES.len());
    for ((q, n), rows) in queries.iter().zip(QUERIES).zip(want) {
        assert_eq!(q.get("query").num(), f64::from(n));
        assert_eq!(
            q.get("rows").num() as usize,
            rows,
            "row counts must match the oracle for query {n}"
        );
    }
}

/// The observability surfaces end to end: `--analyze` prints an annotated
/// tree to stderr, `--trace-out` writes well-formed trace JSON,
/// `--bench-out` writes a `hsqp-bench-v1` file, `--metrics` dumps the
/// registry — and `bench_check` accepts the fresh file against itself
/// while rejecting a doctored row count.
#[test]
fn driver_observability_flags_and_bench_check_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hsqp_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let bench = dir.join("bench.json");

    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args([
            "--sf",
            "0.005",
            "--nodes",
            "2",
            "--queries",
            "3,6",
            "--analyze",
            "--metrics",
            "--trace-out",
            trace.to_str().unwrap(),
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "observability run failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("Exchange Gather") && stderr.contains("net wait"),
        "--analyze must print an annotated plan tree, got:\n{stderr}"
    );
    assert!(
        stderr.contains("queries.completed"),
        "--metrics must print the registry, got:\n{stderr}"
    );

    let trace_doc = parse_json(&std::fs::read_to_string(&trace).expect("trace written"));
    assert!(
        !trace_doc.get("traceEvents").arr().is_empty(),
        "trace must contain events"
    );

    let bench_text = std::fs::read_to_string(&bench).expect("bench written");
    let bench_doc = parse_json(&bench_text);
    assert_eq!(bench_doc.get("schema"), &Json::Str("hsqp-bench-v1".into()));
    assert_eq!(bench_doc.get("queries").arr().len(), 2);

    // bench_check: identity passes, doctored rows fail.
    let check = |baseline: &std::path::Path, current: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_bench_check"))
            .args([
                baseline.to_str().unwrap(),
                current.to_str().unwrap(),
                "--latency",
                "warn",
            ])
            .output()
            .expect("bench_check ran")
    };
    assert!(check(&bench, &bench).status.success());
    let doctored = dir.join("doctored.json");
    std::fs::write(
        &doctored,
        bench_text.replace("\"rows\": 1,", "\"rows\": 2,"),
    )
    .expect("doctored written");
    let bad = check(&bench, &doctored);
    assert!(
        !bad.status.success(),
        "bench_check must fail on row-count drift"
    );
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("row count drifted"),
        "drift must be reported"
    );

    // Best-of-N: a contention-inflated run alone trips the enforcing gate,
    // but adding one quiet run alongside it clears it (per-query minimum).
    let slow = dir.join("slow.json");
    std::fs::write(&slow, bench_text.replace("\"ms\": ", "\"ms\": 9")).expect("slow written");
    let gate = |currents: &[&std::path::Path]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_check"));
        cmd.arg(bench.to_str().unwrap());
        for c in currents {
            cmd.arg(c.to_str().unwrap());
        }
        cmd.args(["--latency", "fail", "--threshold", "1.5"])
            .output()
            .expect("bench_check ran")
    };
    assert!(
        !gate(&[&slow]).status.success(),
        "inflated run alone must fail the enforcing gate"
    );
    assert!(
        gate(&[&slow, &bench]).status.success(),
        "best-of-N with one quiet run must pass the enforcing gate"
    );
    let mixed = gate(&[&slow, &doctored]);
    assert!(
        !mixed.status.success()
            && String::from_utf8_lossy(&mixed.stderr).contains("disagree across current runs"),
        "cross-run row disagreement must be rejected"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `--explain` prints the compiled program for every filter / map /
/// aggregate input next to the operator tree.
#[test]
fn driver_explain_prints_compiled_programs() {
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args(["--queries", "6", "--explain"])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "explain failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
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

/// `--explain --analyze` executes the queries and emits each query's plan
/// (with compiled programs) and its profile as one coherent stderr block —
/// the profiler must not interleave into the middle of a plan.
#[test]
fn driver_explain_analyze_blocks_are_wellformed() {
    let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
        .args([
            "--sf",
            "0.005",
            "--nodes",
            "2",
            "--queries",
            "3,6",
            "--explain",
            "--analyze",
        ])
        .output()
        .expect("driver ran");
    assert!(
        out.status.success(),
        "explain+analyze failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout still carries the well-formed JSON report, untouched by the
    // explain/profile stream.
    let report = parse_json(&String::from_utf8(out.stdout).expect("utf8 stdout"));
    assert_eq!(report.get("failures").num(), 0.0);
    assert_eq!(report.get("queries").arr().len(), 2);

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

/// New observability flags reject bad values and bad mode combinations.
#[test]
fn driver_rejects_bad_observability_flags() {
    for args in [
        &["--profile", "maybe"][..],
        &["--trace-out"][..],
        &["--bench-out"][..],
        // Profile-derived outputs need the serial mode.
        &["--clients", "2", "--analyze"][..],
        &["--rounds", "2", "--bench-out", "/tmp/x.json"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsqp"))
            .args(args)
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
