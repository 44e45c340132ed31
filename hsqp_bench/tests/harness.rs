//! End-to-end tests of the harness binary at the `--quick` scale (SF 0.005,
//! short windows): the result line's shape, the catalog against
//! `BENCHMARK.json`, and process hygiene of the socket workload.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

use hsqp::benchjson::{parse, Json};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hsqp_bench"))
        .args(args)
        .output()
        .expect("run hsqp_bench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default()
        .to_string()
}

fn keys(value: &Json) -> BTreeSet<String> {
    match value {
        Json::Obj(m) => m.keys().cloned().collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn catalog() -> Json {
    let out = harness(&["list", "--json"]);
    assert!(out.status.success());
    parse(&last_line(&out)).expect("list --json prints JSON")
}

/// Run one workload at the quick scale and return its parsed result line,
/// after checking the line's shape against the catalog.
fn quick_run(workload: &str, trace: bool) -> (Json, Output) {
    let out = harness(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--quick",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{workload}: {stderr}");
    let result = parse(&last_line(&out)).expect("the last stdout line is JSON");
    let expected: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(keys(&result), expected);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let section = if trace { "per_layer" } else { "end_to_end" };
    let listed = catalog();
    let metrics = result.get("metrics").unwrap();
    assert_eq!(
        keys(metrics),
        names(listed.get(section).unwrap()).into_iter().collect(),
        "{workload}: --trace {trace} reports exactly the {section} metrics"
    );
    for m in listed.get(section).unwrap().as_arr().unwrap() {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let reported = metrics.get(name).unwrap();
        assert_eq!(reported.get("unit"), m.get("unit"), "{name}");
        let value = reported.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
        if !trace {
            assert!(value.unwrap() > 0.0, "{name} is never 0");
        }
    }
    (result, out)
}

/// Process ids on the harness's `node children [a, b]` stderr line.
fn child_pids(out: &Output) -> Vec<u32> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains("node children ["))
        .unwrap_or_else(|| panic!("no node-children line in {stderr:?}"));
    let inside = &line[line.find('[').unwrap() + 1..line.rfind(']').unwrap()];
    inside
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| p.trim().parse().expect("a pid"))
        .collect()
}

fn assert_gone(pids: &[u32]) {
    for pid in pids {
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "node child {pid} outlived the harness"
        );
    }
}

#[test]
fn list_matches_benchmark_json_and_the_contracts_limits() {
    let listed = catalog();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json is JSON");
    assert_eq!(
        listed, committed,
        "regenerate with `hsqp_bench list --json`"
    );

    let expected: BTreeSet<String> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(keys(&listed), expected);
    let workloads = names(listed.get("workloads").unwrap());
    let end_to_end = names(listed.get("end_to_end").unwrap());
    let per_layer = names(listed.get("per_layer").unwrap());
    assert_eq!(workloads.len(), 4);
    assert_eq!(end_to_end.len(), 5);
    assert!(!per_layer.is_empty() && per_layer.len() <= 128);
    assert!(end_to_end.contains(&"setup_s".to_string()));

    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "name {name:?}");
        assert!(
            name.chars().next().unwrap().is_ascii_alphanumeric(),
            "name {name:?}"
        );
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "names are used once"
    );

    for w in listed.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
        assert_eq!(keys(w).len(), 2);
    }
    for section in ["end_to_end", "per_layer"] {
        for m in listed.get(section).unwrap().as_arr().unwrap() {
            let unit = m.get("unit").and_then(Json::as_str).unwrap();
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{unit:?}"
            );
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert!(better == "higher" || better == "lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            if section == "end_to_end" {
                assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
            } else {
                assert_eq!(bound, None);
            }
        }
    }
    let seconds = listed.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    for path in listed.get("paths").unwrap().as_arr().unwrap() {
        assert_eq!(path.as_str(), Some("hsqp_bench"));
    }

    // The human glossary names the same things.
    let glossary = String::from_utf8(harness(&["list"]).stdout).unwrap();
    for name in all {
        assert!(
            glossary.contains(name.as_str()),
            "{name} missing from `list`"
        );
    }
}

#[test]
fn simulated_workloads_report_the_end_to_end_metrics() {
    for workload in ["tpch_sf005_sim", "tpch_sf001_sim", "shuffle_sf01_sim"] {
        let (_, out) = quick_run(workload, false);
        assert!(child_pids(&out).is_empty(), "{workload} spawns no node");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_spans() {
    let trace_path = std::env::temp_dir().join(format!("hsqp_bench_{}.json", std::process::id()));
    let out = harness(&[
        "--workload",
        "shuffle_sf01_sim",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--quick",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace is JSON");
    let _ = std::fs::remove_file(&trace_path);
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let named = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    assert!(named("wide_repart") && named("submit") && named("wait"));
    assert!(events
        .iter()
        .any(|e| e.get("cat").and_then(Json::as_str) == Some("exchange")));
    // The shape of the result line, with the per-layer names.
    quick_run("tpch_sf001_sim", true);
}

#[test]
fn socket_workload_leaves_no_child_behind() {
    let (_, out) = quick_run("tpch_sf001_socket", false);
    let pids = child_pids(&out);
    assert_eq!(pids.len(), 2, "two node processes");
    assert_gone(&pids);
}

#[test]
fn a_panicking_harness_still_reaps_its_children() {
    let out = harness(&[
        "--workload",
        "tpch_sf001_socket",
        "--seconds",
        "1",
        "--quick",
        "--fail-after-setup",
    ]);
    assert!(!out.status.success(), "the injected panic fails the run");
    assert!(
        !last_line(&out).starts_with('{'),
        "a failed run prints no result line"
    );
    let pids = child_pids(&out);
    assert_eq!(pids.len(), 2);
    assert_gone(&pids);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "3"],
        &["frobnicate"],
    ] {
        let out = harness(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
