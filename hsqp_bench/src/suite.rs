//! `suite`: every workload several times, each run in its own process,
//! into one file — and `compare` of two such files.

use std::process::Stdio;
use std::time::Instant;

use crate::args::SuiteOpts;
use crate::catalog::{Better, Metric, END_TO_END, WORKLOADS};
use crate::json::{self, num, obj, s, Json};
use crate::procs::this_exe;
use crate::stats::{median, quartiles, spread};

const SCHEMA: &str = "hsqp-bench-suite-v1";

/// One run in a child process; returns its parsed result line.
fn run_child(workload: &str, seed: u64, opts: &SuiteOpts, trace: bool) -> Result<Json, String> {
    let mut cmd = this_exe()?;
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let started = Instant::now();
    // `output` waits for the child: no run overlaps the next.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("suite: spawning a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "suite: {workload} seed {seed} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("suite: a run printed nothing")?;
    let result = json::parse(last).map_err(|e| format!("suite: result line: {e}"))?;
    Ok(obj([
        ("workload", s(workload)),
        ("seed", num(seed as f64)),
        ("trace", num(f64::from(u8::from(trace)))),
        ("wall_s", num(started.elapsed().as_secs_f64())),
        ("result", result),
    ]))
}

/// Run the whole suite and write `opts.out`.
pub fn suite(opts: &SuiteOpts) -> Result<(), String> {
    let mut runs = Vec::new();
    let write = |runs: &[Json]| {
        let doc = obj([
            ("schema", s(SCHEMA)),
            (
                "nproc",
                num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
            ),
            ("seconds", num(opts.seconds)),
            ("quick", Json::Bool(opts.quick)),
            ("runs", Json::Arr(runs.to_vec())),
        ]);
        std::fs::write(&opts.out, json::render(&doc) + "\n")
            .map_err(|e| format!("{}: {e}", opts.out))
    };
    for i in 0..opts.runs {
        // Alternate the order so no workload always runs on a host another
        // one has just warmed (or heated).
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let seed = opts.seed + i as u64;
            eprintln!("suite: {workload} seed {seed} ({}/{})", i + 1, opts.runs);
            runs.push(run_child(workload, seed, opts, false)?);
            write(&runs)?;
        }
    }
    for w in &WORKLOADS {
        eprintln!("suite: {} traced", w.name);
        runs.push(run_child(w.name, opts.seed, opts, true)?);
        write(&runs)?;
    }
    Ok(())
}

/// The runs of one suite file.
struct Suite {
    runs: Vec<Json>,
}

impl Suite {
    fn load(path: &str) -> Result<Suite, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} file"));
        }
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no \"runs\""))?
            .to_vec();
        Ok(Suite { runs })
    }

    fn results<'a>(&'a self, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Json> {
        self.runs
            .iter()
            .filter(move |r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(trace)))
            })
            .filter_map(|r| r.get("result"))
    }

    /// Every value of one metric over the workload's runs.
    fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.results(workload, trace)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Failed executions over attempted ones, across the workload's runs.
    fn fail_ratio(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> f64 {
            self.results(workload, false)
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        let attempted = sum("attempted");
        if attempted == 0.0 {
            0.0
        } else {
            sum("failed") / attempted
        }
    }
}

/// Verdict on one workload × metric pair.
#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of a side is wider than the bound and the
    /// medians differ by less than that spread explains: the pair cannot
    /// be called unchanged, nor regressed.
    Unresolved,
}

/// Judge `b` against `a`: both sides' values of one gated metric. A noisy
/// side widens what the medians may differ by before it is a regression;
/// it never hides one that is larger than the bound and the noise together.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let (a2, b2) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (b2 - a2) / a2,
        Better::Higher => (a2 - b2) / a2,
    };
    let noise = spread(a).max(spread(b));
    let noisy = noise > bound;
    if worse_by > bound + if noisy { noise } else { 0.0 } {
        Verdict::Regressed
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn cell(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!("{q2:>11.4} [{q1:.4} .. {q3:.4}]")
}

/// Compare suite file `b` against `a`; `Ok(true)` when nothing regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = Suite::load(a_path)?;
    let b = Suite::load(b_path)?;
    let mut clean = true;
    println!("A = {a_path}\nB = {b_path}\n");
    println!(
        "{:<18} {:<17} {:<40} {:<40} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1 .. q3]", "B median [q1 .. q3]", "B/A", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                a.values(w.name, false, m.name),
                b.values(w.name, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<18} {:<17} missing on one side", w.name, m.name);
                clean = false;
                continue;
            }
            let verdict = judge(m, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<18} {:<17} {:<40} {:<40} {:>7.4} {:>5.0}%  {}",
                w.name,
                m.name,
                cell(&va),
                cell(&vb),
                mb / ma,
                m.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (a.fail_ratio(w.name), b.fail_ratio(w.name));
        let more_failures = fb > fa;
        clean &= !more_failures;
        println!(
            "{:<18} {:<17} A {fa:.6}  B {fb:.6}  {}",
            w.name,
            "fail ratio",
            if more_failures { "regressed" } else { "ok" }
        );
    }
    println!("\nhost.calib_ms (median of the traced runs; the host's speed, not the engine's)");
    for w in &WORKLOADS {
        let side = |suite: &Suite| {
            let v = suite.values(w.name, true, "host.calib_ms");
            if v.is_empty() {
                "-".to_string()
            } else {
                format!("{:.3}", median(&v))
            }
        };
        println!("{:<18} A {:>9}  B {:>9}", w.name, side(&a), side(&b));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
            what: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (lower, higher) = (metric(Better::Lower), metric(Better::Higher));
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [85.0, 86.0, 84.0, 85.5, 84.5];
        // Lower is better: +15 % is past the 10 % bound, -15 % is fine.
        assert_eq!(judge(&lower, &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(&lower, &steady, &faster), Verdict::Ok);
        // Higher is better: the same numbers read the other way.
        assert_eq!(judge(&higher, &steady, &slower), Verdict::Ok);
        assert_eq!(judge(&higher, &steady, &faster), Verdict::Regressed);
        // Within the bound.
        let close = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(judge(&lower, &steady, &close), Verdict::Ok);
        // A side noisier than the bound cannot be called either way ...
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&lower, &steady, &noisy), Verdict::Unresolved);
        // ... unless it is worse by more than the bound and its noise
        // together: twice as slow and noisy is still a regression.
        let noisy_and_slow = noisy.map(|v| v * 2.0);
        assert!(spread(&noisy_and_slow) > 0.10);
        assert_eq!(judge(&lower, &steady, &noisy_and_slow), Verdict::Regressed);
        assert_eq!(
            judge(&higher, &steady, &noisy_and_slow),
            Verdict::Unresolved
        );
    }

    #[test]
    fn suite_files_are_read_back_by_workload_and_trace() {
        let run = |workload: &str, trace: f64, qph: f64, failed: f64| {
            obj([
                ("workload", s(workload)),
                ("trace", num(trace)),
                (
                    "result",
                    obj([
                        ("attempted", num(100.0)),
                        ("failed", num(failed)),
                        (
                            "metrics",
                            obj([("qph", obj([("value", num(qph)), ("unit", s("1/h"))]))]),
                        ),
                    ]),
                ),
            ])
        };
        let suite = Suite {
            runs: vec![
                run("tpch_sf001_sim", 0.0, 10.0, 0.0),
                run("tpch_sf001_sim", 0.0, 12.0, 1.0),
                run("tpch_sf001_sim", 1.0, 99.0, 0.0),
                run("shuffle_sf01_sim", 0.0, 50.0, 0.0),
            ],
        };
        assert_eq!(
            suite.values("tpch_sf001_sim", false, "qph"),
            vec![10.0, 12.0]
        );
        assert_eq!(suite.values("tpch_sf001_sim", true, "qph"), vec![99.0]);
        assert_eq!(suite.fail_ratio("tpch_sf001_sim"), 0.005);
        assert_eq!(suite.fail_ratio("tpch_sf005_sim"), 0.0);
    }
}
