//! `hsqp_bench` — the repository's benchmark: four closed-loop,
//! single-client workloads sized for two cores, five end-to-end metrics,
//! per-layer probes and a traced run. See `README.md`.

mod args;
mod catalog;
mod digest;
mod json;
mod probes;
mod procs;
mod reference;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

use args::Command;
use reference::Reference;
use run::Report;

fn print_report(opts: &run::RunOpts, report: &Report) {
    println!(
        "workload {}  seed {}  {}  golden={}",
        opts.workload.name,
        opts.seed,
        if opts.trace { "traced" } else { "timed" },
        report.golden.label()
    );
    for (metric, value) in &report.metrics {
        println!("  {:<34} {:>16.4} {}", metric.name, value, metric.unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  attempted {}  failed {}  fail ratio {:.6}  correct {}",
        report.attempted, report.failed, fail_ratio, report.correct
    );
    for note in &report.notes {
        println!("  note: {note}");
    }
    if let reference::Golden::Mismatch(why) = &report.golden {
        println!("  golden mismatch: {why}");
    }
    println!("{}", json::render(&report.to_json()));
}

/// Re-record the golden digests of every workload's data set.
fn record_golden() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let mut written = std::collections::BTreeSet::new();
    for w in &catalog::WORKLOADS {
        let stem = reference::golden_stem(w);
        if !written.insert(stem) {
            continue;
        }
        let reference = Reference::compute(w, false)?;
        if reference.q9_is_empty() {
            eprintln!("note: {stem}: Q9 returns 0 rows; recorded as is");
        }
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, json::render(&reference.to_json()) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "recorded {} ({} templates, data fingerprint {})",
            path.display(),
            reference.digests.len(),
            reference.fingerprint
        );
    }
    eprintln!("rebuild to compile the new goldens in");
    Ok(())
}

fn dispatch(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Help => print!("{}", args::USAGE),
        Command::List { json: true } => println!("{}", json::render(&catalog::benchmark_json())),
        Command::List { json: false } => print!("{}", catalog::glossary()),
        Command::Node => procs::node_main()?,
        Command::Reference { workload, quick } => {
            let reference = Reference::compute(workload, quick)?;
            println!("{}", json::render(&reference.to_json()));
        }
        Command::RecordGolden => record_golden()?,
        Command::Suite(opts) => suite::suite(&opts)?,
        Command::Compare { a, b } => {
            if !suite::compare(&a, &b)? {
                return Ok(ExitCode::FAILURE);
            }
        }
        Command::Run(opts) => {
            let report = run::run(&opts)?;
            print_report(&opts, &report);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
