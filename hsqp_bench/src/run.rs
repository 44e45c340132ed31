//! One run of one workload: set-up, reference check, warm-up, measured
//! window, and the report — untraced for the end-to-end metrics, traced
//! for the per-layer ones.

use std::collections::BTreeMap;
use std::time::Instant;

use hsqp::engine::cluster::QueryResult;
use hsqp::engine::EngineError;

use crate::catalog::{Kind, Metric, Workload, END_TO_END, PER_LAYER};
use crate::digest::Digest;
use crate::json::{num, obj, s, Json};
use crate::probes;
use crate::procs::{cpu_seconds, peak_rss_mb, steal_seconds};
use crate::reference::{check_golden, Golden, Reference};
use crate::stats::{geomean, median, percentile, quartiles};
use crate::trace::{Breakdown, Tracer};
use crate::workload::{ms_since, templates, Backend, SetupTimes, Template};

/// Arguments of one run.
pub struct RunOpts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Harness-test scale: SF 0.005, fewer set-ups and passes.
    pub quick: bool,
    /// Where to write the traced run's spans as Chrome-trace JSON.
    pub trace_out: Option<String>,
    /// Test hook: panic once the cluster is up, to exercise the clean-up
    /// of node children on an unwinding harness.
    pub fail_after_setup: bool,
}

/// What a run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub golden: Golden,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Human-readable notes (sample counts, call-outs).
    pub notes: Vec<String>,
}

impl Report {
    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    obj([("value", num(*v)), ("unit", s(m.unit))]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// SplitMix64: the harness's own generator, so the template order depends
/// on `--seed` and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The order templates run in within pass `pass`: a Fisher–Yates shuffle
/// of `0..n` driven by `seed` and the pass number. Every pass gets another
/// order so that a template's best latency is not tied to one particular
/// predecessor (which alone moved a run by 2-4 %).
pub fn permutation(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ (pass as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Executions so far, checked against the reference and against the first
/// execution of the same template.
struct Checker<'a> {
    reference: &'a Reference,
    first: Vec<Option<Digest>>,
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(reference: &'a Reference, templates: usize) -> Self {
        Checker {
            reference,
            first: vec![None; templates],
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
        }
    }

    /// Record one execution; `true` when it is correct.
    fn check(&mut self, idx: usize, name: &str, result: &Result<QueryResult, EngineError>) -> bool {
        self.attempted += 1;
        let verdict = match result {
            Err(e) => Err(format!("error: {e}")),
            Ok(r) => {
                let digest = Digest::of(&r.table);
                let against_reference = match self.reference.digests.get(name) {
                    Some(expected) => expected
                        .same_as(&digest)
                        .map_err(|why| format!("differs from the reference: {why}")),
                    None => Err("no reference digest".to_string()),
                };
                let against_first = match &self.first[idx] {
                    Some(first) => first
                        .same_as(&digest)
                        .map_err(|why| format!("differs from its first execution: {why}")),
                    None => {
                        self.first[idx] = Some(digest);
                        Ok(())
                    }
                };
                against_reference.and(against_first)
            }
        };
        if let Err(why) = &verdict {
            self.failed += 1;
            if self.complaints.len() < 8 {
                self.complaints.push(format!("{name}: {why}"));
            }
        }
        verdict.is_ok()
    }
}

/// Latencies of a measured window.
struct Window {
    /// Per template (canonical index), the correct executions' latencies.
    lat_ms: Vec<Vec<f64>>,
    /// Per pass, its executions' latencies summed, in seconds.
    pass_s: Vec<f64>,
}

impl Window {
    fn new(templates: usize) -> Self {
        Window {
            lat_ms: vec![Vec::new(); templates],
            pass_s: Vec::new(),
        }
    }

    fn passes(&self) -> usize {
        self.pass_s.len()
    }

    fn median_pass_ms(&self) -> f64 {
        median(&self.pass_s) * 1e3
    }

    fn best_pass_ms(&self) -> f64 {
        best(&self.pass_s) * 1e3
    }

    /// One latency per template: `pick` of its correct executions over the
    /// passes. A template that never executed correctly is an error, so
    /// that it cannot drop out of a sum and flatter the run.
    fn per_template(
        &self,
        templates: &[Template],
        pick: fn(&[f64]) -> f64,
    ) -> Result<Vec<f64>, String> {
        self.lat_ms
            .iter()
            .zip(templates)
            .map(|(l, t)| match l.is_empty() {
                true => Err(format!("{} never executed correctly", t.name)),
                false => Ok(pick(l)),
            })
            .collect()
    }

    fn all_latencies(&self) -> impl Iterator<Item = f64> + '_ {
        self.lat_ms.iter().flatten().copied()
    }
}

/// Seconds each step of a run took, for the run's notes.
struct Phases {
    started: Instant,
    last: Instant,
    log: Vec<String>,
}

impl Phases {
    fn new() -> Phases {
        let now = Instant::now();
        Phases {
            started: now,
            last: now,
            log: Vec::new(),
        }
    }

    /// Close the phase that began when the last one closed; its seconds.
    fn done(&mut self, name: &str) -> f64 {
        let seconds = self.last.elapsed().as_secs_f64();
        self.log.push(format!("{name} {seconds:.1}"));
        self.last = Instant::now();
        seconds
    }

    fn note(&self) -> String {
        format!(
            "seconds by phase: {}; {:.1} in all",
            self.log.join(", "),
            self.started.elapsed().as_secs_f64()
        )
    }
}

fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

fn largest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// How many set-ups a timed run repeats: at least 9, and 15 when one is
/// so short (under 0.2 s) that scheduler noise is a visible share of it.
fn setup_repeats(first: &SetupTimes, quick: bool) -> usize {
    if quick {
        3
    } else if first.total_s < 0.2 {
        15
    } else {
        9
    }
}

/// Keep every core busy for a second before anything is timed. A host
/// that has idled (or run the timer-bound socket workload) clocks its
/// cores down and needs about that long under load to clock back up;
/// without this the first set-ups of a run take 0.19 s or 0.14 s depending
/// on what ran before it.
fn pre_heat() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let started = Instant::now();
                let mut x = 1u64;
                while started.elapsed().as_secs_f64() < 1.0 {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 7));
                    }
                }
            });
        }
    });
}

/// Step 1: set up repeatedly with full tear-down between, keep the last.
fn repeated_set_up(
    workload: &Workload,
    sf: f64,
    profiling: bool,
    repeats: impl Fn(&SetupTimes) -> usize,
) -> Result<(Backend, Vec<SetupTimes>), String> {
    pre_heat();
    let (mut backend, first) = Backend::set_up(workload.kind, sf, profiling)?;
    let wanted = repeats(&first);
    let mut times = vec![first];
    while times.len() < wanted {
        drop(backend);
        let (next, t) = Backend::set_up(workload.kind, sf, profiling)?;
        backend = next;
        times.push(t);
    }
    Ok((backend, times))
}

/// One pass: every template once, in the order `seed` gives this pass;
/// records into `window` and `checker`.
fn run_pass(
    backend: &Backend,
    templates: &[Template],
    seed: u64,
    checker: &mut Checker<'_>,
    window: &mut Window,
) {
    let mut pass_ms = 0.0;
    for idx in permutation(templates.len(), seed, window.passes()) {
        let template = &templates[idx];
        let t = Instant::now();
        let result = backend.execute(template);
        let ms = ms_since(t);
        pass_ms += ms;
        if checker.check(idx, &template.name, &result) {
            window.lat_ms[idx].push(ms);
        }
    }
    window.pass_s.push(pass_ms / 1e3);
}

/// Whole passes until `seconds` have elapsed and `min_passes` completed.
fn run_window(
    seconds: f64,
    min_passes: usize,
    window: &mut Window,
    mut pass: impl FnMut(&mut Window),
) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || window.passes() < min_passes {
        pass(window);
    }
}

fn metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"))
}

fn q9_note(reference: &Reference, notes: &mut Vec<String>) {
    if reference.q9_is_empty() {
        notes.push(
            "Q9 returns 0 rows: the generator's colour list stops before \"green\"; \
             recorded as is"
                .into(),
        );
    }
}

/// Run one workload once.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_timed(opts)
    }
}

fn run_timed(opts: &RunOpts) -> Result<Report, String> {
    let workload = opts.workload;
    let sf = workload.scale_factor(opts.quick);
    let templates = templates(workload.kind);
    let mut notes = Vec::new();
    let mut phases = Phases::new();

    // 1. Set-up, repeated.
    let (backend, setups) = repeated_set_up(workload, sf, false, |first| {
        setup_repeats(first, opts.quick)
    })?;
    phases.done("set-ups");
    let pids: Vec<u32> = std::iter::once(std::process::id())
        .chain(backend.child_pids())
        .collect();
    eprintln!("hsqp_bench: node children {:?}", backend.child_pids());
    if opts.fail_after_setup {
        panic!("--fail-after-setup: failing with the cluster up, as asked");
    }
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    notes.push(format!(
        "setup_s is the median of {} set-ups: {}",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    // 2. Reference answers (in a child: see `reference`).
    let reference = Reference::compute_in_child(workload, opts.quick)?;
    let golden = check_golden(workload, opts.quick, &reference);
    q9_note(&reference, &mut notes);
    let mut checker = Checker::new(&reference, templates.len());
    phases.done("reference");

    // 3. Warm-up pass, unmeasured.
    let mut warm_up = Window::new(templates.len());
    run_pass(&backend, &templates, opts.seed, &mut checker, &mut warm_up);
    phases.done("warm-up");

    // 4. Measured window.
    let min_passes = if opts.quick { 2 } else { 5 };
    let mut window = Window::new(templates.len());
    let steal_before = steal_seconds();
    run_window(opts.seconds, min_passes, &mut window, |w| {
        run_pass(&backend, &templates, opts.seed, &mut checker, w)
    });
    let rss = peak_rss_mb(&pids);
    notes.push(format!(
        "the hypervisor withheld {:.2} CPU-seconds (steal) during the {:.1} s window",
        steal_seconds() - steal_before,
        phases.done("window")
    ));
    drop(backend);

    // Interference on a shared host only ever adds time, in phases that
    // outlast a pass, so the fastest of a template's executions is the
    // steadiest estimate of what the engine costs: over the same ten runs
    // it spread 5-9 % where the median spread 9-19 % (see the README).
    let complain = |why: String| format!("{why}: {}", checker.complaints.join("; "));
    let bests = window.per_template(&templates, best).map_err(complain)?;
    let medians = window.per_template(&templates, median).map_err(complain)?;
    let (q1, q2, q3) = quartiles(&window.pass_s);
    notes.push(format!(
        "{} passes; a pass took {q2:.4} s [{q1:.4} .. {q3:.4}], {:.4} s at best",
        window.passes(),
        window.best_pass_ms() / 1e3,
    ));
    notes.push(format!(
        "by medians instead of bests: qph {:.4} (median pass), geomean_ms {:.4}, \
         slowest_query_ms {:.4}",
        3600.0 * templates.len() as f64 / q2,
        geomean(&medians),
        largest(&medians),
    ));
    notes.push(phases.note());
    let metrics = vec![
        (
            metric("qph"),
            3600.0 * bests.len() as f64 / (bests.iter().sum::<f64>() / 1e3),
        ),
        (metric("geomean_ms"), geomean(&bests)),
        (metric("slowest_query_ms"), largest(&bests)),
        (metric("peak_rss_mb"), rss),
        (metric("setup_s"), median(&setup_s)),
    ];
    notes.extend(checker.complaints.iter().cloned());
    Ok(Report {
        correct: checker.failed == 0 && !matches!(golden, Golden::Mismatch(_)),
        attempted: checker.attempted,
        failed: checker.failed,
        golden,
        metrics,
        notes,
    })
}

/// What the traced passes leave behind.
struct TraceLog {
    tracer: Tracer,
    /// One per pass.
    breakdowns: Vec<Breakdown>,
    queue_wait_ms: Vec<f64>,
    /// `QueryResult::bytes_shuffled` / `messages_sent` summed over the last
    /// pass (the same on every pass under static plans).
    bytes: u64,
    messages: u64,
}

/// One traced pass: harness spans around every layer call, the engine's
/// profile hung under them and rolled up.
fn run_traced_pass(
    backend: &Backend,
    templates: &[Template],
    seed: u64,
    checker: &mut Checker<'_>,
    window: &mut Window,
    log: &mut TraceLog,
) {
    let pass = window.passes();
    let order = permutation(templates.len(), seed, pass);
    let mut breakdown = Breakdown::default();
    (log.bytes, log.messages) = (0, 0);
    let mut pass_ms = 0.0;
    let pass_span = log.tracer.open(&format!("pass {pass}"), "harness", 0, 0);
    for (k, &idx) in order.iter().enumerate() {
        let template = &templates[idx];
        let request = (pass * templates.len() + k + 1) as u32;
        let exec = log
            .tracer
            .open(&template.name, "harness", pass_span, request);
        let outcome = backend.execute_traced(template, &mut log.tracer, exec, request);
        let ms = log.tracer.close(exec);
        pass_ms += ms;
        let result = outcome.map(|(result, spans)| {
            breakdown.plan += spans.plan_ms;
            breakdown.submit += spans.submit_ms;
            breakdown.wait += spans.wait_ms;
            breakdown.add_result(&result);
            log.queue_wait_ms
                .push(result.queue_wait.as_secs_f64() * 1e3);
            log.bytes += result.bytes_shuffled;
            log.messages += result.messages_sent;
            result
        });
        if checker.check(idx, &template.name, &result) {
            window.lat_ms[idx].push(ms);
        }
    }
    log.tracer.close(pass_span);
    window.pass_s.push(pass_ms / 1e3);
    log.breakdowns.push(breakdown);
}

fn run_traced(opts: &RunOpts) -> Result<Report, String> {
    let workload = opts.workload;
    let sf = workload.scale_factor(opts.quick);
    let templates = templates(workload.kind);
    let mut notes = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Set-up with profiling off, a few times for the per-step medians.
    let repeats = if opts.quick { 1 } else { 3 };
    let (backend, setups) = repeated_set_up(workload, sf, false, |_| repeats)?;
    eprintln!("hsqp_bench: node children {:?}", backend.child_pids());
    // The workload's own set-up steps; the probes fill in the other kind
    // of cluster's.
    let own_steps = match workload.kind {
        Kind::TpchSim | Kind::Shuffle => probes::SIM_STEPS,
        Kind::TpchSocket => probes::SOCKET_STEPS,
    };
    for (i, name) in own_steps.into_iter().enumerate() {
        let step: Vec<f64> = setups.iter().map(|t| t.steps_ms[i]).collect();
        values.insert(name, median(&step));
    }

    let reference = Reference::compute_in_child(workload, opts.quick)?;
    let golden = check_golden(workload, opts.quick, &reference);
    q9_note(&reference, &mut notes);
    let mut checker = Checker::new(&reference, templates.len());

    // Untraced passes: the base of the overhead ratio.
    let min_passes = if opts.quick { 2 } else { 3 };
    let mut warm_up = Window::new(templates.len());
    run_pass(&backend, &templates, opts.seed, &mut checker, &mut warm_up);
    values.insert("cluster.first_pass_ms", warm_up.median_pass_ms());
    let mut untraced = Window::new(templates.len());
    run_window(opts.seconds / 2.0, min_passes, &mut untraced, |w| {
        run_pass(&backend, &templates, opts.seed, &mut checker, w)
    });

    // Traced passes: profiling on needs a new simulated cluster; a process
    // cluster has no profiler, so the same one serves with harness spans.
    let backend = match workload.kind {
        Kind::TpchSocket => backend,
        Kind::TpchSim | Kind::Shuffle => {
            drop(backend);
            let (traced, _) = Backend::set_up(workload.kind, sf, true)?;
            let mut warm = Window::new(templates.len());
            run_pass(&traced, &templates, opts.seed, &mut checker, &mut warm);
            traced
        }
    };
    let pids: Vec<u32> = std::iter::once(std::process::id())
        .chain(backend.child_pids())
        .collect();
    let mut log = TraceLog {
        tracer: Tracer::new(),
        breakdowns: Vec::new(),
        queue_wait_ms: Vec::new(),
        bytes: 0,
        messages: 0,
    };
    let mut traced = Window::new(templates.len());
    let mut calib_ms = Vec::new();
    let counters_before = backend.counters();
    let cpu_before = cpu_seconds(&pids);
    let (steal_before, traced_started) = (steal_seconds(), Instant::now());
    run_window(opts.seconds / 2.0, min_passes, &mut traced, |w| {
        run_traced_pass(&backend, &templates, opts.seed, &mut checker, w, &mut log);
        calib_ms.push(probes::host_calibration_ms());
    });
    let cores = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
    values.insert(
        "host.steal_pct",
        100.0 * (steal_seconds() - steal_before) / (traced_started.elapsed().as_secs_f64() * cores),
    );
    let TraceLog {
        tracer,
        breakdowns,
        queue_wait_ms,
        bytes,
        messages,
    } = log;
    let passes = traced.passes() as f64;
    // The calibration kernel runs between passes, outside any pass's time
    // but inside the CPU reading; take its share back out.
    let calib_cpu_s: f64 = calib_ms.iter().sum::<f64>() / 1e3;
    let cpu_per_pass = (cpu_seconds(&pids) - cpu_before - calib_cpu_s).max(0.0) / passes;
    let counters = backend.counters().since(&counters_before);
    let plan_stats = probes::plan_stats(&backend, &templates)?;
    drop(backend);

    let field = |f: fn(&Breakdown) -> f64| median(&breakdowns.iter().map(f).collect::<Vec<_>>());
    values.insert("trace.pass_ms", traced.median_pass_ms());
    values.insert("trace.plan_ms", field(|b| b.plan));
    values.insert("trace.submit_ms", field(|b| b.submit));
    values.insert("trace.wait_ms", field(|b| b.wait));
    values.insert("trace.queue_wait_ms", field(|b| b.queue_wait));
    values.insert("trace.exec_ms", field(|b| b.exec));
    values.insert("trace.op_scan_ms", field(|b| b.scan));
    values.insert("trace.op_filter_map_ms", field(|b| b.filter_map));
    values.insert("trace.op_join_ms", field(|b| b.join));
    values.insert("trace.op_aggregate_ms", field(|b| b.aggregate));
    values.insert("trace.op_sort_ms", field(|b| b.sort));
    values.insert("trace.op_exchange_send_ms", field(|b| b.exchange_send));
    values.insert("trace.op_net_wait_ms", field(|b| b.net_wait));
    values.insert("trace.op_exchange_recv_ms", field(|b| b.exchange_recv));
    values.insert("trace.stage_gap_ms", field(|b| b.stage_gap));
    values.insert("trace.op_other_ms", field(|b| b.other));
    values.insert("cluster.queue_wait_p50_ms", median(&queue_wait_ms));
    values.insert("exchange.bytes_shuffled_per_pass", bytes as f64);
    values.insert("exchange.messages_per_pass", messages as f64);
    values.insert("exchange.pool_reuse_ratio", counters.pool_reuse_ratio());
    values.insert(
        "net.sched_rounds_per_pass",
        counters.sched_rounds as f64 / passes,
    );
    values.insert("planner.plan_us_per_query", plan_stats.plan_us);
    values.insert("vm.compile_us_per_query", plan_stats.compile_us);
    values.insert("planner.stages_per_pass", plan_stats.stages as f64);
    values.insert("planner.exchanges_per_pass", plan_stats.exchanges as f64);
    values.insert("proc.cpu_s_per_pass", cpu_per_pass);
    values.insert("host.calib_ms", median(&calib_ms));
    values.insert(
        "profile.overhead_ratio",
        traced.best_pass_ms() / untraced.best_pass_ms(),
    );
    let latencies: Vec<f64> = untraced
        .all_latencies()
        .chain(traced.all_latencies())
        .collect();
    if latencies.is_empty() {
        return Err(format!(
            "no correct execution: {}",
            checker.complaints.join("; ")
        ));
    }
    values.insert("lat.p90_ms", percentile(&latencies, 0.9));
    values.insert("lat.median_pass_ms", untraced.median_pass_ms());
    values.insert("lat.best_pass_ms", untraced.best_pass_ms());
    notes.push(format!(
        "lat.p90_ms over {} executions; {} untraced and {} traced passes; {} spans",
        latencies.len(),
        untraced.passes(),
        traced.passes(),
        tracer.len()
    ));

    // Kernel probes, after the window so they cannot disturb it.
    let probe_started = Instant::now();
    probes::run_all(opts.quick, &mut values)?;
    values.insert("probe.total_s", probe_started.elapsed().as_secs_f64());
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, tracer.chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!("spans written to {path}"));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .map(|v| (m, *v))
                .ok_or_else(|| format!("per-layer metric {:?} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    notes.extend(checker.complaints.iter().cloned());
    Ok(Report {
        correct: checker.failed == 0 && !matches!(golden, Golden::Mismatch(_)),
        attempted: checker.attempted,
        failed: checker.failed,
        golden,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_permutation_fixed_by_seed_and_pass() {
        let a = permutation(22, 7, 0);
        assert_eq!(a, permutation(22, 7, 0));
        assert_ne!(a, permutation(22, 8, 0));
        assert_ne!(a, permutation(22, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
        assert_eq!(permutation(1, 3, 0), vec![0]);
        assert!(permutation(0, 3, 0).is_empty());
    }

    #[test]
    fn windows_run_whole_passes_past_both_limits() {
        let mut w = Window::new(1);
        run_window(0.0, 5, &mut w, |w| w.pass_s.push(0.001));
        assert_eq!(w.passes(), 5);
        let mut w = Window::new(1);
        let started = Instant::now();
        run_window(0.05, 1, &mut w, |w| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            w.pass_s.push(0.01);
        });
        assert!(started.elapsed().as_secs_f64() >= 0.05);
        assert!(w.passes() >= 2);
    }

    #[test]
    fn short_set_ups_are_repeated_more() {
        let t = |total_s| SetupTimes {
            total_s,
            steps_ms: [0.0; 3],
        };
        assert_eq!(setup_repeats(&t(0.1), false), 15);
        assert_eq!(setup_repeats(&t(0.5), false), 9);
        assert_eq!(setup_repeats(&t(0.5), true), 3);
    }
}
