//! `hsqp` — end-to-end TPC-H driver.
//!
//! Generates TPC-H at a scale factor, starts a simulated N-node cluster
//! (storage → tpch → numa → net → engine) or connects to `hsqp-node`
//! processes, runs a set of the 22 distributed TPC-H queries, and prints a
//! JSON report.
//!
//! Every run is a closed loop: `--clients N` threads (default 1) each
//! submit the query set `--rounds R` times (default 1), one query at a
//! time, to a dispatcher that admits up to N queries at once. The report
//! gives each query's row count (which must agree across executions) and
//! times, their geometric mean, and queries/hour with latency percentiles.
//!
//! ```bash
//! cargo run --release --bin hsqp -- --sf 0.01 --nodes 4 --output timings.json
//! cargo run --release --bin hsqp -- --sf 0.01 --nodes 4 --clients 4 --rounds 3
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::process::ExitCode;
use std::time::Instant;

use hsqp::benchjson::Json;
use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, Query, StageRole, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
use hsqp::engine::vm::compile_stage;
use hsqp::engine::{chrome_trace, Coordinator, QueryHandle, QueryProfile, QueryResult};
use hsqp::storage::Schema;
use hsqp::tpch::TpchDb;

const USAGE: &str = "\
hsqp — end-to-end TPC-H driver over the simulated cluster

USAGE:
    hsqp [OPTIONS]

OPTIONS:
    --sf <FLOAT>           TPC-H scale factor (default 0.01)
    --nodes <N>            Simulated servers in the cluster (default 4)
    --workers <N>          Worker threads per server (default 2)
    --queries <LIST>       Comma-separated query numbers, e.g. 1,3,6
                           (default: all 22)
    --explain              Print each stage's physical plan, cost-model
                           decisions and compiled programs without running
                           anything (planned from the statistics and the
                           exact row counts a live run plans from). With
                           --analyze, queries run and each execution's
                           plan and profile print as one block on stderr
    --cluster <LIST>       Comma-separated hsqp-node addresses, e.g.
                           127.0.0.1:7401,127.0.0.1:7402: run on those
                           processes over TCP instead of the simulated
                           cluster (--nodes is ignored). Incompatible with
                           --analyze, --trace-out and --engine classic
    --transport <T>        rdma | rdma-unscheduled | tcp (default rdma);
                           simulated-fabric modes, ignored with --cluster
    --engine <E>           hybrid | classic (default hybrid)
    --message-kb <N>       Tuple bytes per network message in KiB (default 32)
    --clients <N>          Client threads (default 1), each submitting the
                           query set --rounds times, one query at a time;
                           the dispatcher admits up to N queries at once
    --rounds <R>           Passes over the query set per client (default 1)
    --output <PATH>        Also write the JSON report to PATH
    --analyze              EXPLAIN ANALYZE: after each execution, print its
                           plan tree with actual rows, wall time, bytes
                           shuffled, and per-node network wait vs compute
    --trace-out <PATH>     Write a Chrome trace-event JSON of every
                           execution (chrome://tracing or Perfetto)
    --metrics              Print the cluster-wide metrics registry
                           (dispatcher, admission wait, per-link bytes)
                           after the run
    -h, --help             Show this help
";

struct Args {
    sf: f64,
    nodes: u16,
    workers: u16,
    cluster: Option<Vec<String>>,
    queries: Option<Vec<u32>>,
    explain: bool,
    transport: String,
    engine: String,
    message_bytes: usize,
    clients: u16,
    rounds: u32,
    output: Option<String>,
    analyze: bool,
    trace_out: Option<String>,
    metrics: bool,
}

/// `value` as a positive integer for `flag`.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(|v| *v >= T::from(1))
        .ok_or_else(|| format!("{flag} must be a positive integer, got {value:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        nodes: 4,
        workers: 2,
        cluster: None,
        queries: None,
        explain: false,
        transport: "rdma".to_string(),
        engine: "hybrid".to_string(),
        message_bytes: 32 * 1024,
        clients: 1,
        rounds: 1,
        output: None,
        analyze: false,
        trace_out: None,
        metrics: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let flag = flag.as_str();
        match flag {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--explain" => args.explain = true,
            "--analyze" => args.analyze = true,
            "--metrics" => args.metrics = true,
            _ => {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                parse_flag(&mut args, flag, value)?;
            }
        }
    }
    Ok(args)
}

/// Apply one `flag value` pair to `args`.
fn parse_flag(args: &mut Args, flag: &str, value: String) -> Result<(), String> {
    match flag {
        "--sf" => {
            args.sf = value
                .parse()
                .map_err(|_| format!("invalid --sf {value:?}"))?;
            if !args.sf.is_finite() || args.sf <= 0.0 {
                return Err("--sf must be positive".into());
            }
        }
        "--nodes" => args.nodes = positive(flag, &value)?,
        "--workers" => args.workers = positive(flag, &value)?,
        "--cluster" => {
            let addrs: Vec<String> = value
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if addrs.is_empty() {
                return Err("--cluster must name at least one node address".into());
            }
            args.cluster = Some(addrs);
        }
        "--queries" => {
            let list: Vec<u32> = value
                .split(',')
                .map(|q| {
                    q.trim()
                        .parse::<u32>()
                        .ok()
                        .filter(|q| (1..=22).contains(q))
                        .ok_or_else(|| format!("invalid query number {q:?} (valid: 1..=22)"))
                })
                .collect::<Result<_, _>>()?;
            if list.is_empty() {
                return Err("--queries must name at least one query".into());
            }
            args.queries = Some(list);
        }
        "--transport" => args.transport = value,
        "--engine" => args.engine = value,
        "--message-kb" => {
            let kb: usize = positive(flag, &value)?;
            args.message_bytes = kb
                .checked_mul(1024)
                .ok_or_else(|| format!("{flag} {kb} is too large"))?;
        }
        "--clients" => args.clients = positive(flag, &value)?,
        "--rounds" => args.rounds = positive(flag, &value)?,
        "--output" => args.output = Some(value),
        "--trace-out" => args.trace_out = Some(value),
        other => return Err(format!("unknown flag {other:?} (see --help)")),
    }
    Ok(())
}

fn cluster_config(args: &Args) -> Result<ClusterConfig, String> {
    let transport = match args.transport.as_str() {
        "rdma" => Transport::rdma_scheduled(),
        "rdma-unscheduled" => Transport::rdma_unscheduled(),
        "tcp" => Transport::tcp(),
        other => return Err(format!("unknown transport {other:?}")),
    };
    let engine = match args.engine.as_str() {
        "hybrid" => EngineKind::Hybrid,
        "classic" => EngineKind::Classic,
        other => return Err(format!("unknown engine {other:?}")),
    };
    Ok(ClusterConfig {
        workers_per_node: args.workers,
        transport,
        engine,
        numa_cost_ns: 0.0,
        message_capacity: args.message_bytes,
        max_concurrent: args.clients,
        // Spans are recorded only when something reads them.
        profiling: args.analyze || args.trace_out.is_some(),
        ..ClusterConfig::paper(args.nodes)
    })
}

/// Render one query's EXPLAIN block: the banner, then each stage's
/// operator tree and compiled programs. One buffer, so that callers print
/// it in one call and nothing interleaves into the middle of a block.
fn render_query_plan(args: &Args, n: u32, query: &Query, notes: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Q{n} ({} nodes, SF {}) ==", args.nodes, args.sf);
    let total = query.stages.len();
    let mut temps: HashMap<String, Schema> = HashMap::new();
    for (i, stage) in query.stages.iter().enumerate() {
        let role = match &stage.role {
            StageRole::Params => " scalar parameters".to_string(),
            StageRole::Materialize(name) => format!(" materialize {name:?}"),
            StageRole::Result => " result".to_string(),
        };
        // Stages carry the planner's cardinality estimate; a profiled run
        // (--analyze) prints the actuals next to it.
        let est = match stage.estimated_rows {
            Some(e) => format!("  [est ~{e:.0} rows]"),
            None => String::new(),
        };
        let _ = writeln!(out, "-- stage {}/{total}:{role}{est}", i + 1);
        // Cost-model decisions the planner made while lowering this stage
        // (broadcast vs repartition, pre-aggregation vs raw reshuffle,
        // CTE placement), with both priced alternatives.
        if let Some(stage_notes) = notes.get(i) {
            for note in stage_notes {
                let _ = writeln!(out, "   decision: {note}");
            }
        }
        let (compiled, schema) = compile_stage(&stage.plan, &|t| Some(t.schema()), &temps);
        out.push_str(&compiled.render(&stage.plan));
        if let (StageRole::Materialize(name), Some(s)) = (&stage.role, schema) {
            temps.insert(name.clone(), s);
        }
    }
    out.push('\n');
    out
}

/// Print each stage's lowered physical plan without executing anything
/// (no cluster): exchange placement, broadcast vs repartition choices, and
/// the compiled expression programs are visible directly in the operator
/// trees.
fn explain(args: &Args, queries: &[u32]) -> Result<(), String> {
    // The data is generated only to be counted: a loaded cluster of either
    // kind reports these row counts, and a live run plans from them.
    let db = TpchDb::generate(args.sf);
    let planner = Planner::for_tpch(args.nodes, args.sf, |t| Some(db.table(t).rows() as u64));
    let mut out = String::new();
    for &n in queries {
        let logical = tpch_logical(n).map_err(|e| format!("query {n}: {e}"))?;
        let (query, notes) = planner
            .plan_query_explained(&logical)
            .map_err(|e| format!("query {n}: {e}"))?;
        out.push_str(&render_query_plan(args, n, &query, &notes));
    }
    // One writer for the whole report: nothing else prints to stdout in
    // this mode, and stderr diagnostics cannot split a plan in half.
    print!("{out}");
    Ok(())
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Milliseconds as a JSON number, to the microsecond (`null` when not
/// finite).
fn ms(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

/// This process's peak resident set (`VmHWM` of `/proc/self/status`) in
/// MB, or `null` where that cannot be read. With `--cluster` it is the
/// coordinator's alone: the nodes are processes of their own.
fn peak_rss_mb() -> Json {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(Json::Null, |kb| {
        Json::Num((kb / 1024.0 * 10.0).round() / 10.0)
    })
}

/// `{p50, p90, p99, max}` of an unsorted millisecond sample.
fn percentiles(samples: &mut [f64]) -> Json {
    samples.sort_by(f64::total_cmp);
    Json::obj([
        ("p50", ms(percentile(samples, 0.5))),
        ("p90", ms(percentile(samples, 0.9))),
        ("p99", ms(percentile(samples, 0.99))),
        ("max", ms(samples.last().copied().unwrap_or(f64::NAN))),
    ])
}

/// One successful execution of one query.
struct Observation {
    query: u32,
    /// [`QueryResult::elapsed`]: submission to completion.
    ms: f64,
    /// Time the submission sat in the dispatcher queue before starting.
    queue_wait_ms: f64,
    rows: usize,
    bytes_shuffled: u64,
    messages_sent: u64,
}

/// What a run keeps of its executions.
#[derive(Default)]
struct Executions {
    obs: Vec<Observation>,
    /// Failed executions: the query and its error.
    errors: Vec<(u32, String)>,
    /// Profiles for `--trace-out`.
    profiles: Vec<QueryProfile>,
}

impl Executions {
    /// Keep one successful execution: its observation and, for
    /// `--trace-out`, its profile. Returns its `--analyze` block, led by
    /// its plan under `--explain` (empty without `--analyze`).
    fn record(&mut self, args: &Args, n: u32, planned: &Planned, result: QueryResult) -> String {
        self.obs.push(Observation {
            query: n,
            ms: result.elapsed.as_secs_f64() * 1e3,
            queue_wait_ms: result.queue_wait.as_secs_f64() * 1e3,
            rows: result.row_count(),
            bytes_shuffled: result.bytes_shuffled,
            messages_sent: result.messages_sent,
        });
        let mut block = String::new();
        let Some(profile) = result.profile else {
            return block;
        };
        if args.analyze && args.explain {
            block = render_query_plan(args, n, &planned.query, &planned.notes);
        }
        if args.analyze {
            block.push_str(&profile.render());
        }
        if args.trace_out.is_some() {
            self.profiles.push(profile);
        }
        block
    }

    /// Write the Chrome trace of every kept profile to `--trace-out`, if
    /// given.
    fn write_trace(&self, args: &Args) -> Result<(), String> {
        if let Some(path) = &args.trace_out {
            std::fs::write(path, chrome_trace(&self.profiles))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} executions traced)", self.profiles.len());
        }
        Ok(())
    }

    /// The report's `queries` list, in `queries` order. A query that ran
    /// gets its statistics over its successful executions or — when an
    /// execution failed or two disagree on the row count, which means
    /// concurrent execution corrupted a result — `{query, error}`. Every
    /// failed execution and every row drift is added to `failures`.
    fn query_entries(&self, queries: &[u32], failures: &mut Vec<String>) -> Vec<Json> {
        let mut entries = Vec::new();
        for (i, &n) in queries.iter().enumerate() {
            if queries[..i].contains(&n) {
                continue; // listed twice, reported once
            }
            let mut error = None;
            for (_, e) in self.errors.iter().filter(|(q, _)| *q == n) {
                failures.push(format!("Q{n}: {e}"));
                error.get_or_insert_with(|| e.clone());
            }
            let of_q: Vec<&Observation> = self.obs.iter().filter(|o| o.query == n).collect();
            if let Some(bad) = of_q.iter().find(|o| o.rows != of_q[0].rows) {
                let drift = format!(
                    "row counts diverged across executions ({} vs {})",
                    of_q[0].rows, bad.rows
                );
                failures.push(format!("Q{n}: {drift}"));
                error.get_or_insert(drift);
            }
            if let Some(error) = error {
                entries.push(Json::obj([
                    ("query", Json::Num(n.into())),
                    ("error", Json::Str(error)),
                ]));
                continue;
            }
            if of_q.is_empty() {
                continue;
            }
            let mut times: Vec<f64> = of_q.iter().map(|o| o.ms).collect();
            times.sort_by(f64::total_cmp);
            let mut waits: Vec<f64> = of_q.iter().map(|o| o.queue_wait_ms).collect();
            waits.sort_by(f64::total_cmp);
            let max = |f: fn(&Observation) -> u64| {
                Json::Num(of_q.iter().map(|o| f(o)).max().unwrap_or(0) as f64)
            };
            entries.push(Json::obj([
                ("query", Json::Num(n.into())),
                ("rows", Json::Num(of_q[0].rows as f64)),
                ("ms", ms(times.iter().sum::<f64>() / times.len() as f64)),
                ("ms_p50", ms(percentile(&times, 0.5))),
                ("ms_p99", ms(percentile(&times, 0.99))),
                ("queue_wait_ms_p50", ms(percentile(&waits, 0.5))),
                ("queue_wait_ms_p99", ms(percentile(&waits, 0.99))),
                ("executions", Json::Num(times.len() as f64)),
                ("bytes_shuffled", max(|o| o.bytes_shuffled)),
                ("messages_sent", max(|o| o.messages_sent)),
            ]));
        }
        entries
    }
}

/// A query ready to execute: its physical plan, with the cost-model
/// decision notes recorded while planning it.
struct Planned {
    query: Query,
    notes: Vec<Vec<String>>,
}

/// A started cluster with TPC-H loaded — simulated in this process, or
/// `hsqp-node` servers over TCP — the planner for it, and the set-up
/// timings every run mode reports. Past set-up the two kinds differ in
/// nothing the driver can see: both are their `Coordinator`.
struct Bench {
    /// Shuts the cluster down when dropped.
    cluster: Box<dyn Deref<Target = Coordinator>>,
    planner: Planner,
    gen_ms: f64,
    load_ms: f64,
}

impl Bench {
    /// Print the metrics registry with `--metrics`, shut the cluster down,
    /// and return the report: the configuration and set-up times every run
    /// shares, then `fields`.
    fn finish<const N: usize>(self, args: &Args, fields: [(&str, Json); N]) -> Json {
        if args.metrics {
            eprint!("{}", self.cluster.metrics().render());
        }
        let header = [
            ("sf", Json::Num(args.sf)),
            ("nodes", Json::Num(args.nodes.into())),
            ("workers_per_node", Json::Num(args.workers.into())),
            ("transport", Json::Str(args.transport.clone())),
            ("engine", Json::Str(args.engine.clone())),
            ("generate_ms", ms(self.gen_ms)),
            ("load_ms", ms(self.load_ms)),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        Json::Obj(
            header
                .into_iter()
                .chain(fields)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Start whichever cluster the flags select, load TPC-H into it, and build
/// its planner (`Planner::for_tpch`: the declared statistics and the exact
/// loaded row counts).
fn start_loaded_cluster(args: &Args, banner_suffix: &str) -> Result<Bench, String> {
    match &args.cluster {
        None => start_simulated(args, banner_suffix),
        Some(addrs) => connect_processes(args, addrs, banner_suffix),
    }
}

/// Generate TPC-H at the requested scale factor, start the simulated
/// cluster, and distribute the data.
fn start_simulated(args: &Args, banner_suffix: &str) -> Result<Bench, String> {
    eprintln!(
        "generating TPC-H SF {} and starting {}-node cluster \
         ({} transport, {} engine{banner_suffix})",
        args.sf, args.nodes, args.transport, args.engine,
    );
    let gen_started = Instant::now();
    let db = TpchDb::generate(args.sf);
    let gen_ms = gen_started.elapsed().as_secs_f64() * 1e3;

    let cluster =
        Cluster::start(cluster_config(args)?).map_err(|e| format!("cluster start failed: {e}"))?;
    let load_started = Instant::now();
    cluster
        .load_tpch_db(db)
        .map_err(|e| format!("load failed: {e}"))?;
    let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
    Ok(Bench {
        planner: Planner::for_cluster(&cluster),
        cluster: Box::new(cluster),
        gen_ms,
        load_ms,
    })
}

/// Connect to the out-of-process `hsqp-node` servers and have each
/// generate its share of TPC-H locally (generation runs on the nodes, so
/// it is reported inside `load_ms` and `generate_ms` is zero).
fn connect_processes(args: &Args, addrs: &[String], banner_suffix: &str) -> Result<Bench, String> {
    eprintln!(
        "connecting to {}-process cluster [{}] and loading TPC-H SF {}{banner_suffix}",
        addrs.len(),
        addrs.join(", "),
        args.sf,
    );
    let cfg = ProcessClusterConfig {
        engine: RemoteEngineConfig {
            workers_per_node: args.workers,
            message_capacity: args.message_bytes,
        },
        max_concurrent: args.clients,
        ..ProcessClusterConfig::default()
    };
    let pc =
        ProcessCluster::connect(addrs, cfg).map_err(|e| format!("cluster connect failed: {e}"))?;
    let load_started = Instant::now();
    pc.load_tpch(args.sf)
        .map_err(|e| format!("load failed: {e}"))?;
    let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
    let planner = Planner::for_tpch(pc.nodes(), args.sf, |t| pc.table_rows(t));
    Ok(Bench {
        cluster: Box::new(pc),
        planner,
        gen_ms: 0.0,
        load_ms,
    })
}

/// Plan each requested query once.
fn plan_queries(planner: &Planner, queries: &[u32]) -> Result<Vec<(u32, Planned)>, String> {
    queries
        .iter()
        .map(|&n| {
            let logical = tpch_logical(n).map_err(|e| format!("query {n}: {e}"))?;
            let (query, notes) = planner
                .plan_query_explained(&logical)
                .map_err(|e| format!("query {n}: {e}"))?;
            Ok((n, Planned { query, notes }))
        })
        .collect()
}

/// One closed-loop client: `--rounds` passes over `plans`, submitting each
/// query once the previous one finished.
fn run_client(args: &Args, coordinator: &Coordinator, plans: &[(u32, Planned)]) -> Executions {
    let mut out = Executions::default();
    for _ in 0..args.rounds {
        for (n, planned) in plans {
            let n = *n;
            match coordinator
                .submit(&planned.query)
                .and_then(QueryHandle::wait)
            {
                Ok(result) => {
                    let block = out.record(args, n, planned, result);
                    let o = out.obs.last().expect("just recorded");
                    // One write per execution: concurrent clients' lines
                    // and --analyze blocks never interleave.
                    eprint!(
                        "Q{n:<2} {:>10.2} ms  {:>8} rows  {:>12} bytes shuffled\n{block}",
                        o.ms, o.rows, o.bytes_shuffled
                    );
                }
                Err(e) => {
                    eprintln!("Q{n:<2} FAILED: {e}");
                    out.errors.push((n, e.to_string()));
                }
            }
        }
    }
    out
}

/// The closed loop every run is: `--clients` threads
/// each run `--rounds` passes over the query set through the concurrent
/// submission API, sharing one cluster whose dispatcher admits up to
/// `--clients` queries at once. The default run is its one-client,
/// one-round case.
fn run_closed_loop(args: &Args, queries: &[u32]) -> Result<(), String> {
    let bench = start_loaded_cluster(
        args,
        &format!(", {} clients x {} rounds", args.clients, args.rounds),
    )?;
    let coordinator: &Coordinator = &bench.cluster;

    // Plan every query once up front: all clients submit identical
    // physical plans, so row-count differences can only come from the
    // concurrent execution path.
    let plans = plan_queries(&bench.planner, queries)?;

    let wall_started = Instant::now();
    let clients: Vec<Executions> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| scope.spawn(|| run_client(args, coordinator, &plans)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = wall_started.elapsed().as_secs_f64() * 1e3;

    let mut exec = Executions::default();
    for c in clients {
        exec.obs.extend(c.obs);
        exec.errors.extend(c.errors);
        exec.profiles.extend(c.profiles);
    }
    exec.write_trace(args)?;

    let mut failures = Vec::new();
    let entries = exec.query_entries(queries, &mut failures);
    let obs = &exec.obs;
    // The totals are taken over the per-query means the report lists, so
    // a reader of the report recomputes them exactly.
    let means: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("ms").and_then(Json::as_f64))
        .collect();
    let geomean_ms = if failures.is_empty() && !means.is_empty() {
        (means.iter().map(|m| m.max(1e-6).ln()).sum::<f64>() / means.len() as f64).exp()
    } else {
        f64::NAN
    };
    let queries_per_hour = obs.len() as f64 * 3_600_000.0 / wall_ms;
    let mut latencies: Vec<f64> = obs.iter().map(|o| o.ms).collect();
    let mut queue_waits: Vec<f64> = obs.iter().map(|o| o.queue_wait_ms).collect();

    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{} queries in {wall_ms:.0} ms -> {queries_per_hour:.0} queries/hour",
        obs.len()
    );
    let report = bench.finish(
        args,
        [
            ("clients", Json::Num(args.clients.into())),
            ("rounds", Json::Num(args.rounds.into())),
            ("failures", Json::Num(failures.len() as f64)),
            ("total_ms", ms(means.iter().sum())),
            ("geomean_ms", ms(geomean_ms)),
            (
                "throughput",
                Json::obj([
                    ("wall_ms", ms(wall_ms)),
                    ("total_queries", Json::Num(obs.len() as f64)),
                    ("queries_per_hour", Json::Num(queries_per_hour)),
                    ("latency_ms", percentiles(&mut latencies)),
                    ("queue_wait_ms", percentiles(&mut queue_waits)),
                ]),
            ),
            ("queries", Json::Arr(entries)),
        ],
    );
    emit_report(&report, &args.output)?;
    if !failures.is_empty() {
        return Err(format!("{} failures", failures.len()));
    }
    Ok(())
}

/// Print the report to stdout and, with `--output`, write it to a file.
fn emit_report(report: &Json, output: &Option<String>) -> Result<(), String> {
    let text = format!("{report}\n");
    print!("{text}");
    if let Some(path) = output {
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args = parse_args()?;

    if let Some(addrs) = &args.cluster {
        // Socket nodes ship no profiles back and run the hybrid engine
        // only.
        if args.analyze || args.trace_out.is_some() {
            return Err(
                "--analyze and --trace-out need the in-process cluster (drop --cluster)".into(),
            );
        }
        if args.engine != "hybrid" {
            return Err("--cluster nodes always run the hybrid engine".into());
        }
        // The report reflects reality: real sockets, node count from the
        // address list.
        args.nodes = addrs.len() as u16;
        args.transport = "socket".to_string();
    } else {
        // Validate the simulated-fabric flags even in modes that do not
        // start a cluster, so typos fail fast.
        cluster_config(&args)?;
    }

    let queries = args.queries.clone().unwrap_or_else(|| ALL_QUERIES.to_vec());

    // --explain alone inspects plans without executing; together with
    // --analyze the queries run and each execution's plan + profile is
    // emitted as one buffered block.
    if args.explain && !args.analyze {
        return explain(&args, &queries);
    }

    run_closed_loop(&args, &queries)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
