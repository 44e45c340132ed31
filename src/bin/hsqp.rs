//! `hsqp` — end-to-end TPC-H driver.
//!
//! One command that exercises the whole stack in a single process:
//! generate TPC-H data at a given scale factor, start a simulated N-node
//! cluster (storage → tpch → numa → net → engine), run a set of the 22
//! distributed TPC-H queries through `NodeExec`, and print per-query
//! timings as JSON. CI's bench-smoke job runs this at SF 0.01 on 4 nodes
//! and archives the output next to future benchmark trajectories.
//!
//! With `--clients N [--rounds R]` the driver switches to a closed-loop
//! multi-client throughput mode: N client threads each submit the query
//! set R times through the concurrent `Session::submit` path, and the
//! JSON report adds queries/hour plus per-query latency percentiles —
//! the first concurrency benchmark trajectory.
//!
//! With `--open-loop RATE` the driver switches to an *open-loop* serving
//! benchmark: arrivals are generated at a fixed offered load
//! (queries/hour, Poisson or uniform inter-arrival times) independent of
//! completions, optionally attributed round-robin to weighted tenants
//! (`--tenants gold:4,silver:1`), and the report records latency and
//! queue-wait percentiles overall and per tenant — the
//! latency-vs-offered-load methodology of the paper's serving evaluation.
//!
//! ```bash
//! cargo run --release --bin hsqp -- --sf 0.01 --nodes 4 --output timings.json
//! cargo run --release --bin hsqp -- --sf 0.01 --nodes 4 --clients 4 --rounds 3
//! cargo run --release --bin hsqp -- --sf 0.01 --open-loop 40000 --duration 10 \
//!     --tenants gold:4,silver:1
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, ExprEngine, Transport};
use hsqp::engine::logical::LogicalQuery;
use hsqp::engine::planner::{Planner, PlannerConfig, TableStats};
use hsqp::engine::queries::{tpch_logical, tpch_query, Query, StageRole, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
use hsqp::engine::serve::{parse_tenant_spec, ArrivalProcess, SubmitOptions, TenantConfig};
use hsqp::engine::stats::{FeedbackCache, StatsCatalog, StatsMode};
use hsqp::engine::vm::compile_stage;
use hsqp::engine::{chrome_trace, Coordinator, QueryHandle, QueryProfile};
use hsqp::engine::{EngineError, QueryResult};
use hsqp::storage::Schema;
use hsqp::tpch::{schema as tpch_schema, TpchDb, TpchTable};

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
    --plan-mode <M>        builder | handwritten (default builder); builder
                           plans queries through the logical-query builder
                           and distributed planner, handwritten runs the
                           fixed physical plans kept as the test oracle
    --stats <M>            off | static | feedback (default static); how
                           builder-mode planning sources estimates. off
                           reverts to the legacy flat heuristics; static
                           prices broadcast/repartition, pre-aggregation,
                           and CTE placement against the statistics
                           catalog; feedback additionally plans each stage
                           of a multi-stage query only after the previous
                           stage ran, correcting estimates with observed
                           cardinalities (remembered across queries in a
                           process-wide feedback cache). feedback requires
                           --plan-mode builder; handwritten plans are
                           fixed trees the flag cannot affect
    --explain              Print each stage's lowered physical plan
                           (exchange placement, broadcast vs repartition)
                           and, under the vm expression engine, the
                           compiled program for every filter / map / agg
                           input, without generating data or executing;
                           builder mode plans from SF-derived cardinality
                           estimates, so choices near a threshold can
                           differ from a live run, which plans from
                           exact row counts. Combined with --analyze,
                           queries execute and each one's plan + profile
                           are emitted as a single block on stderr
    --cluster <LIST>       Comma-separated hsqp-node addresses, e.g.
                           127.0.0.1:7401,127.0.0.1:7402. Runs the queries
                           on those out-of-process servers over real TCP
                           sockets instead of the in-process simulated
                           cluster; the node count is the list length
                           (--nodes is ignored) and node 0 gathers
                           results. Incompatible with --analyze,
                           --trace-out, --bench-out, --engine classic,
                           and --expr-engine ast
    --transport <T>        rdma | rdma-unscheduled | tcp (default rdma);
                           simulated-fabric modes, ignored with --cluster
    --engine <E>           hybrid | classic (default hybrid)
    --expr-engine <E>      vm | ast (default vm): run expressions on the
                           compiled vector VM, or on the tree-walking
                           AST interpreter retained as the differential
                           oracle
    --message-kb <N>       Tuple bytes per network message in KiB (default 32)
    --clients <N>          Closed-loop client threads (default 1). With
                           N > 1 (or --rounds > 1) the driver runs a
                           multi-client throughput benchmark over the
                           concurrent submission API and reports
                           queries/hour + latency percentiles
    --rounds <R>           Passes over the query set per client (default 1)
    --open-loop <RATE>     Open-loop serving benchmark: generate arrivals
                           at RATE queries/hour for --duration seconds,
                           independent of completions, and report latency
                           and queue-wait percentiles (overall and per
                           tenant). Queries still running at the window
                           end are cancelled (morsel-bounded). --clients
                           sets the concurrent execution slots
    --duration <S>         Open-loop measurement window in seconds
                           (default 10)
    --arrivals <A>         poisson | uniform inter-arrival times for
                           --open-loop (default poisson)
    --tenants <SPEC>       Comma-separated name:weight tenants, e.g.
                           gold:4,silver:1 (bare name = weight 1).
                           Open-loop arrivals are attributed round-robin
                           across them; the dispatcher serves their queues
                           by weighted deficit round-robin
    --deadline-ms <N>      Per-query deadline for --open-loop submissions;
                           overdue queries are cancelled cooperatively
                           within one morsel
    --seed <N>             Arrival-process RNG seed (default 42)
    --output <PATH>        Also write the JSON report to PATH
    --analyze              EXPLAIN ANALYZE: after each query, print its
                           plan tree annotated with actual rows, wall
                           time, bytes shuffled, and per-node network
                           wait vs compute (serial mode only)
    --trace-out <PATH>     Write a Chrome trace-event JSON of all executed
                           queries (load in chrome://tracing or Perfetto;
                           serial mode only)
    --bench-out <PATH>     Write the serial run as a benchmark trajectory
                           file (compared against committed baselines by
                           the bench_check tool; serial mode only)
    --profile <on|off>     Per-query span profiling (default on); off
                           removes even the profiler's atomic-counter
                           overhead for baseline measurements
    --metrics              Print the cluster-wide metrics registry
                           (dispatcher, admission wait, per-link bytes)
                           after the run
    -h, --help             Show this help
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanMode {
    Handwritten,
    Builder,
}

impl PlanMode {
    fn name(self) -> &'static str {
        match self {
            PlanMode::Handwritten => "handwritten",
            PlanMode::Builder => "builder",
        }
    }
}

struct Args {
    sf: f64,
    nodes: u16,
    workers: u16,
    cluster: Option<Vec<String>>,
    queries: Option<Vec<u32>>,
    plan_mode: PlanMode,
    stats: StatsMode,
    explain: bool,
    transport: String,
    engine: String,
    expr_engine: ExprEngine,
    message_kb: usize,
    clients: u16,
    rounds: u32,
    open_loop: Option<f64>,
    duration_s: f64,
    arrivals: ArrivalProcess,
    tenants: Vec<(String, TenantConfig)>,
    deadline_ms: Option<u64>,
    seed: u64,
    output: Option<String>,
    analyze: bool,
    trace_out: Option<String>,
    bench_out: Option<String>,
    profile: bool,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sf: 0.01,
        nodes: 4,
        workers: 2,
        cluster: None,
        queries: None,
        plan_mode: PlanMode::Builder,
        stats: StatsMode::Static,
        explain: false,
        transport: "rdma".to_string(),
        engine: "hybrid".to_string(),
        expr_engine: ExprEngine::Compiled,
        message_kb: 32,
        clients: 1,
        rounds: 1,
        open_loop: None,
        duration_s: 10.0,
        arrivals: ArrivalProcess::Poisson,
        tenants: Vec::new(),
        deadline_ms: None,
        seed: 42,
        output: None,
        analyze: false,
        trace_out: None,
        bench_out: None,
        profile: true,
        metrics: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "-h" || flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--explain" {
            args.explain = true;
            i += 1;
            continue;
        }
        if flag == "--analyze" {
            args.analyze = true;
            i += 1;
            continue;
        }
        if flag == "--metrics" {
            args.metrics = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--sf" => {
                args.sf = value
                    .parse()
                    .map_err(|_| format!("invalid --sf {value:?}"))?;
                if !args.sf.is_finite() || args.sf <= 0.0 {
                    return Err("--sf must be positive".into());
                }
            }
            "--nodes" => {
                args.nodes =
                    value.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--nodes must be a positive integer, got {value:?}")
                    })?;
            }
            "--workers" => {
                args.workers = value.parse().ok().filter(|&w| w >= 1).ok_or_else(|| {
                    format!("--workers must be a positive integer, got {value:?}")
                })?;
            }
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
            "--plan-mode" => {
                args.plan_mode = match value.as_str() {
                    "handwritten" => PlanMode::Handwritten,
                    "builder" => PlanMode::Builder,
                    other => {
                        return Err(format!(
                            "unknown plan mode {other:?} (expected handwritten | builder)"
                        ))
                    }
                };
            }
            "--stats" => {
                args.stats = StatsMode::parse(value).ok_or_else(|| {
                    format!("unknown stats mode {value:?} (expected off | static | feedback)")
                })?;
            }
            "--transport" => {
                args.transport = value.clone();
            }
            "--engine" => {
                args.engine = value.clone();
            }
            "--expr-engine" => {
                args.expr_engine = match value.as_str() {
                    "vm" => ExprEngine::Compiled,
                    "ast" => ExprEngine::Ast,
                    other => {
                        return Err(format!(
                            "unknown expression engine {other:?} (expected vm | ast)"
                        ))
                    }
                };
            }
            "--message-kb" => {
                args.message_kb = value.parse().ok().filter(|&kb| kb >= 1).ok_or_else(|| {
                    format!("--message-kb must be a positive integer (≥ 1 KiB), got {value:?}")
                })?;
            }
            "--clients" => {
                args.clients = value.parse().ok().filter(|&c| c >= 1).ok_or_else(|| {
                    format!("--clients must be a positive integer, got {value:?}")
                })?;
            }
            "--rounds" => {
                args.rounds =
                    value.parse().ok().filter(|&r| r >= 1).ok_or_else(|| {
                        format!("--rounds must be a positive integer, got {value:?}")
                    })?;
            }
            "--open-loop" => {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid --open-loop rate {value:?}"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--open-loop rate (queries/hour) must be positive".into());
                }
                args.open_loop = Some(rate);
            }
            "--duration" => {
                args.duration_s = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--duration must be positive seconds, got {value:?}"))?;
            }
            "--arrivals" => {
                args.arrivals = ArrivalProcess::parse(value).map_err(|e| e.to_string())?;
            }
            "--tenants" => {
                args.tenants = parse_tenant_spec(value).map_err(|e| e.to_string())?;
                if args.tenants.is_empty() {
                    return Err("--tenants must name at least one tenant".into());
                }
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    Some(value.parse().ok().filter(|&ms| ms >= 1).ok_or_else(|| {
                        format!("--deadline-ms must be a positive integer, got {value:?}")
                    })?);
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed {value:?}"))?;
            }
            "--output" => {
                args.output = Some(value.clone());
            }
            "--trace-out" => {
                args.trace_out = Some(value.clone());
            }
            "--bench-out" => {
                args.bench_out = Some(value.clone());
            }
            "--profile" => {
                args.profile = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--profile expects on | off, got {other:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
        i += 2;
    }
    Ok(args)
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
        expr_engine: args.expr_engine,
        numa_cost_ns: 0.0,
        message_capacity: args.message_kb * 1024,
        max_concurrent: args.clients,
        tenants: args.tenants.clone(),
        // --analyze and --trace-out need profiles even under --profile off.
        profiling: args.profile || args.analyze || args.trace_out.is_some(),
        ..ClusterConfig::paper(args.nodes)
    })
}

/// Minimal JSON string escaping for error messages embedded in the report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The base-table schemas the expression compiler resolves scans against —
/// the same schemas `TpchDb::generate` produces, available without
/// generating any data.
fn base_schema(t: TpchTable) -> Option<Schema> {
    Some(match t {
        TpchTable::Part => tpch_schema::part(),
        TpchTable::Supplier => tpch_schema::supplier(),
        TpchTable::Partsupp => tpch_schema::partsupp(),
        TpchTable::Customer => tpch_schema::customer(),
        TpchTable::Orders => tpch_schema::orders(),
        TpchTable::Lineitem => tpch_schema::lineitem(),
        TpchTable::Nation => tpch_schema::nation(),
        TpchTable::Region => tpch_schema::region(),
    })
}

/// Render one query's full EXPLAIN block into a string: the banner, each
/// stage's operator tree, and — under the vm expression engine — the
/// compiled program disassembly per stage. Built as a single buffer so
/// callers write it with one syscall-ish print and nothing can interleave
/// into the middle of a block.
fn render_query_plan(args: &Args, n: u32, query: &Query, notes: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Q{n} ({} plans, {} nodes, SF {}, {} exprs) ==",
        args.plan_mode.name(),
        args.nodes,
        args.sf,
        match args.expr_engine {
            ExprEngine::Compiled => "vm",
            ExprEngine::Ast => "ast",
        }
    );
    let total = query.stages.len();
    let mut temps: HashMap<String, Schema> = HashMap::new();
    for (i, stage) in query.stages.iter().enumerate() {
        let role = match &stage.role {
            StageRole::Params => " scalar parameters".to_string(),
            StageRole::Materialize(name) => format!(" materialize {name:?}"),
            StageRole::Result => " result".to_string(),
        };
        // Builder-mode stages carry the planner's cardinality estimate
        // (and, in feedback mode, the observed cardinality that overrode
        // it); a profiled run (--analyze) prints the actuals next to it.
        let est = match (stage.estimated_rows, stage.feedback_rows) {
            (Some(e), Some(fb)) => format!("  [est ~{e:.0} rows · fb {fb:.0} rows]"),
            (Some(e), None) => format!("  [est ~{e:.0} rows]"),
            (None, _) => String::new(),
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
        match args.expr_engine {
            ExprEngine::Compiled => {
                let (compiled, schema) = compile_stage(&stage.plan, &&base_schema, &temps);
                out.push_str(&compiled.render(&stage.plan));
                if let StageRole::Materialize(name) = &stage.role {
                    if let Some(s) = schema {
                        temps.insert(name.clone(), s);
                    }
                }
            }
            ExprEngine::Ast => out.push_str(&stage.plan.explain()),
        }
    }
    out.push('\n');
    out
}

/// Print each stage's lowered physical plan without executing anything
/// (no data generation, no cluster): exchange placement, broadcast vs
/// repartition choices, and the compiled expression programs are visible
/// directly in the operator trees.
///
/// In builder mode, plans are lowered from SF-derived cardinality
/// estimates; a live run plans from the exact loaded row counts
/// (`Planner::for_cluster`), which can flip a broadcast/repartition
/// choice sitting near a threshold. Handwritten plans are fixed trees.
fn explain(args: &Args, queries: &[u32]) -> Result<(), String> {
    // Handwritten plans are fixed physical trees; only builder mode
    // involves the planner, whose choices here come from estimates.
    let planner = match args.plan_mode {
        PlanMode::Handwritten => None,
        PlanMode::Builder => {
            eprintln!(
                "note: --explain plans from SF-derived cardinality estimates; \
                 a live run plans from exact loaded row counts, which can \
                 flip choices near a threshold"
            );
            Some(Planner::new(PlannerConfig {
                stats: TableStats::for_scale_factor(args.sf),
                mode: args.stats,
                catalog: (args.stats != StatsMode::Off)
                    .then(|| Arc::new(StatsCatalog::declared_tpch(args.sf))),
                ..PlannerConfig::new(args.nodes)
            }))
        }
    };
    let mut out = String::new();
    for &n in queries {
        let (query, notes): (Query, Vec<Vec<String>>) = match &planner {
            None => (
                tpch_query(n).map_err(|e| format!("query {n}: {e}"))?,
                vec![],
            ),
            Some(planner) => {
                let logical = tpch_logical(n).map_err(|e| format!("query {n}: {e}"))?;
                planner
                    .plan_query_explained(&logical)
                    .map_err(|e| format!("query {n}: {e}"))?
            }
        };
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

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// One client's observation of one query execution.
struct Observation {
    query: u32,
    ms: f64,
    /// Time the submission sat in the dispatcher queue before starting.
    queue_wait_ms: f64,
    rows: usize,
    bytes_shuffled: u64,
}

/// A query ready to execute: a fixed physical plan (with the cost-model
/// decision notes recorded while planning it), or — in feedback mode — a
/// logical query the backend re-plans stage-at-a-time on every execution.
enum Planned {
    Physical {
        query: Query,
        notes: Vec<Vec<String>>,
    },
    Adaptive(LogicalQuery),
}

/// Submit one planned query, planning stage-at-a-time when it is adaptive
/// (each execution builds a fresh per-execution
/// [`QueryPlanner`](hsqp::engine::planner::QueryPlanner) sharing the
/// process-wide feedback cache). Safe to call from many client threads.
fn submit_planned(
    coordinator: &Coordinator,
    planner: &Planner,
    n: u32,
    planned: &Planned,
    opts: &SubmitOptions,
) -> Result<QueryHandle, EngineError> {
    match planned {
        Planned::Physical { query, .. } => coordinator.submit_with(query, opts),
        Planned::Adaptive(logical) => {
            coordinator.submit_adaptive(planner.begin_query(logical)?, n, opts)
        }
    }
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

/// Start whichever cluster the flags select, load TPC-H into it, and build
/// the distributed planner from its exact loaded row counts, running in the
/// requested stats mode with a process-wide feedback cache attached.
fn start_loaded_cluster(args: &Args, banner_suffix: &str) -> Result<Bench, String> {
    let mut bench = match &args.cluster {
        None => start_simulated(args, banner_suffix)?,
        Some(addrs) => connect_processes(args, addrs, banner_suffix)?,
    };
    let cfg = bench.planner.config_mut();
    cfg.mode = args.stats;
    if args.stats == StatsMode::Off {
        cfg.catalog = None;
        cfg.partitioned = false;
    }
    cfg.feedback = Some(Arc::new(FeedbackCache::new()));
    Ok(bench)
}

/// Generate TPC-H at the requested scale factor, start the simulated
/// cluster, and distribute the data.
fn start_simulated(args: &Args, banner_suffix: &str) -> Result<Bench, String> {
    eprintln!(
        "generating TPC-H SF {} and starting {}-node cluster \
         ({} transport, {} engine, {} plans{banner_suffix})",
        args.sf,
        args.nodes,
        args.transport,
        args.engine,
        args.plan_mode.name(),
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
        "connecting to {}-process cluster [{}] and loading TPC-H SF {} \
         ({} plans{banner_suffix})",
        addrs.len(),
        addrs.join(", "),
        args.sf,
        args.plan_mode.name(),
    );
    let cfg = ProcessClusterConfig {
        engine: RemoteEngineConfig {
            workers_per_node: args.workers,
            message_capacity: args.message_kb * 1024,
            ..RemoteEngineConfig::default()
        },
        max_concurrent: args.clients,
        tenants: args.tenants.clone(),
        ..ProcessClusterConfig::default()
    };
    let pc =
        ProcessCluster::connect(addrs, cfg).map_err(|e| format!("cluster connect failed: {e}"))?;
    let load_started = Instant::now();
    pc.load_tpch(args.sf)
        .map_err(|e| format!("load failed: {e}"))?;
    let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
    let mut stats = TableStats::for_scale_factor(args.sf);
    for t in TpchTable::ALL {
        if let Some(rows) = pc.table_rows(t) {
            stats.set_rows(t, rows as f64);
        }
    }
    // The coordinator holds none of the data, so nothing can be sampled
    // here; plan against the spec-declared column statistics at this scale
    // factor instead.
    let planner = Planner::new(PlannerConfig {
        stats,
        catalog: Some(Arc::new(StatsCatalog::declared_tpch(args.sf))),
        ..PlannerConfig::new(pc.nodes())
    });
    Ok(Bench {
        cluster: Box::new(pc),
        planner,
        gen_ms: 0.0,
        load_ms,
    })
}

/// Build each requested query once, in the selected plan mode: a fixed
/// physical plan, or the logical query itself when feedback-mode
/// execution will re-plan it stage-at-a-time.
fn plan_queries(
    args: &Args,
    planner: &Planner,
    queries: &[u32],
) -> Result<Vec<(u32, Planned)>, String> {
    queries
        .iter()
        .map(|&n| {
            let planned = match args.plan_mode {
                PlanMode::Handwritten => Planned::Physical {
                    query: tpch_query(n).map_err(|e| format!("query {n}: {e}"))?,
                    notes: Vec::new(),
                },
                PlanMode::Builder => {
                    let logical = tpch_logical(n).map_err(|e| format!("query {n}: {e}"))?;
                    if args.stats == StatsMode::Feedback {
                        Planned::Adaptive(logical)
                    } else {
                        let (query, notes) = planner
                            .plan_query_explained(&logical)
                            .map_err(|e| format!("query {n}: {e}"))?;
                        Planned::Physical { query, notes }
                    }
                }
            };
            Ok((n, planned))
        })
        .collect()
}

/// The JSON report fields shared by both run modes (configuration and
/// setup timings) — one writer so the two reports cannot drift.
fn report_header(args: &Args, gen_ms: f64, load_ms: f64) -> String {
    let mut report = String::from("{\n");
    let _ = writeln!(report, "  \"sf\": {},", args.sf);
    let _ = writeln!(report, "  \"nodes\": {},", args.nodes);
    let _ = writeln!(report, "  \"workers_per_node\": {},", args.workers);
    let _ = writeln!(
        report,
        "  \"transport\": \"{}\",",
        json_escape(&args.transport)
    );
    let _ = writeln!(report, "  \"engine\": \"{}\",", json_escape(&args.engine));
    let _ = writeln!(report, "  \"plan_mode\": \"{}\",", args.plan_mode.name());
    let _ = writeln!(report, "  \"generate_ms\": {gen_ms:.3},");
    let _ = writeln!(report, "  \"load_ms\": {load_ms:.3},");
    report
}

/// Print the report to stdout and, with `--output`, write it to a file.
fn emit_report(report: &str, output: &Option<String>) -> Result<(), String> {
    println!("{report}");
    if let Some(path) = output {
        std::fs::write(path, report).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Closed-loop multi-client throughput benchmark: `--clients` threads each
/// run `--rounds` passes over the query set through the concurrent
/// submission API, sharing one cluster whose dispatcher admits up to
/// `--clients` queries at once.
fn run_throughput(args: &Args, queries: &[u32]) -> Result<(), String> {
    let bench = start_loaded_cluster(
        args,
        &format!(", {} clients x {} rounds", args.clients, args.rounds),
    )?;
    let (coordinator, planner): (&Coordinator, &Planner) = (&bench.cluster, &bench.planner);

    // Plan every query once up front: all clients submit identical
    // physical plans, so row-count differences can only come from the
    // concurrent execution path. (In feedback mode each execution
    // re-plans adaptively against the shared cache instead.)
    let plans = plan_queries(args, planner, queries)?;

    let wall_started = Instant::now();
    let client_results: Vec<(Vec<Observation>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| {
                let plans = &plans;
                scope.spawn(move || {
                    let mut obs = Vec::new();
                    let mut errors = Vec::new();
                    for _ in 0..args.rounds {
                        for (n, query) in plans {
                            let started = Instant::now();
                            let opts = SubmitOptions::default();
                            match submit_planned(coordinator, planner, *n, query, &opts)
                                .and_then(QueryHandle::wait)
                            {
                                Ok(result) => obs.push(Observation {
                                    query: *n,
                                    ms: started.elapsed().as_secs_f64() * 1e3,
                                    queue_wait_ms: result.queue_wait.as_secs_f64() * 1e3,
                                    rows: result.row_count(),
                                    bytes_shuffled: result.bytes_shuffled,
                                }),
                                Err(e) => errors.push(format!("Q{n}: {e}")),
                            }
                        }
                    }
                    (obs, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = wall_started.elapsed().as_secs_f64() * 1e3;
    if args.metrics {
        eprint!("{}", coordinator.metrics().render());
    }
    drop(bench.cluster);

    let mut failures: Vec<String> = Vec::new();
    let mut all: Vec<Observation> = Vec::new();
    for (obs, errors) in client_results {
        all.extend(obs);
        failures.extend(errors);
    }

    // Per-query digest; row counts must agree across every client and
    // round — a mismatch means concurrent execution corrupted a result.
    let mut lines = Vec::new();
    for &n in queries {
        let of_q: Vec<&Observation> = all.iter().filter(|o| o.query == n).collect();
        if of_q.is_empty() {
            continue;
        }
        let rows = of_q[0].rows;
        if let Some(bad) = of_q.iter().find(|o| o.rows != rows) {
            failures.push(format!(
                "Q{n}: row counts diverged across clients ({rows} vs {})",
                bad.rows
            ));
        }
        let mut ms: Vec<f64> = of_q.iter().map(|o| o.ms).collect();
        ms.sort_by(f64::total_cmp);
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        let mut waits: Vec<f64> = of_q.iter().map(|o| o.queue_wait_ms).collect();
        waits.sort_by(f64::total_cmp);
        let bytes = of_q.iter().map(|o| o.bytes_shuffled).max().unwrap_or(0);
        eprintln!(
            "Q{n:<2} {mean:>10.2} ms mean  {:>10.2} ms p99  {:>8.2} ms queue p50  \
             {rows:>8} rows  x{}",
            percentile(&ms, 0.99),
            percentile(&waits, 0.5),
            ms.len()
        );
        lines.push(format!(
            "    {{\"query\": {n}, \"rows\": {rows}, \"ms\": {}, \"ms_p50\": {}, \
             \"ms_p99\": {}, \"queue_wait_ms_p50\": {}, \"queue_wait_ms_p99\": {}, \
             \"executions\": {}, \"bytes_shuffled\": {bytes}}}",
            json_f64(mean),
            json_f64(percentile(&ms, 0.5)),
            json_f64(percentile(&ms, 0.99)),
            json_f64(percentile(&waits, 0.5)),
            json_f64(percentile(&waits, 0.99)),
            ms.len()
        ));
    }
    for f in &failures {
        lines.push(format!("    {{\"error\": \"{}\"}}", json_escape(f)));
        eprintln!("FAILED: {f}");
    }

    let mut latencies: Vec<f64> = all.iter().map(|o| o.ms).collect();
    latencies.sort_by(f64::total_cmp);
    let mut queue_waits: Vec<f64> = all.iter().map(|o| o.queue_wait_ms).collect();
    queue_waits.sort_by(f64::total_cmp);
    let queries_per_hour = if wall_ms > 0.0 {
        all.len() as f64 * 3_600_000.0 / wall_ms
    } else {
        f64::NAN
    };

    let mut report = report_header(args, bench.gen_ms, bench.load_ms);
    let _ = writeln!(report, "  \"clients\": {},", args.clients);
    let _ = writeln!(report, "  \"rounds\": {},", args.rounds);
    let _ = writeln!(report, "  \"failures\": {},", failures.len());
    let _ = writeln!(report, "  \"throughput\": {{");
    let _ = writeln!(report, "    \"wall_ms\": {wall_ms:.3},");
    let _ = writeln!(report, "    \"total_queries\": {},", all.len());
    let _ = writeln!(
        report,
        "    \"queries_per_hour\": {},",
        json_f64(queries_per_hour)
    );
    let _ = writeln!(report, "    \"latency_ms\": {{");
    let _ = writeln!(
        report,
        "      \"p50\": {},",
        json_f64(percentile(&latencies, 0.5))
    );
    let _ = writeln!(
        report,
        "      \"p90\": {},",
        json_f64(percentile(&latencies, 0.9))
    );
    let _ = writeln!(
        report,
        "      \"p99\": {},",
        json_f64(percentile(&latencies, 0.99))
    );
    let _ = writeln!(
        report,
        "      \"max\": {}",
        json_f64(latencies.last().copied().unwrap_or(f64::NAN))
    );
    let _ = writeln!(report, "    }},");
    let _ = writeln!(report, "    \"queue_wait_ms\": {{");
    let _ = writeln!(
        report,
        "      \"p50\": {},",
        json_f64(percentile(&queue_waits, 0.5))
    );
    let _ = writeln!(
        report,
        "      \"p99\": {},",
        json_f64(percentile(&queue_waits, 0.99))
    );
    let _ = writeln!(
        report,
        "      \"max\": {}",
        json_f64(queue_waits.last().copied().unwrap_or(f64::NAN))
    );
    let _ = writeln!(report, "    }}");
    let _ = writeln!(report, "  }},");
    let _ = writeln!(report, "  \"queries\": [");
    report.push_str(&lines.join(",\n"));
    report.push_str("\n  ]\n}\n");

    eprintln!(
        "{} queries in {:.0} ms -> {:.0} queries/hour",
        all.len(),
        wall_ms,
        queries_per_hour
    );
    emit_report(&report, &args.output)?;
    if !failures.is_empty() {
        return Err(format!("{} executions failed", failures.len()));
    }
    Ok(())
}

/// What became of one open-loop arrival.
enum ArrivalOutcome {
    /// Finished inside the window; latency is arrival-to-completion.
    Completed {
        latency_ms: f64,
        queue_wait_ms: f64,
        rows: usize,
    },
    /// Cancelled at the window end or by its deadline.
    Cancelled,
    /// Rejected at admission (tenant over `max_queued`).
    Rejected,
    /// A genuine execution error.
    Failed(String),
}

struct ArrivalRecord {
    /// Index into the tenant list.
    tenant: usize,
    query: u32,
    outcome: ArrivalOutcome,
}

/// Render `{p50, p90, p99, max}` percentiles of an unsorted millisecond
/// sample as a JSON object.
fn json_percentiles(samples: &mut [f64]) -> String {
    samples.sort_by(f64::total_cmp);
    format!(
        "{{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        json_f64(percentile(samples, 0.5)),
        json_f64(percentile(samples, 0.9)),
        json_f64(percentile(samples, 0.99)),
        json_f64(samples.last().copied().unwrap_or(f64::NAN))
    )
}

/// Open-loop serving benchmark: arrivals at a fixed offered load
/// (independent of completions), attributed round-robin to the configured
/// tenants, reported as latency / queue-wait distributions overall and
/// per tenant ("hsqp-openloop-v1").
fn run_open_loop(args: &Args, queries: &[u32], rate: f64) -> Result<(), String> {
    let tenants: Vec<(String, TenantConfig)> = if args.tenants.is_empty() {
        vec![("default".to_string(), TenantConfig::default())]
    } else {
        args.tenants.clone()
    };
    let window = Duration::from_secs_f64(args.duration_s);
    let offsets = args.arrivals.offsets(rate, window, args.seed);
    let arrivals_name = match args.arrivals {
        ArrivalProcess::Poisson => "poisson",
        ArrivalProcess::Uniform => "uniform",
    };

    let bench = start_loaded_cluster(
        args,
        &format!(
            ", open-loop {rate} q/h x {}s, {} slots",
            args.duration_s, args.clients
        ),
    )?;
    let (coordinator, planner): (&Coordinator, &Planner) = (&bench.cluster, &bench.planner);
    let plans = plan_queries(args, planner, queries)?;

    eprintln!(
        "open-loop: {} {arrivals_name} arrivals over {}s (seed {}), tenants [{}]",
        offsets.len(),
        args.duration_s,
        args.seed,
        tenants
            .iter()
            .map(|(n, c)| format!("{n}:{}", c.weight))
            .collect::<Vec<_>>()
            .join(", "),
    );

    // Submissions go through the coordinator's tenant-aware dispatcher
    // (weighted-fair queues, admission caps), so queue-wait numbers come
    // from the engine itself.
    let start = Instant::now();
    let mut pending = Vec::new();
    let mut records = Vec::new();
    for (i, &off) in offsets.iter().enumerate() {
        let due = start + off;
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        let t = i % tenants.len();
        let (qn, query) = &plans[i % plans.len()];
        let mut opts = SubmitOptions::tenant(&tenants[t].0);
        if let Some(ms) = args.deadline_ms {
            opts = opts.with_deadline(Duration::from_millis(ms));
        }
        match submit_planned(coordinator, planner, *qn, query, &opts) {
            Ok(handle) => pending.push((t, *qn, handle)),
            Err(EngineError::Admission(_)) => records.push(ArrivalRecord {
                tenant: t,
                query: *qn,
                outcome: ArrivalOutcome::Rejected,
            }),
            Err(e) => records.push(ArrivalRecord {
                tenant: t,
                query: *qn,
                outcome: ArrivalOutcome::Failed(e.to_string()),
            }),
        }
    }
    // Hold the window open to its full length, then cancel whatever is
    // still queued or running — open loop measures the window, not the
    // drain.
    let window_end = start + window;
    if let Some(rest) = window_end.checked_duration_since(Instant::now()) {
        std::thread::sleep(rest);
    }
    // Cancel everything first (a no-op CAS on already-finished queries),
    // *then* collect: waiting on handles one at a time would let the
    // dispatcher keep completing the not-yet-cancelled tail after the
    // window, skewing the per-tenant completion counts.
    for (_, _, handle) in &pending {
        handle.cancel();
    }
    for (t, qn, handle) in pending {
        let outcome = match handle.wait() {
            Ok(r) => ArrivalOutcome::Completed {
                latency_ms: r.elapsed.as_secs_f64() * 1e3,
                queue_wait_ms: r.queue_wait.as_secs_f64() * 1e3,
                rows: r.row_count(),
            },
            Err(EngineError::Cancelled) | Err(EngineError::DeadlineExceeded) => {
                ArrivalOutcome::Cancelled
            }
            Err(e) => ArrivalOutcome::Failed(e.to_string()),
        };
        records.push(ArrivalRecord {
            tenant: t,
            query: qn,
            outcome,
        });
    }
    if args.metrics {
        eprint!("{}", coordinator.metrics().render());
    }
    drop(bench.cluster);

    // Aggregate overall, per tenant, and per query. Row counts of the
    // same query must agree across every completion — concurrent serving
    // must not change results.
    let mut failures: Vec<String> = Vec::new();
    let mut latencies = Vec::new();
    let mut waits = Vec::new();
    let mut counts = [0usize; 4]; // completed, cancelled, rejected, failed
    let mut per_tenant: Vec<(usize, Vec<f64>, Vec<f64>, [usize; 4])> = tenants
        .iter()
        .enumerate()
        .map(|(i, _)| (i, Vec::new(), Vec::new(), [0usize; 4]))
        .collect();
    let mut rows_by_query: HashMap<u32, (usize, usize)> = HashMap::new(); // rows, executions
    for rec in &records {
        let slot = &mut per_tenant[rec.tenant];
        match &rec.outcome {
            ArrivalOutcome::Completed {
                latency_ms,
                queue_wait_ms,
                rows,
            } => {
                counts[0] += 1;
                slot.3[0] += 1;
                latencies.push(*latency_ms);
                waits.push(*queue_wait_ms);
                slot.1.push(*latency_ms);
                slot.2.push(*queue_wait_ms);
                let entry = rows_by_query.entry(rec.query).or_insert((*rows, 0));
                if entry.0 != *rows {
                    failures.push(format!(
                        "Q{}: row counts diverged across executions ({} vs {})",
                        rec.query, entry.0, rows
                    ));
                }
                entry.1 += 1;
            }
            ArrivalOutcome::Cancelled => {
                counts[1] += 1;
                slot.3[1] += 1;
            }
            ArrivalOutcome::Rejected => {
                counts[2] += 1;
                slot.3[2] += 1;
            }
            ArrivalOutcome::Failed(msg) => {
                counts[3] += 1;
                slot.3[3] += 1;
                failures.push(format!("Q{}: {msg}", rec.query));
            }
        }
    }

    let mut report = report_header(args, bench.gen_ms, bench.load_ms);
    report.insert_str(2, "  \"schema\": \"hsqp-openloop-v1\",\n");
    let _ = writeln!(report, "  \"offered_rate_per_hour\": {rate},");
    let _ = writeln!(report, "  \"duration_s\": {},", args.duration_s);
    let _ = writeln!(report, "  \"arrivals\": \"{arrivals_name}\",");
    let _ = writeln!(report, "  \"seed\": {},", args.seed);
    let _ = writeln!(report, "  \"clients\": {},", args.clients);
    let _ = writeln!(
        report,
        "  \"deadline_ms\": {},",
        args.deadline_ms
            .map_or("null".to_string(), |ms| ms.to_string())
    );
    let _ = writeln!(report, "  \"submitted\": {},", records.len());
    let _ = writeln!(report, "  \"completed\": {},", counts[0]);
    let _ = writeln!(report, "  \"cancelled\": {},", counts[1]);
    let _ = writeln!(report, "  \"rejected\": {},", counts[2]);
    let _ = writeln!(report, "  \"failed\": {},", counts[3]);
    let _ = writeln!(
        report,
        "  \"latency_ms\": {},",
        json_percentiles(&mut latencies)
    );
    let _ = writeln!(
        report,
        "  \"queue_wait_ms\": {},",
        json_percentiles(&mut waits)
    );
    let _ = writeln!(report, "  \"tenants\": [");
    let tenant_lines: Vec<String> = per_tenant
        .iter_mut()
        .map(|(i, lat, wait, c)| {
            let (name, cfg) = &tenants[*i];
            eprintln!(
                "tenant {name:<10} weight {:<3} {:>5} completed  {:>5} cancelled  \
                 {:>5} rejected  {:>3} failed",
                cfg.weight, c[0], c[1], c[2], c[3]
            );
            format!(
                "    {{\"tenant\": \"{}\", \"weight\": {}, \"completed\": {}, \
                 \"cancelled\": {}, \"rejected\": {}, \"failed\": {}, \
                 \"latency_ms\": {}, \"queue_wait_ms\": {}}}",
                json_escape(name),
                cfg.weight,
                c[0],
                c[1],
                c[2],
                c[3],
                json_percentiles(lat),
                json_percentiles(wait)
            )
        })
        .collect();
    report.push_str(&tenant_lines.join(",\n"));
    let _ = writeln!(report, "\n  ],");
    let _ = writeln!(report, "  \"failures\": {},", failures.len());
    let _ = writeln!(report, "  \"queries\": [");
    let mut query_lines: Vec<String> = Vec::new();
    for &n in queries {
        if let Some((rows, execs)) = rows_by_query.get(&n) {
            query_lines.push(format!(
                "    {{\"query\": {n}, \"rows\": {rows}, \"executions\": {execs}}}"
            ));
        }
    }
    report.push_str(&query_lines.join(",\n"));
    report.push_str("\n  ]\n}\n");

    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "{} arrivals: {} completed, {} cancelled at window end, {} rejected, {} failed",
        records.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    );
    emit_report(&report, &args.output)?;
    if !failures.is_empty() {
        return Err(format!("{} open-loop failures", failures.len()));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args = parse_args()?;

    if let Some(addrs) = &args.cluster {
        // Out-of-process mode: the profiler's spans, the trajectory file,
        // and the alternative engines live on the in-process nodes only.
        if args.analyze || args.trace_out.is_some() || args.bench_out.is_some() {
            return Err(
                "--analyze, --trace-out, and --bench-out need the in-process \
                 cluster (drop --cluster)"
                    .into(),
            );
        }
        if args.engine != "hybrid" {
            return Err("--cluster nodes always run the hybrid engine".into());
        }
        if args.expr_engine != ExprEngine::Compiled {
            return Err("--cluster nodes always run the vm expression engine".into());
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

    if args.stats == StatsMode::Feedback && args.plan_mode == PlanMode::Handwritten {
        return Err(
            "--stats feedback re-plans queries from observed cardinalities, \
             which needs --plan-mode builder (handwritten plans are fixed trees)"
                .into(),
        );
    }

    let queries: Vec<u32> = match &args.queries {
        Some(list) => list.clone(),
        None => ALL_QUERIES.to_vec(),
    };

    // --explain alone inspects plans without executing; together with
    // --analyze the queries run and each plan + profile is emitted as one
    // buffered block (serial mode enforces the latter below).
    if args.explain && !args.analyze {
        return explain(&args, &queries);
    }

    if let Some(rate) = args.open_loop {
        if args.analyze || args.trace_out.is_some() || args.bench_out.is_some() {
            return Err(
                "--analyze, --trace-out, and --bench-out need the serial mode \
                 (drop --open-loop)"
                    .into(),
            );
        }
        if args.rounds > 1 {
            return Err("--rounds applies to the closed-loop mode, not --open-loop".into());
        }
        return run_open_loop(&args, &queries, rate);
    }

    if args.clients > 1 || args.rounds > 1 {
        if args.analyze || args.trace_out.is_some() || args.bench_out.is_some() {
            return Err(
                "--analyze, --trace-out, and --bench-out need the serial mode \
                 (--clients 1, --rounds 1)"
                    .into(),
            );
        }
        return run_throughput(&args, &queries);
    }

    let bench = start_loaded_cluster(&args, "")?;
    let (coordinator, planner): (&Coordinator, &Planner) = (&bench.cluster, &bench.planner);
    let plans = plan_queries(&args, planner, &queries)?;
    let mut lines = Vec::new();
    let mut bench_lines = Vec::new();
    let mut profiles: Vec<QueryProfile> = Vec::new();
    let mut total_ms = 0.0f64;
    let mut log_sum = 0.0f64;
    let mut failures = 0u32;
    for (n, query) in &plans {
        let n = *n;
        let result: Result<QueryResult, _> =
            submit_planned(coordinator, planner, n, query, &SubmitOptions::default())
                .and_then(QueryHandle::wait);
        match result {
            Ok(result) => {
                let ms = result.elapsed.as_secs_f64() * 1e3;
                total_ms += ms;
                log_sum += ms.max(1e-6).ln();
                eprintln!(
                    "Q{n:<2} {ms:>10.2} ms  {:>8} rows  {:>12} bytes shuffled",
                    result.row_count(),
                    result.bytes_shuffled
                );
                lines.push(format!(
                    "    {{\"query\": {n}, \"ms\": {ms:.3}, \"rows\": {}, \
                     \"bytes_shuffled\": {}, \"messages_sent\": {}}}",
                    result.row_count(),
                    result.bytes_shuffled,
                    result.messages_sent
                ));
                let net_wait_ms = result
                    .profile
                    .as_ref()
                    .map_or(0.0, |p| p.net_wait().as_secs_f64() * 1e3);
                bench_lines.push(format!(
                    "    {{\"query\": {n}, \"rows\": {}, \"ms\": {ms:.3}, \
                     \"bytes_shuffled\": {}, \"net_wait_ms\": {net_wait_ms:.3}}}",
                    result.row_count(),
                    result.bytes_shuffled
                ));
                if let Some(profile) = result.profile {
                    if args.analyze {
                        // One buffered write per query: with --explain the
                        // plan (and compiled programs) lead the profile in
                        // the same block, so concurrent stderr lines can
                        // never interleave into the middle of either.
                        let mut block = String::new();
                        if args.explain {
                            match query {
                                Planned::Physical { query, notes } => {
                                    block.push_str(&render_query_plan(&args, n, query, notes));
                                }
                                // Re-planned after the run, so the printed
                                // estimates include the feedback
                                // corrections this execution just recorded.
                                Planned::Adaptive(logical) => {
                                    match planner.plan_query_explained(logical) {
                                        Ok((q, notes)) => {
                                            block.push_str(&render_query_plan(&args, n, &q, &notes))
                                        }
                                        Err(e) => {
                                            let _ = writeln!(
                                                block,
                                                "== Q{n}: replan for explain failed: {e}"
                                            );
                                        }
                                    }
                                }
                            }
                        }
                        block.push_str(&profile.render());
                        eprint!("{block}");
                    }
                    if args.trace_out.is_some() {
                        profiles.push(profile);
                    }
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("Q{n:<2} FAILED: {e}");
                lines.push(format!(
                    "    {{\"query\": {n}, \"error\": \"{}\"}}",
                    json_escape(&e.to_string())
                ));
            }
        }
    }
    let geomean_ms = if queries.is_empty() || failures > 0 {
        f64::NAN
    } else {
        (log_sum / queries.len() as f64).exp()
    };
    if args.metrics {
        eprint!("{}", coordinator.metrics().render());
    }
    drop(bench.cluster);

    if let Some(path) = &args.trace_out {
        let trace = chrome_trace(&profiles);
        std::fs::write(path, trace).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} queries traced)", profiles.len());
    }
    if let Some(path) = &args.bench_out {
        let mut out = String::from("{\n  \"schema\": \"hsqp-bench-v1\",\n");
        let _ = writeln!(out, "  \"sf\": {},", args.sf);
        let _ = writeln!(out, "  \"nodes\": {},", args.nodes);
        let _ = writeln!(out, "  \"workers_per_node\": {},", args.workers);
        let _ = writeln!(
            out,
            "  \"transport\": \"{}\",",
            json_escape(&args.transport)
        );
        let _ = writeln!(out, "  \"engine\": \"{}\",", json_escape(&args.engine));
        let _ = writeln!(out, "  \"plan_mode\": \"{}\",", args.plan_mode.name());
        let _ = writeln!(out, "  \"queries\": [");
        out.push_str(&bench_lines.join(",\n"));
        out.push_str("\n  ]\n}\n");
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    let mut report = report_header(&args, bench.gen_ms, bench.load_ms);
    let _ = writeln!(report, "  \"total_ms\": {total_ms:.3},");
    if geomean_ms.is_finite() {
        let _ = writeln!(report, "  \"geomean_ms\": {geomean_ms:.3},");
    } else {
        let _ = writeln!(report, "  \"geomean_ms\": null,");
    }
    let _ = writeln!(report, "  \"failures\": {failures},");
    let _ = writeln!(report, "  \"queries\": [");
    report.push_str(&lines.join(",\n"));
    report.push_str("\n  ]\n}\n");

    emit_report(&report, &args.output)?;
    if failures > 0 {
        return Err(format!("{failures} queries failed"));
    }
    Ok(())
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
