//! What the benchmark runs and what it reports: the single source that
//! `list`, `BENCHMARK.json`, `compare` and the README glossary agree on.

use crate::json::{num, obj, s, Json};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// What a workload executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 22 `tpch_logical` templates through `Session::run` on a
    /// simulated 2×1 cluster.
    TpchSim,
    /// Five exchange-only physical plans through `Cluster::run_plan` on a
    /// simulated 2×1 cluster.
    Shuffle,
    /// The 22 templates through `ProcessCluster` over two child processes.
    TpchSocket,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// TPC-H scale factor of a full run.
    pub sf: f64,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

/// Scale factor every workload uses under `--quick` (harness tests).
pub const QUICK_SF: f64 = 0.005;

impl Workload {
    pub fn scale_factor(&self, quick: bool) -> f64 {
        if quick {
            QUICK_SF
        } else {
            self.sf
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tpch_sf005_sim",
        kind: Kind::TpchSim,
        sf: 0.05,
        why: "22 TPC-H templates at SF 0.05 on a simulated 2x1 cluster: compute-bound, joins and \
              aggregation (ops, vm, local) do the work; planning is under 1 %",
    },
    Workload {
        name: "tpch_sf001_sim",
        kind: Kind::TpchSim,
        sf: 0.01,
        why: "same templates at SF 0.01: plan, compile, dispatch, stage barriers, scheduler rounds \
              and exchange waits weigh 2-10x more than at SF 0.05; join+aggregate are still 56-59 % \
              of a pass",
    },
    Workload {
        name: "shuffle_sf01_sim",
        kind: Kind::Shuffle,
        sf: 0.1,
        why: "five exchange-only plans at SF 0.1 (wide, narrow, string-heavy repartition, \
              broadcast, gather): only exchange, wire, net and the message pool work, ops none",
    },
    Workload {
        name: "tpch_sf001_socket",
        kind: Kind::TpchSocket,
        sf: 0.01,
        why: "the SF 0.01 templates over two node processes on loopback TCP: the only workload \
              where remote, serial and net.socket work; same engine work as tpch_sf001_sim",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// (`None` for per-layer metrics, which are not gated).
    pub bound: Option<f64>,
    /// Glossary line.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// The five end-to-end metrics, the same on every workload. The bounds are
/// three times the widest run-to-run spread measured on this host (see the
/// README), capped at the 25 % the benchmark contract allows.
pub const END_TO_END: [Metric; 5] = [
    e2e(
        "qph",
        "1/h",
        Higher,
        0.25,
        "3600 x templates / seconds of one undisturbed pass: the sum over templates of each \
         template's best caller-side latency over the passes (every template must have executed \
         correctly)",
    ),
    e2e(
        "geomean_ms",
        "ms",
        Lower,
        0.25,
        "geometric mean over templates of each template's best latency over the passes",
    ),
    e2e(
        "slowest_query_ms",
        "ms",
        Lower,
        0.25,
        "largest per-template best latency (Q21, wide_repart, Q15)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.20,
        "VmHWM of the harness plus its node children at the end of the window",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "median of the repeated set-ups: generate + start + load until the first query can be \
         accepted (socket: spawn + connect + load)",
    ),
];

/// Per-layer metrics of the traced run, grouped by engine layer.
pub const PER_LAYER: [Metric; 75] = [
    // tpch, storage
    layer("tpch.generate_ms", "ms", Lower, "TpchDb::generate at the workload's scale factor"),
    layer("storage.load_ms", "ms", Lower, "Session::load_tpch_db: stats sampling, split, placement"),
    // cluster
    layer("cluster.start_ms", "ms", Lower, "SessionBuilder::build of the 2x1 cluster"),
    layer("cluster.first_pass_ms", "ms", Lower, "the warm-up pass: lazy set-up a warm-up hides"),
    layer("cluster.min_query_ms", "ms", Lower, "scan(region).aggregate(count) through Session::run"),
    layer("cluster.min_stage_ms", "ms", Lower, "extra latency per added trivial stage"),
    layer("cluster.queue_wait_p50_ms", "ms", Lower, "median QueryResult::queue_wait in the traced passes"),
    layer("cluster.two_client_speedup_x", "x", Higher, "qph of two closed-loop clients over one, SF 0.01 (informational)"),
    // planner
    layer("planner.plan_us_per_query", "us", Lower, "Planner::plan_query, mean over the workload's logical templates"),
    layer("planner.stages_per_pass", "count", Lower, "physical stages in one pass (exact)"),
    layer("planner.exchanges_per_pass", "count", Lower, "exchange operators in one pass (exact)"),
    // vm
    layer("vm.compile_us_per_query", "us", Lower, "compile_stage over a query's stages, mean over the templates"),
    layer("vm.filter_mrows_s", "Mrows/s", Higher, "Q6 predicate: ExprProgram bind + eval_mask per morsel"),
    layer("vm.map_mrows_s", "Mrows/s", Higher, "l_extendedprice*(1-l_discount) via eval per morsel"),
    // ops
    layer("ops.join_build_mrows_s", "Mrows/s", Higher, "JoinTable::build on unique o_orderkey"),
    layer("ops.join_build_dup_mrows_s", "Mrows/s", Higher, "JoinTable::build on l_orderkey, ~4 rows per key"),
    layer("ops.join_probe_mrows_s", "Mrows/s", Higher, "probe_join Inner, lineitem into orders"),
    layer("ops.semi_probe_mrows_s", "Mrows/s", Higher, "probe_join LeftSemi, orders into lineitem"),
    layer("ops.join_scale_x", "x", Lower, "build+probe time at 10x rows over 1x; 10 is linear"),
    layer("ops.agg_lowcard_mrows_s", "Mrows/s", Higher, "aggregate by l_returnflag,l_linestatus (4 groups)"),
    layer("ops.agg_highcard_mrows_s", "Mrows/s", Higher, "aggregate by l_orderkey"),
    layer("ops.sort_mrows_s", "Mrows/s", Higher, "sort_table of orders by o_totalprice desc, o_orderdate"),
    // local
    layer("local.morsel_overhead_ns", "ns", Lower, "MorselDriver::run per morsel with empty work"),
    layer("local.speedup_2w_x", "x", Higher, "the join probe with two workers over one"),
    // wire, exchange
    layer("wire.serialize_mb_s", "MB/s", Higher, "RowSerializer over the SF 0.01 lineitem (~60 000 rows)"),
    layer("wire.deserialize_mb_s", "MB/s", Higher, "RowDeserializer over the same bytes"),
    layer("wire.bytes_per_row", "B", Lower, "serialized lineitem bytes per row (exact)"),
    layer("exchange.bucket_mrows_s", "Mrows/s", Higher, "exec::row_bucket over l_orderkey"),
    layer("exchange.pool_reuse_ratio", "ratio", Higher, "MessagePool reuses / (reuses + registrations) over the traced passes"),
    layer("exchange.bytes_shuffled_per_pass", "B", Lower, "sum of QueryResult::bytes_shuffled over a pass (exact under static plans)"),
    layer("exchange.messages_per_pass", "count", Lower, "sum of QueryResult::messages_sent over a pass"),
    layer("exchange.shuffle_mb_s.rdma_sched", "MB/s", Higher, "wide_repart on a fresh 2x1 cluster, scheduled RDMA"),
    layer("exchange.shuffle_mb_s.rdma_unsched", "MB/s", Higher, "the same, RDMA without network scheduling"),
    layer("exchange.shuffle_mb_s.tcp", "MB/s", Higher, "the same, simulated TCP"),
    // net
    layer("net.alltoall_sched_mb_s", "MB/s", Higher, "Fig. 10(b) kernel, 512 KB messages, round-robin schedule"),
    layer("net.alltoall_unsched_mb_s", "MB/s", Higher, "Fig. 10(b) kernel, uncoordinated"),
    layer("net.sched_sync_us", "us", Lower, "one NetScheduler::sync round of two parties"),
    layer("net.sched_rounds_per_pass", "count", Lower, "net.scheduler.rounds of the metrics registry over a pass"),
    layer("net.socket_rtt_us", "us", Lower, "64 B ping-pong between two SocketTransport endpoints"),
    layer("net.socket_mb_s", "MB/s", Higher, "512 KB frames one way between the same endpoints"),
    // serial, remote
    layer("serial.encode_query_us", "us", Lower, "serial::encode_query, mean over the 22 planned queries"),
    layer("serial.decode_query_us", "us", Lower, "serial::decode_query of the same bytes"),
    layer("serial.plan_bytes_per_pass", "B", Lower, "encoded bytes of the 22 planned queries (exact)"),
    layer("serial.encode_table_mb_s", "MB/s", Higher, "serial::encode_table of SF 0.01 orders"),
    layer("serial.decode_table_mb_s", "MB/s", Higher, "serial::decode_table of the same bytes"),
    layer("remote.min_query_ms", "ms", Lower, "one-stage count over region through ProcessCluster::run"),
    layer("remote.min_stage_ms", "ms", Lower, "extra latency per added trivial stage over sockets"),
    layer("remote.wire_bytes_per_pass", "B", Lower, "ProcessCluster::net_stats bytes sent over one pass of the 22 templates"),
    layer("remote.spawn_ms", "ms", Lower, "spawn two node processes and read their banners"),
    layer("remote.connect_ms", "ms", Lower, "ProcessCluster::connect (handshake + data mesh)"),
    layer("remote.load_ms", "ms", Lower, "ProcessCluster::load_tpch at SF 0.01"),
    // traced pass
    layer("trace.pass_ms", "ms", Lower, "median traced pass: its executions' latencies summed"),
    layer("trace.plan_ms", "ms", Lower, "harness span: Planner::plan_query, per pass"),
    layer("trace.submit_ms", "ms", Lower, "harness span: Cluster::submit (stage compile + enqueue), per pass"),
    layer("trace.wait_ms", "ms", Lower, "harness span: QueryHandle::wait (socket: ProcessCluster::run), per pass"),
    layer("trace.queue_wait_ms", "ms", Lower, "QueryResult::queue_wait, per pass"),
    layer("trace.exec_ms", "ms", Lower, "QueryResult::elapsed minus queue wait, per pass"),
    layer("trace.op_scan_ms", "ms", Lower, "profile self time of scans on each stage's slowest node, per pass"),
    layer("trace.op_filter_map_ms", "ms", Lower, "the same for Filter and Map"),
    layer("trace.op_join_ms", "ms", Lower, "the same for HashJoin (build + probe)"),
    layer("trace.op_aggregate_ms", "ms", Lower, "the same for Aggregate"),
    layer("trace.op_sort_ms", "ms", Lower, "the same for Sort"),
    layer("trace.op_exchange_send_ms", "ms", Lower, "exchange send side: partition, serialize, hand-off"),
    layer("trace.op_net_wait_ms", "ms", Lower, "exchange consumers blocked on the receive hub"),
    layer("trace.op_exchange_recv_ms", "ms", Lower, "exchange receive side without the wait: deserialize, append"),
    layer("trace.stage_gap_ms", "ms", Lower, "exec minus the stage walls: dispatch, barriers, gather"),
    layer("trace.op_other_ms", "ms", Lower, "stage wall not covered by any operator span"),
    // harness
    layer("lat.p90_ms", "ms", Lower, "90th percentile over the traced run's executions (at least 100)"),
    layer("lat.median_pass_ms", "ms", Lower, "median untraced pass of the traced run: what the gated best-of metrics leave out"),
    layer("lat.best_pass_ms", "ms", Lower, "fastest untraced pass; median over best is the run's jitter"),
    layer("proc.cpu_s_per_pass", "s", Lower, "user+sys CPU of the harness and its children per traced pass"),
    layer("host.calib_ms", "ms", Lower, "fixed single-thread checksum over 64 MB, sampled between passes: the host's speed, not the engine's"),
    layer("host.steal_pct", "%", Lower, "CPU time the hypervisor withheld during the traced passes, of what the cores had (/proc/stat steal)"),
    layer("profile.overhead_ratio", "ratio", Lower, "fastest traced pass over fastest untraced pass"),
    layer("probe.total_s", "s", Lower, "wall time of all kernel probes"),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

fn metric_json(m: &Metric) -> Json {
    let mut members = vec![
        ("name".to_string(), s(m.name)),
        ("unit".to_string(), s(m.unit)),
        ("better".to_string(), s(m.better.name())),
    ];
    if let Some(bound) = m.bound {
        members.push(("bound".to_string(), num(bound)));
    }
    Json::Obj(members.into_iter().collect())
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--locked",
        "--manifest-path",
        "hsqp_bench/Cargo.toml",
        "--",
    ];
    obj([
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("hsqp_bench")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// The `list` glossary.
pub fn glossary() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<20} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (every workload, untraced runs)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<8} {:<6} may worsen by {:>2.0} %  {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.unwrap_or(0.0) * 100.0,
            m.what
        ));
    }
    out.push_str("\nper-layer metrics (traced runs, not gated)\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<34} {:<8} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        ));
    }
    out
}
