//! Integration tests for the multi-tenant serving layer: weighted-fair
//! scheduling under saturation (no starvation, service in weight
//! proportion), morsel-bounded cancellation latency, deadline /
//! `wait_timeout` no-wedge regressions, and fast admission-cap rejection —
//! each case run on a simulated cluster and on a `ProcessCluster` over
//! in-thread `NodeServer`s, since the serving layer is one `Coordinator`
//! over either — plus an open-loop CLI smoke over both.

mod support;

use std::ops::Deref;
use std::process::Command;
use std::time::{Duration, Instant};

use hsqp::engine::cluster::{Cluster, ClusterConfig, QueryHandle};
use hsqp::engine::error::EngineError;
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, Query};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::serve::{SubmitOptions, TenantConfig};
use hsqp::engine::Coordinator;

use support::{loopback_nodes, NodeProc};

/// A loaded 2-node cluster with a single dispatcher slot. The cases see
/// only its [`Coordinator`]; dropping it shuts the cluster down.
type Serving = Box<dyn Deref<Target = Coordinator>>;

/// Starts a [`Serving`] cluster with the given tenants, loaded at `sf`.
type Start = fn(f64, &[(&str, TenantConfig)]) -> Serving;

fn owned(tenants: &[(&str, TenantConfig)]) -> Vec<(String, TenantConfig)> {
    tenants
        .iter()
        .map(|(n, c)| (n.to_string(), c.clone()))
        .collect()
}

fn simulated(sf: f64, tenants: &[(&str, TenantConfig)]) -> Serving {
    eprintln!("on a simulated cluster"); // shown with a failure
    let cluster = Cluster::start(ClusterConfig {
        max_concurrent: 1,
        tenants: owned(tenants),
        ..ClusterConfig::quick(2)
    })
    .expect("start cluster");
    cluster.load_tpch(sf).expect("load TPC-H");
    Box::new(cluster)
}

/// Two node servers on threads of this process (stand-ins for `hsqp-node`
/// children; they exit when the coordinator shuts them down) and the
/// coordinator connected to them over loopback TCP.
fn over_sockets(sf: f64, tenants: &[(&str, TenantConfig)]) -> Serving {
    eprintln!("on node servers over sockets"); // shown with a failure
    let addrs = loopback_nodes(2);
    let cfg = ProcessClusterConfig {
        max_concurrent: 1,
        tenants: owned(tenants),
        ..ProcessClusterConfig::default()
    };
    let cluster = ProcessCluster::connect(&addrs, cfg).expect("connect");
    cluster.load_tpch(sf).expect("load TPC-H");
    Box::new(cluster)
}

/// TPC-H query `n` planned for the two nodes of a [`Serving`] cluster
/// loaded at `sf`, from spec-derived row counts as `hsqp --explain` plans
/// it (a [`Serving`] cluster shows only its coordinator).
fn planned(n: u32, sf: f64) -> Query {
    let planner = Planner::for_tpch(2, sf, |_| None);
    planner.plan_query(&tpch_logical(n).unwrap()).unwrap()
}

/// Block until the dispatcher has picked a query up, so that what is
/// submitted next queues behind it instead of racing it for the slot.
fn wait_until_running(cluster: &Coordinator) {
    while cluster.metrics().gauge("queries.active") != Some(1) {
        std::thread::yield_now();
    }
}

/// A backlogged 4:1 tenant pair must be *served* in weight proportion:
/// plug the single dispatcher slot with a long query, enqueue an
/// interleaved gold/silver backlog behind it, then reconstruct the pickup
/// order from each query's measured `queue_wait` — any early window of
/// picks must be dominated by gold roughly 4:1, and silver must not
/// starve.
fn weighted_fair_scheduling(start: Start) {
    let cluster = start(
        0.01,
        &[
            ("gold", TenantConfig::weighted(4)),
            ("silver", TenantConfig::weighted(1)),
        ],
    );
    let plug = planned(9, 0.01);
    let fast = planned(6, 0.01);
    let serial_rows = cluster.run(&fast).expect("serial Q6").row_count();

    // Occupy the only dispatcher slot, then enqueue the backlog while it
    // holds the slot — every backlog query starts queued, so the WDRR
    // schedule alone decides pickup order.
    let plug_handle = cluster
        .submit_with(&plug, &SubmitOptions::tenant("gold"))
        .expect("submit plug");
    wait_until_running(&cluster);
    let base = Instant::now();
    let backlog: Vec<(&str, Instant, QueryHandle)> = (0..40)
        .map(|i| {
            let tenant = if i % 2 == 0 { "gold" } else { "silver" };
            let submitted = Instant::now();
            let handle = cluster
                .submit_with(&fast, &SubmitOptions::tenant(tenant))
                .expect("submit backlog query");
            (tenant, submitted, handle)
        })
        .collect();

    plug_handle.wait().expect("plug completes");
    let mut picks: Vec<(Duration, &str)> = Vec::new();
    for (tenant, submitted, handle) in backlog {
        let result = handle.wait().expect("backlog query completes");
        assert_eq!(result.row_count(), serial_rows, "row drift under load");
        assert!(
            result.queue_wait > Duration::ZERO,
            "backlog query was picked up before the plug released the slot"
        );
        // Pickup instant = submission instant + measured queue wait.
        picks.push((submitted + result.queue_wait - base, tenant));
    }
    picks.sort();

    let gold_early = picks.iter().take(25).filter(|(_, t)| *t == "gold").count();
    let silver_early = 25 - gold_early;
    // Exact DRR gives 20 gold in the first 25 picks here; leave slack for
    // cursor position. 4:1 weights must clearly beat fair-share (12.5).
    assert!(
        (17..=22).contains(&gold_early),
        "expected ~4:1 gold-dominated pickup order, got {gold_early} gold \
         in the first 25 picks"
    );
    assert!(
        silver_early >= 3,
        "silver starved: only {silver_early} of the first 25 picks"
    );

    // Per-tenant rollups saw every submission complete, and the traffic
    // of gold's join-heavy plug (on sockets: what the nodes reported when
    // it retired).
    let metrics = cluster.tenant_metrics();
    let gold = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "gold")
        .expect("gold metrics");
    let silver = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "silver")
        .expect("silver metrics");
    assert_eq!(gold.submitted, 21);
    assert_eq!(gold.completed, 21);
    assert_eq!(silver.submitted, 20);
    assert_eq!(silver.completed, 20);
    assert_eq!(gold.failed + gold.cancelled + gold.rejected, 0);
    assert_eq!(silver.failed + silver.cancelled + silver.rejected, 0);
    assert!(gold.bytes_shuffled > silver.bytes_shuffled);
}

/// `cancel()` must take effect at morsel granularity: cancelling a
/// long-running query mid-flight resolves its handle far faster than
/// letting the query finish would, and the cluster stays healthy.
fn cancellation_latency(start: Start) {
    let cluster = start(0.02, &[]);
    let heavy = planned(9, 0.02);
    let next = planned(3, 0.02);
    let next_rows = cluster.run(&next).expect("baseline Q3").row_count();
    let wall = {
        let started = Instant::now();
        cluster.run(&heavy).expect("baseline Q9");
        started.elapsed()
    };

    let handle = cluster.submit(&heavy).expect("submit Q9");
    std::thread::sleep(wall / 4);
    let cancelled_at = Instant::now();
    handle.cancel();
    let outcome = handle.wait();
    let latency = cancelled_at.elapsed();
    assert!(
        matches!(outcome, Err(EngineError::Cancelled)),
        "expected Cancelled, got {outcome:?}"
    );
    // A morsel is thousands of rows (microseconds of work) and exchange
    // waits poll every few ms; the bound below is generous slack over
    // that, and far below the query's remaining runtime at saturation.
    let bound = (wall / 2).max(Duration::from_millis(150));
    assert!(
        latency < bound,
        "cancel latency {latency:?} not morsel-bounded (query wall {wall:?})"
    );

    // Nothing wedged and nothing of the cancelled query lingers: the next
    // query returns the rows it returned before, the same one completes.
    let after = cluster.run(&next).expect("Q3 after cancellation");
    assert_eq!(after.row_count(), next_rows);
    cluster.run(&heavy).expect("Q9 after cancellation");
    let metrics = cluster.metrics();
    assert_eq!(metrics.counter("queries.cancelled"), Some(1));
    assert_eq!(metrics.counter("queries.failed"), Some(0));
}

/// Submit-time deadlines and `wait_timeout` must never wedge the engine:
/// a deadline that fires mid-query resolves the handle with the typed
/// error, a timed-out wait leaves the handle usable, and follow-up
/// queries run normally.
fn deadline_and_wait_timeout(start: Start) {
    let cluster = start(0.01, &[]);
    let heavy = planned(9, 0.01);
    let fast = planned(6, 0.01);

    // Deadline far shorter than the query: typed DeadlineExceeded.
    let handle = cluster
        .submit_with(
            &heavy,
            &SubmitOptions::tenant("t").with_deadline(Duration::from_millis(2)),
        )
        .expect("submit with deadline");
    let outcome = handle.wait();
    assert!(
        matches!(outcome, Err(EngineError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {outcome:?}"
    );

    // wait_timeout on an in-flight query returns None without consuming
    // the handle; cancel + wait still resolves it. The query queues behind
    // a plug holding the only dispatcher slot, so the cancel lands before
    // its first stage, not after its last morsel.
    let plug = cluster.submit(&heavy).expect("submit plug");
    wait_until_running(&cluster);
    let handle = cluster.submit(&heavy).expect("submit Q9");
    if handle.wait_timeout(Duration::from_millis(1)).is_none() {
        handle.cancel();
        let outcome = handle.wait();
        assert!(
            matches!(outcome, Err(EngineError::Cancelled)),
            "expected Cancelled after timeout+cancel, got {outcome:?}"
        );
    }
    plug.wait().expect("plug completes");

    // wait_timeout with ample budget yields the result.
    let handle = cluster.submit(&fast).expect("submit Q6");
    let result = handle
        .wait_timeout(Duration::from_secs(60))
        .expect("fast query finishes well within a minute")
        .expect("fast query succeeds");
    assert!(result.row_count() > 0);

    // Engine healthy after all of the above.
    cluster.run(&fast).expect("follow-up query");
}

/// Over-cap submissions are rejected fast with the typed admission error
/// while under-cap submissions queue and complete; the cap applies per
/// tenant, not globally.
fn admission_cap(start: Start) {
    let cluster = start(
        0.01,
        &[
            ("capped", {
                TenantConfig {
                    weight: 1,
                    max_queued: Some(1),
                    max_concurrent: Some(1),
                }
            }),
            ("open", TenantConfig::weighted(1)),
        ],
    );
    let heavy = planned(9, 0.01);
    let fast = planned(6, 0.01);

    // Plug the single dispatcher slot so subsequent submissions queue.
    let plug = cluster
        .submit_with(&heavy, &SubmitOptions::tenant("open"))
        .expect("submit plug");
    wait_until_running(&cluster);
    let queued = cluster
        .submit_with(&fast, &SubmitOptions::tenant("capped"))
        .expect("first capped submission queues");
    match cluster.submit_with(&fast, &SubmitOptions::tenant("capped")) {
        Err(EngineError::Admission(msg)) => {
            assert!(msg.contains("max_queued"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Admission rejection, got {other:?}"),
        Ok(_) => panic!("over-cap submission was admitted"),
    }
    // Another tenant is unaffected by capped's limits.
    let open_ok = cluster
        .submit_with(&fast, &SubmitOptions::tenant("open"))
        .expect("open tenant submission queues");

    plug.wait().expect("plug completes");
    queued.wait().expect("queued capped query completes");
    open_ok.wait().expect("open query completes");

    // With the queue drained the capped tenant admits again.
    cluster
        .submit_with(&fast, &SubmitOptions::tenant("capped"))
        .expect("capped admits after drain")
        .wait()
        .expect("and completes");

    let metrics = cluster.tenant_metrics();
    let capped = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "capped")
        .expect("capped metrics");
    assert_eq!(capped.rejected, 1);
    assert_eq!(capped.completed, 2);
}

/// Both clusters, one after the other: the cases are timing-sensitive
/// (a plug has to outlive the submissions queued behind it), so they do
/// not also compete with their own twin for the host's cores.
const BOTH: [Start; 2] = [simulated, over_sockets];

#[test]
fn weighted_fair_scheduling_serves_in_weight_proportion() {
    BOTH.into_iter().for_each(weighted_fair_scheduling);
}

#[test]
fn cancellation_latency_is_morsel_bounded() {
    BOTH.into_iter().for_each(cancellation_latency);
}

#[test]
fn deadline_and_wait_timeout_do_not_wedge() {
    BOTH.into_iter().for_each(deadline_and_wait_timeout);
}

#[test]
fn admission_cap_rejects_over_queue_submissions() {
    BOTH.into_iter().for_each(admission_cap);
}

// ---------------------------------------------------------------------------
// Open-loop CLI smoke over both backends
// ---------------------------------------------------------------------------

/// Run `hsqp` with the given extra args and return stdout, asserting
/// success.
fn run_open_loop_cli(extra: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hsqp"));
    cmd.args([
        "--sf",
        "0.001",
        "--queries",
        "1,6",
        "--open-loop",
        "120000",
        "--duration",
        "2",
        "--tenants",
        "gold:4,silver:1",
        "--seed",
        "7",
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("run hsqp --open-loop");
    assert!(
        out.status.success(),
        "open-loop run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

fn assert_open_loop_report(report: &str) {
    for needle in [
        "\"schema\": \"hsqp-openloop-v1\"",
        "\"arrivals\": \"poisson\"",
        "\"tenant\": \"gold\"",
        "\"tenant\": \"silver\"",
        "\"queue_wait_ms\"",
        "\"failed\": 0",
    ] {
        assert!(
            report.contains(needle),
            "open-loop report missing {needle}: {report}"
        );
    }
}

/// Open-loop smoke on the in-process backend: the run completes, reports
/// the versioned schema, per-tenant sections, and zero failures.
#[test]
fn open_loop_smoke_local_backend() {
    let report = run_open_loop_cli(&["--nodes", "2"]);
    assert_open_loop_report(&report);
}

/// Open-loop smoke on the out-of-process backend: two real `hsqp-node`
/// servers, `--clients` dispatcher slots, same report contract.
#[test]
fn open_loop_smoke_remote_backend() {
    let nodes: Vec<NodeProc> = (0..2).map(|_| NodeProc::spawn()).collect();
    let addrs = nodes
        .iter()
        .map(|n| n.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let report = run_open_loop_cli(&["--cluster", &addrs, "--clients", "2"]);
    assert_open_loop_report(&report);
}
