//! Integration tests for serving: morsel-bounded cancellation latency,
//! deadline / `wait_timeout` no-wedge regressions, and fast rejection past
//! the admission queue's `max_queued` cap — each case run on a simulated
//! cluster and on a `ProcessCluster` over in-thread `NodeServer`s, since
//! serving is one `Coordinator` over either.

mod support;

use std::ops::Deref;
use std::time::{Duration, Instant};

use hsqp::engine::cluster::{Cluster, ClusterConfig};
use hsqp::engine::error::EngineError;
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, Query};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig};
use hsqp::engine::serve::SubmitOptions;
use hsqp::engine::Coordinator;

use support::loopback_nodes;

/// A loaded 2-node cluster with a single dispatcher slot. The cases see
/// only its [`Coordinator`]; dropping it shuts the cluster down.
type Serving = Box<dyn Deref<Target = Coordinator>>;

/// Starts a [`Serving`] cluster loaded at `sf` whose queue holds at most
/// `max_queued` submissions.
type Start = fn(f64, Option<usize>) -> Serving;

fn simulated(sf: f64, max_queued: Option<usize>) -> Serving {
    eprintln!("on a simulated cluster"); // shown with a failure
    let cluster = Cluster::start(ClusterConfig {
        max_concurrent: 1,
        max_queued,
        ..ClusterConfig::quick(2)
    })
    .expect("start cluster");
    cluster.load_tpch(sf).expect("load TPC-H");
    Box::new(cluster)
}

/// Two node servers on threads of this process (stand-ins for `hsqp-node`
/// children; they exit when the coordinator shuts them down) and the
/// coordinator connected to them over loopback TCP.
fn over_sockets(sf: f64, max_queued: Option<usize>) -> Serving {
    eprintln!("on node servers over sockets"); // shown with a failure
    let addrs = loopback_nodes(2);
    let cfg = ProcessClusterConfig {
        max_concurrent: 1,
        max_queued,
        ..ProcessClusterConfig::default()
    };
    let cluster = ProcessCluster::connect(&addrs, cfg).expect("connect");
    cluster.load_tpch(sf).expect("load TPC-H");
    Box::new(cluster)
}

/// TPC-H query `n` planned for the two nodes of a [`Serving`] cluster
/// loaded at `sf`, from spec-derived row counts (a [`Serving`] cluster
/// shows only its coordinator).
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

/// `cancel()` must take effect at morsel granularity: cancelling a
/// long-running query mid-flight resolves its handle far faster than
/// letting the query finish would, and the cluster stays healthy.
fn cancellation_latency(start: Start) {
    let cluster = start(0.02, None);
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
    let cluster = start(0.01, None);
    let heavy = planned(9, 0.01);
    let fast = planned(6, 0.01);

    // Deadline far shorter than the query: typed DeadlineExceeded.
    let handle = cluster
        .submit_with(
            &heavy,
            &SubmitOptions::default().with_deadline(Duration::from_millis(2)),
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
/// while under-cap submissions queue and complete, and the queue admits
/// again once it drains.
fn admission_cap(start: Start) {
    let cluster = start(0.01, Some(1));
    let heavy = planned(9, 0.01);
    let fast = planned(6, 0.01);

    // Plug the single dispatcher slot so subsequent submissions queue.
    let plug = cluster.submit(&heavy).expect("submit plug");
    wait_until_running(&cluster);
    let queued = cluster.submit(&fast).expect("first submission queues");
    match cluster.submit(&fast) {
        Err(EngineError::Admission(msg)) => {
            assert!(msg.contains("max_queued"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Admission rejection, got {other:?}"),
        Ok(_) => panic!("over-cap submission was admitted"),
    }

    plug.wait().expect("plug completes");
    queued.wait().expect("queued query completes");

    // With the queue drained it admits again.
    cluster
        .submit(&fast)
        .expect("admits after drain")
        .wait()
        .expect("and completes");

    let metrics = cluster.metrics();
    assert_eq!(metrics.counter("queries.rejected"), Some(1));
    assert_eq!(metrics.counter("queries.submitted"), Some(3));
    assert_eq!(metrics.counter("queries.completed"), Some(3));
}

/// Both clusters, one after the other: the cases are timing-sensitive
/// (a plug has to outlive the submissions queued behind it), so they do
/// not also compete with their own twin for the host's cores.
const BOTH: [Start; 2] = [simulated, over_sockets];

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
