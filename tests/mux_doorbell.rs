//! The multiplexer sleeps on a doorbell and is woken by what gives it work
//! — a queued command, a completed receive — and by nothing else. Counters,
//! not durations: how often each multiplexer woke, how often for nothing,
//! against how many messages it sent and received. And since its loop has
//! no timed wait left, a ring lost anywhere is a hang: the stress test at
//! the end asserts that it finishes.

use std::sync::mpsc;
use std::time::Duration;

use hsqp::engine::cluster::{Cluster, ClusterConfig, Transport};
use hsqp::engine::exchange::{encode_header, MuxCmd, FLAG_LAST};
use hsqp::engine::plan::Plan;
use hsqp::engine::QueryId;
use hsqp::net::NodeId;
use hsqp::tpch::TpchTable;

fn cluster(nodes: u16, transport: Transport) -> Cluster {
    let cfg = ClusterConfig {
        transport,
        ..ClusterConfig::quick(nodes)
    };
    let c = Cluster::start(cfg).unwrap();
    c.load_tpch(0.001).unwrap();
    c
}

/// (wake-ups, of them empty, messages sent + received) of node `n`.
fn mux_counts(c: &Cluster, n: u16) -> (u64, u64, u64) {
    let (mux, net) = (&c.node_ctx(n).to_mux, c.fabric().stats(NodeId(n)));
    (
        mux.wakeups(),
        mux.empty_wakeups(),
        net.messages_sent() + net.messages_received(),
    )
}

/// A wire message of exchange `id` of `query` with no tuples in it.
fn empty_message(query: QueryId, id: u32, flags: u8) -> Vec<u8> {
    let mut msg = Vec::new();
    encode_header(query, id, flags, 0, 0, &mut msg);
    msg
}

/// Run `work` on a thread of its own and fail if it has not come back
/// after `limit`: with nothing timed in the multiplexer, a lost wake-up
/// would otherwise hold the test for ever.
fn under_watchdog<T: Send + 'static>(
    limit: Duration,
    what: &str,
    work: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(work()));
    finished
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what}: still not done after {limit:?} — a lost wake-up?"))
}

#[test]
fn an_idle_cluster_wakes_no_multiplexer() {
    for transport in [Transport::rdma_scheduled(), Transport::tcp()] {
        let c = cluster(2, transport);
        // (An unscheduled cluster has no scheduler to count rounds.)
        let counter = |name: &str| c.metrics().counter(name).unwrap_or(0);
        let before = (
            counter("exchange.mux.wakeups"),
            counter("net.scheduler.rounds"),
        );
        std::thread::sleep(Duration::from_millis(100));
        let after = (
            counter("exchange.mux.wakeups"),
            counter("net.scheduler.rounds"),
        );
        assert_eq!(before, after, "idle multiplexers must stay asleep");
        c.shutdown();
    }
}

#[test]
fn small_exchanges_wake_a_multiplexer_about_once_per_message() {
    const CHAIN: usize = 12;
    for transport in [Transport::rdma_scheduled(), Transport::rdma_unscheduled()] {
        let c = cluster(2, transport);
        // Twenty-five rows through a chain of repartitions: every
        // exchange is a message or two and a last-marker per node.
        let mut plan = Plan::scan_cols(TpchTable::Nation, &["n_nationkey", "n_regionkey"]);
        for hop in 0..CHAIN {
            plan = plan.repartition(&[["n_nationkey", "n_regionkey"][hop % 2]]);
        }
        let plan = plan.gather();
        for _ in 0..20 {
            assert_eq!(c.run_plan(&plan).unwrap().row_count(), 25);
        }
        let (mut woken, mut empty) = (0, 0);
        for n in 0..2 {
            // Since the cluster started: loading shuffles nothing.
            let (w, e, m) = mux_counts(&c, n);
            assert!(m >= 20 * CHAIN as u64, "node {n} moved only {m} messages");
            // One ring per command and per completion, and several of
            // them may be answered by one look.
            assert!(w <= m + e, "node {n}: {w} wake-ups for {m} messages");
            woken += w;
            empty += e;
        }
        eprintln!("{woken} wake-ups, {empty} of them empty");
        assert!(
            empty * 10 <= woken,
            "{empty} of {woken} wake-ups found nothing to do"
        );
        c.shutdown();
    }
}

#[test]
fn a_sender_wakes_its_target_and_no_one_else() {
    const MESSAGES: u64 = 500;
    let c = cluster(3, Transport::rdma_scheduled());
    let query = QueryId(u32::MAX);
    let before: Vec<_> = (0..3).map(|n| mux_counts(&c, n)).collect();
    let rounds_before = c.metrics().counter("net.scheduler.rounds").unwrap();
    for i in 0..MESSAGES {
        c.node_ctx(0)
            .to_mux
            .send(MuxCmd::Send {
                target: NodeId(1),
                payload: empty_message(query, i as u32 % 4, 0).into(),
            })
            .unwrap();
    }
    under_watchdog(Duration::from_secs(60), "one-way stream", {
        let fabric = c.fabric().clone();
        move || {
            while fabric.stats(NodeId(1)).messages_received() < MESSAGES {
                std::thread::yield_now();
            }
        }
    });
    assert_eq!(c.fabric().stats(NodeId(1)).messages_received(), MESSAGES);
    let after: Vec<_> = (0..3).map(|n| mux_counts(&c, n)).collect();
    assert_eq!(after[2], before[2], "the uninvolved node was woken");
    for n in 0..2 {
        let woken = after[n].0 - before[n].0;
        assert!(
            (1..=MESSAGES).contains(&woken),
            "node {n}: {woken} wake-ups"
        );
    }
    // The lone sender's barrier is a barrier of one: it turned rounds
    // (node 1 is its target every other phase) without anyone's company.
    let rounds = c.metrics().counter("net.scheduler.rounds").unwrap() - rounds_before;
    assert!(
        rounds <= 2 * MESSAGES,
        "{rounds} rounds for {MESSAGES} messages"
    );
    c.node_ctx(1).hub.finish_query(query);
    c.shutdown();
}

/// One last-marker goes round the ring of nodes, over and over: each hop
/// is a command that must wake the sending multiplexer, a completion that
/// must wake the receiving one, and a hub delivery that wakes the thread
/// which sends it on. Every multiplexer is asleep whenever the marker is
/// elsewhere, so each of the hops crosses the window between "looked, found
/// nothing" and "went to sleep" anew.
fn ping_pong(nodes: u16, transport: Transport, hops: u32) {
    let c = cluster(nodes, transport);
    let query = QueryId(u32::MAX);
    under_watchdog(Duration::from_secs(150), "ping-pong", move || {
        std::thread::scope(|scope| {
            for node in 0..nodes {
                let ctx = c.node_ctx(node);
                let next = NodeId((node + 1) % nodes);
                scope.spawn(move || {
                    // Hop `h` is exchange `h`, sent by node `h % nodes`.
                    for hop in 0..hops {
                        let sender = (hop % u32::from(nodes)) as u16;
                        if sender == node {
                            ctx.to_mux
                                .send(MuxCmd::Send {
                                    target: next,
                                    payload: empty_message(query, hop, FLAG_LAST).into(),
                                })
                                .unwrap();
                        } else if NodeId((sender + 1) % nodes) == ctx.node {
                            ctx.hub.expect_lasts(query, hop, 1);
                            assert!(ctx.hub.pop(query, hop, 0, true).is_none());
                            ctx.hub.finish(query, hop);
                        }
                    }
                });
            }
        });
        for node in 0..nodes {
            let (woken, empty, moved) = mux_counts(&c, node);
            assert!(moved >= u64::from(hops / u32::from(nodes)));
            assert!(
                woken <= moved + empty,
                "node {node}: {woken} wake-ups, {moved} messages"
            );
        }
        c.shutdown();
    });
}

#[test]
fn no_wakeup_is_lost_in_fifty_thousand_ping_pongs() {
    for nodes in [2, 3] {
        for transport in [Transport::rdma_scheduled(), Transport::rdma_unscheduled()] {
            ping_pong(nodes, transport, 50_000);
        }
    }
}
