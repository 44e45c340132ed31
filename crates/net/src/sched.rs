//! Application-level round-robin network scheduling (§3.2.3, Figure 10).
//!
//! Uncoordinated all-to-all traffic causes switch contention: several input
//! ports compete for one output port, credits run out, and throughput drops
//! even on non-blocking switches. The paper's answer is a simple round-robin
//! schedule that divides communication into contention-free phases: in each
//! phase every server sends to exactly one target and receives from exactly
//! one source (Figure 10(a)). Phases are separated by low-latency (~1 µs)
//! inline synchronization messages.
//!
//! [`Schedule`] is the pure phase arithmetic; [`NetScheduler`] is the
//! synchronization primitive the communication multiplexers block on. Its
//! barrier is one of those *present*: a multiplexer [`join`](NetScheduler::join)s
//! when it has messages queued and [`leave`](NetScheduler::leave)s when they
//! are gone, so one with nothing to send neither holds the others up nor
//! turns rounds of its own. The phase is a function of the barrier's
//! generation ([`Schedule::phase_of`]), which `join` and
//! [`arrive`](NetScheduler::arrive) return: whoever is present is in the same
//! generation — it cannot advance past one who has not arrived — hence in
//! the same phase, and a phase gives different senders different targets.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::fabric::NodeId;

/// The round-robin communication schedule for `n` servers.
///
/// Phase `p ∈ [1, n)`: node `i` sends to `(i + p) mod n` and receives from
/// `(i − p) mod n`. Every (sender, receiver) pair appears in exactly one
/// phase, so no two senders ever share an ingress port.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    n: u16,
}

impl Schedule {
    /// Schedule for a cluster of `n` nodes.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn new(n: u16) -> Self {
        assert!(n > 0, "schedule needs at least one node");
        Self { n }
    }

    /// Cluster size.
    pub fn nodes(&self) -> u16 {
        self.n
    }

    /// Number of communication phases (`n − 1`).
    pub fn phases(&self) -> u16 {
        self.n - 1
    }

    /// The phase of barrier generation `generation`: phases 1 to `n − 1`
    /// in turn.
    ///
    /// # Panics
    /// Panics for a single node, which has no phases.
    pub fn phase_of(&self, generation: u64) -> u16 {
        (generation % u64::from(self.phases())) as u16 + 1
    }

    /// The node `node` sends to during `phase` (1-based phase index).
    ///
    /// # Panics
    /// Panics if `phase` is not in `[1, n)` or `node` is out of range.
    pub fn target(&self, node: NodeId, phase: u16) -> NodeId {
        self.check(node, phase);
        NodeId((node.0 + phase) % self.n)
    }

    /// The node `node` receives from during `phase`.
    pub fn source(&self, node: NodeId, phase: u16) -> NodeId {
        self.check(node, phase);
        NodeId((node.0 + self.n - phase) % self.n)
    }

    fn check(&self, node: NodeId, phase: u16) {
        assert!(node.0 < self.n, "node out of range");
        assert!(phase >= 1 && phase < self.n, "phase must be in [1, n)");
    }
}

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
}

/// A reusable barrier one can join and leave, with a modeled
/// synchronization latency.
///
/// Each `sync()` models the exchange of inline synchronization messages: all
/// present participants block until the slowest arrives, then a calibrated
/// ~1 µs latency is charged before anyone proceeds.
pub struct NetScheduler {
    state: Mutex<BarrierState>,
    cv: Condvar,
    sync_latency: Duration,
}

impl NetScheduler {
    /// Scheduler with `parties` multiplexers present from the start — none,
    /// if all of them [`join`](Self::join) as they get work — and the
    /// default ~1 µs inline-message latency.
    pub fn new(parties: usize) -> Arc<Self> {
        Self::with_latency(parties, Duration::from_micros(1))
    }

    /// Scheduler with an explicit synchronization latency.
    pub fn with_latency(parties: usize, sync_latency: Duration) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(BarrierState {
                parties,
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            sync_latency,
        })
    }

    /// Block until all current parties arrived; models the inline
    /// synchronization message exchange between phases.
    pub fn sync(&self) {
        self.arrive();
    }

    /// [`sync`](Self::sync), returning the generation it opened: the one
    /// every party present is in until it arrives again.
    pub fn arrive(&self) -> u64 {
        let mut st = self.state.lock();
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived >= st.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            while st.generation == gen {
                self.cv.wait(&mut st);
            }
        }
        drop(st);
        // The inline sync messages themselves (~1 µs on InfiniBand).
        spin_for(self.sync_latency);
        // It takes this party's next arrival to get past `gen + 1`.
        gen + 1
    }

    /// Become a party, the inverse of [`leave`](Self::leave): from now on
    /// the barrier waits for the caller too. Returns the generation in
    /// progress, which the newcomer is in like everyone present.
    pub fn join(&self) -> u64 {
        let mut st = self.state.lock();
        st.parties += 1;
        st.generation
    }

    /// Leave the barrier; remaining parties no longer wait for this
    /// participant, and those waiting for it alone go on.
    pub fn leave(&self) {
        let mut st = self.state.lock();
        assert!(st.parties > 0, "more leaves than parties");
        st.parties -= 1;
        if st.parties > 0 && st.arrived >= st.parties {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        }
    }

    /// Parties still participating.
    pub fn parties(&self) -> usize {
        self.state.lock().parties
    }

    /// Completed barrier rounds since creation — the number of
    /// contention-free communication phases the scheduler has sequenced.
    pub fn rounds(&self) -> u64 {
        self.state.lock().generation
    }
}

fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn four_nodes_three_phases_match_figure_10a() {
        let s = Schedule::new(4);
        assert_eq!(s.phases(), 3);
        // Phase 1: 0→1, 1→2, 2→3, 3→0.
        assert_eq!(s.target(NodeId(0), 1), NodeId(1));
        assert_eq!(s.target(NodeId(3), 1), NodeId(0));
        // Phase 2: 0→2, 1→3, 2→0, 3→1.
        assert_eq!(s.target(NodeId(0), 2), NodeId(2));
        assert_eq!(s.target(NodeId(2), 2), NodeId(0));
        // Sources mirror targets.
        assert_eq!(s.source(NodeId(1), 1), NodeId(0));
        assert_eq!(s.source(NodeId(0), 2), NodeId(2));
    }

    #[test]
    fn schedule_covers_every_pair_exactly_once() {
        for n in 2..10u16 {
            let s = Schedule::new(n);
            let mut seen = std::collections::HashSet::new();
            for phase in 1..n {
                for node in 0..n {
                    let t = s.target(NodeId(node), phase);
                    assert_ne!(t.0, node, "self-send in schedule");
                    assert!(seen.insert((node, t.0)), "pair sent twice");
                }
            }
            assert_eq!(seen.len(), usize::from(n) * usize::from(n - 1));
        }
    }

    #[test]
    fn each_phase_is_contention_free() {
        // Within a phase no two nodes share a target (a permutation).
        for n in 2..10u16 {
            let s = Schedule::new(n);
            for phase in 1..n {
                let targets: std::collections::HashSet<u16> =
                    (0..n).map(|i| s.target(NodeId(i), phase).0).collect();
                assert_eq!(targets.len(), usize::from(n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase must be in")]
    fn phase_zero_rejected() {
        Schedule::new(4).target(NodeId(0), 0);
    }

    #[test]
    fn barrier_synchronizes_threads() {
        let sched = NetScheduler::with_latency(4, Duration::ZERO);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&sched);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for round in 1..=10 {
                        c.fetch_add(1, Ordering::SeqCst);
                        s.sync();
                        // After each sync, all parties completed the round.
                        assert!(c.load(Ordering::SeqCst) >= round * 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
        assert_eq!(sched.rounds(), 10);
    }

    #[test]
    fn leave_unblocks_waiters() {
        let sched = NetScheduler::with_latency(2, Duration::ZERO);
        let s2 = Arc::clone(&sched);
        let h = std::thread::spawn(move || {
            s2.sync(); // would deadlock if peer never arrives
        });
        std::thread::sleep(Duration::from_millis(20));
        sched.leave();
        h.join().unwrap();
        assert_eq!(sched.parties(), 1);
    }

    #[test]
    fn leave_releases_those_already_waiting_and_join_holds_the_next_round() {
        let sched = NetScheduler::with_latency(0, Duration::ZERO);
        assert_eq!((sched.join(), sched.join(), sched.join()), (0, 0, 0));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&sched);
                std::thread::spawn(move || s.arrive())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sched.rounds(), 0, "two of three must wait for the third");
        sched.leave();
        for w in waiters {
            assert_eq!(w.join().unwrap(), 1);
        }
        // A newcomer is in the generation in progress, and in the way of
        // the next.
        assert_eq!(sched.join(), 1);
        let s = Arc::clone(&sched);
        let first = std::thread::spawn(move || (s.arrive(), s.arrive()));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sched.rounds(), 1);
        sched.leave();
        sched.leave();
        assert_eq!(
            first.join().unwrap(),
            (2, 3),
            "alone, every arrival is a round"
        );
        assert_eq!(sched.parties(), 1);
    }

    /// Multiplexers come and go as they please — join, ship to the
    /// generation's target for a few rounds, leave, in any interleaving —
    /// and still no two of them are ever shipping to one target at once
    /// (§3.2.3's contention-freeness): whoever is shipping is present, and
    /// whoever is present is in the same generation.
    #[test]
    fn present_parties_never_share_a_target_whatever_the_interleaving() {
        const NODES: u16 = 5;
        let sched = NetScheduler::with_latency(0, Duration::ZERO);
        let schedule = Schedule::new(NODES);
        // Target -> the node shipping to it right now, and in which generation.
        let shipping = Arc::new(Mutex::new(std::collections::HashMap::new()));
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let (sched, shipping) = (Arc::clone(&sched), Arc::clone(&shipping));
                std::thread::spawn(move || {
                    // A cheap deterministic generator, different per node.
                    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(node) + 1);
                    let mut next = move |bound: u64| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % bound
                    };
                    for _ in 0..400 {
                        let mut generation = sched.join();
                        for round in 0..=next(4) {
                            if round > 0 {
                                generation = sched.arrive();
                            }
                            let phase = schedule.phase_of(generation);
                            let target = schedule.target(NodeId(node), phase).0;
                            let other = shipping.lock().insert(target, (node, generation));
                            assert_eq!(other, None, "{node} in {generation} ships to {target} too");
                            for _ in 0..next(200) {
                                std::hint::spin_loop();
                            }
                            shipping.lock().remove(&target);
                        }
                        sched.leave();
                        if next(3) == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sched.parties(), 0);
        assert!(sched.rounds() > 0);
    }

    #[test]
    fn sync_latency_is_charged() {
        let sched = NetScheduler::with_latency(1, Duration::from_millis(5));
        let start = std::time::Instant::now();
        sched.sync();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
