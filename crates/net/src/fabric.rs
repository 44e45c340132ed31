//! The wire: virtual-clock pacing and the switch-contention model.
//!
//! Every inter-node transfer reserves time on the sender's egress port and
//! the receiver's ingress port. Ports are virtual clocks: a reservation of a
//! message of `b` bytes occupies `b / bandwidth` seconds of port time, so
//! sustained throughput can never exceed the configured link rate — exactly
//! like a real serialized link.
//!
//! Switch contention (§3.2.3): InfiniBand uses credit-based link-level flow
//! control. When several input ports transmit to the same output port the
//! receiver's credits run out faster than they are granted, back pressure
//! builds up and effective throughput drops below line rate even on a
//! non-blocking switch. We model this as a service-time penalty that grows
//! with the number of *distinct concurrent senders* targeting one ingress
//! port: `penalty = 1 + α · (k − 1)`. With the default α this reproduces the
//! ~40 % throughput advantage of round-robin scheduling over uncoordinated
//! all-to-all traffic on an 8-server cluster (Figure 10(b)).

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::link::LinkSpec;
use crate::stats::NetStats;

/// Identifier of a server node attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index for slicing per-node state.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Configuration of the fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Link standard for every host↔switch link.
    pub link: LinkSpec,
    /// Contention penalty slope α (see module docs). Calibrated so that 7
    /// concurrent senders lose ~29 % throughput (→ round-robin wins ~40 %).
    pub contention_alpha: f64,
    /// Disable to model an ideal contention-free switch.
    pub switch_contention: bool,
    /// How far ahead of real time a sender may reserve wire time before it
    /// blocks; models bounded socket buffers / RNR credits.
    pub send_window: Duration,
}

impl FabricConfig {
    /// Fabric with the paper's 4×QDR InfiniBand links.
    pub fn qdr() -> Self {
        Self::with_link(LinkSpec::IB_4X_QDR)
    }

    /// Fabric with Gigabit Ethernet links.
    pub fn gbe() -> Self {
        Self::with_link(LinkSpec::GBE)
    }

    /// Fabric with an arbitrary link standard and default contention model.
    pub fn with_link(link: LinkSpec) -> Self {
        Self {
            link,
            contention_alpha: 1.0 / 15.0,
            switch_contention: true,
            send_window: Duration::from_millis(40),
        }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::qdr()
    }
}

#[derive(Debug, Default)]
struct IngressPort {
    next_free: f64,
    /// (source node, reservation end) pairs still considered in flight.
    inflight: Vec<(u16, f64)>,
}

/// The shared fabric connecting all nodes of the simulated cluster.
#[derive(Debug)]
pub struct Fabric {
    epoch: Instant,
    cfg: FabricConfig,
    egress: Vec<Mutex<f64>>,
    ingress: Vec<Mutex<IngressPort>>,
    stats: Vec<NetStats>,
}

impl Fabric {
    /// Create a fabric connecting `nodes` nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16, cfg: FabricConfig) -> Self {
        assert!(nodes > 0, "a fabric needs at least one node");
        Self {
            epoch: Instant::now(),
            cfg,
            egress: (0..nodes).map(|_| Mutex::new(0.0)).collect(),
            ingress: (0..nodes)
                .map(|_| Mutex::new(IngressPort::default()))
                .collect(),
            stats: (0..nodes).map(|_| NetStats::new()).collect(),
        }
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> u16 {
        self.egress.len() as u16
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Seconds since fabric creation (the virtual-clock time base).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Per-node statistics.
    pub fn stats(&self, node: NodeId) -> &NetStats {
        &self.stats[node.idx()]
    }

    /// Sum of bytes sent by all nodes.
    pub fn total_bytes_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes_sent()).sum()
    }

    /// Sum of wire packets sent by all nodes.
    pub fn total_packets_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.packets_sent()).sum()
    }

    /// Reset all per-node statistics.
    pub fn reset_stats(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Reserve wire time for a message of `bytes` from `src` to `dst` and
    /// return its delivery time (fabric seconds). Blocks the caller only if
    /// it is more than [`FabricConfig::send_window`] ahead of real time.
    ///
    /// `packets` is the number of MTU frames for statistics purposes.
    ///
    /// # Panics
    /// Panics if `src == dst` — loopback traffic must not use the fabric.
    pub fn reserve(&self, src: NodeId, dst: NodeId, bytes: usize, packets: u64) -> f64 {
        assert_ne!(src, dst, "loopback traffic must stay node-local");
        let now = self.now();
        let base = bytes as f64 / self.cfg.link.bytes_per_sec();

        // Egress: the sender's own link serializes its outgoing messages.
        let egress_start = {
            let mut eg = self.egress[src.idx()].lock();
            let start = eg.max(now);
            *eg = start + base;
            start
        };

        // Ingress: shared with other senders; contention penalty applies.
        let end = {
            let mut port = self.ingress[dst.idx()].lock();
            port.inflight.retain(|&(_, e)| e > now);
            let distinct = {
                let mut srcs: Vec<u16> = port.inflight.iter().map(|&(s, _)| s).collect();
                srcs.push(src.0);
                srcs.sort_unstable();
                srcs.dedup();
                srcs.len()
            };
            let penalty = if self.cfg.switch_contention && distinct > 1 {
                1.0 + self.cfg.contention_alpha * (distinct as f64 - 1.0)
            } else {
                1.0
            };
            let start = port.next_free.max(egress_start);
            let end = start + base * penalty;
            port.next_free = end;
            port.inflight.push((src.0, end));
            end
        };

        self.stats[src.idx()].record_send(bytes as u64, packets);

        // Backpressure: don't let the sender run unboundedly ahead.
        let window = self.cfg.send_window.as_secs_f64();
        if end > now + window {
            self.wait_until(end - window);
        }

        end + self.cfg.link.latency().as_secs_f64()
    }

    /// Record delivery accounting for a message of `bytes` arriving at `dst`.
    pub fn record_delivery(&self, dst: NodeId, bytes: usize) {
        self.stats[dst.idx()].record_receive(bytes as u64);
    }

    /// Sleep (coarse) then spin (precise) until fabric time `t`.
    pub fn wait_until(&self, t: f64) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let remaining = t - now;
            if remaining > 300e-6 {
                std::thread::sleep(Duration::from_secs_f64(remaining - 150e-6));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Busy-occupy the calling thread for `d`, charging it to `node`'s
    /// send-side CPU accounting. Models protocol processing cost.
    pub fn charge_send_cpu(&self, node: NodeId, d: Duration) {
        busy(d);
        self.stats[node.idx()].add_send_cpu(d);
    }

    /// Busy-occupy the calling thread for `d`, charging it to `node`'s
    /// receive-side CPU accounting.
    pub fn charge_recv_cpu(&self, node: NodeId, d: Duration) {
        busy(d);
        self.stats[node.idx()].add_recv_cpu(d);
    }

    /// Account memory-bus traffic (Figure 4) without spending time.
    pub fn record_membus(&self, node: NodeId, read: u64, write: u64) {
        self.stats[node.idx()].add_membus(read, write);
    }
}

fn busy(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> FabricConfig {
        // A deliberately slow link so pacing effects are visible in tests.
        FabricConfig {
            link: LinkSpec::custom(10e6, Duration::ZERO), // 10 MB/s
            contention_alpha: 1.0 / 15.0,
            switch_contention: true,
            send_window: Duration::from_millis(1),
        }
    }

    #[test]
    fn pacing_limits_throughput() {
        let f = Fabric::new(2, fast_cfg());
        let start = Instant::now();
        // 20 × 50 KB = 1 MB at 10 MB/s → ≥ 100 ms of wire time.
        let mut last = 0.0;
        for _ in 0..20 {
            last = f.reserve(NodeId(0), NodeId(1), 50_000, 1);
        }
        f.wait_until(last);
        assert!(
            start.elapsed() >= Duration::from_millis(95),
            "took only {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn contention_inflates_service_time() {
        // A window far wider than both reservations, so that neither call
        // sleeps: a first call that overslept past its 10 ms would retire
        // the first message before the second arrives, which then sees no
        // contention.
        let cfg = FabricConfig {
            contention_alpha: 0.5,
            send_window: Duration::from_secs(1),
            ..fast_cfg()
        };
        let f = Fabric::new(3, cfg);
        // Two concurrent senders into node 2; second reservation sees k=2.
        let t0 = f.now();
        let d1 = f.reserve(NodeId(0), NodeId(2), 100_000, 1);
        let d2 = f.reserve(NodeId(1), NodeId(2), 100_000, 1);
        // Reservations anchor at the wall clock, so if this thread is
        // descheduled between the two calls the gap widens by that pause —
        // bound it by the measured skew or the test flakes under load.
        let skew = f.now() - t0;
        // Base service: 10ms each. With contention the second takes 15 ms,
        // queued after the first → d2 ≈ d1 + 15 ms.
        let gap = d2 - d1;
        assert!(
            gap > 0.014 && gap < 0.020 + skew,
            "gap was {gap} (skew {skew})"
        );
    }

    #[test]
    fn no_contention_when_disabled() {
        // The same wide window as `contention_inflates_service_time`.
        let cfg = FabricConfig {
            switch_contention: false,
            contention_alpha: 0.5,
            send_window: Duration::from_secs(1),
            ..fast_cfg()
        };
        let f = Fabric::new(3, cfg);
        let t0 = f.now();
        let d1 = f.reserve(NodeId(0), NodeId(2), 100_000, 1);
        let d2 = f.reserve(NodeId(1), NodeId(2), 100_000, 1);
        // Same wall-clock skew tolerance as `contention_inflates_service_time`.
        let skew = f.now() - t0;
        let gap = d2 - d1;
        assert!(
            gap > 0.008 && gap < 0.013 + skew,
            "gap was {gap} (skew {skew})"
        );
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let f = Fabric::new(2, fast_cfg());
        f.reserve(NodeId(1), NodeId(1), 10, 1);
    }

    #[test]
    fn stats_track_both_sides() {
        let f = Fabric::new(2, fast_cfg());
        f.reserve(NodeId(0), NodeId(1), 1234, 3);
        f.record_delivery(NodeId(1), 1234);
        assert_eq!(f.stats(NodeId(0)).bytes_sent(), 1234);
        assert_eq!(f.stats(NodeId(0)).packets_sent(), 3);
        assert_eq!(f.stats(NodeId(1)).bytes_received(), 1234);
        assert_eq!(f.total_bytes_sent(), 1234);
        f.reset_stats();
        assert_eq!(f.total_bytes_sent(), 0);
    }

    #[test]
    fn latency_is_added_to_delivery() {
        let cfg = FabricConfig {
            link: LinkSpec::custom(1e9, Duration::from_millis(50)),
            ..fast_cfg()
        };
        let f = Fabric::new(2, cfg);
        let before = f.now();
        let d = f.reserve(NodeId(0), NodeId(1), 1000, 1);
        assert!(
            d - before >= 0.050,
            "delivery only {} after now",
            d - before
        );
    }

    #[test]
    fn wait_until_is_accurate() {
        let f = Fabric::new(1, fast_cfg());
        let t = f.now() + 0.02;
        f.wait_until(t);
        let after = f.now();
        assert!(after >= t && after < t + 0.005, "woke at {after} vs {t}");
    }
}
