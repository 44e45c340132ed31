//! Per-node network accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Identifier of one query admitted to the engine.
///
/// Every wire message carries the id of the query it belongs to, so the
/// receiving node routes it to that query's exchange even when several
/// queries are in flight over the shared multiplexers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Counters for one node's network activity.
///
/// CPU time is split into send-side and receive-side work so harnesses can
/// report utilization the way the paper does (e.g. "100–190 % CPU for TCP vs
/// 4 % for RDMA", §2.1.2/§2.2.4). Memory-bus trip counters support the DDIO
/// study of Figure 4.
#[derive(Debug, Default)]
pub struct NetStats {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    packets_sent: AtomicU64,
    send_cpu_ns: AtomicU64,
    recv_cpu_ns: AtomicU64,
    membus_read_bytes: AtomicU64,
    membus_write_bytes: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&self, bytes: u64, packets: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.packets_sent.fetch_add(packets, Ordering::Relaxed);
    }

    pub(crate) fn record_receive(&self, bytes: u64) {
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
        self.messages_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_send_cpu(&self, d: Duration) {
        self.send_cpu_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_recv_cpu(&self, d: Duration) {
        self.recv_cpu_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_membus(&self, read: u64, write: u64) {
        self.membus_read_bytes.fetch_add(read, Ordering::Relaxed);
        self.membus_write_bytes.fetch_add(write, Ordering::Relaxed);
    }

    /// Total bytes sent by this node.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total bytes received by this node.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Number of application messages sent.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Number of application messages received.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Number of wire packets (MTU-sized frames) sent.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent.load(Ordering::Relaxed)
    }

    /// CPU time spent on send-side protocol work.
    pub fn send_cpu(&self) -> Duration {
        Duration::from_nanos(self.send_cpu_ns.load(Ordering::Relaxed))
    }

    /// CPU time spent on receive-side protocol work.
    pub fn recv_cpu(&self) -> Duration {
        Duration::from_nanos(self.recv_cpu_ns.load(Ordering::Relaxed))
    }

    /// Total networking CPU time.
    pub fn total_cpu(&self) -> Duration {
        self.send_cpu() + self.recv_cpu()
    }

    /// Bytes read over the memory bus for networking (Figure 4).
    pub fn membus_read_bytes(&self) -> u64 {
        self.membus_read_bytes.load(Ordering::Relaxed)
    }

    /// Bytes written over the memory bus for networking (Figure 4).
    pub fn membus_write_bytes(&self) -> u64 {
        self.membus_write_bytes.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.messages_sent.store(0, Ordering::Relaxed);
        self.messages_received.store(0, Ordering::Relaxed);
        self.packets_sent.store(0, Ordering::Relaxed);
        self.send_cpu_ns.store(0, Ordering::Relaxed);
        self.recv_cpu_ns.store(0, Ordering::Relaxed);
        self.membus_read_bytes.store(0, Ordering::Relaxed);
        self.membus_write_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = NetStats::new();
        s.record_send(1000, 2);
        s.record_send(500, 1);
        s.record_receive(1000);
        s.add_send_cpu(Duration::from_micros(5));
        s.add_recv_cpu(Duration::from_micros(7));
        s.add_membus(30, 40);
        assert_eq!(s.bytes_sent(), 1500);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.packets_sent(), 3);
        assert_eq!(s.bytes_received(), 1000);
        assert_eq!(s.messages_received(), 1);
        assert_eq!(s.total_cpu(), Duration::from_micros(12));
        assert_eq!(s.membus_read_bytes(), 30);
        assert_eq!(s.membus_write_bytes(), 40);
        s.reset();
        assert_eq!(s.bytes_sent(), 0);
        assert_eq!(s.total_cpu(), Duration::ZERO);
    }
}
