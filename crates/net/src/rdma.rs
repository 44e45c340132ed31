//! RDMA endpoint model in the style of the ibverbs interface (§2.2).
//!
//! RDMA is asynchronous and zero-copy: work requests are posted to send and
//! receive queues, the HCA moves bytes without involving the CPU, and work
//! completions appear on a completion queue. The model reproduces the four
//! properties the paper exploits:
//!
//! 1. **Kernel bypassing / zero copy** — payloads travel as [`Bytes`]
//!    handles; no socket-buffer copies, no checksum passes.
//! 2. **Memory regions** — buffers must be registered before the HCA may
//!    use them. Registration is expensive ([`RdmaConfig::mr_base_cost`]),
//!    which is why the engine reuses buffers through a message pool.
//! 3. **Channel semantics** — the receiver posts receive work requests;
//!    a sender blocks when the receiver has no credits (RNR back pressure).
//! 4. **Completion notifications** — [`CompletionMode::Polling`] burns a
//!    core for minimal latency; [`CompletionMode::Event`] sleeps on an
//!    interrupt-driven event at ~4 % CPU (§2.2.4). The mode governs
//!    [`RdmaEndpoint::wait_completion`], for callers that own an endpoint.
//!    The engine's multiplexer is event-driven whatever the mode: every
//!    send rings the destination's [`Doorbell`] once the completion is on
//!    its queue, and the multiplexer sleeps on that bell between
//!    [`RdmaEndpoint::poll_completion`]s — the completion channel of
//!    ibverbs, shared with the multiplexer's other sources of work.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::fabric::{Fabric, NodeId};
use crate::transport::Doorbell;

/// How completions are detected (§2.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionMode {
    /// Busy-poll the completion queue: lowest latency, 100 % of one core.
    Polling,
    /// Sleep until the HCA raises a completion event: ~4 % CPU overhead.
    #[default]
    Event,
}

/// Tuning knobs of the RDMA model.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Completion notification mechanism.
    pub completion: CompletionMode,
    /// Fixed cost of registering a memory region (pinning + HCA mapping).
    pub mr_base_cost: Duration,
    /// Additional registration cost per byte of region size.
    pub mr_ns_per_byte: f64,
    /// CPU cost of posting one work request.
    pub post_wr_cost: Duration,
    /// CPU cost of handling one completion notification.
    pub completion_cost: Duration,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        Self {
            completion: CompletionMode::Event,
            mr_base_cost: Duration::from_micros(40),
            mr_ns_per_byte: 0.1,
            post_wr_cost: Duration::from_micros(2),
            completion_cost: Duration::from_micros(5),
        }
    }
}

/// A registered memory region: the HCA may DMA into/out of it at any time.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    bytes: Bytes,
    /// Remote key, as exchanged for one-sided operations.
    rkey: u64,
}

impl MemoryRegion {
    /// The registered bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Region length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The remote access key.
    pub fn rkey(&self) -> u64 {
        self.rkey
    }

    /// Take the payload out of the region.
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }
}

/// A work completion popped from the completion queue.
#[derive(Debug)]
pub struct Completion {
    /// Node that sent the message.
    pub src: NodeId,
    /// Zero-copy payload.
    pub payload: Bytes,
    /// True if the message was sent inline (scheduler synchronization).
    pub inline: bool,
}

struct WireMessage {
    src: NodeId,
    payload: Bytes,
    delivery: f64,
    inline: bool,
}

/// Receiver-side credit state: the number of posted receive work requests.
#[derive(Default)]
struct Credits {
    available: Mutex<u64>,
    granted: Condvar,
}

/// Full-mesh RDMA network over a [`Fabric`].
pub struct RdmaNetwork {
    fabric: Arc<Fabric>,
    cfg: RdmaConfig,
    inboxes: Vec<(Sender<WireMessage>, Receiver<WireMessage>)>,
    /// Per node: rung after every push onto its inbox.
    bells: Vec<Arc<Doorbell>>,
    credits: Vec<Arc<Credits>>,
}

impl RdmaNetwork {
    /// Build an RDMA network for every node of `fabric`.
    pub fn new(fabric: Arc<Fabric>, cfg: RdmaConfig) -> Self {
        let n = fabric.nodes();
        Self {
            fabric,
            cfg,
            inboxes: (0..n).map(|_| unbounded()).collect(),
            bells: (0..n).map(|_| Doorbell::new()).collect(),
            credits: (0..n).map(|_| Arc::new(Credits::default())).collect(),
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Endpoint handle for `node`.
    pub fn endpoint(&self, node: NodeId) -> RdmaEndpoint {
        RdmaEndpoint {
            node,
            cfg: self.cfg,
            fabric: Arc::clone(&self.fabric),
            inbox: self.inboxes[node.idx()].1.clone(),
            peers: self.inboxes.iter().map(|(tx, _)| tx.clone()).collect(),
            bells: self.bells.clone(),
            credits: self.credits.clone(),
            next_rkey: Mutex::new(1),
        }
    }
}

/// One node's RDMA endpoint (a queue pair per peer, one completion queue).
pub struct RdmaEndpoint {
    node: NodeId,
    cfg: RdmaConfig,
    fabric: Arc<Fabric>,
    inbox: Receiver<WireMessage>,
    peers: Vec<Sender<WireMessage>>,
    bells: Vec<Arc<Doorbell>>,
    credits: Vec<Arc<Credits>>,
    next_rkey: Mutex<u64>,
}

impl RdmaEndpoint {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RdmaConfig {
        &self.cfg
    }

    /// The bell every sender rings once its message is on this node's
    /// completion queue.
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.bells[self.node.idx()])
    }

    /// Register `data` as a memory region, paying pin + HCA mapping cost.
    /// Reuse regions (via a message pool) to avoid paying this repeatedly.
    pub fn register(&self, data: Vec<u8>) -> MemoryRegion {
        let cost = self.cfg.mr_base_cost
            + Duration::from_nanos((data.len() as f64 * self.cfg.mr_ns_per_byte) as u64);
        self.fabric.charge_send_cpu(self.node, cost);
        let rkey = {
            let mut k = self.next_rkey.lock();
            *k += 1;
            *k
        };
        MemoryRegion {
            bytes: Bytes::from(data),
            rkey,
        }
    }

    /// Post `n` receive work requests, granting senders `n` more credits.
    pub fn post_recvs(&self, n: u64) {
        let c = &self.credits[self.node.idx()];
        let mut avail = c.available.lock();
        *avail += n;
        c.granted.notify_all();
    }

    /// Currently posted (unconsumed) receive work requests.
    pub fn posted_recvs(&self) -> u64 {
        *self.credits[self.node.idx()].available.lock()
    }

    /// Two-sided send of an already-registered region to `dst`. Zero-copy:
    /// the payload is handed to the HCA, not copied. Blocks while `dst` has
    /// no posted receive work requests (RNR back pressure).
    pub fn post_send(&self, dst: NodeId, region: MemoryRegion) {
        self.consume_credit(dst);
        self.fabric
            .charge_send_cpu(self.node, self.cfg.post_wr_cost);
        let len = region.len();
        // The HCA reads the buffer once; with DDIO it serves from LLC.
        self.fabric.record_membus(self.node, len as u64, 0);
        let delivery = self.fabric.reserve(self.node, dst, len, 1);
        self.deliver(dst, region.into_bytes(), delivery, false);
    }

    /// Two-sided send of a payload whose buffer is already registered (it
    /// came from a message pool, §2.2.2) — no registration cost is charged.
    /// Zero-copy and credit-consuming like [`RdmaEndpoint::post_send`].
    pub fn post_send_bytes(&self, dst: NodeId, payload: Bytes) {
        self.consume_credit(dst);
        self.fabric
            .charge_send_cpu(self.node, self.cfg.post_wr_cost);
        let len = payload.len();
        self.fabric.record_membus(self.node, len as u64, 0);
        let delivery = self.fabric.reserve(self.node, dst, len.max(1), 1);
        self.deliver(dst, payload, delivery, false);
    }

    /// Low-latency inline send (≤ 256 bytes): payload travels inside the
    /// work request itself. Used for scheduler synchronization messages.
    ///
    /// # Panics
    /// Panics if `data` exceeds 256 bytes.
    pub fn send_inline(&self, dst: NodeId, data: &[u8]) {
        assert!(data.len() <= 256, "inline sends are limited to 256 bytes");
        self.fabric
            .charge_send_cpu(self.node, Duration::from_nanos(300));
        let delivery = self.fabric.reserve(self.node, dst, data.len().max(1), 1);
        self.deliver(dst, Bytes::copy_from_slice(data), delivery, true);
    }

    /// Put a message on `dst`'s completion queue, then ring its bell.
    fn deliver(&self, dst: NodeId, payload: Bytes, delivery: f64, inline: bool) {
        let _ = self.peers[dst.idx()].send(WireMessage {
            src: self.node,
            payload,
            delivery,
            inline,
        });
        self.bells[dst.idx()].ring();
    }

    /// Pop the next completion, honouring the configured notification mode.
    pub fn wait_completion(&self) -> Completion {
        match self.cfg.completion {
            CompletionMode::Event => {
                let msg = self.inbox.recv().expect("rdma network torn down");
                self.finish(msg)
            }
            CompletionMode::Polling => loop {
                if let Ok(msg) = self.inbox.try_recv() {
                    return self.finish(msg);
                }
                std::hint::spin_loop();
            },
        }
    }

    /// Pop the next completion or give up after `timeout`.
    pub fn wait_completion_timeout(&self, timeout: Duration) -> Option<Completion> {
        match self.cfg.completion {
            CompletionMode::Event => match self.inbox.recv_timeout(timeout) {
                Ok(msg) => Some(self.finish(msg)),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
            },
            CompletionMode::Polling => {
                let start = std::time::Instant::now();
                loop {
                    if let Ok(msg) = self.inbox.try_recv() {
                        return Some(self.finish(msg));
                    }
                    if start.elapsed() >= timeout {
                        return None;
                    }
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Non-blocking completion poll.
    pub fn poll_completion(&self) -> Option<Completion> {
        self.inbox.try_recv().ok().map(|m| self.finish(m))
    }

    fn finish(&self, msg: WireMessage) -> Completion {
        self.fabric.wait_until(msg.delivery);
        if !msg.inline {
            self.fabric
                .charge_recv_cpu(self.node, self.cfg.completion_cost);
            // One DMA write into the application buffer; no copies.
            self.fabric
                .record_membus(self.node, 0, msg.payload.len() as u64);
        }
        self.fabric.record_delivery(self.node, msg.payload.len());
        Completion {
            src: msg.src,
            payload: msg.payload,
            inline: msg.inline,
        }
    }

    fn consume_credit(&self, dst: NodeId) {
        let c = &self.credits[dst.idx()];
        let mut avail = c.available.lock();
        while *avail == 0 {
            c.granted.wait(&mut avail);
        }
        *avail -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    fn network(nodes: u16, cfg: RdmaConfig) -> RdmaNetwork {
        RdmaNetwork::new(Arc::new(Fabric::new(nodes, FabricConfig::qdr())), cfg)
    }

    #[test]
    fn zero_copy_roundtrip() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        b.post_recvs(1);
        let region = a.register(vec![42u8; 4096]);
        a.post_send(NodeId(1), region);
        let c = b.wait_completion();
        assert_eq!(c.src, NodeId(0));
        assert_eq!(c.payload.len(), 4096);
        assert!(c.payload.iter().all(|&x| x == 42));
        assert!(!c.inline);
    }

    #[test]
    fn send_blocks_without_credits() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let region = a.register(vec![1u8; 16]);
        let started = std::time::Instant::now();
        let h = std::thread::spawn(move || {
            a.post_send(NodeId(1), region); // must wait for a credit
            started.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        b.post_recvs(1);
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(45), "waited {waited:?}");
        let c = b.wait_completion();
        assert_eq!(c.payload.len(), 16);
    }

    #[test]
    fn credits_are_consumed() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        b.post_recvs(2);
        assert_eq!(b.posted_recvs(), 2);
        a.post_send(NodeId(1), a.register(vec![0u8; 8]));
        a.post_send(NodeId(1), a.register(vec![0u8; 8]));
        assert_eq!(b.posted_recvs(), 0);
        b.wait_completion();
        b.wait_completion();
    }

    #[test]
    fn inline_send_needs_no_credit() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send_inline(NodeId(1), b"sync");
        let c = b.wait_completion();
        assert!(c.inline);
        assert_eq!(&c.payload[..], b"sync");
    }

    #[test]
    #[should_panic(expected = "limited to 256 bytes")]
    fn inline_send_size_capped() {
        let net = network(2, RdmaConfig::default());
        net.endpoint(NodeId(0)).send_inline(NodeId(1), &[0u8; 300]);
    }

    #[test]
    fn registration_costs_time() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        let start = std::time::Instant::now();
        for _ in 0..100 {
            a.register(vec![0u8; 1024]);
        }
        // 100 registrations × ≥ 40 µs base ≥ 4 ms.
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn polling_mode_receives_too() {
        let cfg = RdmaConfig {
            completion: CompletionMode::Polling,
            ..RdmaConfig::default()
        };
        let net = network(2, cfg);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        b.post_recvs(1);
        a.post_send(NodeId(1), a.register(vec![9u8; 128]));
        let c = b.wait_completion_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(c.payload.len(), 128);
    }

    #[test]
    fn rdma_cpu_overhead_is_small() {
        // §2.2.4: event-based completions keep CPU overhead tiny. For a
        // 512 KB message the fixed costs must be well under 10 % of the
        // 131 µs wire time.
        let cfg = RdmaConfig::default();
        let per_message = cfg.post_wr_cost + cfg.completion_cost;
        assert!(per_message < Duration::from_micros(13));
    }

    #[test]
    fn wait_completion_timeout_expires() {
        let net = network(2, RdmaConfig::default());
        let a = net.endpoint(NodeId(0));
        assert!(a
            .wait_completion_timeout(Duration::from_millis(10))
            .is_none());
    }
}
