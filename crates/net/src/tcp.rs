//! TCP over IPoIB endpoint model (§2.1).
//!
//! TCP's socket interface copies message data between application and socket
//! buffers, touches every byte for checksums (unless offloaded), spends
//! kernel time per MTU-sized packet, and handles interrupts from the NIC.
//! These costs make the *receiver CPU* the bottleneck long before the wire
//! saturates — the central finding of §2.1. The model spends those costs as
//! real busy-work on the calling threads, with constants calibrated to the
//! measured ladder of Figure 5:
//!
//! | configuration                        | bidir GB/s | unidir GB/s |
//! |--------------------------------------|-----------:|------------:|
//! | datagram, no offload                 | 0.37       | 0.69        |
//! | datagram + offload (default TCP)     | 0.93       | 1.58        |
//! | connected, 64 k MTU                  | 1.51       | 2.27        |
//! | + IRQ on separate core               | 2.17       | 3.57        |
//!
//! Memory-bus traffic follows the DDIO study of §2.1.1: with DDIO active
//! (network thread on the NUIOA-local socket) the paper measured 1.03×/1.02×
//! read/write amplification; on the remote socket 2.11× send-side reads and
//! 1.5×/2.33× receive-side amplification. We account exactly those factors.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::fabric::{Fabric, NodeId};
use crate::transport::Doorbell;

/// IPoIB transport mode (RFC 4391/4392 vs RFC 4755).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpoibMode {
    /// Datagram mode: MTU ≤ 2044 bytes, TCP offloading available.
    Datagram,
    /// Connected mode: MTU ≤ 65 520 bytes, no offloading.
    Connected,
}

impl IpoibMode {
    /// Largest MTU the mode supports.
    pub fn max_mtu(self) -> usize {
        match self {
            IpoibMode::Datagram => 2044,
            IpoibMode::Connected => 65_520,
        }
    }
}

/// Tuning knobs for the TCP endpoint model.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// IPoIB transport mode.
    pub mode: IpoibMode,
    /// Maximum transmission unit in bytes.
    pub mtu: usize,
    /// Checksum offloading to the NIC (datagram mode only).
    pub offload: bool,
    /// Pin the interrupt handler to a different core than the network
    /// thread. Uses a second core but removes IRQ/protocol serialization.
    pub irq_separate_core: bool,
    /// Network thread runs on the NUIOA-local socket, enabling DDIO.
    pub numa_local_nic: bool,
}

/// Calibrated per-byte cost of the socket-buffer copy.
const COPY_NS_PER_BYTE: f64 = 0.12;
/// Calibrated per-byte cost of checksumming (data touching).
const CHECKSUM_NS_PER_BYTE: f64 = 0.10;
/// Kernel protocol processing per wire packet.
const KERNEL_NS_PER_PACKET: f64 = 1100.0;
/// Cost of one interrupt event.
const IRQ_EVENT_NS: f64 = 1200.0;
/// Packets per interrupt when the NIC coalesces (offload enabled).
const IRQ_COALESCE: u64 = 64;
/// Receiver slowdown when IRQ handler shares the network thread's core.
const IRQ_SHARED_CORE_FACTOR: f64 = 2.0;
/// Throughput penalty for running the network thread NUIOA-remotely.
const NUIOA_REMOTE_FACTOR: f64 = 1.12;

impl TcpConfig {
    /// Default TCP as shipped: datagram mode, 2044-byte MTU, offload on,
    /// IRQ handler sharing the network thread's core (Figure 5 "default TCP").
    pub fn default_tcp() -> Self {
        Self {
            mode: IpoibMode::Datagram,
            mtu: 2044,
            offload: true,
            irq_separate_core: false,
            numa_local_nic: true,
        }
    }

    /// Datagram mode with offloading disabled ("TCP w/o offload").
    pub fn without_offload() -> Self {
        Self {
            offload: false,
            ..Self::default_tcp()
        }
    }

    /// Connected mode with the 65 520-byte MTU ("TCP 64k MTU").
    pub fn connected_64k() -> Self {
        Self {
            mode: IpoibMode::Connected,
            mtu: 65_520,
            offload: false,
            irq_separate_core: false,
            numa_local_nic: true,
        }
    }

    /// The paper's best TCP configuration: connected mode, 64 k MTU, IRQ
    /// handler pinned to a different core ("TCP interrupts").
    pub fn tuned() -> Self {
        Self {
            irq_separate_core: true,
            ..Self::connected_64k()
        }
    }

    /// Validate invariants (MTU bounds, offload availability).
    ///
    /// # Panics
    /// Panics when the MTU exceeds the mode's maximum, the MTU is zero, or
    /// offloading is requested in connected mode.
    pub fn validate(&self) {
        assert!(self.mtu > 0, "MTU must be positive");
        assert!(
            self.mtu <= self.mode.max_mtu(),
            "MTU {} exceeds {:?} maximum {}",
            self.mtu,
            self.mode,
            self.mode.max_mtu()
        );
        if self.offload {
            assert_eq!(
                self.mode,
                IpoibMode::Datagram,
                "TCP offloading is only available in datagram mode"
            );
        }
    }

    /// Number of wire packets for a message of `bytes`.
    pub fn packets(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.mtu as u64).max(1)
    }

    fn numa_factor(&self) -> f64 {
        if self.numa_local_nic {
            1.0
        } else {
            NUIOA_REMOTE_FACTOR
        }
    }

    /// Modeled sender-side CPU time for one message.
    pub fn sender_cpu(&self, bytes: usize) -> Duration {
        let m = bytes as f64;
        let copy = m * COPY_NS_PER_BYTE;
        let checksum = if self.offload {
            0.0
        } else {
            m * CHECKSUM_NS_PER_BYTE
        };
        let kernel = self.packets(bytes) as f64 * KERNEL_NS_PER_PACKET;
        Duration::from_nanos(((copy + checksum + kernel) * self.numa_factor()) as u64)
    }

    /// Modeled receiver-side CPU time for one message.
    pub fn receiver_cpu(&self, bytes: usize) -> Duration {
        let m = bytes as f64;
        let copy = m * COPY_NS_PER_BYTE;
        let checksum = if self.offload {
            0.0
        } else {
            m * CHECKSUM_NS_PER_BYTE
        };
        let events = if self.offload {
            self.packets(bytes).div_ceil(IRQ_COALESCE)
        } else {
            self.packets(bytes)
        };
        let irq = events as f64 * IRQ_EVENT_NS;
        let mut total = copy + checksum + irq;
        if !self.irq_separate_core {
            total *= IRQ_SHARED_CORE_FACTOR;
        }
        Duration::from_nanos((total * self.numa_factor()) as u64)
    }

    /// Memory-bus trips at the sender as (read, write) byte amplification.
    fn sender_membus(&self, bytes: u64) -> (u64, u64) {
        if self.numa_local_nic {
            // DDIO active: measured 1.03× reads, no extra writes.
            ((bytes as f64 * 1.03) as u64, 0)
        } else {
            ((bytes as f64 * 2.11) as u64, bytes)
        }
    }

    /// Memory-bus trips at the receiver as (read, write) amplification.
    fn receiver_membus(&self, bytes: u64) -> (u64, u64) {
        if self.numa_local_nic {
            (0, (bytes as f64 * 1.02) as u64)
        } else {
            ((bytes as f64 * 1.5) as u64, (bytes as f64 * 2.33) as u64)
        }
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self::default_tcp()
    }
}

/// A message travelling through a socket: the socket-buffer copy plus its
/// wire delivery time.
struct SocketDatagram {
    src: NodeId,
    data: Vec<u8>,
    delivery: f64,
}

/// Full-mesh TCP network over a [`Fabric`].
pub struct TcpNetwork {
    fabric: Arc<Fabric>,
    cfg: TcpConfig,
    inboxes: Vec<(Sender<SocketDatagram>, Receiver<SocketDatagram>)>,
    /// Per node: rung after every push onto its inbox.
    bells: Vec<Arc<Doorbell>>,
}

impl TcpNetwork {
    /// Build a TCP network for every node of `fabric`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`TcpConfig::validate`]).
    pub fn new(fabric: Arc<Fabric>, cfg: TcpConfig) -> Self {
        cfg.validate();
        let inboxes = (0..fabric.nodes()).map(|_| unbounded()).collect();
        let bells = (0..fabric.nodes()).map(|_| Doorbell::new()).collect();
        Self {
            fabric,
            cfg,
            inboxes,
            bells,
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Endpoint handle for `node`.
    pub fn endpoint(&self, node: NodeId) -> TcpEndpoint {
        TcpEndpoint {
            node,
            cfg: self.cfg,
            fabric: Arc::clone(&self.fabric),
            inbox: self.inboxes[node.idx()].1.clone(),
            peers: self.inboxes.iter().map(|(tx, _)| tx.clone()).collect(),
            bells: self.bells.clone(),
        }
    }
}

/// One node's TCP endpoint. Send and receive perform the modeled protocol
/// work on the calling thread (the "network thread").
pub struct TcpEndpoint {
    node: NodeId,
    cfg: TcpConfig,
    fabric: Arc<Fabric>,
    inbox: Receiver<SocketDatagram>,
    peers: Vec<Sender<SocketDatagram>>,
    bells: Vec<Arc<Doorbell>>,
}

impl TcpEndpoint {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// The bell every sender rings once its message is in this node's
    /// socket buffer.
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.bells[self.node.idx()])
    }

    /// Send `data` to `dst`, paying copy/checksum/kernel costs here and
    /// reserving wire time on the fabric.
    pub fn send(&self, dst: NodeId, data: &[u8]) {
        // Application buffer → socket buffer: the copy TCP cannot avoid.
        let socket_buf = data.to_vec();
        self.fabric
            .charge_send_cpu(self.node, self.cfg.sender_cpu(data.len()));
        let (r, w) = self.cfg.sender_membus(data.len() as u64);
        self.fabric.record_membus(self.node, r, w);
        let packets = self.cfg.packets(data.len());
        let delivery = self.fabric.reserve(self.node, dst, data.len(), packets);
        // Channel send only fails when all endpoints of the peer were
        // dropped; treat that like a closed connection and drop the packet.
        let _ = self.peers[dst.idx()].send(SocketDatagram {
            src: self.node,
            data: socket_buf,
            delivery,
        });
        self.bells[dst.idx()].ring();
    }

    /// Receive the next message from any peer, blocking until one arrives.
    /// Pays receive-side protocol costs and the socket→application copy.
    pub fn recv(&self) -> (NodeId, Vec<u8>) {
        let dgram = self.inbox.recv().expect("tcp network torn down");
        self.finish_receive(dgram)
    }

    /// Receive with a timeout; `None` when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        match self.inbox.recv_timeout(timeout) {
            Ok(dgram) => Some(self.finish_receive(dgram)),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn finish_receive(&self, dgram: SocketDatagram) -> (NodeId, Vec<u8>) {
        self.fabric.wait_until(dgram.delivery);
        self.fabric
            .charge_recv_cpu(self.node, self.cfg.receiver_cpu(dgram.data.len()));
        let (r, w) = self.cfg.receiver_membus(dgram.data.len() as u64);
        self.fabric.record_membus(self.node, r, w);
        self.fabric.record_delivery(self.node, dgram.data.len());
        // Socket buffer → application buffer: the receive-side copy.
        let app_buf = dgram.data.clone();
        (dgram.src, app_buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::link::LinkSpec;

    fn qdr_fabric(nodes: u16) -> Arc<Fabric> {
        Arc::new(Fabric::new(nodes, FabricConfig::qdr()))
    }

    #[test]
    fn config_presets_validate() {
        TcpConfig::default_tcp().validate();
        TcpConfig::without_offload().validate();
        TcpConfig::connected_64k().validate();
        TcpConfig::tuned().validate();
    }

    #[test]
    #[should_panic(expected = "only available in datagram mode")]
    fn offload_rejected_in_connected_mode() {
        TcpConfig {
            mode: IpoibMode::Connected,
            mtu: 65_520,
            offload: true,
            irq_separate_core: false,
            numa_local_nic: true,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn datagram_mtu_capped() {
        TcpConfig {
            mtu: 9000,
            ..TcpConfig::default_tcp()
        }
        .validate();
    }

    #[test]
    fn packet_counts() {
        let c = TcpConfig::default_tcp();
        assert_eq!(c.packets(1), 1);
        assert_eq!(c.packets(2044), 1);
        assert_eq!(c.packets(2045), 2);
        assert_eq!(c.packets(512 * 1024), 257);
        let big = TcpConfig::connected_64k();
        assert_eq!(big.packets(512 * 1024), 9);
    }

    #[test]
    fn tuning_ladder_orders_cpu_costs() {
        // Receiver CPU per 512 KB message must strictly fall along the
        // tuning ladder of Figure 5.
        let m = 512 * 1024;
        let no_offload = TcpConfig::without_offload();
        let default_tcp = TcpConfig::default_tcp();
        let connected = TcpConfig::connected_64k();
        let tuned = TcpConfig::tuned();
        let total = |c: &TcpConfig| c.sender_cpu(m) + c.receiver_cpu(m);
        assert!(total(&no_offload) > total(&default_tcp));
        assert!(total(&default_tcp) > total(&connected));
        assert!(total(&connected) > total(&tuned));
    }

    #[test]
    fn nuioa_remote_is_slower_and_dirtier() {
        let local = TcpConfig::default_tcp();
        let remote = TcpConfig {
            numa_local_nic: false,
            ..local
        };
        assert!(remote.sender_cpu(1 << 20) > local.sender_cpu(1 << 20));
        assert!(remote.sender_membus(1000).0 > local.sender_membus(1000).0);
        // DDIO removes sender-side writes entirely.
        assert_eq!(local.sender_membus(1000).1, 0);
        assert!(remote.sender_membus(1000).1 > 0);
    }

    #[test]
    fn roundtrip_delivers_payload() {
        let fabric = qdr_fabric(2);
        let net = TcpNetwork::new(Arc::clone(&fabric), TcpConfig::tuned());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let h = std::thread::spawn(move || b.recv());
        a.send(NodeId(1), &payload);
        let (src, got) = h.join().unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(got, expected);
        assert_eq!(fabric.stats(NodeId(0)).messages_sent(), 1);
        assert_eq!(fabric.stats(NodeId(1)).messages_received(), 1);
    }

    #[test]
    fn recv_timeout_expires_when_quiet() {
        let net = TcpNetwork::new(qdr_fabric(2), TcpConfig::default_tcp());
        let a = net.endpoint(NodeId(0));
        assert!(a.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn slow_link_dominates_delivery_time() {
        // On GbE a 1 MB transfer takes ≥ 8 ms of wire time.
        let cfg = FabricConfig {
            link: LinkSpec::GBE,
            ..FabricConfig::default()
        };
        let fabric = Arc::new(Fabric::new(2, cfg));
        let net = TcpNetwork::new(Arc::clone(&fabric), TcpConfig::tuned());
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let start = std::time::Instant::now();
        let h = std::thread::spawn(move || {
            let payload = vec![7u8; 1 << 20];
            a.send(NodeId(1), &payload);
        });
        let (_, got) = b.recv();
        h.join().unwrap();
        assert_eq!(got.len(), 1 << 20);
        assert!(start.elapsed() >= Duration::from_millis(8));
    }
}
