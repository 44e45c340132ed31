//! # hsqp-net — calibrated software network fabric
//!
//! The paper evaluates query processing on a 6-server InfiniBand 4×QDR
//! cluster. No such hardware is available to this reproduction, so this
//! crate provides a **calibrated software fabric** that exercises the same
//! code paths and exposes the same trade-offs:
//!
//! * [`link::LinkSpec`] — the data-link standards of Table 1 (GbE and
//!   InfiniBand SDR/DDR/QDR/FDR/EDR) with their bandwidths and latencies.
//! * [`fabric::Fabric`] — wire-time pacing via virtual-clock reservations on
//!   egress/ingress ports, plus a switch-contention model (credit starvation
//!   under uncoordinated all-to-all traffic, §3.2.3).
//! * [`tcp`] — a TCP/IPoIB endpoint model: real buffer copies, checksum
//!   passes (data touching), per-packet kernel overhead, interrupt
//!   coalescing, datagram vs connected mode, and DDIO/NUIOA memory-bus-trip
//!   accounting (§2.1).
//! * [`rdma`] — an ibverbs-style endpoint model: registered memory regions,
//!   send/receive work queues, completion queues with polling or event-based
//!   notification, zero-copy payload hand-off, and low-latency inline sends
//!   (§2.2).
//! * [`sched`] — application-level round-robin network scheduling with
//!   low-latency synchronization barriers (§3.2.3, Figure 10).
//! * [`stats`] — per-node accounting of bytes, messages, packets, CPU time
//!   spent on networking, and memory-bus trips (Figures 4 and 5).
//!
//! All CPU costs in the models are *actually spent* as busy-wait time on the
//! calling thread, so the receiver-bound behaviour of TCP and the almost-free
//! behaviour of RDMA emerge in wall-clock measurements, just like they do in
//! the paper.

pub mod fabric;
pub mod link;
pub mod rdma;
pub mod sched;
pub mod socket;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use fabric::{Fabric, FabricConfig, NodeId};
pub use link::LinkSpec;
pub use rdma::{CompletionMode, RdmaConfig, RdmaEndpoint, RdmaNetwork};
pub use sched::{NetScheduler, Schedule};
pub use socket::{SocketConfig, SocketTransport};
pub use stats::{NetStats, QueryId};
pub use tcp::{IpoibMode, TcpConfig, TcpEndpoint, TcpNetwork};
pub use transport::{Doorbell, Transport, TransportEvent};
