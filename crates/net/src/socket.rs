//! Real-socket transport: genuine OS TCP connections between processes.
//!
//! Everything else in this crate *models* a network; this module talks to
//! one. A [`SocketTransport`] is a full mesh of `std::net::TcpStream`
//! connections between the node processes of an out-of-process cluster,
//! carrying the same wire messages (header + serialized tuples) that the
//! simulated endpoints carry in-process.
//!
//! Design:
//!
//! * **Length-prefixed framing** — every message is `u32` little-endian
//!   length followed by the payload ([`write_frame`]/[`read_frame`]). The
//!   same framing carries the coordinator's control protocol, which has
//!   no buffered writer in front of its sockets and therefore builds each
//!   frame in one buffer and writes it once ([`Frame`]).
//! * **Handshake preamble** — each connection opens with magic, protocol
//!   version, the dialer's role (data peer vs coordinator control), its
//!   node id, and the cluster size ([`Preamble`]), so a node can reject
//!   version skew and misdirected connections before any query traffic.
//! * **Per-peer send/receive threads** — one writer thread per peer drains
//!   a queue into a `BufWriter` (batching small frames, flushing when the
//!   queue runs dry), one reader thread per peer turns frames into
//!   [`TransportEvent::Message`]s. `TCP_NODELAY` and the writer buffer
//!   size are the [`SocketConfig`] knobs, mirroring the simulated
//!   [`TcpConfig`](crate::tcp::TcpConfig) tuning ladder.
//! * **Failure detection** — a reader hitting EOF or a socket error emits
//!   [`TransportEvent::PeerGone`], which the exchange layer translates
//!   into query aborts instead of wedged receive hubs.
//! * **One bell** — every reader thread rings the transport's
//!   [`Doorbell`] after each event it queues, message or `PeerGone`, so a
//!   multiplexer asleep on it learns of a dead peer as it does of data.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::fabric::NodeId;
use crate::stats::NetStats;
use crate::transport::{Doorbell, Transport, TransportEvent};

/// Magic number opening every connection ("HSQP").
pub const WIRE_MAGIC: u32 = 0x4853_5150;
/// Protocol version of the handshake, framing, and control opcodes.
/// Bumped on any incompatible change; mismatches are rejected loudly.
/// v3 dropped the row count from the engine's `StageDone` reply.
pub const WIRE_VERSION: u16 = 3;
/// Upper bound on a single frame (sanity check against corrupt lengths).
pub const MAX_FRAME: usize = 1 << 30;

/// What the dialing end of a fresh connection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeRole {
    /// Another node of the cluster: the connection carries exchange data.
    Data,
    /// The coordinator: the connection carries the control protocol.
    Control,
}

/// The fixed-size handshake sent by whoever opens a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preamble {
    /// Dialer's protocol version ([`WIRE_VERSION`]).
    pub version: u16,
    /// What the dialer is.
    pub role: HandshakeRole,
    /// Dialer's node id (0 for the coordinator).
    pub node: u16,
    /// Cluster size the dialer believes in.
    pub nodes: u16,
}

impl Preamble {
    /// Serialize to the 11-byte wire form.
    pub fn encode(&self) -> [u8; 11] {
        let mut b = [0u8; 11];
        b[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
        b[4..6].copy_from_slice(&self.version.to_le_bytes());
        b[6] = match self.role {
            HandshakeRole::Data => 0,
            HandshakeRole::Control => 1,
        };
        b[7..9].copy_from_slice(&self.node.to_le_bytes());
        b[9..11].copy_from_slice(&self.nodes.to_le_bytes());
        b
    }
}

/// Write the handshake preamble to a fresh connection.
pub fn send_preamble(w: &mut impl Write, p: &Preamble) -> io::Result<()> {
    w.write_all(&p.encode())?;
    w.flush()
}

/// Read and validate a handshake preamble; rejects bad magic and version
/// skew with `InvalidData` so incompatible builds fail at connect time.
pub fn read_preamble(r: &mut impl Read) -> io::Result<Preamble> {
    let mut b = [0u8; 11];
    r.read_exact(&mut b)?;
    let magic = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
    if magic != WIRE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad handshake magic {magic:#x}"),
        ));
    }
    let version = u16::from_le_bytes(b[4..6].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("protocol version mismatch: peer {version}, ours {WIRE_VERSION}"),
        ));
    }
    let role = match b[6] {
        0 => HandshakeRole::Data,
        1 => HandshakeRole::Control,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown handshake role {other}"),
            ))
        }
    };
    Ok(Preamble {
        version,
        role,
        node: u16::from_le_bytes(b[7..9].try_into().expect("2 bytes")),
        nodes: u16::from_le_bytes(b[9..11].try_into().expect("2 bytes")),
    })
}

/// Bytes of the little-endian length prefix that opens every frame.
const FRAME_PREFIX: usize = 4;

/// Write one length-prefixed frame as two writes (prefix, then payload).
///
/// This is the data path's writer: the payload is a pooled exchange
/// message that must not be copied, and the two writes land in the peer
/// writer thread's `BufWriter`, which coalesces them before the kernel
/// sees anything. On an unbuffered socket use [`Frame`] instead — two
/// small writes followed by a read are the pattern Nagle's algorithm and
/// delayed ACKs punish.
///
/// Fails with `InvalidInput` when the payload exceeds [`MAX_FRAME`], as
/// [`Frame::build`] does, and writes nothing then.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = frame_len(payload.len())?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// The length prefix of a frame whose body is `len` bytes: `InvalidInput`
/// past [`MAX_FRAME`] (the reader would reject it anyway; the writer must
/// not truncate the length silently).
fn frame_len(len: usize) -> io::Result<u32> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(len as u32)
}

/// One complete frame — length prefix and body — in a single buffer.
///
/// The control protocol's writer. The prefix is reserved at the head of
/// the buffer the body is built in and patched once the body is complete,
/// so a frame costs no copy and reaches an unbuffered `TcpStream` as
/// exactly one `write_all`: one segment on the wire instead of a 4-byte
/// one the peer may sit on before acknowledging. [`read_frame`] reads it
/// back like any other frame.
pub struct Frame(Vec<u8>);

impl Frame {
    /// Build a frame whose body is whatever `body` appends to the buffer.
    /// Fails with `InvalidInput` when the body exceeds [`MAX_FRAME`].
    pub fn build(body: impl FnOnce(&mut Vec<u8>)) -> io::Result<Self> {
        let mut buf = vec![0u8; FRAME_PREFIX];
        body(&mut buf);
        let len = frame_len(buf.len() - FRAME_PREFIX)?;
        buf[..FRAME_PREFIX].copy_from_slice(&len.to_le_bytes());
        Ok(Self(buf))
    }

    /// Hand the whole frame to `w` in one `write_all`, then flush (a no-op
    /// on a `TcpStream`). A frame can be written to several connections.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.0)?;
        w.flush()
    }
}

/// Read one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; FRAME_PREFIX];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Socket tuning knobs, the real-transport mirror of the simulated
/// [`TcpConfig`](crate::tcp::TcpConfig) ladder.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Set `TCP_NODELAY` on every connection (disable Nagle batching —
    /// exchange messages are already batched into large frames).
    pub nodelay: bool,
    /// Userspace write-buffer capacity per peer connection; small frames
    /// coalesce here before hitting the kernel.
    pub send_buffer: usize,
    /// How long mesh establishment keeps retrying dials before giving up
    /// (peers may not have bound their listeners yet).
    pub connect_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            nodelay: true,
            send_buffer: 256 * 1024,
            connect_timeout: Duration::from_secs(10),
        }
    }
}

struct PeerHandle {
    /// Queue into the peer's writer thread; dropping it stops the thread.
    tx: Sender<Bytes>,
    /// Kept to force-close the stream on drop so reader threads unblock.
    stream: TcpStream,
}

/// A real-socket mesh connecting this node to every other node process.
///
/// Created by [`connect_mesh`](Self::connect_mesh) once the cluster
/// membership is known; used by the communication multiplexer through the
/// [`Transport`] trait exactly like the simulated endpoints.
pub struct SocketTransport {
    node: NodeId,
    peers: Vec<Option<PeerHandle>>,
    events: Receiver<TransportEvent>,
    /// Held so reader threads can always deliver (even while the mux is
    /// between polls); cloned senders live in the reader threads.
    _events_tx: Sender<TransportEvent>,
    /// Rung by the reader threads after every event they queue.
    bell: Arc<Doorbell>,
    stats: Arc<NetStats>,
}

impl SocketTransport {
    /// Establish the full mesh for `node` in a cluster of `addrs.len()`
    /// nodes (`addrs[i]` is node i's listen address; our own entry is
    /// ignored). Dials every lower-numbered node (retrying until
    /// `cfg.connect_timeout`, since peers may still be starting) and
    /// accepts one data connection from every higher-numbered node on
    /// `listener`.
    pub fn connect_mesh(
        node: NodeId,
        addrs: &[String],
        listener: &TcpListener,
        cfg: &SocketConfig,
    ) -> io::Result<Self> {
        Self::connect_mesh_pending(node, addrs, listener, cfg, Vec::new())
    }

    /// [`connect_mesh`](Self::connect_mesh), with data connections that were
    /// already accepted (preamble read) before mesh establishment started.
    /// A node server shares one listener between the coordinator's control
    /// connection and the mesh, so a fast peer's dial can land before the
    /// coordinator's — the server stashes it and hands it over here.
    pub fn connect_mesh_pending(
        node: NodeId,
        addrs: &[String],
        listener: &TcpListener,
        cfg: &SocketConfig,
        pending: Vec<(Preamble, TcpStream)>,
    ) -> io::Result<Self> {
        let nodes = addrs.len() as u16;
        let (events_tx, events) = unbounded();
        let bell = Doorbell::new();
        let stats = Arc::new(NetStats::new());
        let mut peers: Vec<Option<PeerHandle>> = (0..nodes).map(|_| None).collect();

        // Dial every lower-numbered peer.
        for target in 0..node.0 {
            let stream = dial_with_retry(&addrs[target as usize], cfg.connect_timeout)?;
            let mut s = stream.try_clone()?;
            send_preamble(
                &mut s,
                &Preamble {
                    version: WIRE_VERSION,
                    role: HandshakeRole::Data,
                    node: node.0,
                    nodes,
                },
            )?;
            peers[target as usize] = Some(start_peer(
                NodeId(target),
                stream,
                cfg,
                events_tx.clone(),
                Arc::clone(&bell),
                Arc::clone(&stats),
            )?);
        }

        // Accept one data connection from every higher-numbered peer,
        // consuming pre-accepted connections first.
        let mut pending = pending;
        let mut expected = (node.0 + 1..nodes).count();
        let deadline = Instant::now() + cfg.connect_timeout;
        while expected > 0 {
            let (p, stream) = match pending.pop() {
                Some(entry) => entry,
                None => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("mesh incomplete: {expected} peer(s) never connected"),
                        ));
                    }
                    let (mut stream, _) = listener.accept()?;
                    let p = read_preamble(&mut stream)?;
                    (p, stream)
                }
            };
            if p.role != HandshakeRole::Data {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected control connection during mesh establishment",
                ));
            }
            if p.nodes != nodes || p.node <= node.0 || p.node >= nodes {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "peer handshake out of place: node {} of {} (we are {} of {nodes})",
                        p.node, p.nodes, node.0
                    ),
                ));
            }
            if peers[p.node as usize].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("duplicate mesh connection from node {}", p.node),
                ));
            }
            peers[p.node as usize] = Some(start_peer(
                NodeId(p.node),
                stream,
                cfg,
                events_tx.clone(),
                Arc::clone(&bell),
                Arc::clone(&stats),
            )?);
            expected -= 1;
        }

        Ok(Self {
            node,
            peers,
            events,
            _events_tx: events_tx,
            bell,
            stats,
        })
    }

    /// This node's id in the mesh.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Byte/message counters of everything sent and received over this
    /// mesh (feeds the same metrics surface as the simulated fabric).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

impl Transport for SocketTransport {
    fn send(&self, dst: NodeId, payload: Bytes) {
        if let Some(Some(peer)) = self.peers.get(dst.idx()) {
            self.stats.record_send(payload.len() as u64, 1);
            // A closed queue means the writer thread died with the
            // connection; the reader thread reports the PeerGone.
            let _ = peer.tx.send(payload);
        }
    }

    fn try_recv(&self) -> Option<TransportEvent> {
        self.events.try_recv().ok()
    }

    fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.bell)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for peer in self.peers.iter().flatten() {
            let _ = peer.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Dial `addr`, retrying while the peer's listener may not be up yet.
fn dial_with_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("dialing {addr} failed after {timeout:?}: {e}"),
                ))
            }
        }
    }
}

/// Spawn the writer and reader threads for one established peer stream.
fn start_peer(
    peer: NodeId,
    stream: TcpStream,
    cfg: &SocketConfig,
    events: Sender<TransportEvent>,
    bell: Arc<Doorbell>,
    stats: Arc<NetStats>,
) -> io::Result<PeerHandle> {
    stream.set_nodelay(cfg.nodelay)?;
    let (tx, rx): (Sender<Bytes>, Receiver<Bytes>) = unbounded();

    let writer_stream = stream.try_clone()?;
    let send_buffer = cfg.send_buffer;
    std::thread::Builder::new()
        .name(format!("sock-send-{}", peer.0))
        .spawn(move || {
            let mut w = BufWriter::with_capacity(send_buffer, writer_stream);
            // Block for the first frame, then opportunistically drain the
            // queue before paying one flush (syscall) for the batch.
            while let Ok(first) = rx.recv() {
                if write_frame(&mut w, &first).is_err() {
                    return;
                }
                while let Ok(more) = rx.try_recv() {
                    if write_frame(&mut w, &more).is_err() {
                        return;
                    }
                }
                if w.flush().is_err() {
                    return;
                }
            }
        })
        .expect("spawn socket writer");

    let reader_stream = stream.try_clone()?;
    std::thread::Builder::new()
        .name(format!("sock-recv-{}", peer.0))
        .spawn(move || {
            let mut r = BufReader::new(reader_stream);
            loop {
                let event = match read_frame(&mut r) {
                    Ok(frame) => {
                        stats.record_receive(frame.len() as u64);
                        TransportEvent::Message {
                            src: peer,
                            payload: Bytes::from(frame),
                        }
                    }
                    Err(e) => TransportEvent::PeerGone {
                        peer,
                        reason: format!("node {} connection lost: {e}", peer.0),
                    },
                };
                let gone = matches!(event, TransportEvent::PeerGone { .. });
                let dropped = events.send(event).is_err();
                bell.ring();
                if gone || dropped {
                    return;
                }
            }
        })
        .expect("spawn socket reader");

    Ok(PeerHandle { tx, stream })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_pair() -> (SocketTransport, SocketTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![
            l0.local_addr().unwrap().to_string(),
            l1.local_addr().unwrap().to_string(),
        ];
        let cfg = SocketConfig::default();
        let a1 = addrs.clone();
        let t = std::thread::spawn(move || {
            SocketTransport::connect_mesh(NodeId(1), &a1, &l1, &cfg).unwrap()
        });
        let t0 = SocketTransport::connect_mesh(NodeId(0), &addrs, &l0, &cfg).unwrap();
        (t0, t.join().unwrap())
    }

    /// The next event, sleeping on the transport's bell as a multiplexer
    /// does. A waiter that no event wakes would hang the test, so the
    /// waiting is done on a thread this one gives ten seconds.
    fn recv_blocking(t: SocketTransport) -> (SocketTransport, TransportEvent) {
        let (done, woken) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let bell = t.doorbell();
            let event = loop {
                if let Some(event) = t.try_recv() {
                    break event;
                }
                bell.wait();
            };
            let _ = done.send((t, event));
        });
        woken
            .recv_timeout(Duration::from_secs(10))
            .expect("no event woke the waiter within 10s")
    }

    #[test]
    fn mesh_sends_both_ways() {
        let (t0, t1) = mesh_pair();
        t0.send(NodeId(1), Bytes::from_static(b"ping"));
        t1.send(NodeId(0), Bytes::from_static(b"pong"));
        match recv_blocking(t1).1 {
            TransportEvent::Message { src, payload } => {
                assert_eq!(src, NodeId(0));
                assert_eq!(&payload[..], b"ping");
            }
            other => panic!("unexpected event: {other:?}"),
        }
        let (t0, event) = recv_blocking(t0);
        match event {
            TransportEvent::Message { src, payload } => {
                assert_eq!(src, NodeId(1));
                assert_eq!(&payload[..], b"pong");
            }
            other => panic!("unexpected event: {other:?}"),
        }
        assert_eq!(t0.stats().messages_sent(), 1);
        assert_eq!(t0.stats().bytes_sent(), 4);
        assert_eq!(t0.stats().messages_received(), 1);
    }

    #[test]
    fn dropped_peer_surfaces_as_peer_gone() {
        let (t0, t1) = mesh_pair();
        drop(t1);
        match recv_blocking(t0).1 {
            TransportEvent::PeerGone { peer, .. } => assert_eq!(peer, NodeId(1)),
            other => panic!("unexpected event: {other:?}"),
        }
    }

    /// A waiter already asleep on the bell — an idle multiplexer — is woken
    /// by a message, and by its peer dying with nothing on the wire.
    #[test]
    fn a_sleeping_waiter_is_woken_by_a_message_and_by_a_dying_peer() {
        let (t0, t1) = mesh_pair();
        let asleep = |t: SocketTransport| {
            let waiter = std::thread::spawn(move || recv_blocking(t));
            std::thread::sleep(Duration::from_millis(50));
            assert!(!waiter.is_finished(), "nothing has happened yet");
            waiter
        };
        let waiter = asleep(t0);
        t1.send(NodeId(0), Bytes::from_static(b"wake up"));
        let (t0, event) = waiter.join().unwrap();
        assert!(matches!(
            event,
            TransportEvent::Message { src: NodeId(1), .. }
        ));

        let waiter = asleep(t0);
        drop(t1);
        let (_t0, event) = waiter.join().unwrap();
        assert!(matches!(
            event,
            TransportEvent::PeerGone {
                peer: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn preamble_roundtrip_and_version_check() {
        let p = Preamble {
            version: WIRE_VERSION,
            role: HandshakeRole::Control,
            node: 3,
            nodes: 4,
        };
        let mut buf = Vec::new();
        send_preamble(&mut buf, &p).unwrap();
        assert_eq!(read_preamble(&mut &buf[..]).unwrap(), p);

        // Version skew is rejected.
        let mut bad = p.encode();
        bad[4] = 0xEE;
        bad[5] = 0xEE;
        assert!(read_preamble(&mut &bad[..]).is_err());
        // Bad magic is rejected.
        let mut bad = p.encode();
        bad[0] = 0;
        assert!(read_preamble(&mut &bad[..]).is_err());
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // clean EOF
    }

    /// Both writers take their length prefix from `frame_len`, which
    /// refuses a body the reader would refuse instead of truncating its
    /// length to 32 bits.
    #[test]
    fn a_frame_past_the_cap_is_refused_not_truncated() {
        assert_eq!(frame_len(MAX_FRAME).unwrap(), 1 << 30);
        for len in [MAX_FRAME + 1, 1 << 32, usize::MAX] {
            let err = frame_len(len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{len}");
        }
    }

    /// A sink that counts how often it is written to.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn built_frame_is_one_write_and_reads_back() {
        let mut w = CountingWrite::default();
        let frame = Frame::build(|out| out.extend_from_slice(b"stage")).unwrap();
        frame.write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1, "prefix and body must leave in one write");
        Frame::build(|_| {}).unwrap().write_to(&mut w).unwrap();
        assert_eq!(w.writes, 2);
        // Same bytes on the wire as the two-write data-path writer.
        let mut two = CountingWrite::default();
        write_frame(&mut two, b"stage").unwrap();
        assert_eq!(two.writes, 2);
        write_frame(&mut two, b"").unwrap();
        assert_eq!(w.bytes, two.bytes);
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"stage");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
    }
}
