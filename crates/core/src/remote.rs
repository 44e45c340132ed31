//! Out-of-process clusters: the `hsqp-node` server, and the coordinator's
//! connection to it.
//!
//! Everything else in the engine simulates a cluster inside one process;
//! this module runs the same SPMD plans across *real OS processes*
//! connected by real TCP sockets. A [`NodeServer`] is one database server:
//! it listens on a port, joins the mesh ([`SocketTransport`]), starts the
//! same node a simulated cluster runs (`start_node`), generates its share
//! of TPC-H locally, and maps the control requests onto that node's calls
//! (`NodeCtx::{stage, abort, retire, stop}`). A [`ProcessCluster`] is the
//! set-up and load shell on the other side: it connects to the nodes, has
//! them load data, and owns a [`Coordinator`] — to which it derefs, so
//! `submit`, `run`, `metrics`, … are the coordinator's, the same code that
//! drives a simulated cluster ([`crate::coordinator`]).
//! What is particular to this cluster is its `Backend`: a stage is
//! serialized ([`crate::serial`]) and shipped to every node over the
//! control protocol below, and node 0's reply carries the gathered table —
//! the paper's coordinator/worker split, §4.
//!
//! # Control protocol
//!
//! One TCP connection per node, opened by the coordinator with a
//! [`HandshakeRole::Control`] preamble, carrying length-prefixed frames
//! (`opcode` byte + body, [`Frame`]/[`read_frame`] — the same framing as
//! exchange data):
//!
//! | request | reply |
//! |---|---|
//! | `Join` (node id, peer addresses, engine knobs) | `JoinOk` after the data mesh is up |
//! | `Load` (scale factor) | `LoadOk` (local rows per table) |
//! | `Stage` (query, stage index, params, serialized stage and the deadline budget left) | `StageDone` (node 0 attaches the table) or `StageFail` (whether the stage did not compile, why) |
//! | `Retire` (query) | `RetireOk` (the bytes and messages the query handed the node's multiplexer) |
//! | `Abort` (query) | — |
//! | `Stats` | `StatsOk` (the node's counters as (name, value) pairs: `NodeCtx::counters` and the `net.mesh.*` socket totals) |
//! | `Shutdown` | — (the node process exits) |
//!
//! A query's traffic is read at *retire* time, whatever its outcome: each
//! node counted what the query's worker there handed its multiplexer, and
//! retiring joins that worker first, so nothing it sent is missed.
//!
//! **Latency invariant.** A stage is a request/reply round trip of small
//! frames, so its floor is set by how soon each frame leaves the sender,
//! not by bandwidth. Two rules keep that floor at loopback latency, and
//! both ends must obey both: every control connection has `TCP_NODELAY`
//! set (coordinator dial in [`ProcessCluster::connect`], node accept in
//! [`NodeServer::run`]; unconditional, not a knob), and every frame is
//! built in one buffer and written with one `write_all` ([`Frame`]).
//! Break either and Nagle's algorithm holds a frame's tail (or the next
//! frame) back until the peer acknowledges the head, while the peer's
//! delayed-ACK timer waits for data to piggyback the ACK on — each side
//! waiting for the other, ≈ 40 ms per occurrence, ≈ 90 ms per stage as
//! measured before this was enforced (`tpch_sf001_socket` geomean 204 ms
//! against 5.5 ms in-process). The data mesh is different: its frames go
//! through a per-peer `BufWriter` that coalesces them, so it keeps the
//! copy-free two-write [`write_frame`](hsqp_net::socket::write_frame).
//!
//! # Failure handling
//!
//! Stage failures are handled by the node runtime, so both clusters do the
//! same (see [`crate::exec`]): the failing node aborts the query on its own
//! receive hub and on every peer's (a `FLAG_ABORT` frame), and replies;
//! the coordinator waits for every node's reply, then sends `Abort` and
//! `Retire`. Particular to sockets, a node *process* dying surfaces twice:
//! peers' socket readers emit `PeerGone` (the multiplexer kills every
//! in-flight query on that hub) and the coordinator's control reader fails
//! all pending queries — either way the coordinator returns
//! [`EngineError::Execution`] instead of hanging. A cancelled query or one
//! past its deadline is noticed by the stage wait, which polls the query's
//! token, and by the nodes, which get the remaining budget with each stage;
//! the handle resolves to the typed error.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use hsqp_net::socket::{
    read_frame, read_preamble, send_preamble, Frame, HandshakeRole, Preamble, WIRE_VERSION,
};
use hsqp_net::{Fabric, FabricConfig, NetStats, NodeId, QueryId, SocketConfig, SocketTransport};
use hsqp_storage::placement::own_chunk;
use hsqp_tpch::{TpchDb, TpchTable};

use crate::cluster::ClusterConfig;
use crate::coordinator::{Backend, Coordinator, StageCall, StageOutcome, StageReplies};
use crate::error::EngineError;
use crate::exchange::Traffic;
use crate::exec::{start_node, NodeCtx, StageJob, StageReply};
use crate::metrics::MetricsSnapshot;
use crate::serial::{
    self, decode_stage, decode_table, decode_values, encode_stage, encode_values, Rd,
};
use crate::serve::CancelToken;

// Control-protocol opcodes (requests < 100, replies >= 100).
const OP_JOIN: u8 = 0;
const OP_LOAD: u8 = 1;
const OP_STAGE: u8 = 2;
const OP_RETIRE: u8 = 3;
const OP_ABORT: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_STATS: u8 = 6;
const OP_JOIN_OK: u8 = 100;
const OP_LOAD_OK: u8 = 101;
const OP_STAGE_DONE: u8 = 102;
const OP_STAGE_FAIL: u8 = 103;
const OP_RETIRE_OK: u8 = 104;
const OP_STATS_OK: u8 = 105;

/// Engine knobs the coordinator ships to every node in `Join`, so one
/// flag set on the coordinator configures the whole cluster identically.
#[derive(Debug, Clone, Copy)]
pub struct RemoteEngineConfig {
    /// Worker threads per node process.
    pub workers_per_node: u16,
    /// Tuple bytes per exchange message.
    pub message_capacity: usize,
}

impl Default for RemoteEngineConfig {
    fn default() -> Self {
        Self {
            workers_per_node: 2,
            message_capacity: 128 * 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Node server
// ---------------------------------------------------------------------------

/// One out-of-process database server (the `hsqp-node` binary's core).
///
/// Serves exactly one cluster lifetime: accept the coordinator, join the
/// mesh, execute stages until `Shutdown` (or the coordinator disconnects),
/// then return.
pub struct NodeServer {
    listener: TcpListener,
    socket_cfg: SocketConfig,
}

impl NodeServer {
    /// Bind the node's listener (use port 0 for an OS-assigned port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            socket_cfg: SocketConfig::default(),
        })
    }

    /// The bound listen address (to print for the coordinator).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve one cluster lifetime. Returns when the coordinator sends
    /// `Shutdown` or its control connection closes.
    pub fn run(self) -> io::Result<()> {
        // The first Control connection is the coordinator; data dials from
        // faster peers may land first and are stashed for the mesh.
        let mut pending = Vec::new();
        let mut control = loop {
            let (mut stream, _) = self.listener.accept()?;
            let p = read_preamble(&mut stream)?;
            match p.role {
                HandshakeRole::Control => break stream,
                HandshakeRole::Data => pending.push((p, stream)),
            }
        };
        // Half of the latency invariant (module docs); the clones made of
        // this stream below share the socket and with it the option.
        control.set_nodelay(true)?;

        let join = read_frame(&mut control)?;
        let mut r = Rd::new(&join);
        // The same node a simulated cluster runs, on the real-socket
        // transport and without network scheduling (the `NetScheduler` is
        // a shared-memory barrier; real clusters run uncoordinated).
        let mut parse = || -> Result<(u16, ClusterConfig, Vec<String>), String> {
            if r.u8()? != OP_JOIN {
                return Err("expected Join as the first control frame".into());
            }
            let (node, nodes) = (r.u16()?, r.u16()?);
            let cfg = ClusterConfig {
                workers_per_node: r.u16()?,
                message_capacity: r.u64()? as usize,
                numa_cost_ns: 0.0,
                ..ClusterConfig::paper(nodes)
            };
            Ok((node, cfg, r.strs()?))
        };
        let (node, cfg, addrs) =
            parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let nodes = cfg.nodes;
        let inconsistent = |why: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("inconsistent Join: {why}"),
            )
        };
        if node >= nodes || addrs.len() != nodes as usize {
            let why = format!("node {node} of {nodes}, {} addrs", addrs.len());
            return Err(inconsistent(why));
        }
        cfg.validate().map_err(|e| inconsistent(e.to_string()))?;

        eprintln!("[node {node}] joining {nodes}-node mesh");
        let transport = SocketTransport::connect_mesh_pending(
            NodeId(node),
            &addrs,
            &self.listener,
            &self.socket_cfg,
            pending,
        )?;
        let net_stats = Arc::clone(transport.stats());

        let ctx = start_node(
            NodeId(node),
            &cfg,
            Arc::new(Fabric::new(nodes, FabricConfig::default())),
            Box::new(transport),
            None,
        );

        let writer = Arc::new(Mutex::new(control.try_clone()?));
        send_reply(&writer, |out| serial::put_u8(out, OP_JOIN_OK))?;
        eprintln!("[node {node}] mesh up, serving");

        loop {
            let frame = match read_frame(&mut control) {
                Ok(f) => f,
                Err(_) => {
                    eprintln!("[node {node}] coordinator disconnected, exiting");
                    break;
                }
            };
            match self.handle_frame(&frame, &ctx, &writer, &net_stats) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("[node {node}] shutdown requested");
                    break;
                }
                Err(e) => {
                    eprintln!("[node {node}] control protocol error: {e}");
                    break;
                }
            }
        }

        ctx.stop();
        Ok(())
    }

    /// Dispatch one control frame. `Ok(false)` means shutdown.
    fn handle_frame(
        &self,
        frame: &[u8],
        ctx: &Arc<NodeCtx>,
        writer: &Arc<Mutex<TcpStream>>,
        net_stats: &NetStats,
    ) -> Result<bool, String> {
        let mut r = Rd::new(frame);
        match r.u8()? {
            OP_LOAD => {
                let sf = r.f64()?;
                let db = TpchDb::generate(sf);
                let mut rows = Vec::new();
                for (kind, table) in db.into_tables() {
                    // Only this node's rows are copied, a column at a time.
                    let part = own_chunk(table, ctx.nodes as usize, ctx.node.idx());
                    rows.push((kind.name(), part.rows() as u64));
                    ctx.tables.write().insert(kind, part);
                }
                send_reply(writer, |out| put_named(out, OP_LOAD_OK, &rows))
                    .map_err(|e| e.to_string())?;
            }
            OP_STAGE => {
                let query = r.u32()?;
                let stage_idx = r.u32()?;
                let params_len = r.u32()? as usize;
                let params = decode_values(r.take(params_len)?)?;
                let stage_len = r.u32()? as usize;
                let (stage, deadline_us) = decode_stage(r.take(stage_len)?)?;
                let writer = Arc::clone(writer);
                let job = StageJob {
                    stage_idx,
                    stage: Arc::new(stage),
                    params,
                    // The budget left when the coordinator encoded the stage.
                    deadline: deadline_us.map(|us| Instant::now() + Duration::from_micros(us)),
                    profile: None,
                    reply: Box::new(move |reply| {
                        let _ = send_reply(&writer, |out| {
                            put_stage_reply(out, query, stage_idx, &reply)
                        });
                    }),
                };
                // A tripwire of the node's own: `Abort` trips it.
                ctx.stage(QueryId(query), &CancelToken::new(), job);
            }
            OP_RETIRE => {
                let query = QueryId(r.u32()?);
                let sent = NodeCtx::retire(std::slice::from_ref(ctx), query);
                send_reply(writer, |out| put_retire_ok(out, query.0, sent))
                    .map_err(|e| e.to_string())?;
            }
            OP_ABORT => ctx.abort(QueryId(r.u32()?)),
            OP_STATS => {
                let mut counters = ctx.counters();
                counters.extend([
                    ("net.mesh.bytes_sent", net_stats.bytes_sent()),
                    ("net.mesh.bytes_received", net_stats.bytes_received()),
                    ("net.mesh.messages_sent", net_stats.messages_sent()),
                    ("net.mesh.messages_received", net_stats.messages_received()),
                ]);
                send_reply(writer, |out| put_named(out, OP_STATS_OK, &counters))
                    .map_err(|e| e.to_string())?;
            }
            OP_SHUTDOWN => return Ok(false),
            op => return Err(format!("unknown control opcode {op}")),
        }
        Ok(true)
    }
}

/// Send one reply frame, built outside the writer lock and written under
/// it with a single `write_all` (the latency invariant of the module docs).
fn send_reply<W: Write>(writer: &Mutex<W>, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let frame = Frame::build(body)?;
    frame.write_to(&mut *writer.lock())
}

/// Body of a `LoadOk` or `StatsOk` reply: `op`, then a list of named
/// counts (rows per table, or counters).
fn put_named(out: &mut Vec<u8>, op: u8, named: &[(&str, u64)]) {
    serial::put_u8(out, op);
    serial::put_u32(out, named.len() as u32);
    for (name, n) in named {
        serial::put_str(out, name);
        serial::put_u64(out, *n);
    }
}

/// Body of a `RetireOk` reply: what `query` handed the node's multiplexer.
fn put_retire_ok(out: &mut Vec<u8>, query: u32, sent: Traffic) {
    serial::put_u8(out, OP_RETIRE_OK);
    serial::put_u32(out, query);
    serial::put_u64(out, sent.bytes);
    serial::put_u64(out, sent.messages);
}

/// Body of a node's reply to a stage: `StageDone`, whose gathered result
/// is encoded straight into the frame buffer (not into a temporary that is
/// then copied), or `StageFail`, saying whether the stage was refused
/// because it does not compile.
fn put_stage_reply(out: &mut Vec<u8>, query: u32, stage_idx: u32, reply: &StageReply) {
    let done = matches!(reply, StageReply::Done { .. });
    serial::put_u8(out, if done { OP_STAGE_DONE } else { OP_STAGE_FAIL });
    serial::put_u32(out, query);
    serial::put_u32(out, stage_idx);
    match reply {
        StageReply::Done { table, .. } => {
            serial::put_u8(out, u8::from(table.is_some()));
            if let Some(t) = table {
                serial::enc_table(out, t);
            }
        }
        StageReply::Refused(why) | StageReply::Failed(why) => {
            serial::put_u8(out, u8::from(matches!(reply, StageReply::Refused(_))));
            serial::put_str(out, why);
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Configuration of the coordinator of an out-of-process cluster.
#[derive(Debug, Clone)]
pub struct ProcessClusterConfig {
    /// Engine knobs shipped to every node.
    pub engine: RemoteEngineConfig,
    /// How long to keep retrying a node dial at connect time.
    pub connect_timeout: Duration,
    /// Watchdog for any single control reply; a cluster that goes silent
    /// longer than this fails the query instead of hanging forever.
    pub reply_timeout: Duration,
    /// Queries the dispatcher runs concurrently; further submissions
    /// queue (as [`ClusterConfig::max_concurrent`](crate::cluster::ClusterConfig)).
    pub max_concurrent: u16,
    /// Submissions that may wait for a dispatcher at once (as
    /// [`ClusterConfig::max_queued`](crate::cluster::ClusterConfig)).
    pub max_queued: Option<usize>,
}

impl Default for ProcessClusterConfig {
    fn default() -> Self {
        Self {
            engine: RemoteEngineConfig::default(),
            connect_timeout: Duration::from_secs(10),
            reply_timeout: Duration::from_secs(60),
            max_concurrent: 4,
            max_queued: None,
        }
    }
}

/// A control reply routed to the query that awaits it.
enum NodeReply {
    /// `StageDone` or `StageFail` of stage `stage`.
    Stage { stage: u32, reply: StageReply },
    /// What the query handed the node's multiplexer.
    RetireOk(Traffic),
    /// The node's control connection died.
    NodeDown(String),
}

/// Replies to coordinator-wide (non-query) requests.
enum CtlReply {
    /// Local rows per table name.
    LoadOk(Vec<(String, u64)>),
    /// The node's counters by metric name.
    StatsOk(Vec<(String, u64)>),
}

/// A control reply as it came off the wire.
enum Reply {
    /// For the query with this id.
    Query(u32, NodeReply),
    /// For the coordinator-wide request in flight.
    Ctl(CtlReply),
}

type ReplyChannel = (Sender<(usize, NodeReply)>, Receiver<(usize, NodeReply)>);

struct NodeConn {
    writer: Mutex<TcpStream>,
    /// Kept to force-close the connection at shutdown.
    stream: TcpStream,
}

/// Coordinator for a cluster of out-of-process [`NodeServer`]s.
///
/// Derefs to its [`Coordinator`] for everything about submitting and
/// running queries; any number of queries can be in flight, their replies
/// demultiplexed per query id.
pub struct ProcessCluster {
    coordinator: Coordinator,
    backend: Arc<RemoteBackend>,
    /// One thread per control connection, routing the node's replies.
    readers: Vec<std::thread::JoinHandle<()>>,
    table_rows: RwLock<HashMap<TpchTable, u64>>,
}

/// The control connections to the node processes, and how a stage runs
/// over them.
struct RemoteBackend {
    conns: Vec<NodeConn>,
    /// Reply channels of the queries that have shipped a stage and not
    /// retired yet, keyed by query id.
    pending: Mutex<HashMap<u32, ReplyChannel>>,
    /// Channel for Load/Stats replies (one control op at a time).
    ctl_tx: Sender<(usize, CtlReply)>,
    ctl_rx: Mutex<Receiver<(usize, CtlReply)>>,
    /// Set as soon as any node's control connection dies.
    dead: AtomicBool,
    reply_timeout: Duration,
}

impl Deref for ProcessCluster {
    type Target = Coordinator;

    fn deref(&self) -> &Coordinator {
        &self.coordinator
    }
}

impl ProcessCluster {
    /// Connect to `addrs` (one `host:port` per node process), ship the
    /// cluster topology, and wait for every node to report its data mesh
    /// up. Node `i` of the cluster is `addrs[i]`; node 0 gathers results.
    pub fn connect(addrs: &[String], cfg: ProcessClusterConfig) -> Result<Self, EngineError> {
        if addrs.is_empty() {
            return Err(EngineError::Config("need at least one node address".into()));
        }
        Coordinator::validate(cfg.max_concurrent, cfg.max_queued)?;
        let nodes = addrs.len() as u16;
        let io_err = |what: &str, e: io::Error| {
            EngineError::Execution(format!("cluster connect: {what}: {e}"))
        };

        // Dial every node and send its Join; JoinOks only come back once
        // the whole mesh is up, so all Joins must be in flight first.
        let mut streams = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut stream = dial_retry(addr, cfg.connect_timeout)
                .map_err(|e| io_err(&format!("dialing {addr}"), e))?;
            // Half of the latency invariant (module docs); the reader and
            // writer clones made below share the socket and the option.
            stream
                .set_nodelay(true)
                .map_err(|e| io_err("setting TCP_NODELAY", e))?;
            send_preamble(
                &mut stream,
                &Preamble {
                    version: WIRE_VERSION,
                    role: HandshakeRole::Control,
                    node: 0,
                    nodes,
                },
            )
            .map_err(|e| io_err("handshake", e))?;
            streams.push(stream);
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            Frame::build(|join| {
                serial::put_u8(join, OP_JOIN);
                serial::put_u16(join, i as u16);
                serial::put_u16(join, nodes);
                serial::put_u16(join, cfg.engine.workers_per_node);
                serial::put_u64(join, cfg.engine.message_capacity as u64);
                serial::put_strs(join, addrs);
            })
            .and_then(|join| join.write_to(stream))
            .map_err(|e| io_err("sending Join", e))?;
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let frame = read_frame(stream)
                .map_err(|e| io_err(&format!("waiting for node {i} to join"), e))?;
            if frame.first() != Some(&OP_JOIN_OK) {
                return Err(EngineError::Execution(format!(
                    "node {i} rejected the Join handshake"
                )));
            }
        }

        let mut conns = Vec::with_capacity(streams.len());
        let mut reader_streams = Vec::with_capacity(streams.len());
        for stream in streams {
            reader_streams.push(stream.try_clone().map_err(|e| io_err("clone", e))?);
            let writer = Mutex::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
            conns.push(NodeConn { writer, stream });
        }
        let (ctl_tx, ctl_rx) = unbounded();
        let backend = Arc::new(RemoteBackend {
            conns,
            pending: Mutex::new(HashMap::new()),
            ctl_tx,
            ctl_rx: Mutex::new(ctl_rx),
            dead: AtomicBool::new(false),
            reply_timeout: cfg.reply_timeout,
        });
        let readers = reader_streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| {
                let backend = Arc::clone(&backend);
                std::thread::Builder::new()
                    .name(format!("coord-recv-{i}"))
                    .spawn(move || coord_reader(i, stream, &backend))
                    .expect("spawn coordinator reader")
            })
            .collect();
        Ok(Self {
            coordinator: Coordinator::start(
                Arc::clone(&backend) as Arc<dyn Backend>,
                cfg.max_concurrent,
                cfg.max_queued,
            ),
            backend,
            readers,
            table_rows: RwLock::new(HashMap::new()),
        })
    }

    /// Cluster size.
    pub fn nodes(&self) -> u16 {
        self.backend.conns.len() as u16
    }

    /// Have every node generate TPC-H at `sf` and keep its chunk. Returns
    /// once all nodes report their local row counts (summed into
    /// [`table_rows`](Self::table_rows) for exact planner cardinalities).
    pub fn load_tpch(&self, sf: f64) -> Result<(), EngineError> {
        // Data generation is CPU-bound and scales with sf; be generous.
        let timeout = self.backend.reply_timeout.max(Duration::from_secs(600));
        let replies = self.backend.control_op(
            "loading TPC-H",
            timeout,
            |out| {
                serial::put_u8(out, OP_LOAD);
                serial::put_f64(out, sf);
            },
            |reply| match reply {
                CtlReply::LoadOk(rows) => Some(rows),
                CtlReply::StatsOk(_) => None,
            },
        )?;
        let mut totals: HashMap<TpchTable, u64> = HashMap::new();
        for (name, n) in replies.into_iter().flatten() {
            if let Some(kind) = TpchTable::from_name(&name) {
                *totals.entry(kind).or_insert(0) += n;
            }
        }
        *self.table_rows.write() = totals;
        Ok(())
    }

    /// Total rows of `table` across all node processes (reported by the
    /// nodes at load time).
    pub fn table_rows(&self, table: TpchTable) -> Option<u64> {
        self.table_rows.read().get(&table).copied()
    }

    /// Poll every node for its socket-mesh counters and return the
    /// cluster-wide sums: `(bytes_sent, bytes_received, messages_sent,
    /// messages_received)`.
    pub fn net_stats(&self) -> Result<(u64, u64, u64, u64), EngineError> {
        let mut snap = MetricsSnapshot::default();
        self.backend.node_stats(&mut snap)?;
        let mesh = |name: &str| snap.counter(&format!("net.mesh.{name}")).unwrap_or(0);
        Ok((
            mesh("bytes_sent"),
            mesh("bytes_received"),
            mesh("messages_sent"),
            mesh("messages_received"),
        ))
    }

    /// Shut the node processes down and disconnect. In-flight queries
    /// complete; queued ones fail with [`EngineError::ClusterDown`].
    pub fn shutdown(self) {}
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        self.coordinator.close();
        let backend = &self.backend;
        // Not `broadcast`: a dead node must not keep the ones after it
        // from hearing the Shutdown.
        if let Ok(frame) = Frame::build(|out| serial::put_u8(out, OP_SHUTDOWN)) {
            for conn in &backend.conns {
                let _ = frame.write_to(&mut *conn.writer.lock());
            }
        }
        for conn in &backend.conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Collect replies from `rx` until `nodes` of them *match* — `pick` keeps
/// a reply, or drops one that answers some other request, such as the late
/// answer to an operation that timed out — or until `timeout` has passed.
/// Returns what matched; fewer than `nodes` means the wait timed out.
fn collect_replies<R, T>(
    rx: &Receiver<(usize, R)>,
    nodes: usize,
    timeout: Duration,
    mut pick: impl FnMut(R) -> Option<T>,
) -> Vec<T> {
    let deadline = Instant::now() + timeout;
    let mut picked = Vec::with_capacity(nodes);
    while picked.len() < nodes {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((_, reply)) => picked.extend(pick(reply)),
            Err(_) => break,
        }
    }
    picked
}

impl RemoteBackend {
    /// Send one request frame, built once, to every node: one `write_all`
    /// per connection (the latency invariant of the module docs).
    fn broadcast(&self, body: impl FnOnce(&mut Vec<u8>)) -> Result<(), EngineError> {
        let frame = Frame::build(body)
            .map_err(|e| EngineError::Execution(format!("control request: {e}")))?;
        for (i, conn) in self.conns.iter().enumerate() {
            frame
                .write_to(&mut *conn.writer.lock())
                .map_err(|e| EngineError::Execution(format!("node {i} unreachable: {e}")))?;
        }
        Ok(())
    }

    /// One coordinator-wide request (`Load`, `Stats`) and its reply from
    /// every node; one such operation runs at a time.
    fn control_op<T>(
        &self,
        what: &str,
        timeout: Duration,
        request: impl FnOnce(&mut Vec<u8>),
        pick: impl FnMut(CtlReply) -> Option<T>,
    ) -> Result<Vec<T>, EngineError> {
        let ctl = self.ctl_rx.lock();
        self.broadcast(request)?;
        let replies = collect_replies(&ctl, self.conns.len(), timeout, pick);
        if replies.len() < self.conns.len() {
            return Err(EngineError::Execution(format!(
                "cluster went silent while {what}"
            )));
        }
        Ok(replies)
    }

    /// Add the nodes' [`CtlReply::StatsOk`] counters to `snap`, summed by
    /// name.
    fn node_stats(&self, snap: &mut MetricsSnapshot) -> Result<(), EngineError> {
        let replies = self.control_op(
            "reporting stats",
            self.reply_timeout,
            |out| serial::put_u8(out, OP_STATS),
            |reply| match reply {
                CtlReply::StatsOk(counters) => Some(counters),
                CtlReply::LoadOk(_) => None,
            },
        )?;
        for (name, value) in replies.into_iter().flatten() {
            snap.add_counter(&name, value);
        }
        Ok(())
    }

    /// The reply channel of a query that has shipped a stage.
    fn replies_of(&self, query: QueryId) -> Option<Receiver<(usize, NodeReply)>> {
        let pending = self.pending.lock();
        pending.get(&query.0).map(|(_, rx)| rx.clone())
    }

    /// Ship the stage to every node and wait for all their replies.
    fn ship_stage(&self, call: &StageCall<'_>) -> Result<StageOutcome, EngineError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(EngineError::Execution("a cluster node is down".into()));
        }
        let (id, stage_idx) = (call.query.0, call.stage_idx);
        let rx = {
            let mut pending = self.pending.lock();
            pending.entry(id).or_insert_with(unbounded).1.clone()
        };
        // Ship the remaining budget, not the absolute deadline: the node
        // processes' clocks are not synchronized with ours. The nodes stop
        // themselves when it runs out; polling the token below is the
        // coordinator-side backstop, and how a `cancel()` gets noticed.
        let remaining = call
            .cancel
            .deadline()
            .map(|dl| dl.saturating_duration_since(Instant::now()).as_micros() as u64);
        let params_bytes = encode_values(call.params);
        let stage_bytes = encode_stage(call.stage, remaining);
        self.broadcast(|out| {
            serial::put_u8(out, OP_STAGE);
            serial::put_u32(out, id);
            serial::put_u32(out, stage_idx);
            serial::put_u32(out, params_bytes.len() as u32);
            out.extend_from_slice(&params_bytes);
            serial::put_u32(out, stage_bytes.len() as u32);
            out.extend_from_slice(&stage_bytes);
        })?;

        let mut replies = StageReplies::new(self.conns.len());
        let mut heard = Instant::now();
        while replies.pending() {
            let (node, reply) = match rx.recv_timeout(CANCEL_POLL) {
                Ok(reply) => reply,
                Err(_) if call.cancel.should_stop().is_some() => {
                    return Err(EngineError::Execution("query stopped".into()))
                }
                Err(_) if heard.elapsed() < self.reply_timeout => continue,
                Err(_) => {
                    return Err(EngineError::Execution(format!(
                        "stage {stage_idx} of q{id} timed out after {:?}",
                        self.reply_timeout
                    )))
                }
            };
            heard = Instant::now();
            match reply {
                NodeReply::Stage { stage, reply } if stage == stage_idx => replies.add(node, reply),
                NodeReply::NodeDown(msg) => {
                    return Err(EngineError::Execution(format!(
                        "node {node} died mid-query: {msg}"
                    )));
                }
                // Stale replies of an earlier stage are dropped.
                _ => {}
            }
        }
        replies.finish(call)
    }
}

/// How often a stage wait looks at the query's cancel token (the receive
/// hub's exchange waits use the same interval).
const CANCEL_POLL: Duration = Duration::from_millis(5);

impl Backend for RemoteBackend {
    fn run_stage(
        &self,
        call: &StageCall<'_>,
        _submitted: Instant,
    ) -> Result<StageOutcome, EngineError> {
        let outcome = self.ship_stage(call);
        if outcome.is_err() {
            // A node that stopped at the deadline it was shipped reports
            // `StageFail`; by then ours has passed too. Looking at the
            // token records that, and the coordinator reports the reason.
            call.cancel.should_stop();
        }
        outcome
    }

    /// Ordered before `Retire` on every control connection.
    fn abort(&self, query: QueryId) {
        if self.replies_of(query).is_some() {
            let _ = self.broadcast(|out| {
                serial::put_u8(out, OP_ABORT);
                serial::put_u32(out, query.0);
            });
        }
    }

    /// Every node reports what the query handed its multiplexer.
    /// Best-effort: a query that never shipped a stage has nothing to
    /// release, dead nodes do not report.
    fn retire(&self, query: QueryId) -> Traffic {
        let mut sent = Traffic::default();
        let Some(rx) = self.replies_of(query) else {
            return sent;
        };
        let retire = |out: &mut Vec<u8>| {
            serial::put_u8(out, OP_RETIRE);
            serial::put_u32(out, query.0);
        };
        if !self.dead.load(Ordering::SeqCst) && self.broadcast(retire).is_ok() {
            let acks = collect_replies(&rx, self.conns.len(), self.reply_timeout, |r| match r {
                NodeReply::RetireOk(traffic) => Some(traffic),
                NodeReply::NodeDown(_) => Some(Traffic::default()),
                // Stray stage replies of an aborted query.
                NodeReply::Stage { .. } => None,
            });
            for traffic in acks {
                sent += traffic;
            }
        }
        self.pending.lock().remove(&query.0);
        sent
    }

    /// The nodes' counters, polled from them and summed by name.
    fn node_counters(&self, snap: &mut MetricsSnapshot) {
        let _ = self.node_stats(snap);
    }
}

/// Reader thread for one node's control connection: demultiplexes replies
/// to the queries awaiting them; on connection loss fails every pending
/// query instead of letting it wait forever.
fn coord_reader(node: usize, mut stream: TcpStream, backend: &RemoteBackend) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                return fail_pending(backend, node, &format!("control connection lost: {e}"));
            }
        };
        match decode_reply(&frame) {
            Ok(Reply::Query(query, reply)) => route(backend, node, query, reply),
            Ok(Reply::Ctl(reply)) => {
                let _ = backend.ctl_tx.send((node, reply));
            }
            Err(e) => {
                return fail_pending(
                    backend,
                    node,
                    &format!("protocol error from node {node}: {e}"),
                );
            }
        }
    }
}

/// Decode one reply frame. Total: a frame that is cut short, has bytes
/// left over or declares more list entries than it has bytes is an
/// `Err`, never a panic or an allocation of the declared size.
fn decode_reply(frame: &[u8]) -> Result<Reply, String> {
    let mut r = Rd::new(frame);
    let named = |r: &mut Rd| r.vec(|r| Ok((r.str()?, r.u64()?)));
    let reply = match r.u8()? {
        OP_STAGE_DONE => {
            let (query, stage) = (r.u32()?, r.u32()?);
            let table = match r.u8()? {
                0 => None,
                _ => Some(decode_table(r.take_rest())?),
            };
            let reply = StageReply::Done {
                table,
                profile: None,
            };
            Reply::Query(query, NodeReply::Stage { stage, reply })
        }
        OP_STAGE_FAIL => {
            let (query, stage) = (r.u32()?, r.u32()?);
            let reply = match (r.u8()?, r.str()?) {
                (0, why) => StageReply::Failed(why),
                (_, why) => StageReply::Refused(why),
            };
            Reply::Query(query, NodeReply::Stage { stage, reply })
        }
        OP_RETIRE_OK => {
            let query = r.u32()?;
            let (bytes, messages) = (r.u64()?, r.u64()?);
            Reply::Query(query, NodeReply::RetireOk(Traffic { bytes, messages }))
        }
        OP_LOAD_OK => Reply::Ctl(CtlReply::LoadOk(named(&mut r)?)),
        OP_STATS_OK => Reply::Ctl(CtlReply::StatsOk(named(&mut r)?)),
        op => return Err(format!("unexpected reply opcode {op}")),
    };
    r.finish()?;
    Ok(reply)
}

/// Mark the cluster dead and fail every pending query.
fn fail_pending(backend: &RemoteBackend, node: usize, msg: &str) {
    backend.dead.store(true, Ordering::SeqCst);
    for (tx, _) in backend.pending.lock().values() {
        let _ = tx.send((node, NodeReply::NodeDown(msg.to_string())));
    }
}

fn route(backend: &RemoteBackend, node: usize, query: u32, reply: NodeReply) {
    if let Some((tx, _)) = backend.pending.lock().get(&query) {
        let _ = tx.send((node, reply));
    }
}

/// Dial with retries until `timeout` (node processes may still be
/// starting when the coordinator launches).
fn dial_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::planner::{Planner, PlannerConfig};
    use crate::queries::{tpch_logical, Query};
    use crate::serve::SubmitOptions;
    use hsqp_net::socket::MAX_FRAME;

    /// TPC-H query `n` as the planner lowers it for two nodes.
    fn planned(n: u32) -> Query {
        let logical = tpch_logical(n).expect("query number");
        Planner::new(PlannerConfig::new(2))
            .plan_query(&logical)
            .expect("builder query plans")
    }

    /// Spawn `n` node servers on loopback threads and return their
    /// addresses (in-process stand-ins for `hsqp-node` child processes;
    /// the real-process path is covered by `tests/process_cluster.rs`).
    fn spawn_nodes(n: usize) -> Vec<String> {
        let mut addrs = Vec::new();
        for _ in 0..n {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            addrs.push(server.local_addr().unwrap().to_string());
            std::thread::spawn(move || {
                let _ = server.run();
            });
        }
        addrs
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
    fn every_reply_is_one_write_and_stage_done_carries_its_table() {
        let db = TpchDb::generate(0.001);
        let table = db.table(TpchTable::Nation);
        let writer = Mutex::new(CountingWrite::default());
        let done = |table| StageReply::Done {
            table,
            profile: None,
        };
        let replies = [
            done(Some(table.clone())),
            done(None),
            StageReply::Refused("does not compile".into()),
        ];
        for (stage, reply) in (2..).zip(&replies) {
            send_reply(&writer, |out| put_stage_reply(out, 7, stage, reply)).unwrap();
        }
        send_reply(&writer, |out| serial::put_u8(out, OP_JOIN_OK)).unwrap();
        let w = writer.into_inner();
        assert_eq!(w.writes, 4, "one write per control frame");

        let mut wire = &w.bytes[..];
        let frame = read_frame(&mut wire).unwrap();
        let mut r = Rd::new(&frame);
        assert_eq!(r.u8().unwrap(), OP_STAGE_DONE);
        assert_eq!((r.u32().unwrap(), r.u32().unwrap()), (7, 2));
        assert_eq!(r.u8().unwrap(), 1);
        // Encoded in place, the table is byte-identical to `encode_table`.
        let body = r.take_rest();
        assert_eq!(body, &serial::encode_table(table)[..]);
        assert_eq!(decode_table(body).unwrap().rows(), table.rows());
        let frame = read_frame(&mut wire).unwrap();
        assert_eq!(frame.len(), 1 + 4 + 4 + 1);
        assert_eq!(frame.last(), Some(&0));
        let frame = read_frame(&mut wire).unwrap();
        let mut r = Rd::new(&frame);
        assert_eq!(r.u8().unwrap(), OP_STAGE_FAIL);
        assert_eq!((r.u32().unwrap(), r.u32().unwrap()), (7, 4));
        assert_eq!(r.u8().unwrap(), 1, "refused: the stage does not compile");
        assert_eq!(r.str().unwrap(), "does not compile");
        assert_eq!(read_frame(&mut wire).unwrap(), [OP_JOIN_OK]);
        assert!(wire.is_empty());
    }

    /// A `Join` whose message capacity a frame cannot carry with its
    /// header — `u64::MAX` would overflow the pool's buffer size, 1 GiB
    /// leaves no room for the header — is refused as `InvalidData` before
    /// the node joins a mesh or builds its message pool.
    #[test]
    fn a_join_with_an_oversized_message_capacity_is_refused() {
        for capacity in [u64::MAX, MAX_FRAME as u64] {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap().to_string();
            let node = std::thread::spawn(move || server.run());
            let mut control = TcpStream::connect(&addr).unwrap();
            let preamble = Preamble {
                version: WIRE_VERSION,
                role: HandshakeRole::Control,
                node: 0,
                nodes: 1,
            };
            send_preamble(&mut control, &preamble).unwrap();
            let join = Frame::build(|join| {
                serial::put_u8(join, OP_JOIN);
                serial::put_u16(join, 0);
                serial::put_u16(join, 1);
                serial::put_u16(join, 1);
                serial::put_u64(join, capacity);
                serial::put_strs(join, &[addr]);
            });
            join.unwrap().write_to(&mut control).unwrap();
            let err = node.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{capacity}: {err}");
        }
    }

    #[test]
    fn collecting_replies_skips_answers_to_other_requests() {
        let (tx, rx) = unbounded();
        let loaded = |rows| CtlReply::LoadOk(vec![("nation".to_string(), rows)]);
        // Node 1's answer to a `Stats` that timed out is still in the
        // channel when both nodes answer the `Load` that follows it.
        let stats = vec![("exec.bloom_rows_dropped".to_string(), 9)];
        tx.send((1, CtlReply::StatsOk(stats))).unwrap();
        tx.send((0, loaded(13))).unwrap();
        tx.send((1, loaded(12))).unwrap();
        let pick_load = |reply| match reply {
            CtlReply::LoadOk(rows) => Some(rows),
            CtlReply::StatsOk(..) => None,
        };
        let loads = collect_replies(&rx, 2, Duration::from_secs(5), pick_load);
        let rows: u64 = loads.iter().flatten().map(|(_, n)| n).sum();
        assert_eq!((loads.len(), rows), (2, 25), "both nodes' rows are counted");
        assert!(
            rx.try_recv().is_err(),
            "nothing is left for the next operation"
        );

        // Short of one matching reply per node, it stops at the deadline.
        tx.send((0, loaded(13))).unwrap();
        let started = Instant::now();
        let loads = collect_replies(&rx, 2, Duration::from_millis(40), pick_load);
        assert_eq!(loads.len(), 1);
        assert!(started.elapsed() >= Duration::from_millis(40));
    }

    /// One frame of every reply the coordinator decodes, as the nodes
    /// build them.
    fn reply_frames() -> Vec<Vec<u8>> {
        let db = TpchDb::generate(0.001);
        let done = |table| StageReply::Done {
            table,
            profile: None,
        };
        let mut frames: Vec<Vec<u8>> = [
            done(Some(db.table(TpchTable::Nation).clone())),
            done(None),
            StageReply::Refused("does not compile".into()),
            StageReply::Failed("query aborted".into()),
        ]
        .iter()
        .map(|reply| {
            let mut out = Vec::new();
            put_stage_reply(&mut out, 7, 2, reply);
            out
        })
        .collect();
        let mut out = Vec::new();
        put_retire_ok(
            &mut out,
            7,
            Traffic {
                bytes: 4242,
                messages: 17,
            },
        );
        frames.push(out);
        let mut out = Vec::new();
        put_named(&mut out, OP_LOAD_OK, &[("nation", 13), ("region", 5)]);
        frames.push(out);
        let mut out = Vec::new();
        put_named(
            &mut out,
            OP_STATS_OK,
            &[
                ("exec.bloom_rows_dropped", 3),
                ("net.mesh.bytes_sent", 1 << 40),
            ],
        );
        frames.push(out);
        frames
    }

    #[test]
    fn replies_decode_whole_and_every_truncation_is_an_error() {
        let frames = reply_frames();
        for frame in &frames {
            assert!(decode_reply(frame).is_ok(), "opcode {}", frame[0]);
            for len in 0..frame.len() {
                assert!(
                    decode_reply(&frame[..len]).is_err(),
                    "opcode {} cut to {len} of {} bytes decoded",
                    frame[0],
                    frame.len()
                );
            }
        }
        // Fixed-size replies and lists are exact: a byte more is an error.
        for frame in &frames[4..] {
            let mut longer = frame.clone();
            longer.push(0);
            assert!(decode_reply(&longer).is_err(), "opcode {}", frame[0]);
        }
        match decode_reply(&frames[4]) {
            Ok(Reply::Query(7, NodeReply::RetireOk(sent))) => {
                assert_eq!((sent.bytes, sent.messages), (4242, 17));
            }
            _ => panic!("RetireOk did not decode"),
        }
        match decode_reply(&frames[6]) {
            Ok(Reply::Ctl(CtlReply::StatsOk(counters))) => assert_eq!(
                counters,
                [
                    ("exec.bloom_rows_dropped".to_string(), 3),
                    ("net.mesh.bytes_sent".to_string(), 1 << 40)
                ]
            ),
            _ => panic!("StatsOk did not decode"),
        }
    }

    #[test]
    fn a_forged_list_count_is_an_error_not_an_allocation() {
        for op in [OP_LOAD_OK, OP_STATS_OK] {
            for count in [3, 1 << 20, u32::MAX] {
                let mut frame = vec![op];
                serial::put_u32(&mut frame, count);
                serial::put_str(&mut frame, "nation");
                serial::put_u64(&mut frame, 25);
                assert!(decode_reply(&frame).is_err(), "op {op}, count {count}");
            }
        }
    }

    #[test]
    fn invalid_plans_are_planner_errors_not_node_panics() {
        use crate::expr::{col, param};
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        let dangling = pc.run_plan(&Plan::temp_scan("nope").gather());
        assert!(
            matches!(dangling, Err(EngineError::Planner(_))),
            "{dangling:?}"
        );
        let unbound = Plan::scan(TpchTable::Nation)
            .filter(col("n_nationkey").gt(param(0)))
            .gather();
        let unbound = pc.run_plan(&unbound);
        assert!(
            matches!(unbound, Err(EngineError::Planner(_))),
            "{unbound:?}"
        );
        let metrics = pc.metrics();
        assert_eq!(metrics.counter("queries.failed"), Some(2));
        assert_eq!(metrics.counter("stages.executed"), Some(0));
        pc.shutdown();
    }

    #[test]
    fn a_stage_round_trip_never_waits_out_a_delayed_ack() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        // The cheapest single-stage query there is: whatever it costs is
        // the control plane's round trips (Stage, then Retire).
        let q = Query::single(
            0,
            Plan::scan_cols(TpchTable::Region, &["r_regionkey"]).gather(),
        );
        let mut ms: Vec<f64> = (0..12)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(pc.run(&q).unwrap().table.rows(), 5);
                started.elapsed().as_secs_f64() * 1e3
            })
            .skip(3) // warm-ups
            .collect();
        pc.shutdown();
        ms.sort_by(f64::total_cmp);
        // The median, not the best: a fresh connection is in TCP's
        // quick-ACK phase, which hides the stall from the first few round
        // trips. With frames written in two pieces and Nagle left on (the
        // state before the invariant) the median is ≈ 180 ms.
        let median = ms[ms.len() / 2];
        assert!(
            median < 40.0,
            "median of 9 single-stage queries is {median:.1} ms: {ms:?}"
        );
    }

    /// Both clusters count a query's traffic where its node hands it to
    /// the multiplexer, so with one worker per node (which makes message
    /// boundaries deterministic) and the same message size they count the
    /// same bytes and messages.
    #[test]
    fn two_process_cluster_matches_in_process() {
        let engine = RemoteEngineConfig {
            workers_per_node: 1,
            message_capacity: 32 * 1024,
        };
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(
            &addrs,
            ProcessClusterConfig {
                engine,
                ..ProcessClusterConfig::default()
            },
        )
        .unwrap();
        pc.load_tpch(0.001).unwrap();
        assert!(pc.table_rows(TpchTable::Lineitem).unwrap() > 1000);

        let local = crate::cluster::Cluster::start(ClusterConfig {
            workers_per_node: engine.workers_per_node,
            message_capacity: engine.message_capacity,
            ..ClusterConfig::quick(2)
        })
        .unwrap();
        local.load_tpch(0.001).unwrap();

        for qn in [1u32, 3, 6, 11] {
            let q = planned(qn);
            let remote = pc.run(&q).unwrap();
            let reference = local.run(&q).unwrap();
            assert_eq!(
                remote.table.rows(),
                reference.table.rows(),
                "Q{qn} row count"
            );
            assert!(reference.messages_sent > 0, "Q{qn} sends nothing");
            assert_eq!(
                (remote.bytes_shuffled, remote.messages_sent),
                (reference.bytes_shuffled, reference.messages_sent),
                "Q{qn} traffic (bytes, messages)"
            );
        }
        local.shutdown();
        pc.shutdown();
    }

    #[test]
    fn remote_failure_surfaces_as_error_not_hang() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        // A plan naming a nonexistent column panics in the node's stage
        // thread; the abort protocol must carry the failure back.
        let bad = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["no_such_column"])
                .repartition(&["no_such_column"])
                .gather(),
        );
        match pc.run(&bad) {
            Err(EngineError::Execution(msg)) => {
                assert!(
                    msg.contains("failed") || msg.contains("panicked"),
                    "unexpected message: {msg}"
                );
            }
            other => panic!("expected contained failure, got {other:?}"),
        }
        // The cluster survives for the next query.
        let ok = planned(6);
        assert!(pc.run(&ok).is_ok());
        pc.shutdown();
    }

    #[test]
    fn remote_deadline_cancels_instead_of_wedging() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.01).unwrap();
        // A heavy multi-join with a deadline far below its runtime: the
        // nodes stop at a morsel boundary and the coordinator returns the
        // typed error instead of wedging on the stage replies.
        let q = planned(9);
        let opts = SubmitOptions::default().with_deadline(Duration::from_millis(2));
        match pc.run_with(&q, &opts) {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The cluster survives for the next query.
        let ok = planned(6);
        let r = pc.run(&ok).unwrap();
        assert!(r.table.rows() > 0);
        pc.shutdown();
    }

    #[test]
    fn query_net_stats_are_folded_from_node_reports() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        let q = planned(3);
        let r = pc.run(&q).unwrap();
        assert!(r.bytes_shuffled > 0, "a join at 2 nodes must shuffle");
        assert!(r.messages_sent > 0);
        pc.shutdown();
    }
}
