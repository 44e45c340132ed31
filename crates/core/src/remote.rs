//! Out-of-process clusters: the `hsqp-node` server, and the coordinator's
//! connection to it.
//!
//! Everything else in the engine simulates a cluster inside one process;
//! this module runs the same SPMD plans across *real OS processes*
//! connected by real TCP sockets. A [`NodeServer`] is one database server:
//! it listens on a port, joins the mesh ([`SocketTransport`]), starts the
//! same node a simulated cluster runs (`start_node`), generates its
//! share of TPC-H locally, and executes its share of every stage shipped
//! to it (`execute_stage`). A [`ProcessCluster`] is the set-up and load
//! shell on the other side: it connects to the nodes, has them load data,
//! and owns a [`Coordinator`] — to which it derefs, so `submit`, `run`,
//! `configure_tenant`, `metrics`, … are the coordinator's, the same code
//! that drives a simulated cluster ([`crate::coordinator`]). What is
//! particular to this cluster is its `Backend`: a stage is serialized
//! ([`crate::serial`]) and shipped to every node over the control
//! protocol below, and node 0's reply carries the gathered table — the
//! paper's coordinator/worker split, §4.
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
//! | `Stage` (query, stage index, params, serialized stage) | `StageDone` (rows, node 0 attaches the table) or `StageFail` |
//! | `Retire` (query) | `RetireOk` (per-query bytes/messages) |
//! | `Abort` (query) | — |
//! | `Stats` | `StatsOk` (node socket and multiplexer counters) |
//! | `Shutdown` | — (the node process exits) |
//!
//! Per-query network counters are read at *retire* time: the coordinator
//! only retires once it holds the final gathered result, which implies
//! every node's sends for the query have left its multiplexer and been
//! recorded.
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
//! A stage panic on one node aborts the query on its own receive hub,
//! broadcasts a [`FLAG_ABORT`] frame to every peer (unblocking their
//! mid-exchange consumers), and reports `StageFail`. A node *process*
//! dying surfaces twice: peers' socket readers emit `PeerGone` (the
//! multiplexer kills every in-flight query on that hub) and the
//! coordinator's control reader fails all pending queries — either way
//! the coordinator returns [`EngineError::Execution`] instead of hanging.
//! A cancelled query or one past its deadline is noticed by the stage
//! wait, which polls the query's token; the coordinator then sends `Abort`
//! and `Retire`, and the handle resolves to the typed error.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use hsqp_net::socket::{
    read_frame, read_preamble, send_preamble, Frame, HandshakeRole, Preamble, WIRE_VERSION,
};
use hsqp_net::{
    Fabric, FabricConfig, NetStats, NodeId, QueryId, QueryNetStats, QueryStatsRegistry,
    SocketConfig, SocketTransport,
};
use hsqp_storage::placement::chunk_split;
use hsqp_storage::{Table, Value};
use hsqp_tpch::{TpchDb, TpchTable};

use crate::cluster::ClusterConfig;
use crate::coordinator::{Backend, Coordinator, StageCall, StageOutcome};
use crate::error::EngineError;
use crate::exchange::{encode_header, MuxCmd, FLAG_ABORT, HEADER_LEN};
use crate::exec::{execute_stage, start_node, NodeCtx};
use crate::metrics::MetricsSnapshot;
use crate::queries::QueryStage;
use crate::serial::{
    self, decode_stage_tagged, decode_table, decode_values, encode_stage_tagged, encode_values, Rd,
};
use crate::serve::{CancelToken, TenantConfig, TenantId};

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
    /// NUMA sockets modeled per node (receive-queue fan-out).
    pub sockets: u16,
    /// Tuple bytes per exchange message.
    pub message_capacity: usize,
}

impl Default for RemoteEngineConfig {
    fn default() -> Self {
        Self {
            workers_per_node: 2,
            sockets: 2,
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

/// One in-flight query's dedicated stage-execution worker on a node.
///
/// Stages of *different* queries must run concurrently (two queries'
/// exchange waves interleave across the cluster; serializing them on one
/// node deadlocks the other nodes), so each query gets its own thread fed
/// through a channel that preserves stage order within the query.
struct QueryWorker {
    jobs: Sender<StageJob>,
    handle: std::thread::JoinHandle<()>,
    stats: Arc<QueryNetStats>,
    /// Tripped by a coordinator `Abort` so in-flight morsel loops stop
    /// cooperatively instead of running the stage to completion.
    cancel: CancelToken,
}

struct StageJob {
    stage_idx: u32,
    stage: QueryStage,
    params: Vec<Value>,
    /// Remaining deadline budget shipped by the coordinator, microseconds
    /// measured at encode time.
    deadline_us: Option<u64>,
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
                sockets: r.u16()?,
                message_capacity: r.u64()? as usize,
                numa_cost_ns: 0.0,
                ..ClusterConfig::paper(nodes)
            };
            Ok((node, cfg, r.strs()?))
        };
        let (node, cfg, addrs) =
            parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let nodes = cfg.nodes;
        if node >= nodes || addrs.len() != nodes as usize || cfg.validate().is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "inconsistent Join: node {node} of {nodes}, {} addrs",
                    addrs.len()
                ),
            ));
        }

        eprintln!("[node {node}] joining {nodes}-node mesh");
        let transport = SocketTransport::connect_mesh_pending(
            NodeId(node),
            &addrs,
            &self.listener,
            &self.socket_cfg,
            pending,
        )?;
        let net_stats = Arc::clone(transport.stats());

        let query_stats = Arc::new(QueryStatsRegistry::new());
        let (ctx, mux_handle) = start_node(
            NodeId(node),
            &cfg,
            Arc::new(Fabric::new(nodes, FabricConfig::default())),
            Box::new(transport),
            None,
            Arc::clone(&query_stats),
        );

        let writer = Arc::new(Mutex::new(control.try_clone()?));
        send_reply(&writer, |out| serial::put_u8(out, OP_JOIN_OK))?;
        eprintln!("[node {node}] mesh up, serving");

        let mut workers_by_query: HashMap<u32, QueryWorker> = HashMap::new();
        loop {
            let frame = match read_frame(&mut control) {
                Ok(f) => f,
                Err(_) => {
                    eprintln!("[node {node}] coordinator disconnected, exiting");
                    break;
                }
            };
            match self.handle_frame(
                &frame,
                &ctx,
                &writer,
                &query_stats,
                &net_stats,
                &mut workers_by_query,
            ) {
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

        // Unblock any stage thread still waiting mid-exchange, then join.
        ctx.hub.abort_all("node shutting down");
        for (_, w) in workers_by_query.drain() {
            drop(w.jobs);
            let _ = w.handle.join();
        }
        let _ = ctx.to_mux.send(MuxCmd::Shutdown);
        let _ = mux_handle.join();
        Ok(())
    }

    /// Dispatch one control frame. `Ok(false)` means shutdown.
    fn handle_frame(
        &self,
        frame: &[u8],
        ctx: &Arc<NodeCtx>,
        writer: &Arc<Mutex<TcpStream>>,
        query_stats: &Arc<QueryStatsRegistry>,
        net_stats: &Arc<NetStats>,
        workers: &mut HashMap<u32, QueryWorker>,
    ) -> Result<bool, String> {
        let mut r = Rd::new(frame);
        match r.u8()? {
            OP_LOAD => {
                let sf = r.f64()?;
                let db = TpchDb::generate(sf);
                let mut rows: Vec<(TpchTable, u64)> = Vec::new();
                for (kind, table) in db.into_tables() {
                    let part = chunk_split(&table, ctx.nodes as usize)
                        .into_iter()
                        .nth(ctx.node.idx())
                        .expect("own chunk");
                    rows.push((kind, part.rows() as u64));
                    ctx.tables.write().insert(kind, Arc::new(part));
                }
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_LOAD_OK);
                    serial::put_u32(out, rows.len() as u32);
                    for (kind, n) in &rows {
                        serial::put_str(out, kind.name());
                        serial::put_u64(out, *n);
                    }
                })
                .map_err(|e| e.to_string())?;
            }
            OP_STAGE => {
                let query = r.u32()?;
                let stage_idx = r.u32()?;
                let params_len = r.u32()? as usize;
                let params = decode_values(r.take(params_len)?)?;
                let stage_len = r.u32()? as usize;
                let envelope = decode_stage_tagged(r.take(stage_len)?)?;
                let worker = workers.entry(query).or_insert_with(|| {
                    spawn_query_worker(
                        Arc::clone(ctx),
                        QueryId(query),
                        Arc::clone(writer),
                        query_stats.register(QueryId(query)),
                    )
                });
                worker
                    .jobs
                    .send(StageJob {
                        stage_idx,
                        stage: envelope.stage,
                        params,
                        deadline_us: envelope.deadline_us,
                    })
                    .map_err(|_| format!("query {query} worker is gone"))?;
            }
            OP_RETIRE => {
                let query = r.u32()?;
                // Join the stage thread first: the coordinator only retires
                // once it holds the query's result, so the thread is idle —
                // but its last sends must be counted before we read.
                let (bytes, msgs) = match workers.remove(&query) {
                    Some(w) => {
                        drop(w.jobs);
                        let _ = w.handle.join();
                        (w.stats.bytes_sent(), w.stats.messages_sent())
                    }
                    None => (0, 0),
                };
                ctx.temps.write().remove(&QueryId(query));
                ctx.hub.finish_query(QueryId(query));
                query_stats.retire(QueryId(query));
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_RETIRE_OK);
                    serial::put_u32(out, query);
                    serial::put_u64(out, bytes);
                    serial::put_u64(out, msgs);
                })
                .map_err(|e| e.to_string())?;
            }
            OP_ABORT => {
                let query = r.u32()?;
                // Trip the cooperative token first so running morsel loops
                // stop, then unwedge consumers blocked on the hub.
                if let Some(w) = workers.get(&query) {
                    w.cancel.cancel();
                }
                ctx.hub.abort(QueryId(query), "aborted by the coordinator");
            }
            OP_STATS => {
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_STATS_OK);
                    serial::put_u64(out, net_stats.bytes_sent());
                    serial::put_u64(out, net_stats.bytes_received());
                    serial::put_u64(out, net_stats.messages_sent());
                    serial::put_u64(out, net_stats.messages_received());
                    serial::put_u64(out, ctx.to_mux.wakeups());
                    serial::put_u64(out, ctx.to_mux.empty_wakeups());
                })
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

/// Body of a `StageDone` reply. The gathered result is encoded straight
/// into the frame buffer, not into a temporary that is then copied.
fn put_stage_done(out: &mut Vec<u8>, query: u32, stage_idx: u32, rows: u64, table: Option<&Table>) {
    serial::put_u8(out, OP_STAGE_DONE);
    serial::put_u32(out, query);
    serial::put_u32(out, stage_idx);
    serial::put_u64(out, rows);
    match table {
        Some(t) => {
            serial::put_u8(out, 1);
            serial::enc_table(out, t);
        }
        None => serial::put_u8(out, 0),
    }
}

/// Spawn the per-query stage-execution thread on a node.
fn spawn_query_worker(
    ctx: Arc<NodeCtx>,
    query: QueryId,
    writer: Arc<Mutex<TcpStream>>,
    stats: Arc<QueryNetStats>,
) -> QueryWorker {
    let (jobs, rx): (Sender<StageJob>, Receiver<StageJob>) = unbounded();
    let cancel = CancelToken::new();
    let token = cancel.clone();
    let handle = std::thread::Builder::new()
        .name(format!("query-{}", query.0))
        .spawn(move || run_query_worker(&ctx, query, &rx, &writer, &token))
        .expect("spawn query worker");
    QueryWorker {
        jobs,
        handle,
        stats,
        cancel,
    }
}

fn run_query_worker(
    ctx: &NodeCtx,
    query: QueryId,
    rx: &Receiver<StageJob>,
    writer: &Arc<Mutex<TcpStream>>,
    cancel: &CancelToken,
) {
    while let Ok(job) = rx.recv() {
        let outcome = if ctx.hub.is_aborted(query) {
            Err("query aborted".to_string())
        } else {
            // The per-stage token shares the coordinator-abort tripwire and
            // adds this stage's remaining deadline budget, so morsel loops
            // stop within one morsel of either signal.
            let stage_cancel = cancel.child_with_deadline(
                job.deadline_us
                    .map(|us| Instant::now() + Duration::from_micros(us)),
            );
            let call = StageCall {
                query,
                stage_idx: job.stage_idx,
                stage: &job.stage,
                params: &job.params,
                cancel: &stage_cancel,
            };
            match ctx.compile(query, &job.stage.plan, &job.params) {
                Ok(programs) => execute_stage(ctx, &call, &programs, None),
                Err(e) => Err(e.to_string()),
            }
        };
        match outcome {
            Ok((rows, table)) => {
                let r = send_reply(writer, |out| {
                    put_stage_done(out, query.0, job.stage_idx, rows, table.as_ref());
                });
                if r.is_err() {
                    return; // coordinator gone
                }
            }
            Err(msg) => {
                // The cross-node abort protocol: unblock local consumers,
                // then tell every peer so their blocked pops panic out
                // instead of waiting for last-markers that will never come.
                ctx.hub
                    .abort(query, &format!("node {} failed: {msg}", ctx.node.0));
                let mut frame = Vec::with_capacity(HEADER_LEN);
                encode_header(query, 0, FLAG_ABORT, 0, 0, &mut frame);
                let payload = Bytes::from(frame);
                for t in 0..ctx.nodes {
                    if t != ctx.node.0 {
                        let _ = ctx.to_mux.send(MuxCmd::Send {
                            target: NodeId(t),
                            payload: payload.clone(),
                        });
                    }
                }
                let r = send_reply(writer, |out| {
                    serial::put_u8(out, OP_STAGE_FAIL);
                    serial::put_u32(out, query.0);
                    serial::put_u32(out, job.stage_idx);
                    serial::put_str(out, &msg);
                });
                if r.is_err() {
                    return;
                }
            }
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
    /// Pre-registered tenants with their scheduling weights and admission
    /// caps; others self-register with [`TenantConfig::default`].
    pub tenants: Vec<(String, TenantConfig)>,
}

impl Default for ProcessClusterConfig {
    fn default() -> Self {
        Self {
            engine: RemoteEngineConfig::default(),
            connect_timeout: Duration::from_secs(10),
            reply_timeout: Duration::from_secs(60),
            max_concurrent: 4,
            tenants: Vec::new(),
        }
    }
}

/// A control reply routed to the query that awaits it.
enum NodeReply {
    StageDone {
        stage: u32,
        /// The node's local result cardinality for the stage.
        rows: u64,
        table: Option<Table>,
    },
    StageFail {
        stage: u32,
        msg: String,
    },
    RetireOk {
        bytes: u64,
        msgs: u64,
    },
    /// The node's control connection died.
    NodeDown(String),
}

/// Replies to coordinator-wide (non-query) requests.
enum CtlReply {
    LoadOk(Vec<(String, u64)>),
    /// Bytes sent, bytes received, messages sent, messages received; then
    /// the multiplexer's wake-ups and how many of them found nothing.
    StatsOk([u64; 6]),
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
        Coordinator::validate(cfg.max_concurrent, &cfg.tenants)?;
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
                serial::put_u16(join, cfg.engine.sockets);
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
                Arc::new(QueryStatsRegistry::new()),
                cfg.max_concurrent,
                &cfg.tenants,
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
                CtlReply::StatsOk(..) => None,
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
        let [bs, br, ms, mr, ..] = self.backend.node_stats()?;
        Ok((bs, br, ms, mr))
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

    /// The nodes' [`CtlReply::StatsOk`] counters, summed.
    fn node_stats(&self) -> Result<[u64; 6], EngineError> {
        let replies = self.control_op(
            "reporting stats",
            self.reply_timeout,
            |out| serial::put_u8(out, OP_STATS),
            |reply| match reply {
                CtlReply::StatsOk(counters) => Some(counters),
                CtlReply::LoadOk(_) => None,
            },
        )?;
        Ok(replies.into_iter().fold([0; 6], |mut sum, node| {
            sum.iter_mut().zip(node).for_each(|(s, n)| *s += n);
            sum
        }))
    }

    /// The reply channel of a query that has shipped a stage.
    fn replies_of(&self, query: QueryId) -> Option<Receiver<(usize, NodeReply)>> {
        let pending = self.pending.lock();
        pending.get(&query.0).map(|(_, rx)| rx.clone())
    }

    /// Ship the stage to every node and wait for all their `StageDone`s.
    fn ship_stage(
        &self,
        call: &StageCall<'_>,
        tenant: &TenantId,
    ) -> Result<StageOutcome, EngineError> {
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
        let stage_bytes = encode_stage_tagged(call.stage, Some(tenant.as_str()), remaining);
        self.broadcast(|out| {
            serial::put_u8(out, OP_STAGE);
            serial::put_u32(out, id);
            serial::put_u32(out, stage_idx);
            serial::put_u32(out, params_bytes.len() as u32);
            out.extend_from_slice(&params_bytes);
            serial::put_u32(out, stage_bytes.len() as u32);
            out.extend_from_slice(&stage_bytes);
        })?;

        let mut node_rows: Vec<Option<u64>> = vec![None; self.conns.len()];
        let mut node0 = None;
        let mut heard = Instant::now();
        while node_rows.contains(&None) {
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
                NodeReply::StageDone { stage, rows, table } if stage == stage_idx => {
                    node_rows[node] = Some(rows);
                    if node == 0 {
                        node0 = table;
                    }
                }
                NodeReply::StageFail { stage, msg } if stage == stage_idx => {
                    return Err(EngineError::Execution(format!(
                        "node {node} failed stage {stage_idx}: {msg}"
                    )));
                }
                NodeReply::NodeDown(msg) => {
                    return Err(EngineError::Execution(format!(
                        "node {node} died mid-query: {msg}"
                    )));
                }
                // Stale replies of an earlier stage are dropped.
                _ => {}
            }
        }
        Ok(StageOutcome {
            node_rows: node_rows.into_iter().flatten().collect(),
            node0,
            profile: None,
        })
    }
}

/// How often a stage wait looks at the query's cancel token (the receive
/// hub's exchange waits use the same interval).
const CANCEL_POLL: Duration = Duration::from_millis(5);

impl Backend for RemoteBackend {
    fn run_stage(
        &self,
        call: &StageCall<'_>,
        tenant: &TenantId,
        _submitted: Instant,
    ) -> Result<StageOutcome, EngineError> {
        let outcome = self.ship_stage(call, tenant);
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

    /// Per-query network counters are read at retire time: every node
    /// reports what it sent for the query. Best-effort: a query that never
    /// shipped a stage has nothing to release, dead nodes do not report.
    fn retire(&self, query: QueryId, stats: &QueryNetStats) {
        let Some(rx) = self.replies_of(query) else {
            return;
        };
        let retire = |out: &mut Vec<u8>| {
            serial::put_u8(out, OP_RETIRE);
            serial::put_u32(out, query.0);
        };
        if !self.dead.load(Ordering::SeqCst) && self.broadcast(retire).is_ok() {
            let acks = collect_replies(&rx, self.conns.len(), self.reply_timeout, |r| match r {
                NodeReply::RetireOk { bytes, msgs } => Some((bytes, msgs)),
                NodeReply::NodeDown(_) => Some((0, 0)),
                // Stray stage replies of an aborted query.
                _ => None,
            });
            for (bytes, msgs) in acks {
                stats.add(bytes, msgs);
            }
        }
        self.pending.lock().remove(&query.0);
    }

    /// The socket mesh's totals and the multiplexers' wake-up counts,
    /// polled from the nodes.
    fn net_counters(&self, snap: &mut MetricsSnapshot) {
        const NAMES: [&str; 6] = [
            "net.mesh.bytes_sent",
            "net.mesh.bytes_received",
            "net.mesh.messages_sent",
            "net.mesh.messages_received",
            "exchange.mux.wakeups",
            "exchange.mux.empty_wakeups",
        ];
        if let Ok(counters) = self.node_stats() {
            for (name, value) in NAMES.iter().zip(counters) {
                snap.push_counter(name, value);
            }
        }
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
        let mut r = Rd::new(&frame);
        let routed: Result<(), String> = (|| {
            match r.u8()? {
                OP_STAGE_DONE => {
                    let query = r.u32()?;
                    let stage = r.u32()?;
                    let rows = r.u64()?;
                    let table = match r.u8()? {
                        0 => None,
                        _ => Some(decode_table(r.take_rest())?),
                    };
                    route(
                        backend,
                        node,
                        query,
                        NodeReply::StageDone { stage, rows, table },
                    );
                }
                OP_STAGE_FAIL => {
                    let query = r.u32()?;
                    let stage = r.u32()?;
                    let msg = r.str()?;
                    route(backend, node, query, NodeReply::StageFail { stage, msg });
                }
                OP_RETIRE_OK => {
                    let query = r.u32()?;
                    let bytes = r.u64()?;
                    let msgs = r.u64()?;
                    route(backend, node, query, NodeReply::RetireOk { bytes, msgs });
                }
                OP_LOAD_OK => {
                    let count = r.u32()? as usize;
                    let mut rows = Vec::with_capacity(count);
                    for _ in 0..count {
                        let name = r.str()?;
                        let n = r.u64()?;
                        rows.push((name, n));
                    }
                    let _ = backend.ctl_tx.send((node, CtlReply::LoadOk(rows)));
                }
                OP_STATS_OK => {
                    let mut counters = [0; 6];
                    for c in &mut counters {
                        *c = r.u64()?;
                    }
                    let _ = backend.ctl_tx.send((node, CtlReply::StatsOk(counters)));
                }
                op => return Err(format!("unexpected reply opcode {op}")),
            }
            Ok(())
        })();
        if let Err(e) = routed {
            return fail_pending(
                backend,
                node,
                &format!("protocol error from node {node}: {e}"),
            );
        }
    }
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
        send_reply(&writer, |out| put_stage_done(out, 7, 2, 25, Some(table))).unwrap();
        send_reply(&writer, |out| put_stage_done(out, 7, 3, 0, None)).unwrap();
        send_reply(&writer, |out| serial::put_u8(out, OP_JOIN_OK)).unwrap();
        let w = writer.into_inner();
        assert_eq!(w.writes, 3, "one write per control frame");

        let mut wire = &w.bytes[..];
        let frame = read_frame(&mut wire).unwrap();
        let mut r = Rd::new(&frame);
        assert_eq!(r.u8().unwrap(), OP_STAGE_DONE);
        assert_eq!((r.u32().unwrap(), r.u32().unwrap()), (7, 2));
        assert_eq!((r.u64().unwrap(), r.u8().unwrap()), (25, 1));
        // Encoded in place, the table is byte-identical to `encode_table`.
        let body = r.take_rest();
        assert_eq!(body, &serial::encode_table(table)[..]);
        assert_eq!(decode_table(body).unwrap().rows(), table.rows());
        let frame = read_frame(&mut wire).unwrap();
        assert_eq!(frame.len(), 1 + 4 + 4 + 8 + 1);
        assert_eq!(frame.last(), Some(&0));
        assert_eq!(read_frame(&mut wire).unwrap(), [OP_JOIN_OK]);
        assert!(wire.is_empty());
    }

    #[test]
    fn collecting_replies_skips_answers_to_other_requests() {
        let (tx, rx) = unbounded();
        let loaded = |rows| CtlReply::LoadOk(vec![("nation".to_string(), rows)]);
        // Node 1's answer to a `Stats` that timed out is still in the
        // channel when both nodes answer the `Load` that follows it.
        tx.send((1, CtlReply::StatsOk([1, 2, 3, 4, 5, 6]))).unwrap();
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

    #[test]
    fn two_process_cluster_matches_in_process() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        assert!(pc.table_rows(TpchTable::Lineitem).unwrap() > 1000);

        let local =
            crate::cluster::Cluster::start(crate::cluster::ClusterConfig::quick(2)).unwrap();
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
            if qn != 1 {
                // Q1 is single-node-gatherable only at larger SF; the join
                // queries must actually shuffle.
                continue;
            }
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
        let opts = SubmitOptions::tenant("gold").with_deadline(Duration::from_millis(2));
        match pc.run_with(&q, &opts) {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The cluster survives for the next query, and the tenant tag
        // rides along on the successful path too.
        let ok = planned(6);
        let r = pc.run_with(&ok, &SubmitOptions::tenant("gold")).unwrap();
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
