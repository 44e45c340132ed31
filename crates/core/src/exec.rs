//! One node: its start-up, and SPMD execution of its share of a stage.
//!
//! Every node of the cluster executes the same plan ([`NodeExec::execute`]);
//! [`Plan::Exchange`] nodes are where tuples cross server boundaries. The
//! executor materializes operator results per pipeline stage and uses the
//! node's [`MorselDriver`] for intra-node parallelism, so work stealing
//! applies to scans, probes, aggregation, partitioning, and deserialization
//! alike.
//!
//! A node is the same thing in a simulated cluster and in an `hsqp-node`
//! process: `start_node` builds it around whichever transport endpoint it
//! is given, and both clusters drive it through the same calls. A query's
//! stages run in order on its *query worker*, a thread per node that the
//! first stage starts (`NodeCtx::stage`); the worker compiles each stage,
//! runs it, and hands the reply to whoever shipped it. A stage that fails
//! on one node fails on every node: the worker aborts the query on its own
//! receive hub and sends each peer a [`FLAG_ABORT`] frame. The coordinator
//! then aborts (`NodeCtx::abort`) and retires (`NodeCtx::retire`) the
//! query. The worker also keeps the query's traffic from this node: every
//! message its exchanges, last-markers and abort frames hand the
//! multiplexer is counted there, once, and `retire` returns the totals.
//!
//! **The exchange.** There is one message loop (`exchange_loop`): every
//! worker of the node alternates between partitioning and serializing a
//! morsel of the exchange's input and landing whatever messages have
//! arrived meanwhile, and once the input is gone blocks on the receive
//! queues until every node's last-marker is in — this node's own
//! included, sent by whichever of its workers runs out of input last.
//! What *landing* means is the consumer's choice, and there are two:
//!
//! * **Keep it** (`collect_exchange`; join sides, sort and map inputs,
//!   stage roots): each worker decodes onto destination columns sized up
//!   front for its share, and the workers' columns become the result.
//! * **Hand it on** (`Landing`; an aggregate directly above the exchange,
//!   whatever its kind and phase): each worker decodes into one batch that
//!   it clears and refills, and passes the batch to the operator above
//!   through [`BatchSource`] — the interface `aggregate_with` also reads a
//!   table's morsels through, so there is one aggregation loop and no
//!   second exchange path. The exchange's result is never a table; the
//!   time spent in the sink is recorded as the aggregate's, not the
//!   exchange's.
//!
//! Message buffers belong to the node's [`MessagePool`] throughout; see
//! [`crate::exchange`] for who holds them when.
//!
//! **Join filters.** A hash join whose plan filters one side runs the other
//! side first and then a *summary round* (`summary_round`): one broadcast
//! exchange in which every node sends a Bloom filter over its keys of that
//! side. The filtered side's repartition then sends only the rows whose
//! key may be in the filter of the node the row is headed for.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use hsqp_net::{Fabric, NetScheduler, NodeId, QueryId, Transport as NetTransport};
use hsqp_numa::{AllocPolicy, CostModel, Topology};
use hsqp_storage::placement::{canon_i64_bytes, crc32_finish, crc32_update, CRC32_INIT};
use hsqp_storage::{decimal_to_f64, Column, DataType, Field, Schema, Table, Value};
use hsqp_tpch::TpchTable;

use crate::cluster::{ClusterConfig, EngineKind};
use crate::exchange::{
    encode_header, spawn_multiplexer, MessagePool, MessageWriter, MuxCmd, MuxConfig, MuxSender,
    Polled, RecvHub, Traffic, TrafficCounter, FLAG_ABORT, FLAG_LAST, HEADER_LEN,
};
use crate::expr::Expr;
use crate::local::{MorselDriver, WorkerCtx};
use crate::ops::{
    aggregate_with, canon_f64_bits, hash_keys, join_key_cols, key_valid, probe_join, sort_table,
    BatchSource, BloomFilter, JoinTable, Morsels,
};
use crate::plan::{AggPhase, AggSpec, ExchangeKind, JoinSide, MapExpr, Plan};
use crate::profile::{plan_node_count, NodeRecorder};
use crate::queries::{QueryStage, StageRole};
use crate::serve::CancelToken;
use crate::vm::{
    compile_stage_with, vm_to_dtype, BoundProgram, CompiledStage, ExprProgram, OpPrograms,
};
use crate::wire::{RowDeserializer, RowSerializer, Rows};

/// Shared, long-lived state of one simulated server node.
pub struct NodeCtx {
    /// This node's id.
    pub node: NodeId,
    /// Cluster size.
    pub nodes: u16,
    /// Worker pool configuration.
    pub driver: MorselDriver,
    /// NUMA topology of this server.
    pub topology: Arc<Topology>,
    /// Message-buffer allocation policy (Figure 9).
    pub alloc_policy: AllocPolicy,
    /// `Some(t)` switches the node into classic-exchange mode with `t`
    /// parallel units.
    pub classic_units: Option<u16>,
    /// Tuple bytes per network message (the paper uses 512 KB).
    pub message_capacity: usize,
    /// NUMA-aware registered-buffer pool.
    pub pool: Arc<MessagePool>,
    /// Receive routing point shared with the multiplexer.
    pub hub: Arc<RecvHub>,
    /// Command channel to the multiplexer thread, with its bell.
    pub to_mux: MuxSender,
    /// Loaded base relations (this node's placement share).
    pub tables: RwLock<HashMap<TpchTable, Arc<Table>>>,
    /// Temporary relations materialized by in-flight queries' stages,
    /// namespaced per query so overlapping multi-stage queries cannot read
    /// (or clobber) each other's temps. The query worker inserts after each
    /// `Materialize` stage, and retiring the query removes the whole
    /// namespace, whether it finished, failed, or was cancelled.
    pub temps: RwLock<HashMap<QueryId, HashMap<String, Arc<Table>>>>,
    /// Rows deserialized per worker across all exchanges (skew diagnosis:
    /// with work stealing the loads balance; with static classic-exchange
    /// ownership a skewed partition overloads one unit).
    pub consume_loads: Mutex<Vec<u64>>,
    /// The network fabric (statistics).
    pub fabric: Arc<Fabric>,
    /// The query workers of the queries that have run a stage here and not
    /// retired yet.
    workers: Mutex<HashMap<QueryId, QueryWorker>>,
    /// Query workers started since the node started.
    workers_spawned: AtomicU64,
    /// Aggregates run with a join's probe keys as their groups, and the
    /// input rows those keys dropped.
    aggs_seeded: AtomicU64,
    agg_rows_dropped: AtomicU64,
    /// Rows this node's repartitions did not send because a join's filter
    /// holds no key of theirs, and the bytes its summary rounds sent.
    bloom_rows_dropped: AtomicU64,
    bloom_bytes: AtomicU64,
    /// The multiplexer thread, joined by [`stop`](Self::stop).
    mux: Mutex<Option<JoinHandle<()>>>,
}

/// One query's stage-execution thread on a node. Stages of different
/// queries run side by side (two queries' exchange waves interleave across
/// the cluster; running them one after the other on one node would
/// deadlock the others), those of one query in order.
struct QueryWorker {
    jobs: mpsc::Sender<StageJob>,
    handle: JoinHandle<()>,
    /// The query's tripwire, tripped by [`NodeCtx::abort`].
    cancel: CancelToken,
    /// What the query has handed this node's multiplexer.
    traffic: Arc<TrafficCounter>,
}

/// One stage for a node to run, and where its reply goes.
pub(crate) struct StageJob {
    pub stage_idx: u32,
    pub stage: Arc<QueryStage>,
    pub params: Vec<Value>,
    /// When the stage must have stopped.
    pub deadline: Option<Instant>,
    /// With an anchor, the stage's spans are recorded against it and come
    /// back in the reply.
    pub profile: Option<Instant>,
    pub reply: Box<dyn FnOnce(StageReply) + Send>,
}

/// A node's answer to one stage.
pub(crate) enum StageReply {
    /// The node's local result cardinality; node 0's output of a `Params`
    /// or `Result` stage; the spans it recorded, with the programs that
    /// label them.
    Done {
        rows: u64,
        table: Option<Table>,
        profile: Option<(NodeRecorder, CompiledStage)>,
    },
    /// The stage does not compile on this node, so nothing of it ran here.
    Refused(String),
    /// The stage failed while it ran: a fault, a stop, a peer's abort.
    Failed(String),
}

/// Build node `node` of the cluster `cfg` describes around its transport
/// `endpoint` — topology, receive hub, message pool, worker pool — and
/// spawn its multiplexer thread, which runs until [`NodeCtx::stop`]. With a
/// `scheduler` the multiplexer sends in round-robin phases.
pub(crate) fn start_node(
    node: NodeId,
    cfg: &ClusterConfig,
    fabric: Arc<Fabric>,
    endpoint: Box<dyn NetTransport>,
    scheduler: Option<Arc<NetScheduler>>,
) -> Arc<NodeCtx> {
    let (workers, sockets) = (cfg.workers_per_node, cfg.sockets);
    let cores_per_socket = workers.div_ceil(sockets).max(1);
    let cost = CostModel::new(cfg.numa_cost_ns);
    let topology = Arc::new(Topology::new(sockets, cores_per_socket, cost));
    // Classic exchange operators: one parallel unit per worker, and no
    // work stealing.
    let classic_units = (cfg.engine == EngineKind::Classic).then_some(workers);
    let hub = RecvHub::new(classic_units.unwrap_or(sockets) as usize);
    let pool = Arc::new(MessagePool::new(
        Arc::clone(&fabric),
        node,
        sockets,
        cfg.message_capacity,
    ));
    let mux_cfg = MuxConfig {
        node,
        nodes: cfg.nodes,
        batch_per_phase: 8,
        classic_units,
        sockets,
        alloc_policy: cfg.alloc_policy,
    };
    let (to_mux, mux) = spawn_multiplexer(mux_cfg, endpoint, Arc::clone(&hub), scheduler);
    Arc::new(NodeCtx {
        node,
        nodes: cfg.nodes,
        driver: MorselDriver::new(
            workers,
            &topology,
            hsqp_storage::table::MORSEL_SIZE,
            classic_units.is_none(),
        ),
        topology,
        alloc_policy: cfg.alloc_policy,
        classic_units,
        message_capacity: cfg.message_capacity,
        pool,
        hub,
        to_mux,
        tables: RwLock::new(HashMap::new()),
        temps: RwLock::new(HashMap::new()),
        consume_loads: Mutex::new(Vec::new()),
        fabric,
        workers: Mutex::new(HashMap::new()),
        workers_spawned: AtomicU64::new(0),
        aggs_seeded: AtomicU64::new(0),
        agg_rows_dropped: AtomicU64::new(0),
        bloom_rows_dropped: AtomicU64::new(0),
        bloom_bytes: AtomicU64::new(0),
        mux: Mutex::new(Some(mux)),
    })
}

/// Render a caught panic payload as a message string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

impl NodeCtx {
    /// Run `job`, a stage of `query`, on the query's worker, starting the
    /// worker if this is the query's first stage here. The worker keeps
    /// `cancel`, the query's tripwire, and runs each stage under it with
    /// the stage's own deadline.
    pub(crate) fn stage(self: &Arc<Self>, query: QueryId, cancel: &CancelToken, job: StageJob) {
        let mut workers = self.workers.lock();
        let worker = workers.entry(query).or_insert_with(|| {
            self.workers_spawned.fetch_add(1, Ordering::Relaxed);
            let (jobs, rx) = mpsc::channel::<StageJob>();
            let traffic = Arc::new(TrafficCounter::default());
            let (ctx, token, sent) = (Arc::clone(self), cancel.clone(), Arc::clone(&traffic));
            let handle = std::thread::Builder::new()
                .name(format!("q{}-node{}", query.0, self.node.0))
                .spawn(move || {
                    rx.iter()
                        .for_each(|job| ctx.run_job(query, &token, &sent, job))
                })
                .expect("spawn query worker");
            QueryWorker {
                jobs,
                handle,
                cancel: cancel.clone(),
                traffic,
            }
        });
        if let Err(mpsc::SendError(job)) = worker.jobs.send(job) {
            let traffic = Arc::clone(&worker.traffic);
            drop(workers);
            let why = format!("the worker of {query} is gone");
            self.fail(query, &traffic, &why);
            (job.reply)(StageReply::Failed(why));
        }
    }

    /// Stop `query` here at the coordinator's request: trip its tripwire so
    /// its morsel loops stop, then unblock its consumers.
    pub(crate) fn abort(&self, query: QueryId) {
        if let Some(w) = self.workers.lock().get(&query) {
            w.cancel.cancel();
        }
        self.hub.abort(query, "aborted by the coordinator");
    }

    /// Release what `query` left on `nodes`: join its worker on each (idle
    /// once every stage has replied; its sends are queued by then), then
    /// drop its temps and its receive-hub state there. Every worker is told
    /// to exit before the first is joined, so they exit side by side.
    /// Returns what the query handed the nodes' multiplexers, whatever its
    /// outcome.
    pub(crate) fn retire(nodes: &[Arc<NodeCtx>], query: QueryId) -> Traffic {
        let workers: Vec<_> = nodes
            .iter()
            .map(|node| {
                let worker = node.workers.lock().remove(&query);
                worker.map(|w| (w.handle, w.traffic))
            })
            .collect();
        let mut sent = Traffic::default();
        for (node, worker) in nodes.iter().zip(workers) {
            if let Some((handle, traffic)) = worker {
                let _ = handle.join();
                sent += traffic.load();
            }
            node.temps.write().remove(&query);
            node.hub.finish_query(query);
        }
        sent
    }

    /// End the node: fail whatever still waits on the hub, join the query
    /// workers, then stop the multiplexer.
    pub(crate) fn stop(&self) {
        self.hub.abort_all("node shutting down");
        let workers = std::mem::take(&mut *self.workers.lock());
        let handles: Vec<_> = workers.into_values().map(|w| w.handle).collect();
        for handle in handles {
            let _ = handle.join();
        }
        let _ = self.to_mux.send(MuxCmd::Shutdown);
        if let Some(mux) = self.mux.lock().take() {
            let _ = mux.join();
        }
    }

    /// The node's counters since it started, by metric name: the
    /// multiplexer's wake-ups and how many of them found nothing, the query
    /// workers started, the aggregates seeded by the probe side of the join
    /// above them and the input rows they dropped, the rows repartitions
    /// dropped by a join's filters and the bytes of the summary rounds that
    /// exchanged those filters. Both clusters sum them over the nodes; a
    /// new node counter is one more entry here.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("exchange.mux.wakeups", self.to_mux.wakeups()),
            ("exchange.mux.empty_wakeups", self.to_mux.empty_wakeups()),
            ("exec.stage_workers_spawned", load(&self.workers_spawned)),
            ("exec.aggs_seeded", load(&self.aggs_seeded)),
            ("exec.agg_rows_dropped", load(&self.agg_rows_dropped)),
            ("exec.bloom_rows_dropped", load(&self.bloom_rows_dropped)),
            ("exchange.bloom_bytes", load(&self.bloom_bytes)),
        ]
    }

    /// The worker's loop body: run one stage and reply. A stage that fails
    /// here fails on the peers too, before the reply goes out.
    fn run_job(
        &self,
        query: QueryId,
        cancel: &CancelToken,
        traffic: &TrafficCounter,
        job: StageJob,
    ) {
        let reply = match self.compile(query, &job.stage.plan, &job.params) {
            Err(why) => StageReply::Refused(why),
            Ok(_) if self.hub.is_aborted(query) => StageReply::Failed("query aborted".into()),
            Ok(programs) => self.execute_stage(query, cancel, traffic, &job, programs),
        };
        if let StageReply::Refused(why) | StageReply::Failed(why) = &reply {
            self.fail(query, traffic, why);
        }
        (job.reply)(reply);
    }

    /// Execute this node's share of `job` under the query's tripwire and
    /// the stage's deadline, and dispose of the output by the stage's role:
    /// a materialization stays here as a temp of the query; node 0 returns
    /// a `Params` or `Result` table. A panic in the operators — a stopped
    /// query, a fault — is contained and comes back as its message.
    fn execute_stage(
        &self,
        query: QueryId,
        cancel: &CancelToken,
        traffic: &TrafficCounter,
        job: &StageJob,
        programs: CompiledStage,
    ) -> StageReply {
        let (stage, cancel) = (&job.stage, cancel.child_with_deadline(job.deadline));
        let recorder = job
            .profile
            .map(|anchor| NodeRecorder::new(anchor, plan_node_count(&stage.plan)));
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Exchange ids are per-query: each stage gets its own disjoint
            // range, and the query id in the wire header isolates them from
            // every other in-flight query.
            let exec = NodeExec {
                recorder: recorder.as_ref(),
                programs: Some(&programs),
                cancel: Some(&cancel),
                traffic: Some(traffic),
                ..NodeExec::new(self, query, &job.params, job.stage_idx * 100_000)
            };
            exec.execute(&stage.plan)
        }));
        let batch = match batch {
            Ok(batch) => batch,
            Err(payload) => return StageReply::Failed(panic_message(payload.as_ref())),
        };
        let rows = batch.rows() as u64;
        let table = match &stage.role {
            StageRole::Materialize(name) => {
                let mut temps = self.temps.write();
                let ns = temps.entry(query).or_default();
                ns.insert(name.clone(), batch.into_arc());
                None
            }
            // Only node 0 holds the gathered output.
            StageRole::Params | StageRole::Result => (self.node.0 == 0).then(|| batch.into_table()),
        };
        StageReply::Done {
            rows,
            table,
            profile: recorder.map(|rec| (rec, programs)),
        }
    }

    /// The cross-node abort protocol: fail `query` on this node's hub, then
    /// tell every peer with a [`FLAG_ABORT`] frame, so that their blocked
    /// pops fail instead of waiting for last-markers that will never come.
    /// The frames count as the query's `traffic`.
    fn fail(&self, query: QueryId, traffic: &TrafficCounter, why: &str) {
        self.hub
            .abort(query, &format!("node {} failed: {why}", self.node.0));
        let mut frame = Vec::with_capacity(HEADER_LEN);
        encode_header(query, 0, FLAG_ABORT, 0, 0, &mut frame);
        let frame = Bytes::from(frame);
        for t in (0..self.nodes).filter(|&t| t != self.node.0) {
            traffic.add(Traffic::FRAME);
            let _ = self.to_mux.send(MuxCmd::Send {
                target: NodeId(t),
                payload: frame.clone(),
            });
        }
    }

    /// Compile the expression sites of `plan`, a stage of `query` run with
    /// `params`, against this node's base relations and the temps the
    /// query's earlier stages materialized here. Every node holds the same
    /// schemas, so every node compiles the same programs. A site that does
    /// not compile fails the stage before any of its operators runs.
    pub(crate) fn compile(
        &self,
        query: QueryId,
        plan: &Plan,
        params: &[Value],
    ) -> Result<CompiledStage, String> {
        let base = |t: TpchTable| self.tables.read().get(&t).map(|tbl| tbl.schema().clone());
        let temps: HashMap<String, Schema> = match self.temps.read().get(&query) {
            Some(ns) => ns
                .iter()
                .map(|(name, t)| (name.clone(), t.schema().clone()))
                .collect(),
            None => HashMap::new(),
        };
        let (compiled, _) = compile_stage_with(plan, &base, &temps, Some(params));
        match compiled.failure() {
            Some(why) => Err(format!("the stage does not compile: {why}")),
            None => Ok(compiled),
        }
    }

    fn local_table(&self, t: TpchTable) -> Arc<Table> {
        self.tables
            .read()
            .get(&t)
            .unwrap_or_else(|| panic!("table {:?} not loaded on node {}", t.name(), self.node.0))
            .clone()
    }

    fn is_classic(&self) -> bool {
        self.classic_units.is_some()
    }

    /// This node's share of query `query`'s temp relation `name`.
    fn query_temp(&self, query: QueryId, name: &str) -> Arc<Table> {
        self.temps
            .read()
            .get(&query)
            .and_then(|ns| ns.get(name))
            .unwrap_or_else(|| {
                panic!(
                    "temp relation {name:?} of {query} not materialized on node {} \
                     (missing Materialize stage before this TempScan)",
                    self.node.0
                )
            })
            .clone()
    }
}

/// One operator's node-local result: either a freshly computed table or a
/// shared reference to an already materialized one (a base-relation or
/// temp-relation scan with no filter and no projection). Sharing avoids
/// deep-copying materialized CTEs on every `Plan::TempScan` — doubly
/// important with concurrent queries multiplying scan counts.
pub enum Batch {
    /// A table this operator computed and owns.
    Owned(Table),
    /// A shared, immutable materialized table.
    Shared(Arc<Table>),
}

impl Deref for Batch {
    type Target = Table;

    fn deref(&self) -> &Table {
        match self {
            Batch::Owned(t) => t,
            Batch::Shared(t) => t,
        }
    }
}

impl Batch {
    /// The table by value (clones only if it is shared and referenced
    /// elsewhere).
    pub fn into_table(self) -> Table {
        match self {
            Batch::Owned(t) => t,
            Batch::Shared(t) => Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone()),
        }
    }

    /// The table behind an `Arc` (no copy in the shared case).
    pub fn into_arc(self) -> Arc<Table> {
        match self {
            Batch::Owned(t) => Arc::new(t),
            Batch::Shared(t) => t,
        }
    }
}

/// Executes plans on one node, on behalf of one query.
pub struct NodeExec<'a> {
    ctx: &'a NodeCtx,
    query: QueryId,
    params: &'a [Value],
    next_exchange: AtomicU32,
    /// This node's profiling recorder: every operator records a span cell
    /// (pre-order indexed) as it executes.
    recorder: Option<&'a NodeRecorder>,
    /// The stage's compiled expression programs (same pre-order operator
    /// numbering as the recorder); `None` until [`execute`](Self::execute)
    /// compiles the plan it is given. A program that does not bind against
    /// the table it meets fails the stage with the bind error.
    programs: Option<&'a CompiledStage>,
    /// The query's cooperative cancellation token: operator morsel loops,
    /// send loops, and exchange waits poll it and bail out by panicking
    /// (contained by [`execute_stage`]), bounding cancel/deadline latency
    /// by one morsel instead of one stage.
    cancel: Option<&'a CancelToken>,
    /// The query's traffic on this node, kept by its worker; `None` outside
    /// a worker, where nothing reads it.
    traffic: Option<&'a TrafficCounter>,
    /// What the summary rounds of the stage's joins left for the
    /// repartitions of the sides they filter, by the exchange's operator
    /// index; each exchange takes its own when it starts.
    send_filters: Mutex<HashMap<usize, SendFilter>>,
}

impl<'a> NodeExec<'a> {
    /// Executor for `query` with parameters bound and exchange ids starting
    /// at `exchange_base` (must be identical on all nodes for a given
    /// stage; distinct stages of one query use disjoint ranges). Temp
    /// relations materialized by the query's earlier stages are read from
    /// the node's per-query namespace. Runs unprofiled and uncancellable, and
    /// compiles the plan it executes; `execute_stage` is how queries run.
    pub fn new(ctx: &'a NodeCtx, query: QueryId, params: &'a [Value], exchange_base: u32) -> Self {
        Self {
            ctx,
            query,
            params,
            next_exchange: AtomicU32::new(exchange_base),
            recorder: None,
            programs: None,
            cancel: None,
            traffic: None,
            send_filters: Mutex::new(HashMap::new()),
        }
    }

    /// Panic out of the current operator if the query was cancelled or
    /// its deadline passed (no-op without a token).
    fn check_cancel(&self) {
        if let Some(token) = self.cancel {
            token.check_morsel();
        }
    }

    /// The programs of operator `idx`, which has an expression site.
    fn programs_at(&self, idx: usize) -> &'a OpPrograms {
        self.programs
            .and_then(|p| p.get(idx))
            .unwrap_or_else(|| panic!("operator {idx} was not compiled"))
    }

    /// Execute `plan`, returning this node's share of the result.
    ///
    /// # Panics
    /// Panics when an executor made by [`new`](Self::new) is given a plan
    /// that does not compile.
    pub fn execute(&self, plan: &Plan) -> Batch {
        if self.programs.is_some() {
            return self.execute_at(plan, 0);
        }
        let compiled = self
            .ctx
            .compile(self.query, plan, self.params)
            .unwrap_or_else(|e| panic!("{e}"));
        let base = self.next_exchange.load(Ordering::Relaxed);
        NodeExec {
            programs: Some(&compiled),
            ..NodeExec::new(self.ctx, self.query, self.params, base)
        }
        .execute_at(plan, 0)
    }

    /// Operator `idx` starts: a cancellation point — operator boundaries
    /// cover the operators whose inner loops run outside this module (join
    /// build/probe, sort) — and the start of its span.
    fn enter(&self, idx: usize) {
        self.check_cancel();
        if let Some(rec) = self.recorder {
            rec.op_enter(idx);
        }
    }

    /// Aggregate operator `idx` over `source`, with the keys of `seed` as
    /// its only groups if they [qualify](SEED_RATIO) — against the rows of
    /// the source's shape: a table's, or what this node puts into the
    /// exchange that lands.
    fn aggregate_from<B: BatchSource>(
        &self,
        idx: usize,
        source: &B,
        group_by: &[String],
        aggs: &[AggSpec],
        phase: AggPhase,
        seed: Option<&Seed<'_>>,
    ) -> Batch {
        let (input_rows, shape) = (source.shape().rows(), source.shape().schema());
        let group_idx: Vec<usize> = group_by.iter().map(|g| shape.index_of(g)).collect();
        let seeds: Option<Vec<&Column>> = seed
            .filter(|s| s.probe.rows() * SEED_RATIO <= input_rows)
            .filter(|s| {
                let probe = s.probe.schema().fields();
                let groups = group_idx.iter().map(|&g| shape.fields()[g].dtype);
                s.cols
                    .iter()
                    .zip(groups)
                    .all(|(&c, dtype)| probe[c].dtype == dtype)
            })
            .map(|s| s.cols.iter().map(|&c| s.probe.column(c)).collect());
        let (out, dropped) = aggregate_with(
            source,
            &group_idx,
            aggs,
            phase,
            self.params,
            match phase {
                AggPhase::Final => &[],
                _ => &self.programs_at(idx).aggs,
            },
            seeds.as_deref(),
            self.cancel,
        );
        if seeds.is_some() {
            self.ctx.aggs_seeded.fetch_add(1, Ordering::Relaxed);
            self.ctx
                .agg_rows_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
        Batch::Owned(out)
    }

    /// Execute the operator at pre-order index `idx` (see
    /// [`crate::profile::plan_labels`] for the numbering), recording its
    /// span when profiling is on.
    fn execute_at(&self, plan: &Plan, idx: usize) -> Batch {
        self.execute_seeded(plan, idx, None)
    }

    /// [`execute_at`](Self::execute_at) for an operator on a join's build
    /// side, `seed` holding the join's probe keys if [`Plan::seeding_keys`]
    /// found the aggregate they meet: `Filter` and `Map` hand them down, and
    /// the aggregate may take them as its groups.
    fn execute_seeded(&self, plan: &Plan, idx: usize, seed: Option<&Seed<'_>>) -> Batch {
        self.enter(idx);
        let (out, rows_in) = match plan {
            Plan::Scan {
                table,
                filter,
                project,
            } => {
                let t = self.ctx.local_table(*table);
                let rows_in = t.rows() as u64;
                let out = match (filter, project) {
                    (Some(_), project) => {
                        // Filter to a selection vector first, then gather
                        // only the surviving rows of the projected columns
                        // — never materializing pruned columns.
                        let rows = self.filter_indices(&t, self.filter_at(idx));
                        let cols: Vec<usize> = match project {
                            Some(names) => names.iter().map(|n| t.schema().index_of(n)).collect(),
                            None => (0..t.schema().len()).collect(),
                        };
                        Batch::Owned(gather_rows(&t, &cols, &rows))
                    }
                    (None, Some(names)) => Batch::Owned(project_table(&t, names)),
                    // No transform: share the loaded relation.
                    (None, None) => Batch::Shared(t),
                };
                (out, rows_in)
            }
            Plan::TempScan { name, project } => {
                let t = self.ctx.query_temp(self.query, name);
                let rows_in = t.rows() as u64;
                let out = match project {
                    Some(names) => Batch::Owned(project_table(&t, names)),
                    // No transform: share the materialized temp.
                    None => Batch::Shared(t),
                };
                (out, rows_in)
            }
            Plan::Filter { input, .. } => {
                let t = self.execute_seeded(input, idx + 1, seed);
                let rows_in = t.rows() as u64;
                let rows = self.filter_indices(&t, self.filter_at(idx));
                let cols: Vec<usize> = (0..t.schema().len()).collect();
                (Batch::Owned(gather_rows(&t, &cols, &rows)), rows_in)
            }
            Plan::Map { input, outputs } => {
                let t = self.execute_seeded(input, idx + 1, seed);
                let rows_in = t.rows() as u64;
                let progs = self.programs_at(idx);
                (Batch::Owned(self.map(t, outputs, progs)), rows_in)
            }
            Plan::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                kind,
                filter,
            } => {
                // Pre-order: probe renders first, so it is idx + 1 and the
                // build subtree starts after the whole probe subtree. The
                // side a filter is on runs second: the other side runs
                // first and fills every node's filter in a summary round.
                // Without a filter the build side runs first — unless the
                // probe side's keys can seed the aggregate under it. The
                // plan alone decides: exchange ids are handed out in
                // execution order, so every node must run the two sides
                // and the summary round in the same order.
                let (probe_idx, build_idx_base) = (idx + 1, idx + 1 + plan_node_count(probe));
                let site = filter.map(|side| {
                    let (depth, keys) = plan.filter_site(side).unwrap_or_else(|| {
                        panic!("a {kind:?} join cannot filter its {side:?} side")
                    });
                    let root = match side {
                        JoinSide::Probe => probe_idx,
                        JoinSide::Build => build_idx_base,
                    };
                    (root + depth, keys)
                });
                let probe_first = match filter {
                    Some(side) => *side == JoinSide::Build,
                    None => build.seeding_keys(build_keys).is_some(),
                };
                let early_probe = probe_first.then(|| {
                    let probe_t = self.execute_at(probe, probe_idx);
                    if let Some((exchange, keys)) = &site {
                        self.summary_round(idx, &probe_t, probe_keys, *exchange, keys);
                    }
                    probe_t
                });
                let seed_cols: Option<Vec<usize>> = early_probe.as_ref().and_then(|probe_t| {
                    let schema = probe_t.schema();
                    let keys = build.seeding_keys(build_keys)?;
                    Some(
                        keys.iter()
                            .map(|&k| schema.index_of(&probe_keys[k]))
                            .collect(),
                    )
                });
                let seed = early_probe
                    .as_ref()
                    .zip(seed_cols.as_deref())
                    .map(|(probe, cols)| Seed { probe, cols });
                let build_t = self
                    .execute_seeded(build, build_idx_base, seed.as_ref())
                    .into_arc();
                if let (false, Some((exchange, keys))) = (probe_first, &site) {
                    self.summary_round(idx, &build_t, build_keys, *exchange, keys);
                }
                let build_idx: Vec<usize> = build_keys
                    .iter()
                    .map(|k| build_t.schema().index_of(k))
                    .collect();
                let build_rows = build_t.rows() as u64;
                let jt = JoinTable::build_cancellable(build_t, &build_idx, self.cancel);
                let probe_t = match early_probe {
                    Some(probe_t) => probe_t,
                    None => self.execute_at(probe, probe_idx),
                };
                let probe_idx: Vec<usize> = probe_keys
                    .iter()
                    .map(|k| probe_t.schema().index_of(k))
                    .collect();
                let rows_in = build_rows + probe_t.rows() as u64;
                let out = Batch::Owned(probe_join(
                    &probe_t,
                    &jt,
                    &probe_idx,
                    *kind,
                    &self.ctx.driver,
                    self.cancel,
                ));
                (out, rows_in)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
                phase,
            } => match &**input {
                // What an exchange delivers is aggregated as it lands and
                // never becomes a table. The exchange is operator idx + 1:
                // entered here, exited by the landing when its loop ends.
                Plan::Exchange { input: below, kind } => {
                    self.enter(idx + 1);
                    let t = self.execute_at(below, idx + 2);
                    let landing = Landing {
                        exec: self,
                        op_idx: idx + 1,
                        kind,
                        input: &t,
                        rows: Cell::new(0),
                    };
                    let out = self.aggregate_from(idx, &landing, group_by, aggs, *phase, seed);
                    (out, landing.rows.into_inner())
                }
                _ => {
                    let t = self.execute_at(input, idx + 1);
                    let morsels = Morsels {
                        table: &t,
                        driver: &self.ctx.driver,
                    };
                    let out = self.aggregate_from(idx, &morsels, group_by, aggs, *phase, seed);
                    (out, t.rows() as u64)
                }
            },
            Plan::Sort { input, keys, limit } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                (Batch::Owned(sort_table(&t, keys, *limit)), rows_in)
            }
            Plan::Exchange { input, kind } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                (Batch::Owned(self.collect_exchange(idx, kind, &t)), rows_in)
            }
        };
        if let Some(rec) = self.recorder {
            rec.op_exit(idx, rows_in, out.rows() as u64);
        }
        out
    }

    /// The summary round of join operator `join`, whose side `first` ran
    /// first here: build this node's Bloom filter over the keys `keys` of
    /// `first`, broadcast its words tagged by node and word, and keep
    /// every node's filter for the repartition at operator `exchange`,
    /// where `keys_there` name the other side's keys. That exchange tests
    /// each row only against the filter of the node it sends the row to:
    /// the join is co-partitioned, so node *j*'s filter holds every key of
    /// `first` a row headed for node *j* can meet — no OR of the filters,
    /// no agreement on a size, no estimate. The round is an exchange like
    /// any other (it takes the next exchange id, on every node alike, and
    /// its messages count as the query's traffic); its time is the join's.
    fn summary_round(
        &self,
        join: usize,
        first: &Table,
        keys: &[String],
        exchange: usize,
        keys_there: &[String],
    ) {
        let ctx = self.ctx;
        let key_idx: Vec<usize> = keys.iter().map(|k| first.schema().index_of(k)).collect();
        let own = BloomFilter::over(first, &key_idx);
        let node = u64::from(ctx.node.0) << 32;
        let tags = (0..own.words().len() as u64).map(|w| (node | w) as i64);
        let summary = Table::new(
            Schema::new(vec![
                Field::new("tag", DataType::Int64),
                Field::new("word", DataType::Int64),
            ]),
            vec![
                Column::I64(tags.collect(), None),
                Column::I64(own.words().iter().map(|&w| w as i64).collect(), None),
            ],
        );
        let de = RowDeserializer::new(summary.schema());
        let (pieces, _, sent) = self.exchange_loop(
            join,
            &ExchangeKind::Broadcast,
            &summary,
            |_| de.empty_columns(),
            |columns, body| decode_message(&de, body, columns),
            |_| {},
        );
        ctx.bloom_bytes.fetch_add(sent.bytes, Ordering::Relaxed);
        // Every word of every node's filter arrives once, in no set order.
        let tagged = || {
            pieces.iter().flat_map(|columns| {
                let (tags, words) = (columns[0].i64_values(), columns[1].i64_values());
                tags.iter().zip(words).map(|(&tag, &word)| {
                    let (node, at) = (tag as u64 >> 32, tag as u64 & u64::from(u32::MAX));
                    (node as usize, at as usize, word as u64)
                })
            })
        };
        let mut words = vec![Vec::new(); ctx.nodes as usize];
        for (node, _, _) in tagged() {
            let filter: &mut Vec<u64> = words
                .get_mut(node)
                .unwrap_or_else(|| panic!("a filter word from node {node}"));
            filter.push(0);
        }
        for (node, at, word) in tagged() {
            let slot = words[node].get_mut(at);
            *slot.unwrap_or_else(|| panic!("word {at} of a shorter filter from node {node}")) =
                word;
        }
        let filters = words.into_iter().map(BloomFilter::from_words).collect();
        self.send_filters.lock().insert(
            exchange,
            SendFilter {
                keys: keys_there.to_vec(),
                filters,
            },
        );
    }

    // -- local pipelines ----------------------------------------------------

    /// Operator `idx`'s compiled predicate.
    fn filter_at(&self, idx: usize) -> &'a ExprProgram {
        let filter = self.programs_at(idx).filter.as_ref();
        filter.unwrap_or_else(|| panic!("operator {idx} has no compiled filter"))
    }

    /// Evaluate a predicate morsel-parallel into an ascending selection
    /// vector: each worker selects into one reused vector and appends what
    /// a morsel kept to its own rows, and the workers' runs are
    /// concatenated in morsel order.
    fn filter_indices(&self, t: &Table, prog: &ExprProgram) -> Vec<u32> {
        struct Kept {
            rows: Vec<u32>,
            /// (morsel start, its rows in `rows`), in the order claimed.
            morsels: Vec<(usize, Range<usize>)>,
            sel: Vec<u32>,
        }
        let bound = bind(prog, t);
        let mut parts = self.ctx.driver.run(
            t.rows(),
            |_| Kept {
                rows: Vec::new(),
                morsels: Vec::new(),
                sel: Vec::new(),
            },
            |kept, _, m| {
                self.check_cancel();
                bound.select(t, m.range(), self.params, &mut kept.sel);
                let from = kept.rows.len();
                kept.rows.extend_from_slice(&kept.sel);
                kept.morsels.push((m.start, from..kept.rows.len()));
            },
        );
        // A worker claims morsels in ascending order, so one worker's rows
        // are already in order.
        if parts.len() == 1 {
            return parts.pop().map(|k| k.rows).unwrap_or_default();
        }
        let mut runs: Vec<(usize, &[u32])> = parts
            .iter()
            .flat_map(|k| {
                k.morsels
                    .iter()
                    .map(|(start, r)| (*start, &k.rows[r.clone()]))
            })
            .collect();
        runs.sort_unstable_by_key(|(start, _)| *start);
        let mut rows = Vec::with_capacity(runs.iter().map(|(_, r)| r.len()).sum());
        for (_, r) in runs {
            rows.extend_from_slice(r);
        }
        rows
    }

    /// A Map over `t`: every computed output evaluated a morsel at a time
    /// and its pieces concatenated once; every bare column reference taken
    /// whole from `t` — moved out of an owned input (by the last output to
    /// name it), cloned once from a shared one. A Map of bare column
    /// references only renames, and runs no morsel loop.
    fn map(&self, t: Batch, outputs: &[MapExpr], progs: &OpPrograms) -> Table {
        // Bind this operator's compiled output programs once; a bare
        // column reference has none. It passes through raw: evaluating it
        // would promote a Decimal column to f64 and lose the fixed-point
        // representation (and the Date/Decimal logical type) across the
        // projection.
        let bound: Vec<Option<BoundProgram<'_>>> = progs
            .outputs
            .iter()
            .map(|(_, p)| p.as_ref().map(|p| bind(p, &t)))
            .collect();
        let schema = map_schema(&t, outputs, &bound, self.params);
        let bare: Vec<Option<usize>> = outputs
            .iter()
            .zip(&bound)
            .map(|(o, b)| match (b, &o.expr) {
                (Some(_), _) => None,
                (None, Expr::Col(name)) => Some(t.schema().index_of(name)),
                (None, other) => unreachable!("uncompiled map output {other:?}"),
            })
            .collect();
        let programs: Vec<&BoundProgram<'_>> = bound.iter().flatten().collect();
        let mut computed = if programs.is_empty() {
            Vec::new()
        } else {
            let computed_at: Vec<usize> =
                (0..outputs.len()).filter(|&i| bare[i].is_none()).collect();
            self.map_computed(&t, &programs, &schema.project(&computed_at))
        }
        .into_iter();
        let mut input = match t {
            Batch::Owned(t) => Ok(t.into_columns().into_iter().map(Some).collect::<Vec<_>>()),
            Batch::Shared(t) => Err(t),
        };
        let columns = bare
            .iter()
            .enumerate()
            .map(|(i, b)| match (b, &mut input) {
                (None, _) => computed.next().expect("a column per computed output"),
                (Some(c), Err(shared)) => shared.column(*c).clone(),
                (Some(c), Ok(owned)) if bare[i + 1..].contains(b) => {
                    owned[*c].clone().expect("moved last")
                }
                (Some(c), Ok(owned)) => owned[*c].take().expect("moved once"),
            })
            .collect();
        Table::new(schema, columns)
    }

    /// The outputs `programs` compute over `t`, morsel-parallel: each
    /// morsel's columns, then the morsels concatenated in order as a
    /// table of `schema`'s columns.
    fn map_computed(
        &self,
        t: &Table,
        programs: &[&BoundProgram<'_>],
        schema: &Schema,
    ) -> Vec<Column> {
        let parts = self.ctx.driver.run(
            t.rows(),
            |_| Vec::<(usize, Table)>::new(),
            |acc, _, m| {
                self.check_cancel();
                let cols = programs
                    .iter()
                    .map(|p| p.eval(t, m.range(), self.params).into_column().0)
                    .collect();
                acc.push((m.start, Table::new(schema.clone(), cols)));
            },
        );
        let mut pieces: Vec<(usize, Table)> = parts.into_iter().flatten().collect();
        pieces.sort_by_key(|(start, _)| *start);
        let pieces = pieces.into_iter().map(|(_, piece)| piece).collect();
        Table::concat(schema, pieces).into_columns()
    }

    // -- exchange -----------------------------------------------------------

    /// Rows (or bytes, or whatever `own` counts) a worker can expect to
    /// land from a balanced exchange of `kind` when this node puts in
    /// `own`: the node gets its own input back once from a repartition
    /// (every node keeps 1/n of every node's rows), n times from a
    /// broadcast and at the coordinator of a gather, split among its
    /// workers — and an eighth over, because no split is exactly even and a
    /// column that outgrows its reserve by one row is moved whole. A wrong
    /// guess costs little — columns still grow on demand, and reserve that
    /// is never written is never paged in — while a right one saves
    /// regrowing every column a dozen times.
    fn expected_share(&self, kind: &ExchangeKind, own: usize) -> usize {
        let ctx = self.ctx;
        let copies = match kind {
            ExchangeKind::HashPartition(_) => 1,
            ExchangeKind::Gather if ctx.node.0 != 0 => 0,
            ExchangeKind::Broadcast | ExchangeKind::Gather => ctx.nodes as usize,
        };
        own * copies / ctx.driver.workers() as usize * 9 / 8
    }

    /// An exchange whose result is kept (a join side, a sort or map input,
    /// a stage root): every worker decodes what it pops straight onto its
    /// own columns, sized up front for its [expected
    /// share](Self::expected_share), and the workers' columns become the
    /// result table.
    fn collect_exchange(&self, op_idx: usize, kind: &ExchangeKind, input: &Table) -> Table {
        let schema = input.schema();
        let de = RowDeserializer::new(schema);
        let share = |own: usize| self.expected_share(kind, own);
        let (pieces, _, _) = self.exchange_loop(
            op_idx,
            kind,
            input,
            |_| {
                let mut columns = de.empty_columns();
                for (column, like) in columns.iter_mut().zip(input.columns()) {
                    column.reserve(share(like.len()), share(like.str_bytes()));
                }
                columns
            },
            |columns, body| decode_message(&de, body, columns),
            |_| {},
        );
        let pieces = pieces
            .into_iter()
            .map(|columns| Table::new(schema.clone(), columns))
            .collect();
        let mut out = Table::concat(schema, pieces);
        // The coordinator's own rows pass through a gather unserialized.
        if matches!(kind, ExchangeKind::Gather) && self.ctx.node.0 == 0 {
            out.append(input);
        }
        out
    }

    /// The one message loop of an exchange (Figure 7), run by every worker
    /// of the node: partition a morsel of `input` and serialize it into
    /// the destinations' messages (steps 1–4), then — without blocking —
    /// pop whatever has arrived in the meantime, NUMA-local queue first,
    /// stealing across sockets after (5a/5b), and hand each message body
    /// to `land` (6, 7); with no morsel left, pass on the open messages
    /// and block on the receive queues until every node's last-marker is
    /// in, then `close` the worker's share. The worker that runs out of
    /// morsels last sends this node's last-markers, to every node it sends
    /// to and to its own receive hub — so no worker of this node takes the
    /// exchange for drained while another still has rows for it.
    ///
    /// A repartition a join's [summary round](Self::summary_round) left
    /// filters for sends only the rows whose key has no NULL part and may
    /// be in the filter of the node the row is headed for.
    ///
    /// `share` makes a worker's part of whatever the consumer builds, and
    /// `land` returns the rows it decoded. Returns the workers' shares, the
    /// rows landed on this node and what this node sent other nodes.
    fn exchange_loop<S: Send>(
        &self,
        op_idx: usize,
        kind: &ExchangeKind,
        input: &Table,
        share: impl Fn(WorkerCtx) -> S + Sync,
        land: impl Fn(&mut S, &[u8]) -> usize + Sync,
        close: impl Fn(&mut S) + Sync,
    ) -> (Vec<S>, u64, Traffic) {
        let ctx = self.ctx;
        let id = self.next_exchange.fetch_add(1, Ordering::Relaxed);
        let coordinator = ctx.node.0 == 0;
        let gather = matches!(kind, ExchangeKind::Gather);
        // One last-marker from every node that sends here, this one
        // included: all of them, or none but itself at a gather's
        // non-coordinators.
        let expected_lasts = if gather && !coordinator {
            1
        } else {
            u32::from(ctx.nodes)
        };
        ctx.hub.expect_lasts(self.query, id, expected_lasts);

        let ser = RowSerializer::new(input.schema());
        // Same canonicalization as the join hash: a Decimal repartition key
        // must land on the node where the equal Float64 key lands.
        let partition_by = match kind {
            ExchangeKind::HashPartition(keys) => {
                let key_idx: Vec<usize> = keys.iter().map(|k| input.schema().index_of(k)).collect();
                Some(crate::ops::join_key_cols(input, &key_idx))
            }
            ExchangeKind::Broadcast | ExchangeKind::Gather => None,
        };
        let units = ctx.classic_units.unwrap_or(1) as usize;
        let buckets = match &partition_by {
            Some(_) => ctx.nodes as usize * units,
            // Broadcast: the one destination that stands for every node.
            // Gather: bucket 0, the coordinator's.
            None => 1,
        };
        // A join's filters for this repartition: the filter key columns,
        // whether any of them holds NULLs, and per bucket the filter of the
        // node it goes to.
        let filter = self.send_filters.lock().remove(&op_idx);
        let filter = filter.as_ref().map(|f| {
            let key_idx: Vec<usize> = f.keys.iter().map(|k| input.schema().index_of(k)).collect();
            let cols = join_key_cols(input, &key_idx);
            let nullable = cols.iter().any(|(c, _)| c.validity().is_some());
            let by_bucket: Vec<&BloomFilter> =
                (0..buckets).map(|b| &f.filters[b / units]).collect();
            (cols, nullable, by_bucket)
        });
        // The coordinator keeps its rows at a gather; the consumer sees to
        // them.
        let rows_to_send = if gather && coordinator {
            0
        } else {
            input.rows()
        };
        let stealing = !ctx.is_classic();
        let still_sending = AtomicUsize::new(ctx.driver.workers() as usize);

        // A worker that unwinds out of the loop (a malformed message, a
        // fault) never counts down `still_sending`, so this node's
        // last-marker to itself never comes: fail the query here, or the
        // node's other workers would wait for it for ever.
        struct AbortOnUnwind<'a>(&'a RecvHub, QueryId);
        impl Drop for AbortOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0
                        .abort(self.1, "a worker of this node failed mid-exchange");
                }
            }
        }
        struct Worker<'a, S> {
            _guard: AbortOnUnwind<'a>,
            writer: MessageWriter<'a>,
            bucket_of: Vec<u32>,
            hashes: Vec<u64>,
            selections: Vec<Vec<usize>>,
            share: S,
            send: Duration,
            wait: Duration,
            messages: u64,
            rows: u64,
            dropped: u64,
        }
        // Land what the receive queues hold; `block` until they are drained
        // for good. Blocked time is the worker's share of network wait at
        // this exchange boundary; the hub polls the token meanwhile, so a
        // cancel or deadline lands even on a node starved by its peers.
        let drain = |st: &mut Worker<'_, S>, w: WorkerCtx, block: bool| {
            let own_queue = if stealing {
                w.socket.0 as usize
            } else {
                w.id as usize
            };
            loop {
                let msg = if block {
                    let t0 = Instant::now();
                    let msg =
                        ctx.hub
                            .pop_cancellable(self.query, id, own_queue, stealing, self.cancel);
                    st.wait += t0.elapsed();
                    msg
                } else {
                    match ctx
                        .hub
                        .poll(self.query, id, own_queue, stealing, self.cancel)
                    {
                        Polled::Message(msg) => Some(msg),
                        Polled::Pending | Polled::Drained => None,
                    }
                };
                let Some(msg) = msg else { break };
                st.messages += 1;
                // Reading a remote message buffer crosses QPI.
                ctx.topology
                    .charge_access(w.socket, msg.mem_socket, msg.data.len());
                st.rows += land(&mut st.share, &msg.data) as u64;
            }
        };

        let workers = ctx.driver.run_then(
            rows_to_send,
            |w| Worker {
                _guard: AbortOnUnwind(&ctx.hub, self.query),
                writer: match kind {
                    ExchangeKind::Broadcast => {
                        MessageWriter::broadcast(ctx, self.query, id, self.traffic, &ser, w.socket)
                    }
                    _ => MessageWriter::partitioned(
                        ctx,
                        self.query,
                        id,
                        self.traffic,
                        &ser,
                        w.socket,
                        buckets,
                    ),
                },
                bucket_of: Vec::new(),
                hashes: Vec::new(),
                selections: vec![Vec::new(); buckets],
                share: share(w),
                send: Duration::ZERO,
                wait: Duration::ZERO,
                messages: 0,
                rows: 0,
                dropped: 0,
            },
            |st, w, m| {
                let t0 = Instant::now();
                match &partition_by {
                    // One bucket per row from the CRC32 of its key, the row
                    // ids scattered into one selection vector per bucket,
                    // each selection serialized as column runs into that
                    // bucket's message.
                    Some(key_cols) => {
                        bucket_vector(key_cols, m.range(), buckets, &mut st.bucket_of);
                        match &filter {
                            Some((cols, nullable, by_bucket)) => {
                                st.hashes.clear();
                                hash_keys(cols, m.range(), &mut st.hashes);
                                let rows = m.range().zip(&st.bucket_of).zip(&st.hashes);
                                for ((row, &bucket), &hash) in rows {
                                    let bucket = bucket as usize;
                                    if (!*nullable || key_valid(cols, row))
                                        && by_bucket[bucket].may_hold(hash)
                                    {
                                        st.selections[bucket].push(row);
                                    } else {
                                        st.dropped += 1;
                                    }
                                }
                            }
                            None => {
                                for (row, &bucket) in m.range().zip(&st.bucket_of) {
                                    st.selections[bucket as usize].push(row);
                                }
                            }
                        }
                        for (bucket, selection) in st.selections.iter_mut().enumerate() {
                            st.writer.write(bucket, input, Rows::Sel(selection));
                            selection.clear();
                        }
                    }
                    None => st.writer.write(0, input, Rows::Span(m.start, m.end)),
                }
                st.send += t0.elapsed();
                // A cancellation point, too.
                drain(st, w, false);
            },
            |st, w| {
                let t0 = Instant::now();
                st.writer.finish();
                // Every message of this node is with the multiplexer (or in
                // the hub) before the worker that counts down to zero adds
                // the last-markers behind them.
                if still_sending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.send_lasts(id, kind);
                }
                st.send += t0.elapsed();
                drain(st, w, true);
                close(&mut st.share);
            },
        );
        ctx.hub.finish(self.query, id);

        if let Some(rec) = self.recorder {
            let sending: Duration = workers.iter().map(|st| st.send).sum();
            rec.add_send_time(op_idx, sending / workers.len() as u32);
            for st in &workers {
                let sent = st.writer.sent();
                rec.net_send(op_idx, sent.bytes, sent.messages);
                rec.add_consume(op_idx, st.wait, st.messages);
            }
        }
        {
            let mut loads = ctx.consume_loads.lock();
            loads.resize(workers.len(), 0);
            for (load, st) in loads.iter_mut().zip(&workers) {
                *load += st.rows;
            }
        }
        let dropped: u64 = workers.iter().map(|st| st.dropped).sum();
        ctx.bloom_rows_dropped.fetch_add(dropped, Ordering::Relaxed);
        let landed = workers.iter().map(|st| st.rows).sum();
        let mut sent = Traffic::default();
        for st in &workers {
            sent += st.writer.sent();
        }
        (
            workers.into_iter().map(|st| st.share).collect(),
            landed,
            sent,
        )
    }

    /// End this node's part in exchange `id`: a last-marker to its own
    /// receive hub and, through the multiplexer, to every node it sends to
    /// (counted as the query's traffic).
    fn send_lasts(&self, id: u32, kind: &ExchangeKind) {
        let ctx = self.ctx;
        ctx.hub.deliver(self.query, id, 0, None, true);
        let targets = match kind {
            // Only non-coordinators send, and only to the coordinator.
            ExchangeKind::Gather => 0..u16::from(ctx.node.0 != 0),
            _ => 0..ctx.nodes,
        };
        for t in targets.filter(|&t| t != ctx.node.0) {
            if let Some(traffic) = self.traffic {
                traffic.add(Traffic::FRAME);
            }
            let mut msg = Vec::with_capacity(HEADER_LEN);
            encode_header(self.query, id, FLAG_LAST, 0, 0, &mut msg);
            ctx.to_mux
                .send(MuxCmd::Send {
                    target: NodeId(t),
                    payload: Bytes::from(msg),
                })
                .expect("multiplexer alive");
        }
    }
}

/// Append the chunks of one exchange message to `columns`; the rows added.
fn decode_message(de: &RowDeserializer, body: &[u8], columns: &mut [Column]) -> usize {
    de.decode_into(body, columns)
        .unwrap_or_else(|e| panic!("malformed exchange message: {e}"))
}

/// What exchange operator `op_idx` delivers to this node, as a
/// [`BatchSource`] for the operator above it: each worker decodes the
/// messages it pops into one batch of its own, hands the batch on once it
/// holds [`Landing::BATCH_ROWS`] rows, and clears and refills it — the
/// exchange's result is never a table, and what it allocates does not grow
/// with what it moves.
struct Landing<'a, 'b> {
    exec: &'a NodeExec<'b>,
    op_idx: usize,
    kind: &'a ExchangeKind,
    /// This node's input to the exchange.
    input: &'a Table,
    /// Rows handed on, once driven.
    rows: Cell<u64>,
}

impl Landing<'_, '_> {
    /// Rows a batch holds before it is handed on: a quarter of a morsel.
    /// Enough to amortize what the consumer does once per batch, and small
    /// enough — ≈ 600 KB of lineitem — that the batch is still in cache
    /// when the consumer reads what the decoder wrote.
    const BATCH_ROWS: usize = hsqp_storage::table::MORSEL_SIZE / 4;
}

impl BatchSource for Landing<'_, '_> {
    /// What lands has the shape of what this node sends.
    fn shape(&self) -> &Table {
        self.input
    }

    fn drive<S, I, E>(&self, init: I, each: E) -> Vec<S>
    where
        S: Send,
        I: Fn() -> S + Sync,
        E: Fn(&mut S, &Table, Range<usize>) + Sync,
    {
        let (exec, input) = (self.exec, self.input);
        let schema = input.schema();
        let de = RowDeserializer::new(schema);

        struct Share<S> {
            batch: Vec<Column>,
            state: S,
            /// Time spent in `each`.
            handing_on: Duration,
        }
        let hand_on = |share: &mut Share<S>| {
            let t0 = Instant::now();
            let batch = Table::new(schema.clone(), std::mem::take(&mut share.batch));
            each(&mut share.state, &batch, 0..batch.rows());
            share.batch = batch.into_columns();
            share.batch.iter_mut().for_each(Column::clear);
            share.handing_on += t0.elapsed();
        };
        let (shares, landed, _) = exec.exchange_loop(
            self.op_idx,
            self.kind,
            input,
            |_| {
                // Sized once: for a batch and the message that fills it,
                // or for all the worker can expect if that is less, with
                // strings as long as this node's own.
                let reserve = exec
                    .expected_share(self.kind, input.rows())
                    .min(Self::BATCH_ROWS * 9 / 8);
                let mut batch = de.empty_columns();
                for (column, like) in batch.iter_mut().zip(input.columns()) {
                    column.reserve(reserve, like.str_bytes() * reserve / like.len().max(1));
                }
                Share {
                    batch,
                    state: init(),
                    handing_on: Duration::ZERO,
                }
            },
            |share, body| {
                let rows = decode_message(&de, body, &mut share.batch);
                if share.batch.first().map_or(0, Column::len) >= Self::BATCH_ROWS {
                    hand_on(share);
                }
                rows
            },
            |share| {
                if share.batch.first().is_some_and(|c| !c.is_empty()) {
                    hand_on(share);
                }
            },
        );
        let mut rows = landed;
        if let Some(rec) = exec.recorder {
            // The consumer's time is the consumer's: workers hand on side
            // by side, so their average is what it took out of the span.
            let handing_on: Duration = shares.iter().map(|s| s.handing_on).sum();
            rec.op_exclude(self.op_idx, handing_on / shares.len() as u32);
            rec.op_exit(self.op_idx, input.rows() as u64, rows);
        }
        let mut states: Vec<S> = shares.into_iter().map(|s| s.state).collect();
        // The coordinator's own rows pass through a gather unserialized.
        if matches!(self.kind, ExchangeKind::Gather) && exec.ctx.node.0 == 0 {
            let own = Morsels {
                table: input,
                driver: &exec.ctx.driver,
            };
            states.extend(own.drive(init, each));
            rows += input.rows() as u64;
        }
        self.rows.set(rows);
        states
    }
}

/// A join's probe side seeds the aggregate under its build side only where
/// the aggregate's input on this node holds at least this many rows per
/// probe row. Every seed costs a group insert whether a row reaches it or
/// not, so seeding pays only when most groups fall outside the probe side:
/// a TPC-H order has four lineitems, so Q18 (orders probing a lineitem
/// aggregate) sits at 4 and would gain nothing, while Q20 sits near 33 and
/// Q21 near 80.
const SEED_RATIO: usize = 8;

/// A join's probe side, handed to the aggregate under its build side: per
/// group column of the aggregate, the probe column that meets it.
struct Seed<'t> {
    probe: &'t Table,
    cols: &'t [usize],
}

/// The filters a join's summary round leaves for the repartition of its
/// other side.
struct SendFilter {
    /// The filtered side's join keys, by their names in the exchange's
    /// input.
    keys: Vec<String>,
    /// Per node, a filter over the keys of the first side's rows there.
    filters: Vec<BloomFilter>,
}

/// Project `t` to the named columns, in order.
fn project_table(t: &Table, names: &[String]) -> Table {
    let idx: Vec<usize> = names.iter().map(|n| t.schema().index_of(n)).collect();
    t.project(&idx)
}

/// Columns `cols` of `t` at `rows` (a selection from `filter_indices`),
/// each gathered onto a column reserved for them.
fn gather_rows(t: &Table, cols: &[usize], rows: &[u32]) -> Table {
    let schema = t.schema().project(cols);
    let columns = cols
        .iter()
        .zip(schema.fields())
        .map(|(&c, f)| {
            let src = t.column(c);
            let mut out = Column::empty(f.dtype);
            // As large a share of the string bytes as of the rows.
            out.reserve(rows.len(), src.str_bytes() * rows.len() / src.len().max(1));
            out.extend_gather(src, rows);
            out
        })
        .collect();
    Table::new(schema, columns)
}

/// Bind `prog` to `t`; a program that does not bind fails the stage.
fn bind<'p>(prog: &'p ExprProgram, t: &Table) -> BoundProgram<'p> {
    prog.bind(t).unwrap_or_else(|e| panic!("{e}"))
}

/// The output schema of a Map: each output's static type, or — when a
/// parameter types it — the type its bound program yields over zero rows.
fn map_schema(
    t: &Table,
    outputs: &[MapExpr],
    bound: &[Option<BoundProgram<'_>>],
    params: &[Value],
) -> Schema {
    use hsqp_storage::Field;
    let fields: Vec<Field> = outputs
        .iter()
        .zip(bound)
        .map(|(o, b)| {
            let dtype = o.dtype.unwrap_or_else(|| match (b, &o.expr) {
                (Some(b), _) => vm_to_dtype(b.out_type())
                    .unwrap_or_else(|| b.eval(t, 0..0, params).into_column().1),
                // Matches the raw pass-through in `parallel_map`: a bare
                // column reference keeps its input logical type.
                (None, Expr::Col(name)) => t.schema().field(name).dtype,
                (None, other) => unreachable!("uncompiled map output {other:?}"),
            });
            Field::nullable(o.name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
}

/// Partition bucket of a row: CRC32 over the key attributes (§3.2).
///
/// Keys hash by *logical* value in a single numeric domain: a fixed-point
/// Decimal column (flagged `true`) hashes its promoted f64 value, an Int64
/// key that is exactly representable as f64 hashes those f64 bits, and
/// Float64 hashes its canonical bits (−0.0 folded onto +0.0) — so any two
/// sides of a mixed Int64/Decimal/Float64 join holding the same value land
/// on the same node when repartitioned (the domain
/// [`crate::ops`] compares join keys in). A single Int64 key hashes the bytes
/// `placement::hash_partition` hashes (`canon_i64_bytes`): if the two
/// disagreed, partitioned placement would stop avoiding shuffles.
///
/// This is the definition; the exchange computes it a column at a time
/// with [`bucket_vector`].
#[inline]
pub fn row_bucket(key_cols: &[(&Column, bool)], row: usize, buckets: usize) -> usize {
    let crc = key_cols
        .iter()
        .fold(CRC32_INIT, |crc, &(c, promote)| match (c, promote) {
            (Column::I64(v, _), true) => crc32_update(crc, &decimal_key_bytes(v[row])),
            (Column::I64(v, _), false) => crc32_update(crc, &canon_i64_bytes(v[row])),
            (Column::F64(v, _), _) => crc32_update(crc, &f64_key_bytes(v[row])),
            (Column::Str(v, _), _) => crc32_update(crc, v.get(row).as_bytes()),
        });
    crc32_finish(crc) as usize % buckets
}

/// [`row_bucket`] of every row in `rows`, into `out` (cleared first): one
/// running CRC per row, fed a key column at a time by a loop picked once
/// per column.
pub fn bucket_vector(
    key_cols: &[(&Column, bool)],
    rows: std::ops::Range<usize>,
    buckets: usize,
    out: &mut Vec<u32>,
) {
    fn feed<T: Copy>(crcs: &mut [u32], vals: &[T], bytes: impl Fn(T) -> [u8; 8]) {
        for (crc, &v) in crcs.iter_mut().zip(vals) {
            *crc = crc32_update(*crc, &bytes(v));
        }
    }
    out.clear();
    out.resize(rows.len(), CRC32_INIT);
    for &(c, promote) in key_cols {
        match (c, promote) {
            (Column::I64(v, _), true) => feed(out, &v[rows.clone()], decimal_key_bytes),
            (Column::I64(v, _), false) => feed(out, &v[rows.clone()], canon_i64_bytes),
            (Column::F64(v, _), _) => feed(out, &v[rows.clone()], f64_key_bytes),
            (Column::Str(v, _), _) => {
                let bounds = v.offsets()[rows.start..=rows.end].windows(2);
                for (crc, w) in out.iter_mut().zip(bounds) {
                    *crc = crc32_update(*crc, &v.data()[w[0] as usize..w[1] as usize]);
                }
            }
        }
    }
    for crc in out {
        *crc = (crc32_finish(*crc) as usize % buckets) as u32;
    }
}

// Canonical hash bytes of one numeric key value.
fn f64_key_bytes(x: f64) -> [u8; 8] {
    canon_f64_bits(x).to_le_bytes()
}

fn decimal_key_bytes(cents: i64) -> [u8; 8] {
    f64_key_bytes(decimal_to_f64(cents))
}
