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
//! is given, and `execute_stage` is what a node thread of the one and a
//! query worker of the other both run.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::RwLock;

use hsqp_net::{
    Fabric, NetScheduler, NodeId, QueryId, QueryStatsRegistry, Transport as NetTransport,
};
use hsqp_numa::{AllocPolicy, CostModel, SocketId, Topology};
use hsqp_storage::placement::{canon_i64_bytes, crc32_finish, crc32_update, CRC32_INIT};
use hsqp_storage::{decimal_to_f64, Column, Schema, Table, Value};
use hsqp_tpch::TpchTable;

use crate::cluster::{ClusterConfig, EngineKind};
use crate::coordinator::StageCall;
use crate::exchange::{
    encode_header, spawn_multiplexer, MessagePool, MessageWriter, MuxCmd, MuxConfig, RecvHub,
    FLAG_LAST, HEADER_LEN,
};
use crate::expr::{eval, Expr};
use crate::local::MorselDriver;
use crate::ops::{aggregate_with, canon_f64_bits, probe_join, sort_table, JoinTable};
use crate::plan::{ExchangeKind, MapExpr, Plan};
use crate::profile::{plan_node_count, NodeRecorder};
use crate::queries::StageRole;
use crate::serve::CancelToken;
use crate::vm::{compile_stage, BoundProgram, CompiledStage, ExprProgram, OpPrograms};
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
    /// Command channel to the multiplexer thread.
    pub to_mux: Sender<MuxCmd>,
    /// Loaded base relations (this node's placement share).
    pub tables: RwLock<HashMap<TpchTable, Arc<Table>>>,
    /// Temporary relations materialized by in-flight queries' stages,
    /// namespaced per query so overlapping multi-stage queries cannot read
    /// (or clobber) each other's temps. The cluster inserts after each
    /// `Materialize` stage and removes the whole namespace when the query
    /// finishes, fails, or is cancelled.
    pub temps: RwLock<HashMap<QueryId, HashMap<String, Arc<Table>>>>,
    /// Rows deserialized per worker across all exchanges (skew diagnosis:
    /// with work stealing the loads balance; with static classic-exchange
    /// ownership a skewed partition overloads one unit).
    pub consume_loads: parking_lot::Mutex<Vec<u64>>,
    /// The network fabric (statistics).
    pub fabric: Arc<Fabric>,
}

/// Build node `node` of the cluster `cfg` describes around its transport
/// `endpoint` — topology, receive hub, message pool, worker pool — and
/// spawn its multiplexer thread, which runs until it is sent
/// [`MuxCmd::Shutdown`] through `NodeCtx::to_mux`. With a `scheduler` the
/// multiplexer sends in round-robin phases.
pub(crate) fn start_node(
    node: NodeId,
    cfg: &ClusterConfig,
    fabric: Arc<Fabric>,
    endpoint: Box<dyn NetTransport>,
    scheduler: Option<Arc<NetScheduler>>,
    query_stats: Arc<QueryStatsRegistry>,
) -> (Arc<NodeCtx>, std::thread::JoinHandle<()>) {
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
        scheduling: scheduler.is_some(),
        batch_per_phase: 8,
        classic_units,
        sockets,
        alloc_policy: cfg.alloc_policy,
    };
    let (to_mux, mux) = spawn_multiplexer(
        mux_cfg,
        endpoint,
        Arc::clone(&hub),
        Arc::clone(&pool),
        scheduler,
        query_stats,
    );
    let ctx = Arc::new(NodeCtx {
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
        consume_loads: parking_lot::Mutex::new(Vec::new()),
        fabric,
    });
    (ctx, mux)
}

/// Execute this node's share of the stage `call` describes and dispose of
/// the output by the stage's role: a materialization stays here as a temp
/// of the query; node 0 returns a `Params` or `Result` table. Also returns
/// the local result cardinality. A panic in the operators — a stopped
/// query, a fault — is contained and comes back as its message; the caller
/// then owes the peers blocked on this node's last-markers an abort.
pub(crate) fn execute_stage(
    ctx: &NodeCtx,
    call: &StageCall<'_>,
    programs: Option<&CompiledStage>,
    recorder: Option<&NodeRecorder>,
) -> Result<(u64, Option<Table>), String> {
    let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Exchange ids are per-query: each stage gets its own disjoint
        // range, and the query id in the wire header isolates them from
        // every other in-flight query.
        let exec = NodeExec {
            recorder,
            programs,
            cancel: Some(call.cancel),
            ..NodeExec::new(ctx, call.query, call.params, call.stage_idx * 100_000)
        };
        exec.execute(&call.stage.plan)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))?;
    let rows = batch.rows() as u64;
    let table = match &call.stage.role {
        StageRole::Materialize(name) => {
            ctx.temps
                .write()
                .entry(call.query)
                .or_default()
                .insert(name.clone(), batch.into_arc());
            None
        }
        // Only node 0 holds the gathered output.
        StageRole::Params | StageRole::Result => (ctx.node.0 == 0).then(|| batch.into_table()),
    };
    Ok((rows, table))
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
    /// Compile the expression sites of `plan`, a stage of `query`, against
    /// this node's base relations and the temps the query's earlier stages
    /// materialized here. Every node holds the same schemas, so compiling
    /// on one (a simulated cluster) or on each (node processes) yields the
    /// same programs. `None` when nothing compiled: the stage then runs on
    /// the tree walker, as does any single site that failed to.
    pub(crate) fn compile(&self, query: QueryId, plan: &Plan) -> Option<CompiledStage> {
        let base = |t: TpchTable| self.tables.read().get(&t).map(|tbl| tbl.schema().clone());
        let temps: HashMap<String, Schema> = match self.temps.read().get(&query) {
            Some(ns) => ns
                .iter()
                .map(|(name, t)| (name.clone(), t.schema().clone()))
                .collect(),
            None => HashMap::new(),
        };
        let (compiled, _) = compile_stage(plan, &base, &temps);
        (!compiled.is_empty()).then_some(compiled)
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
    /// numbering as the recorder). Operators without a program — or whose
    /// program fails to bind against the runtime table — fall back to the
    /// tree-walking evaluator.
    programs: Option<&'a CompiledStage>,
    /// The query's cooperative cancellation token: operator morsel loops,
    /// send loops, and exchange waits poll it and bail out by panicking
    /// (contained by [`execute_stage`]), bounding cancel/deadline latency
    /// by one morsel instead of one stage.
    cancel: Option<&'a CancelToken>,
}

impl<'a> NodeExec<'a> {
    /// Executor for `query` with parameters bound and exchange ids starting
    /// at `exchange_base` (must be identical on all nodes for a given
    /// stage; distinct stages of one query use disjoint ranges). Temp
    /// relations materialized by the query's earlier stages are read from
    /// the node's per-query namespace. Runs unprofiled, on the tree walker
    /// and uncancellable; `execute_stage` is how queries run.
    pub fn new(ctx: &'a NodeCtx, query: QueryId, params: &'a [Value], exchange_base: u32) -> Self {
        Self {
            ctx,
            query,
            params,
            next_exchange: AtomicU32::new(exchange_base),
            recorder: None,
            programs: None,
            cancel: None,
        }
    }

    /// Panic out of the current operator if the query was cancelled or
    /// its deadline passed (no-op without a token).
    fn check_cancel(&self) {
        if let Some(token) = self.cancel {
            token.check_morsel();
        }
    }

    fn programs_at(&self, idx: usize) -> Option<&'a OpPrograms> {
        self.programs.and_then(|p| p.get(idx))
    }

    /// Execute `plan`, returning this node's share of the result.
    pub fn execute(&self, plan: &Plan) -> Batch {
        self.execute_at(plan, 0)
    }

    /// Execute the operator at pre-order index `idx` (see
    /// [`crate::profile::plan_labels`] for the numbering), recording its
    /// span when profiling is on.
    fn execute_at(&self, plan: &Plan, idx: usize) -> Batch {
        // Operator boundaries are cancellation points too, covering
        // operators whose inner loops run outside this module (join
        // build/probe, aggregation, sort).
        self.check_cancel();
        if let Some(rec) = self.recorder {
            rec.op_enter(idx);
        }
        let (out, rows_in) = match plan {
            Plan::Scan {
                table,
                filter,
                project,
            } => {
                let t = self.ctx.local_table(*table);
                let rows_in = t.rows() as u64;
                let out = match (filter, project) {
                    (Some(pred), project) => {
                        // Filter to a selection vector first, then gather
                        // only the surviving rows of the projected columns
                        // — never materializing pruned columns.
                        let prog = self.programs_at(idx).and_then(|p| p.filter.as_ref());
                        let indices = self.filter_indices(&t, pred, prog);
                        Batch::Owned(match project {
                            Some(names) => {
                                let cols: Vec<usize> =
                                    names.iter().map(|n| t.schema().index_of(n)).collect();
                                Table::new(
                                    t.schema().project(&cols),
                                    cols.iter().map(|&c| t.column(c).gather(&indices)).collect(),
                                )
                            }
                            None => t.gather(&indices),
                        })
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
            Plan::Filter { input, predicate } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let prog = self.programs_at(idx).and_then(|p| p.filter.as_ref());
                let indices = self.filter_indices(&t, predicate, prog);
                (Batch::Owned(t.gather(&indices)), rows_in)
            }
            Plan::Map { input, outputs } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let progs = self.programs_at(idx);
                (Batch::Owned(self.parallel_map(&t, outputs, progs)), rows_in)
            }
            Plan::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                kind,
            } => {
                // Pre-order: probe renders first, so it is idx + 1 and the
                // build subtree starts after the whole probe subtree.
                let build_idx_base = idx + 1 + plan_node_count(probe);
                let build_t = self.execute_at(build, build_idx_base).into_arc();
                let build_idx: Vec<usize> = build_keys
                    .iter()
                    .map(|k| build_t.schema().index_of(k))
                    .collect();
                let build_rows = build_t.rows() as u64;
                let jt = JoinTable::build_cancellable(build_t, &build_idx, self.cancel);
                let probe_t = self.execute_at(probe, idx + 1);
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
            } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let group_idx: Vec<usize> =
                    group_by.iter().map(|g| t.schema().index_of(g)).collect();
                let out = Batch::Owned(aggregate_with(
                    &t,
                    &group_idx,
                    aggs,
                    *phase,
                    &self.ctx.driver,
                    self.params,
                    self.programs_at(idx).map(|p| p.aggs.as_slice()),
                    self.cancel,
                ));
                (out, rows_in)
            }
            Plan::Sort { input, keys, limit } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                (Batch::Owned(sort_table(&t, keys, *limit)), rows_in)
            }
            Plan::Exchange { input, kind } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let id = self.next_exchange.fetch_add(1, Ordering::Relaxed);
                (Batch::Owned(self.run_exchange(idx, id, kind, &t)), rows_in)
            }
        };
        if let Some(rec) = self.recorder {
            rec.op_exit(idx, rows_in, out.rows() as u64);
        }
        out
    }

    // -- local pipelines ----------------------------------------------------

    /// Evaluate a predicate morsel-parallel into a sorted selection
    /// vector, via the compiled program when one is supplied (and binds).
    fn filter_indices(&self, t: &Table, pred: &Expr, prog: Option<&ExprProgram>) -> Vec<usize> {
        let bound: Option<BoundProgram<'_>> = prog.and_then(|p| p.bind(t).ok());
        let parts = self.ctx.driver.run(
            t.rows(),
            |_| Vec::<usize>::new(),
            |keep, _, m| {
                self.check_cancel();
                let mask = match &bound {
                    Some(b) => b.eval_mask(t, m.range(), self.params),
                    None => eval(pred, t, m.range(), self.params).into_mask(),
                };
                for (i, k) in mask.into_iter().enumerate() {
                    if k {
                        keep.push(m.start + i);
                    }
                }
            },
        );
        let mut indices: Vec<usize> = parts.into_iter().flatten().collect();
        indices.sort_unstable();
        indices
    }

    fn parallel_map(&self, t: &Table, outputs: &[MapExpr], progs: Option<&OpPrograms>) -> Table {
        // Bind this operator's compiled output programs once.
        let bound: Vec<Option<BoundProgram<'_>>> = match progs {
            Some(ps) if ps.outputs.len() == outputs.len() => ps
                .outputs
                .iter()
                .map(|(_, p)| p.as_ref().and_then(|p| p.bind(t).ok()))
                .collect(),
            _ => (0..outputs.len()).map(|_| None).collect(),
        };
        let parts = self.ctx.driver.run(
            t.rows(),
            |_| Vec::<(usize, Vec<Column>)>::new(),
            |acc, _, m| {
                self.check_cancel();
                // One index vector per morsel, shared by every raw
                // pass-through output.
                let mut indices: Option<Vec<usize>> = None;
                let cols: Vec<Column> = outputs
                    .iter()
                    .zip(&bound)
                    .map(|(o, b)| match (b, &o.expr) {
                        (Some(bp), _) => bp.eval(t, m.range(), self.params).into_column().0,
                        // Bare column references pass through raw: evaluating
                        // them would promote Decimal columns to f64 and lose
                        // the fixed-point representation (and the Date/Decimal
                        // logical type) across the projection.
                        (None, Expr::Col(name)) if o.dtype.is_none() => {
                            let indices = indices.get_or_insert_with(|| m.range().collect());
                            t.column(t.schema().index_of(name)).gather(indices)
                        }
                        _ => eval(&o.expr, t, m.range(), self.params).into_column().0,
                    })
                    .collect();
                acc.push((m.start, cols));
            },
        );
        let mut pieces: Vec<(usize, Vec<Column>)> = parts.into_iter().flatten().collect();
        pieces.sort_by_key(|(start, _)| *start);

        let schema = map_schema(t, outputs, self.params);
        let mut out = Table::empty(schema.clone());
        for (_, cols) in pieces {
            out.append(&Table::new(schema.clone(), cols));
        }
        out
    }

    // -- exchange -----------------------------------------------------------

    fn run_exchange(&self, op_idx: usize, id: u32, kind: &ExchangeKind, input: &Table) -> Table {
        let ctx = self.ctx;
        let n = ctx.nodes;
        let me = ctx.node;
        let schema = input.schema();

        let expected_lasts = match kind {
            ExchangeKind::Gather if me.0 != 0 => 0,
            _ if n <= 1 => 0,
            _ => u32::from(n - 1),
        };
        ctx.hub.expect_lasts(self.query, id, expected_lasts);

        let send_t0 = Instant::now();
        let ser = RowSerializer::new(schema);
        let recorder = self.recorder.map(|rec| (rec, op_idx));
        let socket0 = ctx.driver.worker_socket(0);
        match kind {
            ExchangeKind::HashPartition(keys) => {
                let key_idx: Vec<usize> = keys.iter().map(|k| schema.index_of(k)).collect();
                self.partition_and_send(id, recorder, &ser, input, &key_idx);
            }
            ExchangeKind::Broadcast => self.send_in_order(
                MessageWriter::broadcast(ctx, self.query, id, recorder, &ser, socket0),
                input,
            ),
            // Everything goes to bucket 0, the coordinator's, whose own
            // rows pass through below without being serialized.
            ExchangeKind::Gather if me.0 != 0 => self.send_in_order(
                MessageWriter::partitioned(ctx, self.query, id, recorder, &ser, socket0, 1),
                input,
            ),
            ExchangeKind::Gather => {}
        }
        self.send_lasts(id, kind);
        if let Some(rec) = self.recorder {
            rec.add_send_time(op_idx, send_t0.elapsed());
        }

        let out = match kind {
            // Non-coordinators produce nothing further.
            ExchangeKind::Gather if me.0 != 0 => Table::empty(schema.clone()),
            ExchangeKind::Gather => {
                let mut out = self.consume(op_idx, id, input, n as usize);
                out.append(input);
                out
            }
            ExchangeKind::Broadcast => self.consume(op_idx, id, input, n as usize),
            ExchangeKind::HashPartition(_) => self.consume(op_idx, id, input, 1),
        };
        ctx.hub.finish(self.query, id);
        out
    }

    /// Figure 7 steps 1–4, a morsel at a time: one bucket per row from the
    /// CRC32 of its key, the row ids scattered into one selection vector
    /// per bucket, each selection serialized as column runs into that
    /// bucket's message.
    fn partition_and_send(
        &self,
        id: u32,
        recorder: Option<(&NodeRecorder, usize)>,
        ser: &RowSerializer,
        input: &Table,
        key_idx: &[usize],
    ) {
        let ctx = self.ctx;
        let buckets = ctx.nodes as usize * ctx.classic_units.unwrap_or(1) as usize;
        // Same canonicalization as the join hash: a Decimal repartition key
        // must land on the node where the equal Float64 key lands.
        let key_cols = crate::ops::join_key_cols(input, key_idx);

        struct Scatter<'a> {
            writer: MessageWriter<'a>,
            bucket_of: Vec<u32>,
            selections: Vec<Vec<usize>>,
        }
        let workers = ctx.driver.run(
            input.rows(),
            |w| Scatter {
                writer: MessageWriter::partitioned(
                    ctx, self.query, id, recorder, ser, w.socket, buckets,
                ),
                bucket_of: Vec::new(),
                selections: vec![Vec::new(); buckets],
            },
            |st, _, m| {
                self.check_cancel();
                bucket_vector(&key_cols, m.range(), buckets, &mut st.bucket_of);
                for (row, &bucket) in m.range().zip(&st.bucket_of) {
                    st.selections[bucket as usize].push(row);
                }
                for (bucket, selection) in st.selections.iter_mut().enumerate() {
                    st.writer.write(bucket, input, Rows::Sel(selection));
                    selection.clear();
                }
            },
        );
        for st in workers {
            st.writer.finish();
        }
    }

    /// Broadcast and gather: serialize the input in row order through
    /// `writer`'s single destination, checking for cancellation per chunk.
    fn send_in_order(&self, mut writer: MessageWriter<'_>, input: &Table) {
        let step = self.ctx.driver.morsel_size();
        for start in (0..input.rows()).step_by(step) {
            self.check_cancel();
            let end = (start + step).min(input.rows());
            writer.write(0, input, Rows::Span(start, end));
        }
        writer.finish();
    }

    fn send_lasts(&self, id: u32, kind: &ExchangeKind) {
        let ctx = self.ctx;
        if ctx.nodes <= 1 {
            return;
        }
        let targets: Vec<NodeId> = match kind {
            ExchangeKind::Gather => {
                if ctx.node.0 == 0 {
                    return;
                }
                vec![NodeId(0)]
            }
            _ => (0..ctx.nodes)
                .filter(|&t| t != ctx.node.0)
                .map(NodeId)
                .collect(),
        };
        for t in targets {
            let mut msg = Vec::with_capacity(HEADER_LEN);
            encode_header(self.query, id, FLAG_LAST, 0, 0, &mut msg);
            ctx.to_mux
                .send(MuxCmd::Send {
                    target: t,
                    payload: Bytes::from(msg),
                    pool_socket: SocketId(0),
                })
                .expect("multiplexer alive");
        }
    }

    /// Figure 7 steps 5–7: workers drain NUMA-local receive queues (5a),
    /// steal across sockets when idle (5b), deserialize (6), and hand the
    /// tuples to the next pipeline (7) — here: every message's chunks are
    /// appended straight onto the worker's columns, and the workers'
    /// columns become the result table.
    ///
    /// A worker's columns start out sized for its share of what a balanced
    /// exchange delivers to this node, `copies` times the node's own
    /// `input`: once for a repartition (every node keeps 1/n of every
    /// node's rows), n times for a broadcast and at the coordinator of a
    /// gather — and an eighth over, because no split is exactly even and a
    /// column that outgrows its reserve by one row is moved whole. A wrong
    /// guess costs little — columns still grow on demand, and reserve that
    /// is never written is never paged in — while a right one saves
    /// regrowing every column a dozen times under the messages being freed
    /// around it.
    fn consume(&self, op_idx: usize, id: u32, input: &Table, copies: usize) -> Table {
        let ctx = self.ctx;
        let schema = input.schema();
        let de = RowDeserializer::new(schema);
        let stealing = !ctx.is_classic();
        let workers = ctx.driver.workers() as usize;
        let share = |own: usize| own * copies / workers * 9 / 8;

        let pieces = ctx.driver.on_each_worker(|w| {
            let own_queue = if stealing {
                w.socket.0 as usize
            } else {
                w.id as usize
            };
            let mut columns = de.empty_columns();
            for (column, like) in columns.iter_mut().zip(input.columns()) {
                column.reserve(share(like.len()), share(like.str_bytes()));
            }
            let mut wait = Duration::ZERO;
            let mut batches = 0u64;
            loop {
                // Time blocked on the receive hub: the worker's share of
                // network wait at this exchange boundary. The cancellable
                // pop polls the token while blocked, so a cancel/deadline
                // lands even when this node is starved waiting on its
                // peers.
                let pop_t0 = Instant::now();
                let msg = ctx
                    .hub
                    .pop_cancellable(self.query, id, own_queue, stealing, self.cancel);
                wait += pop_t0.elapsed();
                let Some(msg) = msg else { break };
                batches += 1;
                // Reading a remote message buffer crosses QPI.
                ctx.topology
                    .charge_access(w.socket, msg.mem_socket, msg.data.len());
                de.decode_into(&msg.data, &mut columns)
                    .unwrap_or_else(|e| panic!("malformed exchange message: {e}"));
            }
            if let Some(rec) = self.recorder {
                rec.add_consume(op_idx, wait, batches);
            }
            Table::new(schema.clone(), columns)
        });

        {
            let mut loads = ctx.consume_loads.lock();
            loads.resize(pieces.len(), 0);
            for (load, piece) in loads.iter_mut().zip(&pieces) {
                *load += piece.rows() as u64;
            }
        }
        Table::concat(schema, pieces)
    }
}

/// Project `t` to the named columns, in order.
fn project_table(t: &Table, names: &[String]) -> Table {
    let idx: Vec<usize> = names.iter().map(|n| t.schema().index_of(n)).collect();
    t.project(&idx)
}

/// Compute the output schema of a Map by evaluating over zero rows.
fn map_schema(t: &Table, outputs: &[MapExpr], params: &[Value]) -> Schema {
    use hsqp_storage::Field;
    let fields: Vec<Field> = outputs
        .iter()
        .map(|o| {
            let dtype = o.dtype.unwrap_or_else(|| match &o.expr {
                // Matches the raw pass-through in `parallel_map`: a bare
                // column reference keeps its input logical type.
                Expr::Col(name) => t.schema().fields()[t.schema().index_of(name)].dtype,
                _ => eval(&o.expr, t, 0..0, params).into_column().1,
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
/// on the same node when repartitioned (mirrors
/// [`crate::ops::join_key_of`]). A single Int64 key hashes the bytes
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
