//! The simulated cluster: `n` database servers inside one process.
//!
//! A [`Cluster`] is the set-up and load shell of the in-process engine. It
//! builds the simulated network fabric, starts `n` nodes on it
//! (`start_node`: worker pool, NUMA topology, message pool, multiplexer
//! thread), distributes relations across them per the configured
//! placement, and owns a [`Coordinator`] — to which it derefs, so
//! `cluster.submit(..)`, `run`, `metrics`, … are the coordinator's.
//! Admission, scheduling, the stage loop and cleanup live there
//! ([`crate::coordinator`]), shared with the socket cluster.
//!
//! What is particular to this cluster is its `Backend`, and that is only
//! how a stage reaches the nodes: a direct call. Each node runs the stage
//! on the query's worker there (`NodeCtx::stage`, the runtime a node
//! process runs too) and replies on a channel. Every node executes the
//! same plan SPMD, exchanges redistribute tuples over the multiplexers, the
//! [`NetScheduler`] arbitrates the fabric among the in-flight queries (the
//! contended regime the paper's global network scheduling is designed for),
//! and node 0's output is the result. A node that fails aborts its peers
//! with `FLAG_ABORT` frames over the fabric, as a node process does over
//! sockets.

use std::ops::Deref;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use parking_lot::Mutex;

use hsqp_net::socket::MAX_FRAME;
use hsqp_net::{
    CompletionMode, Fabric, FabricConfig, LinkSpec, NetScheduler, NodeId, QueryId, RdmaConfig,
    RdmaNetwork, TcpConfig, TcpNetwork, Transport as NetTransport,
};
use hsqp_numa::AllocPolicy;
use hsqp_storage::placement::{chunk_split, hash_partition, Placement};
use hsqp_storage::Table;
use hsqp_tpch::{TpchDb, TpchTable};

use crate::coordinator::{Backend, Coordinator, StageCall, StageOutcome, StageReplies};
pub use crate::coordinator::{QueryHandle, QueryResult};
use crate::error::EngineError;
use crate::exchange::{Traffic, HEADER_LEN};
use crate::exec::{start_node, NodeCtx, StageJob};
use crate::metrics::MetricsSnapshot;

/// Which network stack the multiplexers use (the three lines of Figure 3).
#[derive(Debug, Clone)]
pub enum Transport {
    /// RDMA verbs with optional round-robin network scheduling (§3.2.3).
    Rdma {
        /// Low-latency round-robin scheduling on/off.
        scheduling: bool,
        /// Completion notification mode (§2.2.4).
        completion: CompletionMode,
    },
    /// TCP sockets (IPoIB or Ethernet, depending on the fabric link).
    Tcp {
        /// Socket tuning (Figure 5 ladder).
        config: TcpConfig,
        /// Round-robin scheduling (the paper found it does not help TCP).
        scheduling: bool,
    },
}

impl Transport {
    /// The default RDMA transport (alias for
    /// [`rdma_scheduled`](Self::rdma_scheduled), the paper's engine).
    pub fn rdma() -> Self {
        Self::rdma_scheduled()
    }

    /// The paper's engine: RDMA + network scheduling, event completions.
    pub fn rdma_scheduled() -> Self {
        Transport::Rdma {
            scheduling: true,
            completion: CompletionMode::Event,
        }
    }

    /// RDMA without network scheduling (ablation).
    pub fn rdma_unscheduled() -> Self {
        Transport::Rdma {
            scheduling: false,
            completion: CompletionMode::Event,
        }
    }

    /// Tuned TCP (connected mode, 64 k MTU, separate IRQ core).
    pub fn tcp() -> Self {
        Transport::Tcp {
            config: TcpConfig::tuned(),
            scheduling: false,
        }
    }
}

/// Exchange operator model to use (§3.1 vs §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Hybrid parallelism: decoupled exchanges, n parallel units, work
    /// stealing (the paper's contribution).
    #[default]
    Hybrid,
    /// Classic exchange operators: n·t parallel units, static partition
    /// ownership, no stealing, per-unit broadcast copies.
    Classic,
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated servers.
    pub nodes: u16,
    /// Worker threads per server (the paper's servers run 20 hyper-threaded
    /// cores; scale to the host machine).
    pub workers_per_node: u16,
    /// Link standard of the fabric (Table 1).
    pub link: LinkSpec,
    /// Network stack.
    pub transport: Transport,
    /// Exchange operator model.
    pub engine: EngineKind,
    /// NUMA sockets per server.
    pub sockets: u16,
    /// Remote-access penalty in ns/byte (0 disables NUMA simulation).
    pub numa_cost_ns: f64,
    /// Message-buffer allocation policy (Figure 9).
    pub alloc_policy: AllocPolicy,
    /// Tuple bytes per network message (the paper uses 512 KB).
    pub message_capacity: usize,
    /// Base-relation placement (§4.1).
    pub placement: Placement,
    /// Switch-contention modeling on/off.
    pub switch_contention: bool,
    /// Queries the dispatcher runs concurrently; further submissions queue
    /// (admission control). Each in-flight query's stages run SPMD over
    /// the shared multiplexers.
    pub max_concurrent: u16,
    /// Collect per-query [`QueryProfile`]s (span-based profiler). The
    /// recorder is lock-free atomics per node thread; turning it off
    /// removes even that overhead for benchmark baselines.
    ///
    /// [`QueryProfile`]: crate::profile::QueryProfile
    pub profiling: bool,
    /// Submissions that may wait for a dispatcher at once; one more is
    /// rejected with [`EngineError::Admission`]. `None` = unbounded.
    pub max_queued: Option<usize>,
}

impl ClusterConfig {
    /// The paper's configuration scaled to a host machine: RDMA +
    /// scheduling over 4×QDR InfiniBand, hybrid parallelism, chunked
    /// placement.
    pub fn paper(nodes: u16) -> Self {
        Self {
            nodes,
            workers_per_node: 4,
            link: LinkSpec::IB_4X_QDR,
            transport: Transport::rdma_scheduled(),
            engine: EngineKind::Hybrid,
            sockets: 2,
            numa_cost_ns: 0.6,
            alloc_policy: AllocPolicy::NumaAware,
            message_capacity: 512 * 1024,
            placement: Placement::Chunked,
            switch_contention: true,
            max_concurrent: 4,
            profiling: true,
            max_queued: None,
        }
    }

    /// Small/fast configuration for tests and examples: two workers, small
    /// messages, NUMA cost off.
    pub fn quick(nodes: u16) -> Self {
        Self {
            workers_per_node: 2,
            numa_cost_ns: 0.0,
            message_capacity: 32 * 1024,
            ..Self::paper(nodes)
        }
    }

    /// Gigabit-Ethernet TCP configuration (Figure 3's bottom line).
    pub fn tcp_gbe(nodes: u16) -> Self {
        Self {
            link: LinkSpec::GBE,
            transport: Transport::tcp(),
            ..Self::paper(nodes)
        }
    }

    /// TCP over InfiniBand (Figure 3's middle line).
    pub fn tcp_infiniband(nodes: u16) -> Self {
        Self {
            transport: Transport::tcp(),
            ..Self::paper(nodes)
        }
    }

    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.nodes == 0 {
            return Err(EngineError::Config("need at least one node".into()));
        }
        if self.workers_per_node == 0 {
            return Err(EngineError::Config("need at least one worker".into()));
        }
        if self.sockets == 0 {
            return Err(EngineError::Config("need at least one socket".into()));
        }
        if self.message_capacity < 1024 {
            return Err(EngineError::Config("message capacity below 1 KiB".into()));
        }
        // A message and its header travel as one socket frame.
        if self.message_capacity > MAX_FRAME - HEADER_LEN {
            return Err(EngineError::Config(format!(
                "message capacity above {} bytes, a frame less its header",
                MAX_FRAME - HEADER_LEN
            )));
        }
        Coordinator::validate(self.max_concurrent, self.max_queued)
    }
}

/// A simulated database cluster.
///
/// Derefs to its [`Coordinator`] for everything about submitting and
/// running queries. Tears everything down on [`shutdown`](Self::shutdown)
/// or drop.
pub struct Cluster {
    coordinator: Coordinator,
    backend: Arc<LocalBackend>,
    /// The scale factor of the TPC-H data last loaded by
    /// [`load_tpch_db`](Self::load_tpch_db), which
    /// [`Planner::for_cluster`](crate::planner::Planner::for_cluster)
    /// plans from.
    sf: Mutex<Option<f64>>,
}

/// The nodes of a simulated cluster and how a stage runs on them.
struct LocalBackend {
    cfg: ClusterConfig,
    fabric: Arc<Fabric>,
    nodes: Vec<Arc<NodeCtx>>,
    scheduler: Option<Arc<NetScheduler>>,
}

impl Deref for Cluster {
    type Target = Coordinator;

    fn deref(&self) -> &Coordinator {
        &self.coordinator
    }
}

impl Cluster {
    /// Start a cluster: build the fabric and the nodes on it (one
    /// multiplexer thread each), then the coordinator's dispatcher pool
    /// (`max_concurrent` workers).
    pub fn start(cfg: ClusterConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        let n = cfg.nodes;
        let fabric_cfg = FabricConfig {
            link: cfg.link,
            switch_contention: cfg.switch_contention,
            ..FabricConfig::default()
        };
        let fabric = Arc::new(Fabric::new(n, fabric_cfg));

        type Endpoints = Box<dyn Fn(NodeId) -> Box<dyn NetTransport>>;
        let (scheduling, endpoint): (bool, Endpoints) = match &cfg.transport {
            Transport::Rdma {
                scheduling,
                completion,
            } => {
                let rc = RdmaConfig {
                    completion: *completion,
                    ..RdmaConfig::default()
                };
                let net = RdmaNetwork::new(Arc::clone(&fabric), rc);
                let endpoint = move |node| {
                    let ep = net.endpoint(node);
                    // The paper posts the hardware maximum of 16 k work
                    // requests; we provision generously.
                    ep.post_recvs(1 << 30);
                    Box::new(ep) as Box<dyn NetTransport>
                };
                (*scheduling, Box::new(endpoint))
            }
            Transport::Tcp { config, scheduling } => {
                let net = TcpNetwork::new(Arc::clone(&fabric), *config);
                let endpoint = move |node| Box::new(net.endpoint(node)) as Box<dyn NetTransport>;
                (*scheduling, Box::new(endpoint))
            }
        };
        // No multiplexer is a party to begin with: each joins the rounds
        // when it has messages queued.
        let scheduler = (scheduling && n > 1).then(|| NetScheduler::new(0));
        let nodes = (0..n)
            .map(|i| {
                start_node(
                    NodeId(i),
                    &cfg,
                    Arc::clone(&fabric),
                    endpoint(NodeId(i)),
                    scheduler.clone(),
                )
            })
            .collect();

        let backend = Arc::new(LocalBackend {
            cfg,
            fabric,
            nodes,
            scheduler,
        });
        let coordinator = Coordinator::start(
            Arc::clone(&backend) as Arc<dyn Backend>,
            backend.cfg.max_concurrent,
            backend.cfg.max_queued,
        );
        Ok(Self {
            coordinator,
            backend,
            sf: Mutex::new(None),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.backend.cfg
    }

    /// The network fabric (statistics).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.backend.fabric
    }

    /// Per-node execution contexts (benchmark instrumentation).
    pub fn node_ctx(&self, node: u16) -> &Arc<NodeCtx> {
        &self.backend.nodes[node as usize]
    }

    /// Generate TPC-H at `sf` and distribute it per the configured
    /// placement (§4.1).
    pub fn load_tpch(&self, sf: f64) -> Result<(), EngineError> {
        self.load_tpch_db(TpchDb::generate(sf))
    }

    /// Distribute an already-generated TPC-H database, a relation and
    /// within it a column at a time (the relation's columns are dropped as
    /// they are cut, so no row is ever held twice), and record its scale
    /// factor: planners built with
    /// [`Planner::for_cluster`](crate::planner::Planner::for_cluster) plan
    /// from the statistics declared for it and the exact loaded row counts.
    pub fn load_tpch_db(&self, db: TpchDb) -> Result<(), EngineError> {
        let n = self.backend.nodes.len();
        let sf = db.scale_factor();
        for (kind, table) in db.into_tables() {
            let parts: Vec<Table> = match self.backend.cfg.placement {
                Placement::Chunked => chunk_split(table, n),
                Placement::Partitioned => hash_partition(table, 0, n),
            };
            self.load_table(kind, parts)?;
        }
        *self.sf.lock() = Some(sf);
        Ok(())
    }

    /// Load an arbitrary relation with explicit per-node parts.
    pub fn load_table(&self, kind: TpchTable, parts: Vec<Table>) -> Result<(), EngineError> {
        let nodes = &self.backend.nodes;
        if parts.len() != nodes.len() {
            return Err(EngineError::Config(format!(
                "expected {} parts, got {}",
                nodes.len(),
                parts.len()
            )));
        }
        for (node, part) in nodes.iter().zip(parts) {
            node.tables.write().insert(kind, part);
        }
        Ok(())
    }

    /// The scale factor of the TPC-H data loaded via
    /// [`load_tpch`](Self::load_tpch) / [`load_tpch_db`](Self::load_tpch_db),
    /// if any was.
    pub fn tpch_scale_factor(&self) -> Option<f64> {
        *self.sf.lock()
    }

    /// Total rows of `table` across all nodes, if it is loaded (the
    /// planner's source of exact cardinalities).
    pub fn table_rows(&self, table: TpchTable) -> Option<u64> {
        let mut total = 0u64;
        let mut loaded = false;
        for node in &self.backend.nodes {
            if let Some(t) = node.tables.read().get(&table) {
                total += t.rows() as u64;
                loaded = true;
            }
        }
        loaded.then_some(total)
    }

    /// Number of queries whose temp namespaces are still registered on
    /// node 0 (leak check: zero once no query is in flight).
    pub fn active_temp_namespaces(&self) -> usize {
        self.backend.nodes[0].temps.read().len()
    }

    /// Stop the dispatcher pool and all nodes, then tear the cluster down.
    /// In-flight queries complete; queued ones fail with
    /// [`EngineError::ClusterDown`].
    pub fn shutdown(self) {}
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The dispatchers first, then the nodes they depend on.
        self.coordinator.close();
        for node in &self.backend.nodes {
            node.stop();
        }
    }
}

impl Backend for LocalBackend {
    /// Hand every node the stage and wait for all of their replies. A node
    /// that fails aborts the query on its peers with `FLAG_ABORT` frames,
    /// so a peer blocked mid-exchange on last-markers that will never
    /// arrive fails too instead of wedging this dispatcher slot.
    fn run_stage(
        &self,
        call: &StageCall<'_>,
        submitted: Instant,
    ) -> Result<StageOutcome, EngineError> {
        let (tx, rx) = mpsc::channel();
        let stage = Arc::new(call.stage.clone());
        for (i, node) in self.nodes.iter().enumerate() {
            let tx = tx.clone();
            let job = StageJob {
                stage_idx: call.stage_idx,
                stage: Arc::clone(&stage),
                params: call.params.to_vec(),
                deadline: call.cancel.deadline(),
                profile: self.cfg.profiling.then_some(submitted),
                reply: Box::new(move |reply| {
                    let _ = tx.send((i, reply));
                }),
            };
            node.stage(call.query, call.cancel, job);
        }
        drop(tx);
        // Ends once every job has replied, or been dropped unanswered.
        let mut replies = StageReplies::new(self.nodes.len());
        for (node, reply) in rx {
            replies.add(node, reply);
        }
        replies.finish(call)
    }

    /// The workers keep the query's own token as their tripwire, so this
    /// trips it; the coordinator has mapped the failure to its error by
    /// then.
    fn abort(&self, query: QueryId) {
        for node in &self.nodes {
            node.abort(query);
        }
    }

    /// The query's traffic, summed over the nodes' query workers.
    fn retire(&self, query: QueryId) -> Traffic {
        NodeCtx::retire(&self.nodes, query)
    }

    /// Network scheduler barrier rounds, every node's counters summed by
    /// name, per-link bytes and messages.
    fn node_counters(&self, snap: &mut MetricsSnapshot) {
        if let Some(sched) = &self.scheduler {
            snap.add_counter("net.scheduler.rounds", sched.rounds());
        }
        for (name, value) in self.nodes.iter().flat_map(|n| n.counters()) {
            snap.add_counter(name, value);
        }
        for i in 0..self.cfg.nodes {
            let stats = self.fabric.stats(NodeId(i));
            snap.add_counter(&format!("net.node{i}.bytes_sent"), stats.bytes_sent());
            snap.add_counter(
                &format!("net.node{i}.bytes_received"),
                stats.bytes_received(),
            );
            snap.add_counter(&format!("net.node{i}.messages_sent"), stats.messages_sent());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::{AggFunc, AggSpec, Plan};
    use crate::queries::Query;
    use hsqp_storage::DataType;
    use std::time::Duration;

    #[test]
    fn start_and_shutdown() {
        let c = Cluster::start(ClusterConfig::quick(2)).unwrap();
        c.shutdown();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Cluster::start(ClusterConfig {
            nodes: 0,
            ..ClusterConfig::quick(1)
        })
        .is_err());
        assert!(Cluster::start(ClusterConfig {
            message_capacity: 10,
            ..ClusterConfig::quick(1)
        })
        .is_err());
        // A message and its header fill one frame at most.
        let capacity = |message_capacity| ClusterConfig {
            message_capacity,
            ..ClusterConfig::quick(1)
        };
        assert!(capacity(MAX_FRAME - HEADER_LEN).validate().is_ok());
        for too_big in [MAX_FRAME - HEADER_LEN + 1, MAX_FRAME, usize::MAX] {
            assert!(capacity(too_big).validate().is_err(), "{too_big}");
        }
        assert!(Cluster::start(ClusterConfig {
            max_concurrent: 0,
            ..ClusterConfig::quick(1)
        })
        .is_err());
        let queue = |max_queued| ClusterConfig {
            max_queued,
            ..ClusterConfig::quick(1)
        };
        assert!(queue(Some(0)).validate().is_err());
        assert!(queue(Some(1)).validate().is_ok());
    }

    /// A worker that fails on what it receives takes its node's other
    /// workers with it: they wait for a last-marker only the failed one
    /// would have counted down to, and must be told it is not coming.
    #[test]
    fn malformed_message_fails_the_node_instead_of_hanging_it() {
        use crate::exchange::RecvMsg;
        use crate::exec::NodeExec;

        let c = Cluster::start(ClusterConfig {
            workers_per_node: 3,
            ..ClusterConfig::quick(1)
        })
        .unwrap();
        c.load_tpch(0.01).unwrap();
        let query = QueryId(7 << 20);
        // Waiting in exchange 0's queue before the exchange begins: a chunk
        // that declares more rows than it has bytes.
        let garbage = RecvMsg {
            data: bytes::Bytes::from(vec![0xFF; 64]),
            mem_socket: hsqp_numa::SocketId(0),
        };
        c.node_ctx(0).hub.deliver(query, 0, 0, Some(garbage), false);
        let plan = Plan::scan(TpchTable::Lineitem)
            .repartition(&["l_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let ended = std::thread::scope(|scope| {
            let node = scope.spawn(|| {
                NodeExec::new(c.node_ctx(0), query, &[], 0)
                    .execute(&plan)
                    .rows()
            });
            node.join()
        });
        assert!(ended.is_err(), "a malformed message was swallowed");
        assert!(c.node_ctx(0).hub.is_aborted(query));
        c.shutdown();
    }

    /// A projected scan and a `Map`'s bare column hand on the loaded
    /// column itself; only the computed output is new.
    #[test]
    fn scans_and_maps_share_the_loaded_columns() {
        use crate::exec::NodeExec;
        use crate::plan::MapExpr;
        let c = Cluster::start(ClusterConfig::quick(1)).unwrap();
        c.load_tpch(0.001).unwrap();
        let ctx = c.node_ctx(0);
        let stored = ctx.tables.read()[&TpchTable::Nation].clone();
        let keys = stored.column_by_name("n_nationkey").i64_values();
        let plan = Plan::scan_cols(TpchTable::Nation, &["n_name", "n_nationkey"]).map(vec![
            MapExpr::new("k", col("n_nationkey")),
            MapExpr::new("k1", col("n_nationkey").add(lit(1))),
            MapExpr::new("name", col("n_name")),
        ]);
        let out = NodeExec::new(ctx, QueryId(1), &[], 0).execute(&plan);
        assert_eq!(out.column(0).i64_values().as_ptr(), keys.as_ptr());
        assert_ne!(out.column(1).i64_values().as_ptr(), keys.as_ptr());
        assert!(Arc::ptr_eq(
            out.shared_column(2),
            stored.shared_column(stored.schema().index_of("n_name"))
        ));
        c.shutdown();
    }

    #[test]
    fn single_node_scan_and_aggregate() {
        let c = Cluster::start(ClusterConfig::quick(1)).unwrap();
        c.load_tpch(0.001).unwrap();
        let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_quantity"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let r = c.run_plan(&plan).unwrap();
        assert_eq!(r.row_count(), 1);
        assert!(r.table.value(0, 0).as_i64() > 1000);
        assert_eq!(r.bytes_shuffled, 0);
        c.shutdown();
    }

    #[test]
    fn distributed_count_matches_single_node() {
        let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
            .repartition(&["l_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
            .gather()
            .aggregate(&[], vec![AggSpec::new(AggFunc::Sum, col("cnt"), "total")]);
        let single = {
            let c = Cluster::start(ClusterConfig::quick(1)).unwrap();
            c.load_tpch(0.002).unwrap();
            let r = c.run_plan(&plan).unwrap();
            c.shutdown();
            r.table.value(0, 0).as_f64()
        };
        let multi = {
            let c = Cluster::start(ClusterConfig::quick(3)).unwrap();
            c.load_tpch(0.002).unwrap();
            let r = c.run_plan(&plan).unwrap();
            assert!(r.bytes_shuffled > 0, "3 nodes must shuffle bytes");
            c.shutdown();
            r.table.value(0, 0).as_f64()
        };
        assert_eq!(single, multi);
    }

    #[test]
    fn run_after_shutdown_fails() {
        let c = Cluster::start(ClusterConfig::quick(1)).unwrap();
        let fabric = Arc::clone(c.fabric());
        c.shutdown();
        drop(fabric);
        let c2 = Cluster::start(ClusterConfig::quick(1)).unwrap();
        c2.load_tpch(0.001).unwrap();
        c2.shutdown();
    }

    #[test]
    fn submit_returns_results_asynchronously() {
        let c = Cluster::start(ClusterConfig::quick(2)).unwrap();
        c.load_tpch(0.001).unwrap();
        let plan = Plan::scan_cols(TpchTable::Orders, &["o_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
            .gather();
        let q = Query::single(0, plan);
        let handles: Vec<QueryHandle> = (0..6).map(|_| c.submit(&q).unwrap()).collect();
        // Ids are distinct.
        let mut ids: Vec<u32> = handles.iter().map(|h| h.id().0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 6);
        let rows: Vec<usize> = handles
            .into_iter()
            .map(|h| h.wait().unwrap().row_count())
            .collect();
        assert!(rows.iter().all(|&r| r == rows[0]));
        assert_eq!(c.active_temp_namespaces(), 0);
        c.shutdown();
    }

    #[test]
    fn try_result_and_double_take() {
        let c = Cluster::start(ClusterConfig::quick(1)).unwrap();
        c.load_tpch(0.001).unwrap();
        let q = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).gather(),
        );
        let h = c.submit(&q).unwrap();
        // Poll until done.
        let r = loop {
            if let Some(r) = h.try_result() {
                break r;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(r.unwrap().row_count(), 25);
        assert!(h.is_finished());
        // The result can only be taken once.
        assert!(h.try_result().is_none());
        assert!(matches!(h.wait(), Err(EngineError::Execution(_))));
        c.shutdown();
    }

    #[test]
    fn cancelled_before_start_never_runs() {
        let c = Cluster::start(ClusterConfig {
            max_concurrent: 1,
            ..ClusterConfig::quick(2)
        })
        .unwrap();
        c.load_tpch(0.002).unwrap();
        let q = Query::single(
            0,
            Plan::scan(TpchTable::Lineitem)
                .repartition(&["l_orderkey"])
                .gather(),
        );
        // Saturate the single slot, then cancel queued queries.
        let running: Vec<QueryHandle> = (0..2).map(|_| c.submit(&q).unwrap()).collect();
        let queued: Vec<QueryHandle> = (0..3).map(|_| c.submit(&q).unwrap()).collect();
        for h in &queued {
            h.cancel();
        }
        for h in running {
            assert!(h.wait().is_ok());
        }
        for h in queued {
            match h.wait() {
                // Cancelled in the queue, or the race was lost and it ran
                // to completion — both are legal; wedging is not.
                Err(EngineError::Cancelled) | Ok(_) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        // The engine stays healthy afterwards.
        assert!(c.run(&q).is_ok());
        assert_eq!(c.active_temp_namespaces(), 0);
        c.shutdown();
    }

    #[test]
    fn node_panics_surface_as_errors_not_hangs() {
        let c = Cluster::start(ClusterConfig {
            max_concurrent: 1, // a lost dispatcher slot would wedge everything
            ..ClusterConfig::quick(2)
        })
        .unwrap();
        c.load_tpch(0.001).unwrap();
        // A hand-written plan naming a nonexistent column panics inside
        // the query workers (it never went through the planner's checks).
        let bad = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["no_such_column"]).gather(),
        );
        let h = c.submit(&bad).unwrap();
        match h.wait() {
            Err(EngineError::Execution(msg)) => {
                assert!(msg.contains("failed stage 0"), "unexpected message: {msg}")
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(c.active_temp_namespaces(), 0);
        // The single dispatcher slot survived: later queries still run.
        let ok = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).gather(),
        );
        assert_eq!(c.run(&ok).unwrap().row_count(), 25);
        c.shutdown();
    }

    #[test]
    fn asymmetric_node_failure_aborts_peers_instead_of_wedging() {
        use hsqp_storage::{Field, Schema};
        let c = Cluster::start(ClusterConfig {
            max_concurrent: 1,
            ..ClusterConfig::quick(2)
        })
        .unwrap();
        c.load_tpch(0.001).unwrap();
        // Node 1's NATION part lacks the scanned column, so only node 1
        // fails (its copy of the stage does not compile); node 0 partitions
        // its rows and blocks waiting for node 1's last-markers. Node 1's
        // abort frame must unblock it.
        let good = c.backend.nodes[0].tables.read()[&TpchTable::Nation].clone();
        let bad = Table::empty(Schema::new(vec![Field::new("wrong", DataType::Int64)]));
        c.load_table(TpchTable::Nation, vec![good, bad]).unwrap();
        let q = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"])
                .repartition(&["n_nationkey"])
                .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
                .gather(),
        );
        match c.run(&q) {
            Err(EngineError::Execution(msg)) => {
                assert!(msg.contains("failed stage 0"), "unexpected message: {msg}")
            }
            other => panic!("expected contained failure, got {other:?}"),
        }
        assert_eq!(c.active_temp_namespaces(), 0);
        // The dispatcher slot and the hubs survived for later queries.
        let ok = Query::single(
            0,
            Plan::scan_cols(TpchTable::Orders, &["o_orderkey"])
                .repartition(&["o_orderkey"])
                .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
                .gather()
                .aggregate(&[], vec![AggSpec::new(AggFunc::Sum, col("cnt"), "total")]),
        );
        assert_eq!(c.run(&ok).unwrap().row_count(), 1);
        c.shutdown();
    }

    #[test]
    fn queued_queries_fail_cleanly_on_shutdown() {
        let c = Cluster::start(ClusterConfig {
            max_concurrent: 1,
            ..ClusterConfig::quick(1)
        })
        .unwrap();
        c.load_tpch(0.001).unwrap();
        let q = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).gather(),
        );
        let handles: Vec<QueryHandle> = (0..4).map(|_| c.submit(&q).unwrap()).collect();
        c.shutdown();
        for h in handles {
            match h.wait() {
                Ok(_) | Err(EngineError::ClusterDown) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
    }
}
