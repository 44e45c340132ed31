//! High-level session facade: cluster + planner behind one handle.
//!
//! A [`Session`] is the intended entry point for programmatic use of the
//! engine: it owns a simulated [`Cluster`], loads data, and runs
//! [`LogicalPlan`]s through the distributed [`Planner`] — callers never
//! touch `NodeCtx`, multiplexer commands, or exchange operators.
//!
//! ```
//! use hsqp_engine::session::Session;
//! use hsqp_engine::logical::LogicalPlan;
//! use hsqp_engine::cluster::Transport;
//! use hsqp_engine::expr::{col, lit};
//! use hsqp_engine::plan::{AggFunc, AggSpec};
//! use hsqp_tpch::TpchTable;
//!
//! let session = Session::builder()
//!     .nodes(2)
//!     .transport(Transport::rdma())
//!     .tpch(0.001)
//!     .build()
//!     .unwrap();
//! let plan = LogicalPlan::scan(TpchTable::Lineitem)
//!     .filter(col("l_quantity").lt(lit(10)))
//!     .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
//! let result = session.run(&plan).unwrap();
//! assert_eq!(result.row_count(), 1);
//! session.shutdown();
//! ```

use std::sync::Arc;

use hsqp_tpch::TpchDb;

use crate::cluster::{Cluster, ClusterConfig, EngineKind, QueryHandle, QueryResult, Transport};
use crate::error::EngineError;
use crate::logical::{LogicalPlan, LogicalQuery};
use crate::plan::Plan;
use crate::planner::Planner;
use crate::queries::Query;
use crate::serve::{SubmitOptions, TenantConfig, TenantMetrics};
use crate::stats::{FeedbackCache, StatsMode};

/// Fluent configuration for a [`Session`].
///
/// Starts from [`ClusterConfig::quick`] defaults (2 workers per node, small
/// messages, NUMA cost off) — suitable for programmatic workloads; use
/// [`config`](Self::config) to supply a full [`ClusterConfig`] (e.g. the
/// paper's) instead.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: ClusterConfig,
    sf: Option<f64>,
    stats: StatsMode,
}

impl SessionBuilder {
    fn new() -> Self {
        Self {
            cfg: ClusterConfig::quick(4),
            sf: None,
            stats: StatsMode::Static,
        }
    }

    /// Number of simulated servers (default 4).
    pub fn nodes(mut self, nodes: u16) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Worker threads per server (default 2).
    pub fn workers(mut self, workers: u16) -> Self {
        self.cfg.workers_per_node = workers;
        self
    }

    /// Network stack (default RDMA with round-robin scheduling).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Exchange-operator model (default hybrid parallelism).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Tuple bytes per network message (default 32 KiB).
    pub fn message_capacity(mut self, bytes: usize) -> Self {
        self.cfg.message_capacity = bytes;
        self
    }

    /// Queries the session runs concurrently (default 4); further
    /// [`submit`](Session::submit)ted queries queue for a slot.
    pub fn max_concurrent(mut self, queries: u16) -> Self {
        self.cfg.max_concurrent = queries;
        self
    }

    /// Collect per-query execution profiles (default on). Turn off to
    /// remove even the profiler's atomic-counter overhead from benchmark
    /// baselines.
    pub fn profiling(mut self, on: bool) -> Self {
        self.cfg.profiling = on;
        self
    }

    /// Declare a tenant up front: its weighted-fair share and admission
    /// caps (tenants not declared here self-register with defaults on
    /// first submit — weight 1, no caps). Call once per tenant.
    pub fn tenant(mut self, name: &str, cfg: TenantConfig) -> Self {
        self.cfg.tenants.push((name.to_string(), cfg));
        self
    }

    /// Replace the whole cluster configuration (keeps any `tpch` request).
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Generate and load TPC-H at scale factor `sf` during
    /// [`build`](Self::build).
    pub fn tpch(mut self, sf: f64) -> Self {
        self.sf = Some(sf);
        self
    }

    /// How the planner sources cardinality estimates (default
    /// [`StatsMode::Static`]): `Static` prices alternatives against the
    /// sampled statistics catalog, and `Feedback` additionally re-plans
    /// later stages of multi-stage queries against observed cardinalities
    /// and remembers them across submissions in the session's
    /// [`FeedbackCache`].
    pub fn stats_mode(mut self, mode: StatsMode) -> Self {
        self.stats = mode;
        self
    }

    /// Start the cluster (and load TPC-H if requested).
    pub fn build(self) -> Result<Session, EngineError> {
        if let Some(sf) = self.sf {
            if !sf.is_finite() || sf <= 0.0 {
                return Err(EngineError::Config(
                    "TPC-H scale factor must be positive".into(),
                ));
            }
        }
        let cluster = Cluster::start(self.cfg)?;
        if let Some(sf) = self.sf {
            cluster.load_tpch(sf)?;
        }
        Ok(Session {
            cluster,
            stats: self.stats,
            feedback: Arc::new(FeedbackCache::new()),
        })
    }
}

/// A running engine session: build [`LogicalPlan`]s, call
/// [`run`](Session::run), get tables back.
pub struct Session {
    cluster: Cluster,
    stats: StatsMode,
    feedback: Arc<FeedbackCache>,
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Generate TPC-H at `sf` and distribute it across the cluster.
    pub fn load_tpch(&self, sf: f64) -> Result<(), EngineError> {
        if !sf.is_finite() || sf <= 0.0 {
            return Err(EngineError::Config(
                "TPC-H scale factor must be positive".into(),
            ));
        }
        self.cluster.load_tpch(sf)
    }

    /// Distribute an already-generated TPC-H database.
    pub fn load_tpch_db(&self, db: TpchDb) -> Result<(), EngineError> {
        self.cluster.load_tpch_db(db)
    }

    /// A planner whose cardinality estimates reflect the currently loaded
    /// relations, running in the session's [`StatsMode`] with the
    /// session's [`FeedbackCache`] attached.
    pub fn planner(&self) -> Planner {
        let mut p = Planner::for_cluster(&self.cluster);
        let cfg = p.config_mut();
        cfg.mode = self.stats;
        cfg.feedback = Some(Arc::clone(&self.feedback));
        p
    }

    /// The session's stats mode.
    pub fn stats_mode(&self) -> StatsMode {
        self.stats
    }

    /// The session's observed-cardinality cache: keyed by plan
    /// fingerprint, consulted by the planner in [`StatsMode::Feedback`],
    /// fed by every adaptive execution.
    pub fn feedback_cache(&self) -> &Arc<FeedbackCache> {
        &self.feedback
    }

    /// Lower `logical` to the distributed physical plan [`run`](Self::run)
    /// would execute (for inspection and testing).
    pub fn physical_plan(&self, logical: &LogicalPlan) -> Result<Plan, EngineError> {
        self.planner().plan(logical)
    }

    /// Lower a (possibly multi-stage) query to the physical [`Query`]
    /// [`run`](Self::run) would execute — CTE materialization stages,
    /// parameter stages, and the result stage, each a distributed plan.
    pub fn physical_query(&self, query: impl Into<LogicalQuery>) -> Result<Query, EngineError> {
        self.planner().plan_query(&query.into())
    }

    /// Submit a query for concurrent execution, returning a
    /// [`QueryHandle`] immediately.
    ///
    /// Accepts anything convertible into a [`LogicalQuery`]: a single
    /// [`LogicalPlan`] (by value or reference) runs as a one-stage query,
    /// while a [`LogicalQuery`] built with
    /// [`stage`](LogicalQuery::stage) / [`with`](LogicalQuery::with) /
    /// [`then`](LogicalQuery::then) runs its CTE materializations and
    /// scalar parameter stages before the result stage.
    ///
    /// Up to [`max_concurrent`](SessionBuilder::max_concurrent) submitted
    /// queries execute at once over the shared exchange fabric — every
    /// wire message and temp relation is tagged with the query's id, so
    /// overlapping queries stay fully isolated. The handle exposes
    /// [`wait`](QueryHandle::wait), [`try_result`](QueryHandle::try_result)
    /// and [`cancel`](QueryHandle::cancel); the result carries the query's
    /// own traffic.
    pub fn submit(&self, query: impl Into<LogicalQuery>) -> Result<QueryHandle, EngineError> {
        self.submit_with(query, &SubmitOptions::default())
    }

    /// [`submit`](Self::submit) on behalf of a tenant: the query joins
    /// that tenant's queue, is admitted against its caps, and is scheduled
    /// by weighted deficit round-robin against the other tenants' queues.
    pub fn submit_as(
        &self,
        tenant: &str,
        query: impl Into<LogicalQuery>,
    ) -> Result<QueryHandle, EngineError> {
        self.submit_with(query, &SubmitOptions::tenant(tenant))
    }

    /// [`submit`](Self::submit) with full serving-layer options: tenant
    /// attribution plus an optional deadline after which the query is
    /// cancelled cooperatively (morsel-bounded) and its handle resolves to
    /// [`EngineError::DeadlineExceeded`].
    pub fn submit_with(
        &self,
        query: impl Into<LogicalQuery>,
        opts: &SubmitOptions,
    ) -> Result<QueryHandle, EngineError> {
        let query = query.into();
        if self.stats == StatsMode::Feedback {
            // Stage-at-a-time planning: each stage is lowered only after
            // the previous one ran, so its estimates see the observed
            // cardinalities of this query's earlier stages and of prior
            // submissions (via the session FeedbackCache).
            let qp = self.planner().begin_query(&query)?;
            return self.cluster.submit_adaptive(qp, 0, opts);
        }
        let physical = self.planner().plan_query(&query)?;
        self.cluster.submit_with(&physical, opts)
    }

    /// Submit an already planned physical [`Query`] for concurrent
    /// execution (the escape hatch for plans the planner cannot express).
    pub fn submit_physical(&self, query: &Query) -> Result<QueryHandle, EngineError> {
        self.cluster.submit(query)
    }

    /// Plan and execute a query, returning the coordinator's result —
    /// blocking sugar for [`submit`](Self::submit) followed by
    /// [`QueryHandle::wait`].
    pub fn run(&self, query: impl Into<LogicalQuery>) -> Result<QueryResult, EngineError> {
        self.submit(query)?.wait()
    }

    /// Execute a physical [`Query`] to completion (blocking
    /// sugar for [`submit_physical`](Self::submit_physical)).
    pub fn run_query(&self, query: &Query) -> Result<QueryResult, EngineError> {
        self.submit_physical(query)?.wait()
    }

    /// The underlying cluster (fabric statistics, explicit table loading).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Snapshot the cluster-wide metrics registry: dispatcher queue depth,
    /// admission wait, active/completed query counts, network-scheduler
    /// rounds, and per-link byte counters.
    pub fn metrics(&self) -> crate::metrics::MetricsSnapshot {
        self.cluster.metrics()
    }

    /// Per-tenant serving rollups (submitted / completed / failed /
    /// cancelled / rejected counts plus attributed network traffic),
    /// sorted by tenant name.
    pub fn tenant_metrics(&self) -> Vec<TenantMetrics> {
        self.cluster.tenant_metrics()
    }

    /// Adjust a tenant's weight or admission caps at run time (applies to
    /// scheduling decisions from now on; already-queued queries keep their
    /// slots).
    pub fn configure_tenant(&self, tenant: &str, cfg: TenantConfig) -> Result<(), EngineError> {
        self.cluster.configure_tenant(tenant, cfg)
    }

    /// Tear the session down: consumes the session, whose drop stops the
    /// simulated cluster's multiplexer threads and joins each one — so a
    /// forgotten `shutdown()` cannot leak them either. Provided as the
    /// explicit, graceful path.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::plan::{AggFunc, AggSpec, SortKey};
    use hsqp_tpch::TpchTable;

    #[test]
    fn builder_configures_cluster() {
        let s = Session::builder().nodes(3).workers(1).build().unwrap();
        assert_eq!(s.cluster().config().nodes, 3);
        assert_eq!(s.cluster().config().workers_per_node, 1);
        s.shutdown();
    }

    #[test]
    fn invalid_scale_factor_rejected() {
        assert!(Session::builder().nodes(1).tpch(-1.0).build().is_err());
        assert!(Session::builder().nodes(0).build().is_err());
        // The post-build load path validates too (no panic deep in dbgen).
        let s = Session::builder().nodes(1).build().unwrap();
        assert!(matches!(s.load_tpch(0.0), Err(EngineError::Config(_))));
        assert!(matches!(s.load_tpch(f64::NAN), Err(EngineError::Config(_))));
        s.shutdown();
    }

    #[test]
    fn runs_logical_plans_end_to_end() {
        let s = Session::builder().nodes(2).tpch(0.001).build().unwrap();
        let plan = LogicalPlan::scan(TpchTable::Lineitem)
            .aggregate(
                &["l_returnflag"],
                vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")],
            )
            .sort(vec![SortKey::asc("l_returnflag")]);
        let result = s.run(&plan).unwrap();
        assert!(result.row_count() >= 2, "A/N/R return flags expected");
        // The planner saw real loaded cardinalities.
        let planner = s.planner();
        assert!(planner.config().stats.rows(TpchTable::Lineitem) > 100.0);
        s.shutdown();
    }

    #[test]
    fn tenant_submission_rolls_up_metrics() {
        let s = Session::builder()
            .nodes(1)
            .tpch(0.001)
            .tenant("gold", TenantConfig::weighted(4))
            .build()
            .unwrap();
        let plan = LogicalPlan::scan(TpchTable::Nation)
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]);
        let r = s.submit_as("gold", &plan).unwrap().wait().unwrap();
        assert_eq!(r.row_count(), 1);
        let rollups = s.tenant_metrics();
        let gold = rollups
            .iter()
            .find(|m| m.tenant == "gold")
            .expect("gold tenant rollup");
        assert_eq!(gold.submitted, 1);
        assert_eq!(gold.completed, 1);
        assert_eq!(gold.failed + gold.cancelled + gold.rejected, 0);
        s.shutdown();
    }

    #[test]
    fn planner_errors_surface_cleanly() {
        let s = Session::builder().nodes(1).tpch(0.001).build().unwrap();
        let bad = LogicalPlan::scan(TpchTable::Nation).filter(col("missing").eq(lit(1)));
        match s.run(&bad) {
            Err(EngineError::Planner(msg)) => assert!(msg.contains("missing")),
            other => panic!("expected planner error, got {other:?}"),
        }
        s.shutdown();
    }
}
