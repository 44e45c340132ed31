//! The workloads: their templates, how a cluster is set up for each, and
//! how one template is executed — through the engine's public API only.

use std::sync::Arc;
use std::time::Instant;

use hsqp::engine::cluster::{ClusterConfig, QueryResult};
use hsqp::engine::expr::{col, lit};
use hsqp::engine::logical::LogicalQuery;
use hsqp::engine::plan::{AggFunc, AggSpec, Plan};
use hsqp::engine::planner::{Planner, PlannerConfig, TableStats};
use hsqp::engine::queries::{global_agg, tpch_logical, Query, ALL_QUERIES};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
use hsqp::engine::session::Session;
use hsqp::engine::stats::{StatsCatalog, StatsMode};
use hsqp::engine::EngineError;
use hsqp::tpch::{TpchDb, TpchTable};

use crate::catalog::Kind;
use crate::procs::NodeChildren;
use crate::trace::Tracer;

/// Nodes of every benchmarked cluster (the sizing rule: 2 × 1 worker on a
/// 2-core host).
pub const NODES: u16 = 2;
/// Tuple bytes per exchange message, as `hsqp --message-kb 32`.
const MESSAGE_CAPACITY: usize = 32 * 1024;

/// What a template executes.
pub enum TemplateQuery {
    /// Planned on every execution, as `Session::run` does.
    Logical(LogicalQuery),
    /// A fixed physical plan for `Cluster::run_plan`.
    Physical(Plan),
}

/// One query of a pass.
pub struct Template {
    pub name: String,
    pub query: TemplateQuery,
}

fn count_star() -> Vec<AggSpec> {
    vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")]
}

/// The five exchange-only plans: each moves one relation through one
/// exchange and counts what arrived, so nothing but the exchange works.
fn shuffle_templates() -> Vec<Template> {
    use TpchTable::{Customer, Lineitem, Orders};
    let plans = [
        (
            "wide_repart",
            global_agg(
                Plan::scan(Lineitem).repartition(&["l_orderkey"]),
                count_star(),
            ),
        ),
        (
            "narrow_repart",
            global_agg(
                Plan::scan_cols(Lineitem, &["l_orderkey", "l_partkey"]).repartition(&["l_partkey"]),
                count_star(),
            ),
        ),
        (
            "string_repart",
            global_agg(
                Plan::scan_cols(Orders, &["o_custkey", "o_comment", "o_clerk"])
                    .repartition(&["o_custkey"]),
                count_star(),
            ),
        ),
        // Every node ends up with every row, so a count would scale with
        // the node count; these two do not, and the answer must equal the
        // 3-node reference's.
        (
            "broadcast_orders",
            global_agg(
                Plan::scan(Orders).broadcast(),
                vec![
                    AggSpec::new(AggFunc::Avg, col("o_totalprice"), "avg_price"),
                    AggSpec::new(AggFunc::Max, col("o_orderkey"), "max_key"),
                ],
            ),
        ),
        ("gather_customer", Plan::scan(Customer).gather()),
    ];
    plans
        .into_iter()
        .map(|(name, plan)| Template {
            name: name.to_string(),
            query: TemplateQuery::Physical(plan),
        })
        .collect()
}

/// The templates of one pass, in their canonical order.
pub fn templates(kind: Kind) -> Vec<Template> {
    match kind {
        Kind::Shuffle => shuffle_templates(),
        Kind::TpchSim | Kind::TpchSocket => ALL_QUERIES
            .iter()
            .map(|&n| Template {
                name: format!("Q{n}"),
                query: TemplateQuery::Logical(tpch_logical(n).expect("query numbers 1-22 exist")),
            })
            .collect(),
    }
}

/// A simulated cluster exactly as `hsqp --nodes N --workers 1 --plan-mode
/// builder --stats static` configures it, one query in flight.
pub fn sim_config(nodes: u16, profiling: bool) -> ClusterConfig {
    ClusterConfig {
        workers_per_node: 1,
        numa_cost_ns: 0.0,
        message_capacity: MESSAGE_CAPACITY,
        max_concurrent: 1,
        profiling,
        ..ClusterConfig::paper(nodes)
    }
}

/// Start a simulated cluster and load `db` into it.
pub fn sim_session(cfg: ClusterConfig, db: TpchDb) -> Result<(Session, [f64; 2]), EngineError> {
    let t = Instant::now();
    let session = Session::builder()
        .config(cfg)
        .stats_mode(StatsMode::Static)
        .build()?;
    let start_ms = ms_since(t);
    let t = Instant::now();
    session.load_tpch_db(db)?;
    Ok((session, [start_ms, ms_since(t)]))
}

/// Two node children, the coordinator connected to them, and the planner
/// the coordinator plans with.
pub struct SocketCluster {
    // Declared before `children`: the coordinator's drop asks the nodes to
    // exit before the children are killed and reaped.
    pub cluster: ProcessCluster,
    pub planner: Planner,
    pub children: NodeChildren,
}

/// A planner for a cluster whose coordinator holds no data to sample, built
/// as `hsqp --cluster` builds it: spec-declared column statistics, and the
/// exact row counts `rows` knows (the nodes report theirs after loading).
pub fn declared_planner(sf: f64, rows: impl Fn(TpchTable) -> Option<u64>) -> Planner {
    let mut stats = TableStats::for_scale_factor(sf);
    for table in TpchTable::ALL {
        if let Some(rows) = rows(table) {
            stats.set_rows(table, rows as f64);
        }
    }
    Planner::new(PlannerConfig {
        stats,
        catalog: Some(Arc::new(StatsCatalog::declared_tpch(sf))),
        ..PlannerConfig::new(NODES)
    })
}

fn socket_cluster(sf: f64) -> Result<(SocketCluster, [f64; 3]), String> {
    let t = Instant::now();
    let children = NodeChildren::spawn(NODES as usize)?;
    let spawn_ms = ms_since(t);
    let cfg = ProcessClusterConfig {
        engine: RemoteEngineConfig {
            workers_per_node: 1,
            message_capacity: MESSAGE_CAPACITY,
            ..RemoteEngineConfig::default()
        },
        ..ProcessClusterConfig::default()
    };
    let t = Instant::now();
    let cluster =
        ProcessCluster::connect(children.addrs(), cfg).map_err(|e| format!("connect: {e}"))?;
    let connect_ms = ms_since(t);
    let t = Instant::now();
    cluster.load_tpch(sf).map_err(|e| format!("load: {e}"))?;
    let load_ms = ms_since(t);
    let planner = declared_planner(sf, |t| cluster.table_rows(t));
    Ok((
        SocketCluster {
            cluster,
            planner,
            children,
        },
        [spawn_ms, connect_ms, load_ms],
    ))
}

/// A cluster ready to accept its first query.
pub enum Backend {
    Sim(Session),
    Socket(Box<SocketCluster>),
}

/// How long one set-up took, whole and by step. The steps are generate /
/// start / load for a simulated cluster and spawn / connect / load for a
/// process cluster.
pub struct SetupTimes {
    pub total_s: f64,
    pub steps_ms: [f64; 3],
}

/// Monotonic engine counters (message pool, network scheduler).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub pool_reuses: u64,
    pub pool_registrations: u64,
    pub sched_rounds: u64,
}

impl Counters {
    /// The growth since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            pool_reuses: self.pool_reuses - earlier.pool_reuses,
            pool_registrations: self.pool_registrations - earlier.pool_registrations,
            sched_rounds: self.sched_rounds - earlier.sched_rounds,
        }
    }

    /// Message buffers taken from the pool that were reused rather than
    /// newly registered (0 when no buffer was taken).
    pub fn pool_reuse_ratio(&self) -> f64 {
        match self.pool_reuses + self.pool_registrations {
            0 => 0.0,
            taken => self.pool_reuses as f64 / taken as f64,
        }
    }
}

/// What one execution cost its caller, by harness span (milliseconds).
pub struct Spans {
    pub plan_ms: f64,
    pub submit_ms: f64,
    pub wait_ms: f64,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Backend {
    /// Set a cluster up from nothing until it can accept a query.
    pub fn set_up(kind: Kind, sf: f64, profiling: bool) -> Result<(Backend, SetupTimes), String> {
        let whole = Instant::now();
        let (backend, steps_ms) = match kind {
            Kind::TpchSim | Kind::Shuffle => {
                let t = Instant::now();
                let db = TpchDb::generate(sf);
                let generate_ms = ms_since(t);
                let (session, [start_ms, load_ms]) = sim_session(sim_config(NODES, profiling), db)
                    .map_err(|e| format!("set-up: {e}"))?;
                (Backend::Sim(session), [generate_ms, start_ms, load_ms])
            }
            Kind::TpchSocket => {
                let (cluster, steps) = socket_cluster(sf)?;
                (Backend::Socket(Box::new(cluster)), steps)
            }
        };
        let times = SetupTimes {
            total_s: whole.elapsed().as_secs_f64(),
            steps_ms,
        };
        Ok((backend, times))
    }

    /// Lower a logical template to the physical query this backend runs.
    pub fn plan(&self, query: &LogicalQuery) -> Result<Query, EngineError> {
        match self {
            Backend::Sim(session) => session.planner().plan_query(query),
            Backend::Socket(sc) => sc.planner.plan_query(query),
        }
    }

    /// Execute one template the way a caller would: `Session::run` (plan,
    /// compile, submit, execute, gather), `Cluster::run_plan` for a
    /// physical plan, plan + `ProcessCluster::run` over sockets.
    pub fn execute(&self, template: &Template) -> Result<QueryResult, EngineError> {
        match (self, &template.query) {
            (Backend::Sim(session), TemplateQuery::Logical(q)) => session.run(q),
            (Backend::Sim(session), TemplateQuery::Physical(p)) => session.cluster().run_plan(p),
            (Backend::Socket(sc), TemplateQuery::Logical(q)) => {
                sc.cluster.run(&sc.planner.plan_query(q)?)
            }
            (Backend::Socket(_), TemplateQuery::Physical(_)) => Err(EngineError::Config(
                "physical templates run on simulated clusters only".into(),
            )),
        }
    }

    /// [`execute`](Self::execute) taken apart into the same calls, with a
    /// harness span around each layer boundary (children of span `parent`)
    /// and the engine's own profile hung under them.
    pub fn execute_traced(
        &self,
        template: &Template,
        tracer: &mut Tracer,
        parent: u32,
        request: u32,
    ) -> Result<(QueryResult, Spans), EngineError> {
        let span = tracer.open("plan", "planner", parent, request);
        let physical = match &template.query {
            TemplateQuery::Logical(q) => self.plan(q),
            TemplateQuery::Physical(p) => Ok(Query::single(0, p.clone())),
        };
        let plan_ms = tracer.close(span);
        let physical = physical?;
        match self {
            Backend::Sim(session) => {
                let submit = tracer.open("submit", "cluster", parent, request);
                let handle = session.cluster().submit(&physical);
                let submit_ms = tracer.close(submit);
                let wait = tracer.open("wait", "cluster", parent, request);
                let result = handle.and_then(|h| h.wait());
                let wait_ms = tracer.close(wait);
                let result = result?;
                if let Some(profile) = &result.profile {
                    tracer.add_profile(profile, submit, wait, request);
                }
                let spans = Spans {
                    plan_ms,
                    submit_ms,
                    wait_ms,
                };
                Ok((result, spans))
            }
            Backend::Socket(sc) => {
                let run = tracer.open("run", "remote", parent, request);
                let result = sc.cluster.run(&physical);
                let wait_ms = tracer.close(run);
                let spans = Spans {
                    plan_ms,
                    submit_ms: 0.0,
                    wait_ms,
                };
                Ok((result?, spans))
            }
        }
    }

    /// Engine counters the traced run reads before and after its passes.
    pub fn counters(&self) -> Counters {
        match self {
            Backend::Sim(session) => {
                let cluster = session.cluster();
                let pools = (0..cluster.config().nodes).map(|n| &cluster.node_ctx(n).pool);
                Counters {
                    pool_reuses: pools.clone().map(|p| p.reuses()).sum(),
                    pool_registrations: pools.map(|p| p.registrations()).sum(),
                    sched_rounds: session
                        .metrics()
                        .counter("net.scheduler.rounds")
                        .unwrap_or(0),
                }
            }
            // Node processes expose socket byte counts only.
            Backend::Socket(_) => Counters::default(),
        }
    }

    /// The harness's node children (none for a simulated cluster).
    pub fn child_pids(&self) -> Vec<u32> {
        match self {
            Backend::Sim(_) => Vec::new(),
            Backend::Socket(sc) => sc.children.pids(),
        }
    }
}
