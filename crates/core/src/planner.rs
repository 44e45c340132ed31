//! The distributed planner: lowers [`LogicalPlan`]s to physical [`Plan`]s.
//!
//! The paper's distributed plans come out of HyPer's optimizer (Figure 6);
//! this module reproduces the four decisions that matter for distribution:
//!
//! 1. **Exchange placement** — a hash-repartition is inserted wherever an
//!    operator needs co-partitioned input and the data is not already
//!    partitioned compatibly; redundant exchanges are elided by tracking
//!    each subplan's partitioning property (including column equivalences
//!    established by inner joins).
//! 2. **Broadcast vs repartition** (§3.2) — small build sides are broadcast
//!    instead of hash-partitioning both inputs, decided from
//!    table-cardinality estimates and simple selectivity heuristics.
//! 3. **Pre-aggregation** (Figure 6(c)) — group-by aggregations over
//!    unpartitioned input are split into a local partial aggregate, a
//!    reshuffle of the (small) partial states, and a merge; `count(distinct)`
//!    falls back to a raw reshuffle, and aggregations whose input is already
//!    partitioned by a group key stay node-local.
//! 4. **Join filters** (the Bloomjoin) — a repartitioned join may filter
//!    the repartition of one side by the keys of the other, which then runs
//!    first ([`Plan::HashJoin`]'s `filter`), when the bytes the filter
//!    keeps off the wire outweigh shipping it, testing every row and one
//!    more barrier. What a filter keeps off is priced from the domain of
//!    the join's keys: for a composite key, the product of its parts'
//!    NDVs, capped at the rows of the smallest table holding a key.
//!
//! Scans are pruned to the columns the plan actually uses and filters
//! directly above a scan are pushed into it ("columns that are not required
//! … are pruned as early as possible", §3.2.1).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hsqp_tpch::TpchTable;

use crate::cluster::Cluster;
use crate::cost::{CostModel, FilterOption};
use crate::error::EngineError;
use crate::expr::{CmpOp, Expr};
use crate::logical::{JoinStrategy, LogicalPlan, LogicalQuery};
use crate::plan::{AggFunc, AggPhase, AggSpec, ExchangeKind, JoinKind, JoinSide, Plan, SortKey};
use crate::queries::{Query, QueryStage, StageRole};
use crate::stats::{self, StatsCatalog};

/// Base-relation cardinality estimates, the planner's cost-model input.
#[derive(Debug, Clone)]
pub struct TableStats {
    rows: [f64; 8],
}

impl TableStats {
    /// Estimates for a TPC-H database at scale factor `sf`, mirroring the
    /// generator's row counts.
    pub fn for_scale_factor(sf: f64) -> Self {
        let suppliers = (10_000.0 * sf).max(4.0);
        let customers = (150_000.0 * sf).max(10.0);
        let parts = (200_000.0 * sf).max(20.0);
        let orders = customers * 10.0;
        let mut s = Self { rows: [1.0; 8] };
        s.set_rows(TpchTable::Region, 5.0);
        s.set_rows(TpchTable::Nation, 25.0);
        s.set_rows(TpchTable::Supplier, suppliers);
        s.set_rows(TpchTable::Customer, customers);
        s.set_rows(TpchTable::Part, parts);
        s.set_rows(TpchTable::Partsupp, parts * 4.0);
        s.set_rows(TpchTable::Orders, orders);
        s.set_rows(TpchTable::Lineitem, orders * 4.0);
        s
    }

    /// Override the estimate for one relation (e.g. with exact loaded
    /// counts).
    pub fn set_rows(&mut self, table: TpchTable, rows: f64) {
        self.rows[table.idx()] = rows.max(1.0);
    }

    /// Estimated row count of `table`.
    pub fn rows(&self, table: TpchTable) -> f64 {
        self.rows[table.idx()]
    }
}

impl Default for TableStats {
    fn default() -> Self {
        Self::for_scale_factor(1.0)
    }
}

/// Planner tuning knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Cluster size the plan will run on (drives broadcast costing).
    pub nodes: u16,
    /// Build sides estimated at or below this row count are always
    /// broadcast, regardless of the probe size.
    pub broadcast_max_rows: f64,
    /// Base-relation cardinalities.
    pub stats: TableStats,
    /// Per-column statistics (NDV, min/max, null fractions) feeding the
    /// selectivity and group-count estimators. `None` falls back to flat
    /// per-operator heuristics.
    pub catalog: Option<Arc<StatsCatalog>>,
    /// Whether base tables are hash-partitioned on their first column
    /// ([`Placement::Partitioned`](hsqp_storage::placement::Placement)),
    /// letting scans claim a partitioning property that elides exchanges.
    pub partitioned: bool,
}

impl PlannerConfig {
    /// Defaults for an `nodes`-server cluster at TPC-H scale factor 1.
    pub fn new(nodes: u16) -> Self {
        Self {
            nodes,
            broadcast_max_rows: 1_000.0,
            stats: TableStats::default(),
            catalog: None,
            partitioned: false,
        }
    }
}

/// Lowers logical plans to distributed physical plans.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    /// Shared subplans registered while lowering a [`LogicalQuery`]:
    /// schema, distribution, and cardinality of each materialized temp
    /// relation, threaded into every `CteScan` of the same name.
    ctes: BTreeMap<String, CteInfo>,
    /// Rendered cost-model [`Decision`](crate::cost::Decision)s from the
    /// current lowering, drained per stage for `--explain`.
    notes: Vec<String>,
}

/// Planner-tracked properties of one materialized CTE.
#[derive(Debug, Clone)]
struct CteInfo {
    cols: Vec<String>,
    part: Part,
    est: f64,
}

/// How a subplan's rows are distributed across the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Part {
    /// Arbitrary distribution (chunked base tables, broadcast-join outputs).
    Any,
    /// Hash-partitioned: position `i` of the partition key can be read from
    /// any column named in `classes[i]` (join equivalences).
    Hash(Vec<BTreeSet<String>>),
    /// Every node holds a full copy (output of a broadcast exchange).
    Replicated,
    /// All rows live on the coordinator; other nodes are empty.
    Single,
}

/// A lowered subplan with the properties the planner tracks.
struct Lowered {
    plan: Plan,
    cols: Vec<String>,
    part: Part,
    est: f64,
    /// Estimated rows and columns of what the nearest repartition below
    /// ships, if only `Filter`s, `Map`s and aggregates lie between: what a
    /// join filter on this subplan could keep off the wire.
    shipped: Option<(f64, usize)>,
}

fn planner_err<T>(msg: impl Into<String>) -> Result<T, EngineError> {
    Err(EngineError::Planner(msg.into()))
}

fn table_columns(table: TpchTable) -> Vec<String> {
    table
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect()
}

/// Selectivity heuristic for filter predicates (flat per-operator factors,
/// conjunctions multiply).
fn selectivity(e: &Expr) -> f64 {
    use crate::expr::CmpOp;
    match e {
        Expr::Cmp(CmpOp::Eq, _, _) => 0.1,
        Expr::Cmp(CmpOp::Ne, _, _) => 0.9,
        Expr::Cmp(_, _, _) => 0.3,
        Expr::And(cs) => cs.iter().map(selectivity).product::<f64>().max(1e-4),
        Expr::Or(cs) => cs.iter().map(selectivity).sum::<f64>().min(1.0),
        Expr::Not(c) => (1.0 - selectivity(c)).max(0.05),
        Expr::Like(_, _) => 0.1,
        Expr::InStr(_, opts) => (0.1 * opts.len() as f64).min(1.0),
        Expr::InI64(_, opts) => (0.1 * opts.len() as f64).min(1.0),
        Expr::IsNull(_) => 0.1,
        _ => 0.5,
    }
}

/// Replace the estimates of `stats` with the row counts `rows` knows.
fn set_exact_rows(stats: &mut TableStats, rows: impl Fn(TpchTable) -> Option<u64>) {
    for table in TpchTable::ALL {
        if let Some(rows) = rows(table) {
            stats.set_rows(table, rows as f64);
        }
    }
}

/// Mirror a comparison operator for a swapped operand order
/// (`5 < x` ≡ `x > 5`).
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

impl Planner {
    /// A planner for the given configuration.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self {
            cfg,
            ctes: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// The planner for TPC-H data at scale factor `sf` on `nodes` nodes:
    /// the statistics declared for `sf`
    /// ([`StatsCatalog::declared_tpch`]), with the exact row counts `rows`
    /// reports in place of the spec-derived ones. Every TPC-H planner,
    /// whichever cluster runs its plans, is built here, so that every
    /// cluster runs the same plans from the same numbers.
    pub fn for_tpch(nodes: u16, sf: f64, rows: impl Fn(TpchTable) -> Option<u64>) -> Self {
        let mut cfg = PlannerConfig::new(nodes);
        cfg.stats = TableStats::for_scale_factor(sf);
        cfg.catalog = Some(Arc::new(StatsCatalog::declared_tpch(sf)));
        set_exact_rows(&mut cfg.stats, rows);
        Self::new(cfg)
    }

    /// A planner configured from a running cluster: node count and
    /// placement from the cluster, and [`for_tpch`](Self::for_tpch) at the
    /// scale factor it loaded with its exact row counts. A cluster whose
    /// relations were only loaded table by table plans without column
    /// statistics, from its loaded row counts (SF-1 estimates for the
    /// relations it does not hold).
    pub fn for_cluster(cluster: &Cluster) -> Self {
        let nodes = cluster.config().nodes;
        let rows = |table| cluster.table_rows(table);
        let mut planner = match cluster.tpch_scale_factor() {
            Some(sf) => Self::for_tpch(nodes, sf, rows),
            None => {
                let mut cfg = PlannerConfig::new(nodes);
                set_exact_rows(&mut cfg.stats, rows);
                Self::new(cfg)
            }
        };
        planner.cfg.partitioned =
            cluster.config().placement == hsqp_storage::placement::Placement::Partitioned;
        planner
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The cost model for this planner's cluster size.
    fn cost_model(&self) -> CostModel {
        CostModel::new(self.cfg.nodes, self.cfg.broadcast_max_rows)
    }

    /// The column-statistics catalog, when one is configured.
    fn catalog(&self) -> Option<&StatsCatalog> {
        self.cfg.catalog.as_deref()
    }

    /// Record a priced decision for `--explain`.
    fn note(&mut self, d: crate::cost::Decision) {
        self.notes.push(d.render());
    }

    /// Drain the rendered decisions accumulated since the last drain.
    fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }

    /// Lower `logical` to a distributed physical plan whose result is
    /// complete on the coordinator (node 0).
    pub fn plan(&self, logical: &LogicalPlan) -> Result<Plan, EngineError> {
        let mut p = self.clone();
        let lowered = p.lower(logical, None)?;
        Ok(fold_plan(finish_on_coordinator(lowered)))
    }

    /// Like [`plan`](Self::plan), but also returns the rendered cost-model
    /// decisions made while lowering.
    pub fn plan_explained(
        &self,
        logical: &LogicalPlan,
    ) -> Result<(Plan, Vec<String>), EngineError> {
        let mut p = self.clone();
        let lowered = p.lower(logical, None)?;
        let notes = p.take_notes();
        Ok((fold_plan(finish_on_coordinator(lowered)), notes))
    }

    /// Lower a multi-stage [`LogicalQuery`] to a physical [`Query`].
    ///
    /// CTEs are lowered in registration order: each is planned once and
    /// becomes a [`StageRole::Materialize`] stage whose per-node results
    /// later stages read through `Plan::TempScan`. The cost model decides
    /// whether a CTE result is broadcast (every node holds a full copy) or
    /// stays partitioned where the plan produced it, weighing its size
    /// against how many downstream consumers would re-exchange it; the
    /// planner threads each temp's partitioning property and cardinality
    /// estimate into every use. Scalar stages are planned to completion on
    /// the coordinator and their first result row extends the parameter
    /// list (`Expr::Param`, numbered in column order across stages) that
    /// later stages — and CTEs registered after the binding stage's
    /// parameters are available — may reference. The last stage produces
    /// the result.
    ///
    /// Rejects parameters no earlier stage binds, duplicate or unknown CTE
    /// names, and queries without a result stage — all as
    /// [`EngineError::Planner`].
    pub fn plan_query(&self, query: &LogicalQuery) -> Result<Query, EngineError> {
        Ok(self.plan_query_explained(query)?.0)
    }

    /// Like [`plan_query`](Self::plan_query), but also returns the
    /// rendered cost-model decisions, one `Vec` per emitted stage.
    pub fn plan_query_explained(
        &self,
        query: &LogicalQuery,
    ) -> Result<(Query, Vec<Vec<String>>), EngineError> {
        let StageOrder {
            requirements,
            consumers,
            order,
        } = self.stage_order(query)?;
        let mut p = self.clone();
        let mut stages = Vec::with_capacity(order.len());
        let mut notes = Vec::with_capacity(order.len());
        let last = query.stages().len() - 1;
        for item in order {
            let stage = match item {
                Item::Cte(i) => {
                    let (name, plan) = &query.ctes()[i];
                    // Prune the materialization to the union of its
                    // consumers' required columns: temps stop carrying
                    // attributes no stage reads (e.g. Q2's "candidates"
                    // dragging s_comment into the min-cost aggregate).
                    let pruned;
                    let plan = match requirements.get(name) {
                        Some(Some(req)) => {
                            let full = p.logical_columns(plan)?;
                            let mut keep: Vec<&str> = full
                                .iter()
                                .filter(|c| req.contains(*c))
                                .map(String::as_str)
                                .collect();
                            if keep.is_empty() {
                                // Consumed only for row counts: keep one column.
                                keep.push(full[0].as_str());
                            }
                            if keep.len() < full.len() {
                                pruned = plan.clone().project(&keep);
                                &pruned
                            } else {
                                plan
                            }
                        }
                        _ => plan,
                    };
                    let Lowered {
                        plan: lowered,
                        cols,
                        part,
                        est,
                        ..
                    } = p.lower(plan, None)?;
                    // Materialize the temp on every node when replicating
                    // once beats each downstream consumer re-exchanging it;
                    // larger single-consumer temps stay distributed the way
                    // the plan produced them (keeping their partitioning
                    // property).
                    let consumers = consumers.get(name).copied().unwrap_or(0).max(1);
                    let (mplan, part) = match part {
                        distributed @ (Part::Any | Part::Hash(_)) => {
                            let (broadcast, d) = p.cost_model().cte_placement(
                                format!("cte {name}"),
                                est,
                                cols.len(),
                                consumers,
                            );
                            p.note(d);
                            if broadcast {
                                (lowered.broadcast(), Part::Replicated)
                            } else {
                                (lowered, distributed)
                            }
                        }
                        other => (lowered, other),
                    };
                    p.ctes.insert(name.clone(), CteInfo { cols, part, est });
                    QueryStage {
                        plan: fold_plan(mplan),
                        role: StageRole::Materialize(name.clone()),
                        estimated_rows: Some(est),
                    }
                }
                Item::Stage(i) => {
                    let lowered = p.lower(&query.stages()[i], None)?;
                    let est = lowered.est;
                    QueryStage {
                        plan: fold_plan(finish_on_coordinator(lowered)),
                        role: if i == last {
                            StageRole::Result
                        } else {
                            StageRole::Params
                        },
                        estimated_rows: Some(est),
                    }
                }
            };
            stages.push(stage);
            notes.push(p.take_notes());
        }
        Ok((Query::from_stages(0, stages)?, notes))
    }

    /// Output column names of `logical` (what [`plan`](Self::plan) will
    /// produce, in order). A plan that reads a CTE can only be resolved in
    /// the context of its owning query — use
    /// [`query_output_columns`](Self::query_output_columns) for those.
    pub fn output_columns(&self, logical: &LogicalPlan) -> Result<Vec<String>, EngineError> {
        self.logical_columns(logical)
    }

    /// Output column names of a [`LogicalQuery`]'s result stage (what
    /// [`plan_query`](Self::plan_query) will produce, in order), resolving
    /// `from_cte` scans against the query's registered CTEs.
    pub fn query_output_columns(&self, query: &LogicalQuery) -> Result<Vec<String>, EngineError> {
        let mut p = self.clone();
        for (name, plan) in query.ctes() {
            let cols = p.logical_columns(plan)?;
            p.ctes.insert(
                name.clone(),
                CteInfo {
                    cols,
                    part: Part::Any,
                    est: 0.0,
                },
            );
        }
        match query.stages().last() {
            Some(stage) => p.logical_columns(stage),
            None => planner_err("query needs at least one stage"),
        }
    }

    /// Output column names of a logical plan, without lowering it.
    fn logical_columns(&self, node: &LogicalPlan) -> Result<Vec<String>, EngineError> {
        match node {
            LogicalPlan::Scan { table } => Ok(table_columns(*table)),
            LogicalPlan::CteScan { name } => self
                .ctes
                .get(name)
                .map(|info| info.cols.clone())
                .ok_or_else(|| {
                    EngineError::Planner(format!(
                        "unknown CTE {name:?} (register it with LogicalQuery::with)"
                    ))
                }),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => self.logical_columns(input),
            LogicalPlan::Project { outputs, .. } => {
                Ok(outputs.iter().map(|o| o.name.clone()).collect())
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let mut cols = self.logical_columns(left)?;
                if matches!(kind, JoinKind::Inner | JoinKind::LeftOuter) {
                    cols.extend(self.logical_columns(right)?);
                }
                Ok(cols)
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let mut cols = group_by.clone();
                cols.extend(aggs.iter().map(|a| a.name.clone()));
                Ok(cols)
            }
        }
    }

    // -- CTE requirement analysis -------------------------------------------

    /// Union of the columns each CTE's consumers require, keyed by CTE
    /// name. `None` means at least one consumer needs every column (or the
    /// requirement cannot be narrowed). Mirrors the `required` propagation
    /// of [`lower`](Self::lower), so the materialization is always a
    /// superset of what any individual `CteScan` will project.
    fn cte_requirements(
        &self,
        query: &LogicalQuery,
    ) -> Result<BTreeMap<String, Option<BTreeSet<String>>>, EngineError> {
        // Resolve CTE output columns (registration order, so later CTEs
        // can reference earlier ones) for join-side column splitting.
        let mut p = self.clone();
        for (name, plan) in query.ctes() {
            if p.ctes.contains_key(name) {
                return planner_err(format!("duplicate CTE name {name:?}"));
            }
            let cols = p.logical_columns(plan)?;
            p.ctes.insert(
                name.clone(),
                CteInfo {
                    cols,
                    part: Part::Any,
                    est: 0.0,
                },
            );
        }
        let mut out: BTreeMap<String, Option<BTreeSet<String>>> = BTreeMap::new();
        for stage in query.stages() {
            p.collect_cte_required(stage, None, &mut out)?;
        }
        // CTEs in reverse registration order: a CTE can only be consumed
        // by stages and *later* CTEs, so by the time we analyze its own
        // plan every consumer (and thus its final pruned width) is known.
        for (name, plan) in query.ctes().iter().rev() {
            let required = out.get(name).cloned().unwrap_or(None);
            p.collect_cte_required(plan, required.as_ref(), &mut out)?;
        }
        Ok(out)
    }

    /// Walk `node` accumulating, per referenced CTE, the union of columns
    /// required of it — threading `required` top-down exactly like
    /// [`lower`](Self::lower) does.
    fn collect_cte_required(
        &self,
        node: &LogicalPlan,
        required: Option<&BTreeSet<String>>,
        out: &mut BTreeMap<String, Option<BTreeSet<String>>>,
    ) -> Result<(), EngineError> {
        match node {
            LogicalPlan::Scan { .. } => Ok(()),
            LogicalPlan::CteScan { name } => {
                match (
                    out.entry(name.clone())
                        .or_insert_with(|| Some(BTreeSet::new())),
                    required,
                ) {
                    (Some(set), Some(req)) => set.extend(req.iter().cloned()),
                    (slot, None) => *slot = None,
                    (None, _) => {}
                }
                Ok(())
            }
            LogicalPlan::Filter { input, predicate } => {
                let child = required.map(|r| {
                    let mut r = r.clone();
                    r.extend(predicate.columns());
                    r
                });
                self.collect_cte_required(input, child.as_ref(), out)
            }
            LogicalPlan::Project { input, outputs } => {
                let mut child = BTreeSet::new();
                for o in outputs {
                    child.extend(o.expr.columns());
                }
                self.collect_cte_required(input, Some(&child), out)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                ..
            } => {
                let (lreq, rreq) = match required {
                    None => (None, None),
                    Some(req) => {
                        let lcols: BTreeSet<String> =
                            self.logical_columns(left)?.into_iter().collect();
                        let rcols: BTreeSet<String> =
                            self.logical_columns(right)?.into_iter().collect();
                        let mut lr: BTreeSet<String> =
                            req.iter().filter(|c| lcols.contains(*c)).cloned().collect();
                        lr.extend(left_keys.iter().cloned());
                        let mut rr: BTreeSet<String> =
                            req.iter().filter(|c| rcols.contains(*c)).cloned().collect();
                        rr.extend(right_keys.iter().cloned());
                        (Some(lr), Some(rr))
                    }
                };
                self.collect_cte_required(left, lreq.as_ref(), out)?;
                self.collect_cte_required(right, rreq.as_ref(), out)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let mut child: BTreeSet<String> = group_by.iter().cloned().collect();
                for a in aggs {
                    child.extend(a.expr.columns());
                }
                self.collect_cte_required(input, Some(&child), out)
            }
            LogicalPlan::Sort { input, keys } => {
                let child = required.map(|r| {
                    let mut r = r.clone();
                    r.extend(keys.iter().map(|k| k.column.clone()));
                    r
                });
                self.collect_cte_required(input, child.as_ref(), out)
            }
            LogicalPlan::Limit { input, .. } => self.collect_cte_required(input, required, out),
        }
    }

    // -- lowering -----------------------------------------------------------

    /// Selectivity estimate for a filter predicate: interval/NDV math from
    /// the column catalog when stats are on, flat per-operator heuristics
    /// otherwise.
    fn sel(&self, e: &Expr) -> f64 {
        let Some(cat) = self.catalog() else {
            return selectivity(e);
        };
        self.sel_with(cat, e)
    }

    fn sel_with(&self, cat: &StatsCatalog, e: &Expr) -> f64 {
        // A comparison between one column and one numeric literal is the
        // shape the estimators understand; flip the operator when the
        // literal is on the left (`5 < x` ≡ `x > 5`).
        fn col_vs_lit<'e>(l: &'e Expr, r: &'e Expr) -> Option<(&'e str, f64, bool)> {
            let lit = |e: &Expr| match e {
                Expr::LitI64(v) => Some(*v as f64),
                Expr::LitF64(v) => Some(*v),
                _ => None,
            };
            match (l, r) {
                (Expr::Col(c), e) => lit(e).map(|v| (c.as_str(), v, false)),
                (e, Expr::Col(c)) => lit(e).map(|v| (c.as_str(), v, true)),
                _ => None,
            }
        }
        match e {
            Expr::Cmp(op, l, r) => {
                if let Some((col, bound, flipped)) = col_vs_lit(l, r) {
                    if let Some(cs) = cat.column_anywhere(col) {
                        let op = if flipped { flip_cmp(*op) } else { *op };
                        return stats::range_selectivity(cs, op, bound, selectivity(e));
                    }
                }
                selectivity(e)
            }
            Expr::And(cs) => {
                stats::conjunction_selectivity(cs.iter().map(|c| self.sel_with(cat, c)))
            }
            Expr::Or(cs) => cs
                .iter()
                .map(|c| self.sel_with(cat, c))
                .sum::<f64>()
                .min(1.0),
            Expr::Not(c) => (1.0 - self.sel_with(cat, c)).max(0.05),
            Expr::InStr(c, opts) => self.in_sel(cat, c, opts.len()),
            Expr::InI64(c, opts) => self.in_sel(cat, c, opts.len()),
            Expr::IsNull(c) => match &**c {
                Expr::Col(name) => cat
                    .column_anywhere(name)
                    .map(|cs| cs.null_fraction.max(1e-9))
                    .unwrap_or_else(|| selectivity(e)),
                _ => selectivity(e),
            },
            _ => selectivity(e),
        }
    }

    fn in_sel(&self, cat: &StatsCatalog, c: &Expr, len: usize) -> f64 {
        match c {
            Expr::Col(name) => cat
                .column_anywhere(name)
                .map(|cs| (len as f64 * stats::eq_selectivity(cs)).min(1.0))
                .unwrap_or(0.1 * len as f64)
                .min(1.0),
            _ => (0.1 * len as f64).min(1.0),
        }
    }

    /// Output-cardinality estimate for a join: distinct-value containment
    /// (|L|·|R| / max(ndv)) per key pair when stats cover every pair, the
    /// probe-side cardinality otherwise (the legacy foreign-key guess).
    fn join_estimate(
        &self,
        l_est: f64,
        r_est: f64,
        left_keys: &[String],
        right_keys: &[String],
        kind: JoinKind,
    ) -> f64 {
        match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => (l_est * 0.5).max(1.0),
            JoinKind::Inner | JoinKind::LeftOuter => {
                let containment = self.catalog().and_then(|cat| {
                    left_keys
                        .iter()
                        .zip(right_keys)
                        .map(|(lk, rk)| {
                            let ls = cat.column_anywhere(lk)?;
                            let rs = cat.column_anywhere(rk)?;
                            Some(stats::join_key_selectivity(ls, rs))
                        })
                        .try_fold(1.0f64, |acc, s| s.map(|s| acc * s))
                });
                match containment {
                    Some(s) => {
                        let est = (l_est * r_est * s).max(1.0);
                        if kind == JoinKind::LeftOuter {
                            est.max(l_est)
                        } else {
                            est
                        }
                    }
                    None => l_est,
                }
            }
        }
    }

    /// Group-count estimate: capped NDV product over the group columns
    /// when stats cover all of them, a flat 10% of the input otherwise.
    fn group_estimate(&self, group_by: &[String], input_rows: f64) -> f64 {
        if let Some(cat) = self.catalog() {
            let ndvs: Vec<Option<f64>> = group_by
                .iter()
                .map(|g| cat.column_anywhere(g).map(|c| c.ndv))
                .collect();
            if let Some(groups) = stats::group_count(&ndvs, input_rows) {
                return groups;
            }
        }
        (input_rows * 0.1).max(1.0)
    }

    /// Lower one node. `required` is the set of output columns the parent
    /// needs (`None` = all); it drives scan pruning only — every operator
    /// still produces its full logical schema.
    fn lower(
        &mut self,
        node: &LogicalPlan,
        required: Option<&BTreeSet<String>>,
    ) -> Result<Lowered, EngineError> {
        match node {
            LogicalPlan::Scan { table } => Ok(self.lower_scan(*table, None, required)),
            LogicalPlan::CteScan { name } => {
                let info = self.ctes.get(name).ok_or_else(|| {
                    EngineError::Planner(format!(
                        "unknown CTE {name:?} (register it with LogicalQuery::with)"
                    ))
                })?;
                // The temp is materialized with the *union* of all
                // consumers' columns; each individual scan additionally
                // prunes to what its own consumer needs, so a wide column
                // never rides through exchanges that do not use it.
                let keep: Vec<String> = match required {
                    Some(req) => {
                        let mut keep: Vec<String> = info
                            .cols
                            .iter()
                            .filter(|c| req.contains(*c))
                            .cloned()
                            .collect();
                        if keep.is_empty() {
                            // Column-free consumer (count(*)): keep one.
                            keep.push(info.cols[0].clone());
                        }
                        keep
                    }
                    None => info.cols.clone(),
                };
                if keep.len() == info.cols.len() {
                    Ok(Lowered {
                        plan: Plan::temp_scan(name),
                        cols: info.cols.clone(),
                        part: info.part.clone(),
                        est: info.est,
                        shipped: None,
                    })
                } else {
                    Ok(Lowered {
                        plan: Plan::TempScan {
                            name: name.clone(),
                            project: Some(keep.clone()),
                        },
                        part: prune_part(info.part.clone(), &keep),
                        est: info.est,
                        cols: keep,
                        shipped: None,
                    })
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                if let LogicalPlan::Scan { table } = &**input {
                    let cols = table_columns(*table);
                    check_columns(&predicate.columns(), &cols, "filter predicate")?;
                    let mut scan = self.lower_scan(*table, Some(predicate.clone()), required);
                    scan.est = (scan.est * self.sel(predicate)).max(1.0);
                    return Ok(scan);
                }
                let mut child_req = required.cloned();
                if let Some(r) = &mut child_req {
                    r.extend(predicate.columns());
                }
                let child = self.lower(input, child_req.as_ref())?;
                check_columns(&predicate.columns(), &child.cols, "filter predicate")?;
                Ok(Lowered {
                    plan: child.plan.filter(predicate.clone()),
                    cols: child.cols,
                    part: child.part,
                    est: (child.est * self.sel(predicate)).max(1.0),
                    shipped: child.shipped,
                })
            }
            LogicalPlan::Project { input, outputs } => {
                if outputs.is_empty() {
                    return planner_err("projection list is empty");
                }
                let mut child_req = BTreeSet::new();
                for o in outputs {
                    child_req.extend(o.expr.columns());
                }
                let child = self.lower(input, Some(&child_req))?;
                for o in outputs {
                    check_columns(&o.expr.columns(), &child.cols, "projection")?;
                }
                let cols: Vec<String> = outputs.iter().map(|o| o.name.clone()).collect();
                check_unique(&cols, "projection output")?;
                // Partition keys survive a projection only through plain
                // column references (renames).
                let mut renames: Vec<(&str, &str)> = Vec::new();
                for o in outputs {
                    if let Expr::Col(src) = &o.expr {
                        renames.push((src.as_str(), o.name.as_str()));
                    }
                }
                let part = match child.part {
                    Part::Hash(classes) => rename_classes(classes, &renames),
                    p => p,
                };
                Ok(Lowered {
                    plan: child.plan.map(outputs.clone()),
                    cols,
                    part,
                    est: child.est,
                    shipped: child.shipped,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                strategy,
            } => self.lower_join(
                left, right, left_keys, right_keys, *kind, *strategy, required,
            ),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => self.lower_aggregate(input, group_by, aggs),
            LogicalPlan::Sort { input, keys } => self.lower_sort(input, keys, None, required),
            LogicalPlan::Limit { input, n } => {
                if let LogicalPlan::Sort { input: si, keys } = &**input {
                    return self.lower_sort(si, keys, Some(*n), required);
                }
                let child = self.lower(input, required)?;
                let (plan, part) = gathered(child.plan, child.part);
                Ok(Lowered {
                    plan: Plan::Sort {
                        input: Box::new(plan),
                        keys: Vec::new(),
                        limit: Some(*n),
                    },
                    cols: child.cols,
                    part,
                    est: (*n as f64).min(child.est),
                    shipped: None,
                })
            }
        }
    }

    fn lower_scan(
        &self,
        table: TpchTable,
        filter: Option<Expr>,
        required: Option<&BTreeSet<String>>,
    ) -> Lowered {
        let all = table_columns(table);
        let (project, cols) = match required {
            None => (None, all),
            Some(req) => {
                let mut keep: Vec<String> =
                    all.iter().filter(|c| req.contains(*c)).cloned().collect();
                if keep.is_empty() {
                    // A plan can be column-free (count(*) over literals);
                    // keep one column so the scan still carries row counts.
                    keep.push(all[0].clone());
                }
                if keep.len() == all.len() {
                    (None, keep)
                } else {
                    (Some(keep.clone()), keep)
                }
            }
        };
        // Partitioned placement hash-splits every base table on its first
        // column at load time with the same CRC32 bucketing the exchange
        // operators use, so a scan that keeps that column is already
        // co-partitioned for joins on it — no exchange needed.
        let part = if self.cfg.partitioned {
            let key = table_columns(table).remove(0);
            if cols.contains(&key) {
                let mut class = BTreeSet::new();
                class.insert(key);
                Part::Hash(vec![class])
            } else {
                Part::Any
            }
        } else {
            Part::Any
        };
        Lowered {
            plan: Plan::Scan {
                table,
                filter,
                project,
            },
            cols,
            part,
            est: self.cfg.stats.rows(table),
            shipped: None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_join(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        left_keys: &[String],
        right_keys: &[String],
        kind: JoinKind,
        strategy: JoinStrategy,
        required: Option<&BTreeSet<String>>,
    ) -> Result<Lowered, EngineError> {
        if left_keys.len() != right_keys.len() {
            return planner_err(format!(
                "join key arity mismatch: {left_keys:?} vs {right_keys:?}"
            ));
        }
        if left_keys.is_empty() {
            return planner_err("join needs at least one key pair");
        }

        let (lreq, rreq) = match required {
            None => (None, None),
            Some(req) => {
                let lcols: BTreeSet<String> = self.logical_columns(left)?.into_iter().collect();
                let rcols: BTreeSet<String> = self.logical_columns(right)?.into_iter().collect();
                let mut lr: BTreeSet<String> =
                    req.iter().filter(|c| lcols.contains(*c)).cloned().collect();
                lr.extend(left_keys.iter().cloned());
                let mut rr: BTreeSet<String> =
                    req.iter().filter(|c| rcols.contains(*c)).cloned().collect();
                rr.extend(right_keys.iter().cloned());
                (Some(lr), Some(rr))
            }
        };
        let mut l = self.lower(left, lreq.as_ref())?;
        let mut r = self.lower(right, rreq.as_ref())?;
        check_columns(
            &left_keys.iter().cloned().collect(),
            &l.cols,
            "probe join keys",
        )?;
        check_columns(
            &right_keys.iter().cloned().collect(),
            &r.cols,
            "build join keys",
        )?;

        // Output schema: probe columns, plus build columns for joins that
        // emit them.
        let build_cols_kept = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
        let mut cols = l.cols.clone();
        if build_cols_kept {
            cols.extend(r.cols.iter().cloned());
        }
        check_unique(&cols, "join output")?;

        let est = self.join_estimate(l.est, r.est, left_keys, right_keys, kind);

        // Coordinator-only inputs: align the other side on node 0 too.
        if l.part == Part::Single || r.part == Part::Single {
            match (&l.part, &r.part) {
                (Part::Single, Part::Single) | (Part::Single, Part::Replicated) => {}
                (Part::Single, _) => r = exchange(r, ExchangeKind::Gather, Part::Single),
                (Part::Replicated, Part::Single) => {
                    // Re-broadcasting from the coordinator replicates the
                    // build alongside the already-replicated probe.
                    r = exchange(r, ExchangeKind::Broadcast, Part::Replicated);
                }
                (_, Part::Single) => l = exchange(l, ExchangeKind::Gather, Part::Single),
                _ => unreachable!("one side is Single"),
            }
            let part = if l.part == Part::Replicated {
                Part::Replicated
            } else {
                Part::Single
            };
            return Ok(Lowered {
                plan: join_plan(l.plan, r.plan, left_keys, right_keys, kind),
                cols,
                part,
                est,
                shipped: None,
            });
        }

        // A replicated probe forces a replicated build (hash-partitioning
        // either side would duplicate rows).
        let broadcast = if r.part == Part::Replicated || l.part == Part::Replicated {
            true
        } else {
            match strategy {
                JoinStrategy::Broadcast => true,
                JoinStrategy::Repartition => false,
                // §3.2: broadcast when shipping (n−1) copies of the build
                // side is cheaper than repartitioning both inputs.
                JoinStrategy::Auto => {
                    let site = format!("join on {}={}", left_keys.join(","), right_keys.join(","));
                    let (b, d) = self.cost_model().join_exchange(
                        site,
                        l.est,
                        l.cols.len(),
                        key_positions(&l.part, left_keys).is_some(),
                        r.est,
                        r.cols.len(),
                        key_positions(&r.part, right_keys).is_some(),
                    );
                    self.note(d);
                    b
                }
            }
        };

        if broadcast {
            if r.part != Part::Replicated {
                r = exchange(r, ExchangeKind::Broadcast, Part::Replicated);
            }
            let part = if l.part == Part::Replicated {
                Part::Replicated
            } else {
                // Probe rows stay where they were.
                prune_part(l.part.clone(), &cols)
            };
            return Ok(Lowered {
                plan: join_plan(l.plan, r.plan, left_keys, right_keys, kind),
                cols,
                part,
                est,
                shipped: None,
            });
        }

        // Repartition path: reuse existing partitioning when one side is
        // already hash-partitioned on (a positional subset of) its keys.
        let lpos = key_positions(&l.part, left_keys);
        let rpos = key_positions(&r.part, right_keys);
        let positions: Vec<usize> = match (lpos, rpos) {
            (Some(lp), Some(rp)) if lp == rp => lp,
            (Some(lp), _) => {
                let keys: Vec<String> = lp.iter().map(|&i| right_keys[i].clone()).collect();
                r = exchange(r, ExchangeKind::HashPartition(keys), Part::Any);
                lp
            }
            (None, Some(rp)) => {
                let keys: Vec<String> = rp.iter().map(|&i| left_keys[i].clone()).collect();
                l = exchange(l, ExchangeKind::HashPartition(keys), Part::Any);
                rp
            }
            (None, None) => {
                let all: Vec<usize> = (0..left_keys.len()).collect();
                l = exchange(
                    l,
                    ExchangeKind::HashPartition(left_keys.to_vec()),
                    Part::Any,
                );
                r = exchange(
                    r,
                    ExchangeKind::HashPartition(right_keys.to_vec()),
                    Part::Any,
                );
                all
            }
        };
        // Both sides are now co-partitioned on `positions`; the join output
        // is partitioned by those keys, with the build-side names equivalent
        // after an inner join (outer joins pad build keys with NULLs).
        let classes: Vec<BTreeSet<String>> = positions
            .iter()
            .map(|&i| {
                let mut class = BTreeSet::new();
                class.insert(left_keys[i].clone());
                if kind == JoinKind::Inner {
                    class.insert(right_keys[i].clone());
                }
                class
            })
            .collect();
        let mut plan = join_plan(l.plan, r.plan, left_keys, right_keys, kind);
        self.choose_join_filter(&mut plan, (l.est, l.shipped), (r.est, r.shipped));
        Ok(Lowered {
            plan,
            cols: cols.clone(),
            part: prune_part(Part::Hash(classes), &cols),
            est,
            shipped: None,
        })
    }

    /// The fourth decision: which side of `join`, a co-partitioned hash
    /// join whose probe and build sides were estimated at `probe` and
    /// `build` (rows, and what their repartition ships), to filter by the
    /// other side's keys, if either. A side qualifies where
    /// [`Plan::filter_site`] finds it. Of its shipped rows, those whose key
    /// the first side holds pass: the keys of both sides are taken to be
    /// drawn independently from one domain ([`join_key_domain`]), of which
    /// the first side holds as many as it has rows, up to all. Without
    /// statistics on any key column, the first side's rows over the
    /// shipped rows.
    fn choose_join_filter(
        &mut self,
        join: &mut Plan,
        probe: (f64, Option<(f64, usize)>),
        build: (f64, Option<(f64, usize)>),
    ) {
        let Plan::HashJoin {
            probe_keys,
            build_keys,
            ..
        } = &*join
        else {
            return;
        };
        let domain = self
            .catalog()
            .and_then(|cat| join_key_domain(cat, probe_keys, build_keys));
        let options: Vec<FilterOption> = [JoinSide::Probe, JoinSide::Build]
            .into_iter()
            .filter(|&side| join.filter_site(side).is_some())
            .filter_map(|side| {
                let ((_, shipped), (first_rows, _)) = match side {
                    JoinSide::Probe => (probe, build),
                    JoinSide::Build => (build, probe),
                };
                let (shipped_rows, shipped_cols) = shipped?;
                let pass = match domain {
                    Some(d) => first_rows.min(d) / d,
                    None => (first_rows / shipped_rows).min(1.0),
                };
                Some(FilterOption {
                    side,
                    shipped_rows,
                    shipped_cols,
                    first_rows,
                    pass,
                })
            })
            .collect();
        if options.is_empty() {
            return;
        }
        let site = format!(
            "filter join on {}={}",
            probe_keys.join(","),
            build_keys.join(",")
        );
        let (side, d) = self.cost_model().join_filter(site, &options);
        self.note(d);
        if let Plan::HashJoin { filter, .. } = join {
            *filter = side;
        }
    }

    fn lower_aggregate(
        &mut self,
        input: &LogicalPlan,
        group_by: &[String],
        aggs: &[AggSpec],
    ) -> Result<Lowered, EngineError> {
        if aggs.is_empty() {
            return planner_err("aggregate needs at least one aggregate function");
        }
        let mut child_req: BTreeSet<String> = group_by.iter().cloned().collect();
        for a in aggs {
            child_req.extend(a.expr.columns());
        }
        let child = self.lower(input, Some(&child_req))?;
        check_columns(
            &group_by.iter().cloned().collect(),
            &child.cols,
            "group-by keys",
        )?;
        for a in aggs {
            check_columns(&a.expr.columns(), &child.cols, "aggregate input")?;
        }
        let mut cols: Vec<String> = group_by.to_vec();
        cols.extend(aggs.iter().map(|a| a.name.clone()));
        check_unique(&cols, "aggregate output")?;

        let agg_node = |input: Plan, phase: AggPhase| Plan::Aggregate {
            input: Box::new(input),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            phase,
        };

        let has_distinct = aggs.iter().any(|a| a.func == AggFunc::CountDistinct);
        if group_by.is_empty() {
            // Global aggregate: local partials, merged on the coordinator —
            // except count(distinct), which needs the raw values gathered.
            return Ok(match child.part {
                Part::Single | Part::Replicated => Lowered {
                    part: child.part,
                    plan: agg_node(child.plan, AggPhase::Single),
                    cols,
                    est: 1.0,
                    shipped: None,
                },
                _ if has_distinct => Lowered {
                    plan: agg_node(child.plan.gather(), AggPhase::Single),
                    cols,
                    part: Part::Single,
                    est: 1.0,
                    shipped: None,
                },
                _ => Lowered {
                    plan: agg_node(
                        agg_node(child.plan, AggPhase::Partial).gather(),
                        AggPhase::Final,
                    ),
                    cols,
                    part: Part::Single,
                    est: 1.0,
                    shipped: None,
                },
            });
        }

        let est = self.group_estimate(group_by, child.est);
        let group_set: BTreeSet<&str> = group_by.iter().map(String::as_str).collect();
        let local = match &child.part {
            Part::Single | Part::Replicated => true,
            Part::Any => false,
            // Rows agreeing on every group key hash to the same node iff
            // each partition-key position is readable from a group column.
            Part::Hash(classes) => classes
                .iter()
                .all(|class| class.iter().any(|c| group_set.contains(c.as_str()))),
        };
        if local {
            let part = prune_part(child.part.clone(), &cols);
            return Ok(Lowered {
                plan: agg_node(child.plan, AggPhase::Single),
                cols,
                part,
                est,
                shipped: child.shipped,
            });
        }

        let out_part = Part::Hash(
            group_by
                .iter()
                .map(|g| {
                    let mut c = BTreeSet::new();
                    c.insert(g.clone());
                    c
                })
                .collect(),
        );
        // count(distinct) needs the raw values (no pre-aggregation
        // possible); otherwise let the cost model weigh the partial pass
        // against reshuffling the raw input once.
        let pre_aggregate = if has_distinct {
            false
        } else {
            let (pre, d) = self.cost_model().pre_aggregation(
                format!("aggregate by {}", group_by.join(",")),
                child.est,
                est,
                cols.len(),
                child.cols.len(),
            );
            self.note(d);
            pre
        };
        if !pre_aggregate {
            // Reshuffle the raw input by group key, aggregate once.
            let shuffled = Plan::Exchange {
                input: Box::new(child.plan),
                kind: ExchangeKind::HashPartition(group_by.to_vec()),
            };
            return Ok(Lowered {
                plan: agg_node(shuffled, AggPhase::Single),
                cols,
                part: out_part,
                est,
                shipped: Some((child.est, child.cols.len())),
            });
        }
        // Figure 6(c): pre-aggregate locally, reshuffle the partial states
        // by group key, merge.
        let partial = agg_node(child.plan, AggPhase::Partial);
        let shuffled = Plan::Exchange {
            input: Box::new(partial),
            kind: ExchangeKind::HashPartition(group_by.to_vec()),
        };
        // Each node ships at most its share of the input in partial states.
        let nodes = f64::from(self.cfg.nodes.max(1));
        let partials = est.min(child.est / nodes) * nodes;
        Ok(Lowered {
            plan: agg_node(shuffled, AggPhase::Final),
            shipped: Some((partials, cols.len())),
            cols,
            part: out_part,
            est,
        })
    }

    fn lower_sort(
        &mut self,
        input: &LogicalPlan,
        keys: &[SortKey],
        limit: Option<usize>,
        required: Option<&BTreeSet<String>>,
    ) -> Result<Lowered, EngineError> {
        let mut child_req = required.cloned();
        if let Some(r) = &mut child_req {
            r.extend(keys.iter().map(|k| k.column.clone()));
        }
        let child = self.lower(input, child_req.as_ref())?;
        check_columns(
            &keys.iter().map(|k| k.column.clone()).collect(),
            &child.cols,
            "sort keys",
        )?;
        let (plan, part) = gathered(child.plan, child.part);
        let est = limit.map_or(child.est, |l| (l as f64).min(child.est));
        Ok(Lowered {
            plan: Plan::Sort {
                input: Box::new(plan),
                keys: keys.to_vec(),
                limit,
            },
            cols: child.cols,
            part,
            est,
            shipped: None,
        })
    }
}

/// One unit of planning order: a CTE (by index into the query's CTE list)
/// or a scalar/result stage (by index into its stage list).
#[derive(Debug, Clone, Copy)]
enum Item {
    Cte(usize),
    Stage(usize),
}

/// A [`LogicalQuery`]'s stages in emission order, with what lowering its
/// CTEs needs.
struct StageOrder {
    /// The columns each CTE's consumers read (`None`: every column).
    requirements: BTreeMap<String, Option<BTreeSet<String>>>,
    /// How many times each CTE is scanned downstream (stages + later CTEs).
    consumers: BTreeMap<String, usize>,
    order: Vec<Item>,
}

impl Planner {
    /// Validate the shape of `query` (duplicate or unknown CTE names,
    /// parameter availability) and order its stages.
    ///
    /// The order interleaves CTEs and scalar stages: a CTE that references
    /// `Expr::Param` is deferred until the binding scalar stage, which is
    /// what lets CTE subplans use earlier stages' results.
    fn stage_order(&self, query: &LogicalQuery) -> Result<StageOrder, EngineError> {
        if query.stages().is_empty() {
            return planner_err("query needs at least one stage");
        }
        let requirements = self.cte_requirements(query)?;

        let names: Vec<&str> = query.ctes().iter().map(|(n, _)| n.as_str()).collect();
        let index_of = |name: &str| names.iter().position(|n| *n == name);

        // Consumer counts and per-plan CTE references.
        let mut consumers: BTreeMap<String, usize> = BTreeMap::new();
        let mut cte_refs: Vec<BTreeSet<String>> = Vec::new();
        for (_, plan) in query.ctes() {
            let mut refs = BTreeSet::new();
            collect_cte_refs(plan, &mut refs);
            for r in &refs {
                if index_of(r).is_none() {
                    return planner_err(format!(
                        "unknown CTE {r:?} (register it with LogicalQuery::with)"
                    ));
                }
            }
            count_cte_refs(plan, &mut consumers);
            cte_refs.push(refs);
        }
        let mut stage_refs: Vec<BTreeSet<String>> = Vec::new();
        for stage in query.stages() {
            let mut refs = BTreeSet::new();
            collect_cte_refs(stage, &mut refs);
            for r in &refs {
                if index_of(r).is_none() {
                    return planner_err(format!(
                        "unknown CTE {r:?} (register it with LogicalQuery::with)"
                    ));
                }
            }
            count_cte_refs(stage, &mut consumers);
            stage_refs.push(refs);
        }

        // Parameter widths each scalar stage will bind, resolved with every
        // CTE's schema pre-registered (order follows registration, so CTEs
        // may only reference earlier CTEs — same constraint lowering has).
        let mut probe = self.clone();
        for (name, plan) in query.ctes() {
            if probe.ctes.contains_key(name) {
                return planner_err(format!("duplicate CTE name {name:?}"));
            }
            let cols = probe.logical_columns(plan)?;
            probe.ctes.insert(
                name.clone(),
                CteInfo {
                    cols,
                    part: Part::Any,
                    est: 0.0,
                },
            );
        }
        let mut stage_width: Vec<usize> = Vec::new();
        for stage in query.stages() {
            stage_width.push(probe.logical_columns(stage)?.len());
        }

        // Emission order: before each scalar stage, emit (in registration
        // order) every CTE whose parameters are bound and whose referenced
        // CTEs are already emitted.
        let cte_needs: Vec<usize> = query
            .ctes()
            .iter()
            .map(|(_, plan)| plan.max_param().map_or(0, |m| m + 1))
            .collect();
        let n_ctes = query.ctes().len();
        let mut emitted = vec![false; n_ctes];
        let mut order: Vec<Item> = Vec::new();
        let mut bound = 0usize;
        let last = query.stages().len() - 1;
        for (j, stage) in query.stages().iter().enumerate() {
            loop {
                let mut progressed = false;
                for i in 0..n_ctes {
                    if emitted[i] || cte_needs[i] > bound {
                        continue;
                    }
                    let deps_ready = cte_refs[i]
                        .iter()
                        .all(|d| index_of(d).is_some_and(|k| emitted[k]));
                    if deps_ready {
                        emitted[i] = true;
                        order.push(Item::Cte(i));
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            for name in &stage_refs[j] {
                let i = index_of(name).expect("checked above");
                if !emitted[i] {
                    return planner_err(format!(
                        "stage {} reads CTE {name:?}, which references parameter \
                         {} bound only by this or a later stage",
                        j + 1,
                        cte_needs[i].saturating_sub(1),
                    ));
                }
            }
            if let Some(m) = stage.max_param() {
                if m >= bound {
                    return planner_err(format!(
                        "stage {} references parameter {m}, but earlier stages \
                         bind only {bound} parameter(s)",
                        j + 1
                    ));
                }
            }
            order.push(Item::Stage(j));
            if j != last {
                bound += stage_width[j];
            }
        }
        if let Some(i) = (0..n_ctes).find(|&i| !emitted[i]) {
            return planner_err(format!(
                "CTE {:?} references parameter {}, which no stage before the \
                 result stage binds (materialization cannot follow the result)",
                query.ctes()[i].0,
                cte_needs[i].saturating_sub(1),
            ));
        }

        Ok(StageOrder {
            requirements,
            consumers,
            order,
        })
    }
}

/// Collect the names of every CTE `plan` scans.
fn collect_cte_refs(plan: &LogicalPlan, out: &mut BTreeSet<String>) {
    visit_cte_scans(plan, &mut |name| {
        out.insert(name.to_string());
    });
}

/// Count every CTE scan in `plan` (a consumer that scans a temp twice
/// really does re-exchange it twice).
fn count_cte_refs(plan: &LogicalPlan, out: &mut BTreeMap<String, usize>) {
    visit_cte_scans(plan, &mut |name| {
        *out.entry(name.to_string()).or_insert(0) += 1;
    });
}

fn visit_cte_scans(plan: &LogicalPlan, f: &mut impl FnMut(&str)) {
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::CteScan { name } => f(name),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => visit_cte_scans(input, f),
        LogicalPlan::Join { left, right, .. } => {
            visit_cte_scans(left, f);
            visit_cte_scans(right, f);
        }
    }
}

/// Wrap `plan` in an exchange and update the partitioning property.
fn exchange(l: Lowered, kind: ExchangeKind, part: Part) -> Lowered {
    let (part, shipped) = match &kind {
        ExchangeKind::HashPartition(keys) => (
            Part::Hash(
                keys.iter()
                    .map(|k| {
                        let mut c = BTreeSet::new();
                        c.insert(k.clone());
                        c
                    })
                    .collect(),
            ),
            Some((l.est, l.cols.len())),
        ),
        _ => (part, None),
    };
    Lowered {
        plan: Plan::Exchange {
            input: Box::new(l.plan),
            kind,
        },
        cols: l.cols,
        part,
        est: l.est,
        shipped,
    }
}

fn join_plan(
    probe: Plan,
    build: Plan,
    probe_keys: &[String],
    build_keys: &[String],
    kind: JoinKind,
) -> Plan {
    Plan::HashJoin {
        probe: Box::new(probe),
        build: Box::new(build),
        probe_keys: probe_keys.to_vec(),
        build_keys: build_keys.to_vec(),
        kind,
        filter: None,
    }
}

/// The domain the keys of a join on `probe_keys` = `build_keys` are drawn
/// from, by the declared statistics: per key pair, the larger NDV of its
/// two columns, pairs without statistics skipped; over the pairs, the
/// product of those, but no more than the rows of the smallest table that
/// holds a key column, since a table holds no more distinct keys than
/// rows. `None` when no key column has statistics.
fn join_key_domain(
    cat: &StatsCatalog,
    probe_keys: &[String],
    build_keys: &[String],
) -> Option<f64> {
    let mut rows = f64::INFINITY;
    let mut ndv = |key: &str| {
        let table = cat.table_holding(key)?;
        rows = rows.min(table.rows);
        Some(table.columns[key].ndv)
    };
    let domain = probe_keys
        .iter()
        .zip(build_keys)
        .filter_map(|(p, b)| ndv(p).into_iter().chain(ndv(b)).reduce(f64::max))
        .reduce(|a, b| a * b)?;
    Some(domain.min(rows))
}

/// Constant-fold every expression site of a lowered physical plan:
/// literal-only subtrees collapse to single literals before the stage is
/// compiled for the vector VM.
fn fold_plan(plan: Plan) -> Plan {
    match plan {
        Plan::Scan {
            table,
            filter,
            project,
        } => Plan::Scan {
            table,
            filter: filter.map(|f| f.fold()),
            project,
        },
        Plan::TempScan { .. } => plan,
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(fold_plan(*input)),
            predicate: predicate.fold(),
        },
        Plan::Map { input, outputs } => Plan::Map {
            input: Box::new(fold_plan(*input)),
            outputs: outputs
                .into_iter()
                .map(|mut o| {
                    o.expr = o.expr.fold();
                    o
                })
                .collect(),
        },
        Plan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            kind,
            filter,
        } => Plan::HashJoin {
            probe: Box::new(fold_plan(*probe)),
            build: Box::new(fold_plan(*build)),
            probe_keys,
            build_keys,
            kind,
            filter,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            phase,
        } => Plan::Aggregate {
            input: Box::new(fold_plan(*input)),
            group_by,
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.expr = a.expr.fold();
                    a
                })
                .collect(),
            phase,
        },
        Plan::Sort { input, keys, limit } => Plan::Sort {
            input: Box::new(fold_plan(*input)),
            keys,
            limit,
        },
        Plan::Exchange { input, kind } => Plan::Exchange {
            input: Box::new(fold_plan(*input)),
            kind,
        },
    }
}

/// Complete a lowered plan on the coordinator: gather unless node 0
/// already holds the full result.
fn finish_on_coordinator(lowered: Lowered) -> Plan {
    match lowered.part {
        Part::Single | Part::Replicated => lowered.plan,
        Part::Any | Part::Hash(_) => lowered.plan.gather(),
    }
}

/// A sort/limit needs the full result in one place: gather unless the
/// coordinator already holds it.
fn gathered(plan: Plan, part: Part) -> (Plan, Part) {
    match part {
        Part::Single => (plan, Part::Single),
        // Every node sorts its full copy; the coordinator's is the answer.
        Part::Replicated => (plan, Part::Replicated),
        Part::Any | Part::Hash(_) => (plan.gather(), Part::Single),
    }
}

/// Positions `p` such that `part` is hash-partitioned exactly on
/// `keys[p[0]], keys[p[1]], …` (readable through join equivalences), i.e.
/// the data is already co-partitioned for a join on `keys`.
fn key_positions(part: &Part, keys: &[String]) -> Option<Vec<usize>> {
    let Part::Hash(classes) = part else {
        return None;
    };
    let mut positions = Vec::with_capacity(classes.len());
    for class in classes {
        let pos = keys.iter().position(|k| class.contains(k.as_str()))?;
        positions.push(pos);
    }
    Some(positions)
}

/// Drop partition-key names that no longer exist in the output schema;
/// degrade to `Any` when a position loses all its names.
fn prune_part(part: Part, cols: &[String]) -> Part {
    match part {
        Part::Hash(classes) => {
            let pruned: Vec<BTreeSet<String>> = classes
                .into_iter()
                .map(|class| {
                    class
                        .into_iter()
                        .filter(|c| cols.contains(c))
                        .collect::<BTreeSet<String>>()
                })
                .collect();
            if pruned.iter().any(BTreeSet::is_empty) {
                Part::Any
            } else {
                Part::Hash(pruned)
            }
        }
        p => p,
    }
}

/// Apply projection renames to hash-partition classes.
fn rename_classes(classes: Vec<BTreeSet<String>>, renames: &[(&str, &str)]) -> Part {
    let renamed: Vec<BTreeSet<String>> = classes
        .into_iter()
        .map(|class| {
            renames
                .iter()
                .filter(|(src, _)| class.contains(*src))
                .map(|(_, dst)| dst.to_string())
                .collect::<BTreeSet<String>>()
        })
        .collect();
    if renamed.iter().any(BTreeSet::is_empty) {
        Part::Any
    } else {
        Part::Hash(renamed)
    }
}

fn check_columns(
    needed: &BTreeSet<String>,
    available: &[String],
    what: &str,
) -> Result<(), EngineError> {
    for c in needed {
        if !available.iter().any(|a| a == c) {
            return planner_err(format!(
                "{what} references unknown column {c:?} (available: {available:?})"
            ));
        }
    }
    Ok(())
}

fn check_unique(cols: &[String], what: &str) -> Result<(), EngineError> {
    let mut seen = BTreeSet::new();
    for c in cols {
        if !seen.insert(c) {
            return planner_err(format!("{what} has ambiguous column name {c:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, lits};
    use crate::plan::MapExpr;

    fn planner(nodes: u16) -> Planner {
        Planner::new(PlannerConfig::new(nodes))
    }

    fn count_kind(plan: &Plan, pred: &dyn Fn(&Plan) -> bool) -> usize {
        usize::from(pred(plan))
            + plan
                .children()
                .iter()
                .map(|c| count_kind(c, pred))
                .sum::<usize>()
    }

    fn broadcasts(plan: &Plan) -> usize {
        count_kind(plan, &|p| {
            matches!(
                p,
                Plan::Exchange {
                    kind: ExchangeKind::Broadcast,
                    ..
                }
            )
        })
    }

    fn repartitions(plan: &Plan) -> usize {
        count_kind(plan, &|p| {
            matches!(
                p,
                Plan::Exchange {
                    kind: ExchangeKind::HashPartition(_),
                    ..
                }
            )
        })
    }

    #[test]
    fn small_build_side_is_broadcast() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem).join(
            LogicalPlan::scan(TpchTable::Nation),
            &["l_suppkey"],
            &["n_nationkey"],
            JoinKind::Inner,
        );
        let plan = planner(4).plan(&lp).unwrap();
        assert_eq!(broadcasts(&plan), 1);
        assert_eq!(repartitions(&plan), 0);
    }

    #[test]
    fn large_build_side_repartitions_both_inputs() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem).join(
            LogicalPlan::scan(TpchTable::Orders),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        );
        let plan = planner(4).plan(&lp).unwrap();
        assert_eq!(broadcasts(&plan), 0);
        assert_eq!(repartitions(&plan), 2);
    }

    #[test]
    fn join_strategy_hints_are_respected() {
        let forced = LogicalPlan::scan(TpchTable::Lineitem).join_with(
            LogicalPlan::scan(TpchTable::Orders),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
            JoinStrategy::Broadcast,
        );
        let plan = planner(4).plan(&forced).unwrap();
        assert_eq!(broadcasts(&plan), 1);
        assert_eq!(repartitions(&plan), 0);
    }

    #[test]
    fn preaggregation_split_is_inserted() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &["l_returnflag"],
            vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty")],
        );
        let plan = planner(4).plan(&lp).unwrap();
        // Final ← HashPartition ← Partial ← Scan, then a root gather.
        let Plan::Exchange { input: g, kind } = &plan else {
            panic!("root must gather, got {plan:?}");
        };
        assert_eq!(*kind, ExchangeKind::Gather);
        let Plan::Aggregate { phase, input, .. } = &**g else {
            panic!("expected final aggregate");
        };
        assert_eq!(*phase, AggPhase::Final);
        let Plan::Exchange { input, .. } = &**input else {
            panic!("expected reshuffle below final");
        };
        let Plan::Aggregate { phase, .. } = &**input else {
            panic!("expected partial aggregate");
        };
        assert_eq!(*phase, AggPhase::Partial);
    }

    #[test]
    fn count_distinct_reshuffles_raw_tuples() {
        let lp = LogicalPlan::scan(TpchTable::Partsupp).aggregate(
            &["ps_partkey"],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("ps_suppkey"),
                "suppliers",
            )],
        );
        let plan = planner(4).plan(&lp).unwrap();
        assert_eq!(
            count_kind(&plan, &|p| matches!(
                p,
                Plan::Aggregate {
                    phase: AggPhase::Partial,
                    ..
                }
            )),
            0,
            "count(distinct) must not pre-aggregate"
        );
        assert_eq!(repartitions(&plan), 1);
    }

    #[test]
    fn aggregation_over_copartitioned_join_stays_local() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem)
            .join(
                LogicalPlan::scan(TpchTable::Orders),
                &["l_orderkey"],
                &["o_orderkey"],
                JoinKind::Inner,
            )
            .aggregate(
                // Grouping by the *build-side* key: reachable through the
                // inner-join equivalence, so no extra reshuffle.
                &["o_orderkey"],
                vec![AggSpec::new(AggFunc::Count, lit(1), "lines")],
            );
        let plan = planner(4).plan(&lp).unwrap();
        assert_eq!(repartitions(&plan), 2, "only the join repartitions");
        assert_eq!(
            count_kind(&plan, &|p| matches!(
                p,
                Plan::Aggregate {
                    phase: AggPhase::Single,
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn global_count_distinct_gathers_raw_rows() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &[],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("l_suppkey"),
                "suppliers",
            )],
        );
        let plan = planner(4).plan(&lp).unwrap();
        // No Partial phase anywhere (the executor forbids pre-aggregating
        // count(distinct)): gather raw rows, aggregate once.
        assert_eq!(
            count_kind(&plan, &|p| matches!(
                p,
                Plan::Aggregate {
                    phase: AggPhase::Partial,
                    ..
                }
            )),
            0
        );
        let Plan::Aggregate { phase, input, .. } = &plan else {
            panic!("root is the aggregate, got {plan:?}");
        };
        assert_eq!(*phase, AggPhase::Single);
        assert!(matches!(
            **input,
            Plan::Exchange {
                kind: ExchangeKind::Gather,
                ..
            }
        ));
    }

    #[test]
    fn global_aggregate_gathers_partials() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem).aggregate(
            &[],
            vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty")],
        );
        let plan = planner(4).plan(&lp).unwrap();
        // Partial per node, gather, Final at the coordinator — and no extra
        // root gather (the result is already coordinator-only).
        assert_eq!(plan.exchange_count(), 1);
        let Plan::Aggregate { phase, .. } = &plan else {
            panic!("root is the final aggregate");
        };
        assert_eq!(*phase, AggPhase::Final);
    }

    #[test]
    fn scans_are_pruned_to_used_columns() {
        let lp = LogicalPlan::scan(TpchTable::Lineitem)
            .filter(col("l_shipdate").lt(lit(10_000)))
            .aggregate(
                &["l_returnflag"],
                vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty")],
            );
        let plan = planner(2).plan(&lp).unwrap();
        fn find_scan(p: &Plan) -> Option<&Plan> {
            if matches!(p, Plan::Scan { .. }) {
                return Some(p);
            }
            p.children().iter().find_map(|c| find_scan(c))
        }
        let Some(Plan::Scan {
            filter, project, ..
        }) = find_scan(&plan)
        else {
            panic!("plan has a scan");
        };
        assert!(filter.is_some(), "filter is pushed into the scan");
        // The filter column is evaluated pre-projection and must not be kept.
        assert_eq!(
            project.as_deref(),
            Some(&["l_quantity".to_string(), "l_returnflag".to_string()][..])
        );
    }

    #[test]
    fn sort_gathers_before_ordering() {
        let lp = LogicalPlan::scan(TpchTable::Nation)
            .sort(vec![SortKey::asc("n_name")])
            .limit(3);
        let plan = planner(4).plan(&lp).unwrap();
        let Plan::Sort { input, limit, .. } = &plan else {
            panic!("root is a sort, got {plan:?}");
        };
        assert_eq!(*limit, Some(3), "limit folds into the sort");
        assert!(matches!(
            **input,
            Plan::Exchange {
                kind: ExchangeKind::Gather,
                ..
            }
        ));
    }

    #[test]
    fn unknown_columns_are_rejected_not_panicked() {
        let bad = LogicalPlan::scan(TpchTable::Nation).filter(col("no_such").eq(lit(1)));
        assert!(matches!(
            planner(2).plan(&bad),
            Err(EngineError::Planner(_))
        ));
        let bad = LogicalPlan::scan(TpchTable::Nation)
            .aggregate(&["nope"], vec![AggSpec::new(AggFunc::Count, lit(1), "c")]);
        assert!(matches!(
            planner(2).plan(&bad),
            Err(EngineError::Planner(_))
        ));
        let bad = LogicalPlan::scan(TpchTable::Nation).join(
            LogicalPlan::scan(TpchTable::Region),
            &["n_regionkey"],
            &[],
            JoinKind::Inner,
        );
        assert!(matches!(
            planner(2).plan(&bad),
            Err(EngineError::Planner(_))
        ));
    }

    #[test]
    fn ambiguous_join_output_is_rejected() {
        let bad = LogicalPlan::scan(TpchTable::Nation).join(
            LogicalPlan::scan(TpchTable::Nation),
            &["n_regionkey"],
            &["n_regionkey"],
            JoinKind::Inner,
        );
        assert!(matches!(
            planner(2).plan(&bad),
            Err(EngineError::Planner(_))
        ));
        // Semi joins drop the build columns, so self-joins are fine there.
        let ok = LogicalPlan::scan(TpchTable::Nation).join(
            LogicalPlan::scan(TpchTable::Nation),
            &["n_regionkey"],
            &["n_regionkey"],
            JoinKind::LeftSemi,
        );
        assert!(planner(2).plan(&ok).is_ok());
    }

    #[test]
    fn projection_renames_keep_partitioning() {
        let lp = LogicalPlan::scan(TpchTable::Orders)
            .join(
                LogicalPlan::scan(TpchTable::Lineitem).project(&["l_orderkey", "l_quantity"]),
                &["o_orderkey"],
                &["l_orderkey"],
                JoinKind::Inner,
            )
            .select(vec![
                MapExpr::new("key", col("o_orderkey")),
                MapExpr::new("qty", col("l_quantity")),
            ])
            .aggregate(&["key"], vec![AggSpec::new(AggFunc::Sum, col("qty"), "q")]);
        let plan = planner(4).plan(&lp).unwrap();
        // Join repartitions both sides; the rename preserves the property,
        // so the aggregate stays local (no third repartition).
        assert_eq!(repartitions(&plan), 2);
    }

    #[test]
    fn cte_materialization_pruned_to_union_of_consumers() {
        use crate::logical::LogicalQuery;
        // One consumer needs (s_suppkey, s_nationkey, s_acctbal), the other
        // only s_nationkey; the materialization must carry exactly the
        // union, and the narrow consumer's TempScan projects further.
        let narrow = LogicalPlan::from_cte("supp").aggregate(
            &["s_nationkey"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")],
        );
        let result = LogicalPlan::from_cte("supp")
            .project(&["s_suppkey", "s_nationkey", "s_acctbal"])
            .join(
                narrow,
                &["s_nationkey"],
                &["s_nationkey"],
                JoinKind::LeftSemi,
            );
        let q = LogicalQuery::cte("supp", LogicalPlan::scan(TpchTable::Supplier)).then(result);
        let physical = planner(2).plan_query(&q).unwrap();

        fn find<'p>(p: &'p Plan, pred: &dyn Fn(&Plan) -> bool) -> Option<&'p Plan> {
            if pred(p) {
                return Some(p);
            }
            p.children().iter().find_map(|c| find(c, pred))
        }
        // Materialize stage: the supplier scan keeps only the union.
        let scan = find(&physical.stages[0].plan, &|p| {
            matches!(p, Plan::Scan { .. })
        })
        .expect("scan in materialize stage");
        let Plan::Scan { project, .. } = scan else {
            unreachable!()
        };
        assert_eq!(
            project.as_deref(),
            Some(
                &[
                    "s_suppkey".to_string(),
                    "s_nationkey".to_string(),
                    "s_acctbal".to_string()
                ][..]
            ),
            "materialization must carry exactly the consumers' union"
        );
        // Result stage: the aggregate consumer's TempScan projects to its
        // own single column.
        let narrow_scan = find(&physical.stages[1].plan, &|p| {
            matches!(
                p,
                Plan::TempScan {
                    project: Some(_),
                    ..
                }
            )
        })
        .expect("projected TempScan for the narrow consumer");
        let Plan::TempScan { project, .. } = narrow_scan else {
            unreachable!()
        };
        assert_eq!(project.as_deref(), Some(&["s_nationkey".to_string()][..]));
    }

    #[test]
    fn unpruned_cte_scans_share_without_projection() {
        use crate::logical::LogicalQuery;
        // A consumer that needs every CTE column gets a bare TempScan
        // (shared, no copy) rather than a projected one.
        let q = LogicalQuery::cte(
            "nations",
            LogicalPlan::scan(TpchTable::Nation).project(&["n_nationkey", "n_name"]),
        )
        .then(LogicalPlan::from_cte("nations").sort(vec![SortKey::asc("n_name")]));
        let physical = planner(2).plan_query(&q).unwrap();
        fn temp_scans(p: &Plan, out: &mut Vec<Option<Vec<String>>>) {
            if let Plan::TempScan { project, .. } = p {
                out.push(project.clone());
            }
            for c in p.children() {
                temp_scans(c, out);
            }
        }
        let mut scans = Vec::new();
        temp_scans(&physical.stages[1].plan, &mut scans);
        assert_eq!(scans, vec![None]);
    }

    #[test]
    fn stats_scale_with_the_generator() {
        let s = TableStats::for_scale_factor(0.01);
        assert_eq!(s.rows(TpchTable::Region), 5.0);
        assert_eq!(s.rows(TpchTable::Nation), 25.0);
        assert_eq!(s.rows(TpchTable::Supplier), 100.0);
        assert_eq!(s.rows(TpchTable::Orders), 15_000.0);
        assert_eq!(s.rows(TpchTable::Lineitem), 60_000.0);
    }

    #[test]
    fn selectivity_heuristics_are_sane() {
        let eq = col("a").eq(lit(1));
        let rng = col("a").gt(lit(1));
        assert!(selectivity(&eq) < selectivity(&rng));
        let conj = eq.clone().and(rng.clone());
        assert!(selectivity(&conj) < selectivity(&eq));
        let disj = eq.clone().or(rng);
        assert!(selectivity(&disj) > selectivity(&eq));
        assert!(selectivity(&lits("x").like("a%")) <= 0.1);
    }

    #[test]
    fn cte_may_reference_earlier_scalar_params() {
        use crate::expr::param;
        use crate::logical::LogicalQuery;
        // Stage 1 binds param(0); the CTE's subplan consumes it, so its
        // materialization must be deferred past the Params stage.
        let scalar = LogicalPlan::scan(TpchTable::Nation).aggregate(
            &[],
            vec![AggSpec::new(AggFunc::Max, col("n_regionkey"), "m")],
        );
        let dependent =
            LogicalPlan::scan(TpchTable::Region).filter(col("r_regionkey").lt(param(0)));
        let q = LogicalQuery::stage(scalar)
            .with("small", dependent)
            .then(LogicalPlan::from_cte("small"));
        let physical = planner(2).plan_query(&q).unwrap();
        let roles: Vec<String> = physical.stages.iter().map(|s| s.role.label()).collect();
        assert_eq!(
            roles,
            vec!["params", "materialize \"small\"", "result"],
            "param-dependent CTE must be emitted after its binding stage"
        );
    }

    #[test]
    fn cte_param_bound_too_late_is_rejected() {
        use crate::expr::param;
        use crate::logical::LogicalQuery;
        // Only the result stage could bind param(0), but a materialization
        // cannot run after the result: planning must fail, not panic.
        let dependent =
            LogicalPlan::scan(TpchTable::Region).filter(col("r_regionkey").lt(param(0)));
        let q = LogicalQuery::cte("small", dependent).then(LogicalPlan::from_cte("small"));
        assert!(matches!(
            planner(2).plan_query(&q),
            Err(EngineError::Planner(_))
        ));
    }

    #[test]
    fn explained_plans_surface_cost_decisions() {
        // Q3's shape: two large joins, one small build side. The rendered
        // decisions must name both outcomes so operators (and the CI grep)
        // can see why each exchange was chosen.
        let lp = LogicalPlan::scan(TpchTable::Lineitem)
            .join(
                LogicalPlan::scan(TpchTable::Orders),
                &["l_orderkey"],
                &["o_orderkey"],
                JoinKind::Inner,
            )
            .join(
                LogicalPlan::scan(TpchTable::Nation),
                &["l_suppkey"],
                &["n_nationkey"],
                JoinKind::Inner,
            );
        let (_plan, notes) = planner(4).plan_explained(&lp).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("repartition")),
            "lineitem ⋈ orders must log a repartition decision: {notes:?}"
        );
        assert!(
            notes.iter().any(|n| n.contains("broadcast")),
            "⋈ nation must log a broadcast decision: {notes:?}"
        );
    }

    #[test]
    fn catalog_stats_sharpen_filtered_estimates() {
        // With a column catalog, a tight range predicate shrinks the build
        // side enough to broadcast a join the flat heuristics repartition.
        let lp = LogicalPlan::scan(TpchTable::Lineitem).join(
            LogicalPlan::scan(TpchTable::Orders).filter(col("o_custkey").lt(lit(30))),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        );
        let plan = Planner::for_tpch(4, 0.01, |_| None).plan(&lp).unwrap();
        assert_eq!(
            broadcasts(&plan),
            1,
            "catalog min/max bounds the filter to a tiny fraction of orders"
        );
    }

    /// The fourth decision on TPC-H at SF 0.05 on two nodes: a join of
    /// lineitem and orders filters the side whose repartition ships the
    /// rows that cannot join — the larger one, or the one whose partner
    /// is filtered hard — and a join whose keys every row of the other
    /// side holds filters nothing. That holds for composite keys too:
    /// every lineitem of Q9 has its partsupp row, while Q20's partsupp
    /// rows are twice the (part, supplier) pairs its lineitem aggregate
    /// holds.
    #[test]
    fn join_filters_go_where_shipped_rows_cannot_join() {
        use crate::plan::JoinSide::{Build, Probe};
        use crate::queries::tpch_logical;
        fn filters(plan: &Plan, out: &mut Vec<(String, Option<JoinSide>)>) {
            if let Plan::HashJoin {
                probe_keys, filter, ..
            } = plan
            {
                if plan
                    .filter_site(Probe)
                    .or(plan.filter_site(Build))
                    .is_some()
                {
                    out.push((probe_keys.join(","), *filter));
                }
            }
            plan.children().into_iter().for_each(|c| filters(c, out));
        }
        let planner = Planner::for_tpch(2, 0.05, |_| None);
        let expected: [(u32, &[(&str, Option<JoinSide>)]); 8] = [
            (3, &[("l_orderkey", Some(Probe))]),
            (4, &[("o_orderkey", Some(Build))]),
            (
                9,
                &[("l_orderkey", Some(Build)), ("l_partkey,l_suppkey", None)],
            ),
            (12, &[("l_orderkey", Some(Build))]),
            (14, &[("l_partkey", None)]),
            (18, &[("o_custkey", None), ("o_orderkey", Some(Probe))]),
            (20, &[("ps_partkey,ps_suppkey", Some(Build))]),
            (
                21,
                &[
                    ("l_orderkey", Some(Build)),
                    ("l_orderkey", Some(Build)),
                    ("l_orderkey", Some(Probe)),
                ],
            ),
        ];
        for (n, want) in expected {
            let query = planner.plan_query(&tpch_logical(n).unwrap()).unwrap();
            let mut got = Vec::new();
            query.stages.iter().for_each(|s| filters(&s.plan, &mut got));
            let want: Vec<(String, Option<JoinSide>)> =
                want.iter().map(|(k, f)| (k.to_string(), *f)).collect();
            assert_eq!(got, want, "Q{n}");
        }
    }

    /// The domain a join's keys are drawn from: one key pair's is its
    /// larger NDV; a composite key's is the product of its pairs', pairs
    /// without statistics skipped, but no more than the rows of the
    /// smallest table holding a key column.
    #[test]
    fn join_key_domains_multiply_up_to_the_smallest_key_table() {
        use crate::stats::{ColumnStats, TableStatistics};
        let table = |rows, columns: &[(&str, f64)]| TableStatistics {
            rows,
            columns: columns
                .iter()
                .map(|&(c, ndv)| (c.to_string(), ColumnStats::with_ndv(ndv)))
                .collect(),
        };
        let mut cat = StatsCatalog::new();
        cat.insert("a", table(100.0, &[("a_x", 10.0), ("a_y", 20.0)]));
        cat.insert("b", table(50.0, &[("b_x", 8.0), ("b_y", 30.0)]));
        cat.insert("c", table(1000.0, &[("c_x", 10.0), ("c_y", 20.0)]));
        let domain = |probe: &[&str], build: &[&str]| {
            let keys = |k: &[&str]| k.iter().map(|s| s.to_string()).collect::<Vec<_>>();
            join_key_domain(&cat, &keys(probe), &keys(build))
        };
        assert_eq!(domain(&["a_x"], &["b_x"]), Some(10.0), "the larger NDV");
        assert_eq!(domain(&["b_y"], &["renamed"]), Some(30.0), "one side's");
        assert_eq!(domain(&["c_x", "c_y"], &["r_x", "r_y"]), Some(200.0));
        assert_eq!(
            domain(&["a_x", "a_y"], &["b_x", "b_y"]),
            Some(50.0),
            "10 × 30 capped at b's rows"
        );
        assert_eq!(
            domain(&["a_x", "r_y"], &["b_x", "s_y"]),
            Some(10.0),
            "a pair without statistics adds nothing"
        );
        assert_eq!(domain(&["r_x"], &["s_x"]), None);
    }

    /// A loaded simulated session and a socket coordinator plan the 22
    /// queries identically. The second planner is built by hand as the
    /// benchmark's socket workload builds its own: spec-derived row counts
    /// overridden by the exact ones, and the declared catalog.
    #[test]
    fn both_clusters_plan_every_tpch_query_identically() {
        use crate::queries::{tpch_logical, ALL_QUERIES};
        use crate::session::Session;

        for sf in [0.01, 0.05] {
            for nodes in [2, 4] {
                let session = Session::builder().nodes(nodes).tpch(sf).build().unwrap();
                let mut stats = TableStats::for_scale_factor(sf);
                for table in TpchTable::ALL {
                    if let Some(rows) = session.cluster().table_rows(table) {
                        stats.set_rows(table, rows as f64);
                    }
                }
                let socket = Planner::new(PlannerConfig {
                    stats,
                    catalog: Some(Arc::new(StatsCatalog::declared_tpch(sf))),
                    ..PlannerConfig::new(nodes)
                });
                let simulated = session.planner();
                for n in ALL_QUERIES {
                    let logical = tpch_logical(n).unwrap();
                    let shape = |p: &Planner| -> Vec<(StageRole, String)> {
                        let query = p.plan_query(&logical).unwrap();
                        let stages = query.stages.into_iter();
                        stages.map(|s| (s.role, s.plan.explain())).collect()
                    };
                    assert_eq!(
                        shape(&simulated),
                        shape(&socket),
                        "Q{n} at SF {sf} on {nodes} nodes"
                    );
                }
                session.shutdown();
            }
        }
    }
}
