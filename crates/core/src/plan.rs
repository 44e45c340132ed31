//! Physical query plans.
//!
//! Plans are trees of physical operators, lowered from logical queries by
//! [`crate::planner`] (the paper's plans are produced by HyPer's optimizer;
//! ours take the unnested, distributed shape of Figure 6). Exchange
//! operators mark where tuples cross server boundaries; everything else
//! runs node-locally with morsel-driven parallelism.

use hsqp_storage::DataType;
use hsqp_tpch::TpchTable;

use crate::expr::Expr;

/// Join variants used by the TPC-H plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit probe ⨝ build matches.
    Inner,
    /// Emit every probe row; build columns NULL when unmatched (Q13).
    LeftOuter,
    /// Emit probe rows with ≥ 1 match, probe columns only (EXISTS).
    LeftSemi,
    /// Emit probe rows with no match, probe columns only (NOT EXISTS).
    LeftAnti,
}

impl JoinKind {
    /// Whether rows of `side` that no row of the other side matches may be
    /// dropped before the join: never those of a side whose unmatched rows
    /// appear in the result (a LeftOuter or LeftAnti join's probe side).
    pub fn may_filter(self, side: JoinSide) -> bool {
        match self {
            JoinKind::Inner | JoinKind::LeftSemi => true,
            JoinKind::LeftOuter | JoinKind::LeftAnti => side == JoinSide::Build,
        }
    }
}

/// One input of a [`Plan::HashJoin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The streaming side.
    Probe,
    /// The side materialized into the hash table.
    Build,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `sum(expr)`.
    Sum,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `count(expr)` — counts non-NULL rows; use a literal for `count(*)`.
    Count,
    /// `count(distinct expr)`.
    CountDistinct,
    /// `avg(expr)`.
    Avg,
}

/// One aggregate in an [`Plan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Function to apply.
    pub func: AggFunc,
    /// Input expression, evaluated per row before aggregation.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Construct an aggregate.
    pub fn new(func: AggFunc, expr: Expr, name: &str) -> Self {
        Self {
            func,
            expr,
            name: name.to_string(),
        }
    }
}

/// Aggregation phase (pre-aggregation is the Figure 6(c) optimization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPhase {
    /// Complete aggregation in one step (input already partitioned by key).
    Single,
    /// Local pre-aggregation producing partial states, to be shuffled.
    Partial,
    /// Merge partial states into final results.
    Final,
}

/// One output of a [`Plan::Map`] projection.
#[derive(Debug, Clone, PartialEq)]
pub struct MapExpr {
    /// Output column name.
    pub name: String,
    /// Expression computing the column.
    pub expr: Expr,
    /// Optional logical-type override (default: inferred from the data).
    pub dtype: Option<DataType>,
}

impl MapExpr {
    /// Projection with inferred output type.
    pub fn new(name: &str, expr: Expr) -> Self {
        Self {
            name: name.to_string(),
            expr,
            dtype: None,
        }
    }

    /// Projection with an explicit logical type (e.g. keep a date a Date).
    pub fn typed(name: &str, expr: Expr, dtype: DataType) -> Self {
        Self {
            dtype: Some(dtype),
            ..Self::new(name, expr)
        }
    }
}

/// Sort key: column name + direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// Column to sort by.
    pub column: String,
    /// Descending order when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(column: &str) -> Self {
        Self {
            column: column.to_string(),
            desc: false,
        }
    }

    /// Descending sort key.
    pub fn desc(column: &str) -> Self {
        Self {
            column: column.to_string(),
            desc: true,
        }
    }
}

/// How an exchange redistributes tuples (§3.2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// Hash-partition by CRC32 of the named columns; every node keeps its
    /// own bucket and ships the rest.
    HashPartition(Vec<String>),
    /// Replicate the full input to every node (broadcast join build sides;
    /// serialized once, retained per target — §3.2).
    Broadcast,
    /// Ship everything to node 0 (final result collection).
    Gather,
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base relation, with optional pushed-down filter and pruned
    /// column set ("columns that are not required … are pruned as early as
    /// possible", §3.2.1).
    Scan {
        /// Relation to scan.
        table: TpchTable,
        /// Pushed-down predicate.
        filter: Option<Expr>,
        /// Columns to keep (None = all).
        project: Option<Vec<String>>,
    },
    /// Scan this node's share of a temporary relation materialized by an
    /// earlier query stage (a [`LogicalQuery`](crate::logical::LogicalQuery)
    /// CTE registered via `.with(name, plan)`).
    TempScan {
        /// Name of the materialized relation.
        name: String,
        /// Columns to keep (None = all). A projected temp scan copies only
        /// the named columns; an unprojected one shares the materialized
        /// table without copying.
        project: Option<Vec<String>>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate; rows evaluating to true survive.
        predicate: Expr,
    },
    /// Compute a full projection list.
    Map {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns.
        outputs: Vec<MapExpr>,
    },
    /// Hash join; `build` side is materialized into the hash table.
    HashJoin {
        /// Probe (streaming) side.
        probe: Box<Plan>,
        /// Build side.
        build: Box<Plan>,
        /// Probe-side key columns.
        probe_keys: Vec<String>,
        /// Build-side key columns.
        build_keys: Vec<String>,
        /// Join semantics.
        kind: JoinKind,
        /// The side whose repartition drops every row whose key no row of
        /// the other side holds on the node the row is headed for: the
        /// other side runs first, and each node broadcasts a Bloom filter
        /// over its keys in one summary round (the Bloomjoin, Mackert and
        /// Lohman, VLDB 1986). Only a side [`filter_site`](Plan::filter_site)
        /// finds may be named. `None`: no filter, and the build side runs
        /// first unless the probe side's keys can
        /// [seed](Plan::seeding_keys) an aggregate under it.
        filter: Option<JoinSide>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by column names (empty = global aggregate).
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
        /// Aggregation phase.
        phase: AggPhase,
    },
    /// Sort with optional limit (top-k).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
        /// Keep only the first `limit` rows.
        limit: Option<usize>,
    },
    /// Redistribute tuples between servers.
    Exchange {
        /// Input plan.
        input: Box<Plan>,
        /// Redistribution scheme.
        kind: ExchangeKind,
    },
}

impl Plan {
    /// Scan all columns of `table`.
    pub fn scan(table: TpchTable) -> Plan {
        Plan::Scan {
            table,
            filter: None,
            project: None,
        }
    }

    /// Scan selected columns of `table`.
    pub fn scan_cols(table: TpchTable, cols: &[&str]) -> Plan {
        Plan::Scan {
            table,
            filter: None,
            project: Some(cols.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Scan selected columns with a pushed-down filter.
    pub fn scan_filtered(table: TpchTable, cols: &[&str], filter: Expr) -> Plan {
        Plan::Scan {
            table,
            filter: Some(filter),
            project: Some(cols.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Scan a temporary relation materialized by an earlier query stage.
    pub fn temp_scan(name: &str) -> Plan {
        Plan::TempScan {
            name: name.to_string(),
            project: None,
        }
    }

    /// Scan selected columns of a materialized temporary relation.
    pub fn temp_scan_cols(name: &str, cols: &[&str]) -> Plan {
        Plan::TempScan {
            name: name.to_string(),
            project: Some(cols.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Add a filter on top.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Add a projection on top.
    pub fn map(self, outputs: Vec<MapExpr>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            outputs,
        }
    }

    /// Join `self` (probe) with `build`.
    pub fn join(
        self,
        build: Plan,
        probe_keys: &[&str],
        build_keys: &[&str],
        kind: JoinKind,
    ) -> Plan {
        assert_eq!(
            probe_keys.len(),
            build_keys.len(),
            "join key arity mismatch"
        );
        Plan::HashJoin {
            probe: Box::new(self),
            build: Box::new(build),
            probe_keys: probe_keys.iter().map(|s| s.to_string()).collect(),
            build_keys: build_keys.iter().map(|s| s.to_string()).collect(),
            kind,
            filter: None,
        }
    }

    /// Single-phase aggregation.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggs,
            phase: AggPhase::Single,
        }
    }

    /// Sort (optionally limited).
    pub fn sort(self, keys: Vec<SortKey>, limit: Option<usize>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    /// Hash-repartition by `keys`.
    pub fn repartition(self, keys: &[&str]) -> Plan {
        Plan::Exchange {
            input: Box::new(self),
            kind: ExchangeKind::HashPartition(keys.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Broadcast to all nodes.
    pub fn broadcast(self) -> Plan {
        Plan::Exchange {
            input: Box::new(self),
            kind: ExchangeKind::Broadcast,
        }
    }

    /// Gather at node 0.
    pub fn gather(self) -> Plan {
        Plan::Exchange {
            input: Box::new(self),
            kind: ExchangeKind::Gather,
        }
    }

    /// Render the plan as an indented operator tree, one operator per
    /// line — exchange placement (gather / broadcast / hash-partition) is
    /// what `hsqp --explain` exists to show.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Plan::Scan {
                table,
                filter,
                project,
            } => {
                let _ = write!(out, "Scan {}", table.name());
                if let Some(cols) = project {
                    let _ = write!(out, " [{}]", cols.join(", "));
                }
                if filter.is_some() {
                    out.push_str(" (filtered)");
                }
            }
            Plan::TempScan { name, project } => {
                let _ = write!(out, "TempScan {name:?}");
                if let Some(cols) = project {
                    let _ = write!(out, " [{}]", cols.join(", "));
                }
            }
            Plan::Filter { .. } => out.push_str("Filter"),
            Plan::Map { outputs, .. } => {
                let names: Vec<&str> = outputs.iter().map(|o| o.name.as_str()).collect();
                let _ = write!(out, "Map [{}]", names.join(", "));
            }
            Plan::HashJoin {
                probe_keys,
                build_keys,
                kind,
                filter,
                ..
            } => {
                let _ = write!(
                    out,
                    "HashJoin {kind:?} on {} = {}",
                    probe_keys.join(", "),
                    build_keys.join(", ")
                );
                if let Some(side) = filter {
                    let _ = write!(out, " (filter {side:?})");
                }
            }
            Plan::Aggregate {
                group_by, phase, ..
            } => {
                let _ = write!(out, "Aggregate {phase:?}");
                if !group_by.is_empty() {
                    let _ = write!(out, " by [{}]", group_by.join(", "));
                }
            }
            Plan::Sort { keys, limit, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.desc { " desc" } else { "" }))
                    .collect();
                let _ = write!(out, "Sort [{}]", keys.join(", "));
                if let Some(n) = limit {
                    let _ = write!(out, " limit {n}");
                }
            }
            Plan::Exchange { kind, .. } => match kind {
                ExchangeKind::HashPartition(keys) => {
                    let _ = write!(out, "Exchange HashPartition [{}]", keys.join(", "));
                }
                ExchangeKind::Broadcast => out.push_str("Exchange Broadcast"),
                ExchangeKind::Gather => out.push_str("Exchange Gather"),
            },
        }
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }

    /// Number of [`Plan::Exchange`] operators in the tree.
    pub fn exchange_count(&self) -> usize {
        let own = usize::from(matches!(self, Plan::Exchange { .. }));
        own + self
            .children()
            .iter()
            .map(|c| c.exchange_count())
            .sum::<usize>()
    }

    /// Where a filter on `side` of this `HashJoin` acts, if its kind
    /// [allows](JoinKind::may_filter) one there and a repartition ships
    /// that side: a `HashPartition` exchange below only `Filter`s, `Map`s
    /// that pass every key on as a bare column and aggregates grouped by
    /// every key. Returns how many levels below the side's root the
    /// exchange lies, and the side's keys by their names in its input;
    /// `None` for any other plan.
    ///
    /// A row that exchange sends to node *j* meets the join on node *j*,
    /// with its key unchanged, or not at all, since nothing on the way
    /// ships rows or computes keys; and a group keeps its rows' key. So a
    /// row whose key no row of the join's other side holds on node *j*
    /// can be dropped there, before it is sent, whatever partitions the
    /// other side.
    pub fn filter_site(&self, side: JoinSide) -> Option<(usize, Vec<String>)> {
        let Plan::HashJoin {
            probe,
            build,
            probe_keys,
            build_keys,
            kind,
            ..
        } = self
        else {
            return None;
        };
        let (plan, keys) = match side {
            JoinSide::Probe => (probe, probe_keys),
            JoinSide::Build => (build, build_keys),
        };
        kind.may_filter(side)
            .then(|| plan.filtered_exchange(keys))
            .flatten()
    }

    /// The exchange [`filter_site`](Self::filter_site) looks for under
    /// `self`, a join side keyed by `keys`.
    fn filtered_exchange(&self, keys: &[String]) -> Option<(usize, Vec<String>)> {
        let mut names: Vec<Option<&str>> = keys.iter().map(|k| Some(k.as_str())).collect();
        let (mut plan, mut depth) = (self, 0);
        loop {
            let (below, levels, renamed) = plan.below_renames(names);
            let keys: Vec<&str> = renamed.iter().copied().collect::<Option<_>>()?;
            depth += levels;
            match below {
                Plan::Aggregate {
                    input, group_by, ..
                } if keys
                    .iter()
                    .all(|k| group_by.iter().any(|g| g.as_str() == *k)) =>
                {
                    (plan, depth) = (input, depth + 1);
                }
                Plan::Exchange {
                    kind: ExchangeKind::HashPartition(_),
                    ..
                } => return Some((depth, keys.iter().map(|k| k.to_string()).collect())),
                _ => return None,
            }
            names = renamed;
        }
    }

    /// Whether a join's probe side runs first to seed the aggregate under
    /// its build side `self`, keyed by `build_keys`, decided from the plan
    /// alone: the build side must be `Filter`/`Map`* over a `Single` or
    /// `Final` aggregate with groups, and every group column must be a
    /// build key, renamed at most by `Map` outputs that are bare column
    /// references. Returns, per group column, the index of its join key.
    ///
    /// Dropping the build rows whose key no probe row holds is then exact
    /// for every join kind: no exchange lies between the join and the
    /// aggregate, so a node's probe rows meet only the build rows of its
    /// own aggregate, and `Filter` and a renaming `Map` act on a group at a
    /// time.
    pub fn seeding_keys(&self, build_keys: &[String]) -> Option<Vec<usize>> {
        let names = build_keys.iter().map(|k| Some(k.as_str())).collect();
        match self.below_renames(names) {
            (
                Plan::Aggregate {
                    group_by, phase, ..
                },
                _,
                names,
            ) if !group_by.is_empty() && *phase != AggPhase::Partial => group_by
                .iter()
                .map(|g| names.iter().position(|n| *n == Some(g.as_str())))
                .collect(),
            _ => None,
        }
    }

    /// The walk [`filtered_exchange`](Self::filtered_exchange) and
    /// [`seeding_keys`](Self::seeding_keys) share: down from `self`
    /// through `Filter`s and `Map`s to the first other operator. Returns
    /// it, how many levels down it lies, and the names `names` have there
    /// (`None` for one a `Map` computes or drops).
    fn below_renames<'p>(
        &'p self,
        mut names: Vec<Option<&'p str>>,
    ) -> (&'p Plan, usize, Vec<Option<&'p str>>) {
        let (mut plan, mut depth) = (self, 0);
        loop {
            plan = match plan {
                Plan::Filter { input, .. } => input,
                Plan::Map { input, outputs } => {
                    for name in &mut names {
                        let source = outputs.iter().find(|o| Some(o.name.as_str()) == *name);
                        *name = source.and_then(|o| match (&o.expr, o.dtype) {
                            (Expr::Col(below), None) => Some(below.as_str()),
                            _ => None,
                        });
                    }
                    input
                }
                _ => return (plan, depth, names),
            };
            depth += 1;
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::TempScan { .. } => vec![],
            Plan::Filter { input, .. }
            | Plan::Map { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Exchange { input, .. } => vec![input],
            Plan::HashJoin { probe, build, .. } => vec![probe, build],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn builder_constructs_expected_tree() {
        let p = Plan::scan(TpchTable::Lineitem)
            .filter(col("l_quantity").lt(lit(24)))
            .repartition(&["l_orderkey"])
            .aggregate(
                &["l_orderkey"],
                vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "qty")],
            )
            .gather();
        assert_eq!(p.exchange_count(), 2);
        match &p {
            Plan::Exchange { kind, .. } => assert_eq!(*kind, ExchangeKind::Gather),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "key arity")]
    fn join_key_arity_checked() {
        Plan::scan(TpchTable::Orders).join(
            Plan::scan(TpchTable::Customer),
            &["o_custkey"],
            &[],
            JoinKind::Inner,
        );
    }

    #[test]
    fn children_enumerates_both_join_sides() {
        let p = Plan::scan(TpchTable::Orders).join(
            Plan::scan(TpchTable::Customer),
            &["o_custkey"],
            &["c_custkey"],
            JoinKind::Inner,
        );
        assert_eq!(p.children().len(), 2);
        assert_eq!(Plan::scan(TpchTable::Region).children().len(), 0);
    }

    #[test]
    fn sort_keys_capture_direction() {
        let k = SortKey::desc("revenue");
        assert!(k.desc);
        assert_eq!(k.column, "revenue");
        assert!(!SortKey::asc("x").desc);
    }
}
