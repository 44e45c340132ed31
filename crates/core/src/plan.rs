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
                ..
            } => {
                let _ = write!(
                    out,
                    "HashJoin {kind:?} on {} = {}",
                    probe_keys.join(", "),
                    build_keys.join(", ")
                );
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
