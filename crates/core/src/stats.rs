//! The statistics catalog: declared row counts, NDVs and min/max ranges
//! derived from the TPC-H spec at a given scale factor
//! ([`StatsCatalog::declared_tpch`]).
//!
//! The planner's placement decisions (broadcast vs repartition,
//! pre-aggregation vs raw reshuffle, CTE materialization) are only as good
//! as their cardinality inputs. Every TPC-H planner plans from these
//! statistics, whichever cluster runs the plan: [`Planner::for_tpch`]
//! builds each one, with the exact row counts the cluster reports where it
//! has them. A query is planned once, before it runs.
//!
//! [`Planner::for_tpch`]: crate::planner::Planner::for_tpch
//!
//! The estimator functions ([`eq_selectivity`], [`range_selectivity`],
//! [`join_key_selectivity`], [`conjunction_selectivity`]) implement the
//! textbook System-R assumptions: uniform values within a column,
//! independence between predicates, and key containment across joins.

use std::collections::BTreeMap;

use crate::expr::CmpOp;

/// How the planner sources its cardinality estimates. Only catalog-driven
/// estimates exist.
///
/// Kept only because hsqp_bench names it; ROADMAP item 1 removes that
/// reference, then this goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// Catalog-driven estimates (NDV, min/max, null fractions) feeding the
    /// cost model.
    Static,
}

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct non-NULL values.
    pub ndv: f64,
    /// Smallest numeric value (promoted: decimals as fractional units,
    /// dates as day numbers). `None` for string columns.
    pub min: Option<f64>,
    /// Largest numeric value (same promotion as `min`).
    pub max: Option<f64>,
    /// Fraction of rows that are NULL, in `[0, 1]`.
    pub null_fraction: f64,
}

impl ColumnStats {
    /// Statistics for a column with `ndv` distinct values and no NULLs.
    pub fn with_ndv(ndv: f64) -> Self {
        Self {
            ndv: ndv.max(1.0),
            min: None,
            max: None,
            null_fraction: 0.0,
        }
    }

    /// Add a numeric `[min, max]` range.
    pub fn with_range(mut self, min: f64, max: f64) -> Self {
        self.min = Some(min);
        self.max = Some(max);
        self
    }
}

/// Statistics for one relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStatistics {
    /// Declared row count.
    pub rows: f64,
    /// Per-column statistics, keyed by column name.
    pub columns: BTreeMap<String, ColumnStats>,
}

/// The statistics catalog: per-table row counts and column statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    tables: BTreeMap<String, TableStatistics>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) the statistics of one relation.
    pub fn insert(&mut self, name: impl Into<String>, stats: TableStatistics) {
        self.tables.insert(name.into(), stats);
    }

    /// Statistics of `table`, if registered.
    pub fn table(&self, name: &str) -> Option<&TableStatistics> {
        self.tables.get(name)
    }

    /// Statistics of one column of `table`.
    pub fn column(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.tables.get(table)?.columns.get(column)
    }

    /// Find a column's statistics without knowing its table. TPC-H column
    /// names carry their table prefix (`l_`, `o_`, …) and are globally
    /// unique, so this resolves column references that already passed
    /// through joins and projections — renamed columns simply miss and the
    /// caller falls back to its flat heuristic.
    pub fn column_anywhere(&self, column: &str) -> Option<&ColumnStats> {
        self.table_holding(column)?.columns.get(column)
    }

    /// The statistics of the table holding `column`, found as
    /// [`column_anywhere`](Self::column_anywhere) finds the column.
    pub(crate) fn table_holding(&self, column: &str) -> Option<&TableStatistics> {
        self.tables
            .values()
            .find(|t| t.columns.contains_key(column))
    }

    /// Declared statistics for a TPC-H database at scale factor `sf`,
    /// derived from the spec and the generator: row counts, key NDVs,
    /// value-domain sizes of the enumerated attributes, and date/money
    /// ranges. The one source of column statistics for TPC-H planning;
    /// build planners with [`Planner::for_tpch`] rather than from this.
    ///
    /// [`Planner::for_tpch`]: crate::planner::Planner::for_tpch
    pub fn declared_tpch(sf: f64) -> Self {
        use hsqp_storage::date_from_ymd;
        let suppliers = (10_000.0 * sf).max(4.0);
        let customers = (150_000.0 * sf).max(10.0);
        let parts = (200_000.0 * sf).max(20.0);
        let partsupp = parts * 4.0;
        let orders = customers * 10.0;
        let lineitem = orders * 4.0;
        let date_lo = date_from_ymd(1992, 1, 1) as f64;
        let date_hi = date_from_ymd(1998, 12, 31) as f64;

        let mut c = Self::new();
        let mut add = |name: &str, rows: f64, cols: Vec<(&str, ColumnStats)>| {
            let mut t = TableStatistics {
                rows,
                columns: BTreeMap::new(),
            };
            for (col, stats) in cols {
                t.columns.insert(col.to_string(), stats);
            }
            c.tables.insert(name.to_string(), t);
        };

        let key = |n: f64| ColumnStats::with_ndv(n).with_range(0.0, n.max(1.0));
        add(
            "region",
            5.0,
            vec![
                ("r_regionkey", key(5.0)),
                ("r_name", ColumnStats::with_ndv(5.0)),
            ],
        );
        add(
            "nation",
            25.0,
            vec![
                ("n_nationkey", key(25.0)),
                ("n_regionkey", key(5.0)),
                ("n_name", ColumnStats::with_ndv(25.0)),
            ],
        );
        add(
            "supplier",
            suppliers,
            vec![
                ("s_suppkey", key(suppliers)),
                ("s_nationkey", key(25.0)),
                (
                    "s_acctbal",
                    ColumnStats::with_ndv(suppliers).with_range(-999.99, 9_999.99),
                ),
            ],
        );
        add(
            "customer",
            customers,
            vec![
                ("c_custkey", key(customers)),
                ("c_nationkey", key(25.0)),
                ("c_mktsegment", ColumnStats::with_ndv(5.0)),
                (
                    "c_acctbal",
                    ColumnStats::with_ndv(customers).with_range(-999.99, 9_999.99),
                ),
                ("c_phone", ColumnStats::with_ndv(customers)),
            ],
        );
        add(
            "part",
            parts,
            vec![
                ("p_partkey", key(parts)),
                ("p_brand", ColumnStats::with_ndv(25.0)),
                ("p_type", ColumnStats::with_ndv(150.0)),
                ("p_size", ColumnStats::with_ndv(50.0).with_range(1.0, 50.0)),
                ("p_container", ColumnStats::with_ndv(40.0)),
                (
                    "p_retailprice",
                    ColumnStats::with_ndv(parts).with_range(900.0, 2_100.0),
                ),
            ],
        );
        add(
            "partsupp",
            partsupp,
            vec![
                ("ps_partkey", key(parts)),
                ("ps_suppkey", key(suppliers)),
                (
                    "ps_availqty",
                    ColumnStats::with_ndv(partsupp.min(9_999.0)).with_range(1.0, 9_999.0),
                ),
                (
                    "ps_supplycost",
                    ColumnStats::with_ndv(partsupp.min(99_901.0)).with_range(1.0, 1_000.0),
                ),
            ],
        );
        add(
            "orders",
            orders,
            vec![
                ("o_orderkey", key(orders)),
                // Two thirds of customers have placed at least one order,
                // and their keys span all customers.
                (
                    "o_custkey",
                    ColumnStats::with_ndv(customers * 2.0 / 3.0).with_range(1.0, customers),
                ),
                (
                    "o_orderdate",
                    ColumnStats::with_ndv(2_406.0).with_range(date_lo, date_hi - 151.0),
                ),
                ("o_orderpriority", ColumnStats::with_ndv(5.0)),
                ("o_orderstatus", ColumnStats::with_ndv(3.0)),
                (
                    "o_totalprice",
                    ColumnStats::with_ndv(orders).with_range(850.0, 555_285.0),
                ),
            ],
        );
        add(
            "lineitem",
            lineitem,
            vec![
                ("l_orderkey", key(orders)),
                ("l_partkey", key(parts)),
                ("l_suppkey", key(suppliers)),
                (
                    "l_linenumber",
                    ColumnStats::with_ndv(7.0).with_range(1.0, 7.0),
                ),
                (
                    "l_quantity",
                    ColumnStats::with_ndv(50.0).with_range(1.0, 50.0),
                ),
                (
                    "l_extendedprice",
                    ColumnStats::with_ndv(lineitem).with_range(900.0, 104_950.0),
                ),
                (
                    "l_discount",
                    ColumnStats::with_ndv(11.0).with_range(0.0, 0.10),
                ),
                ("l_tax", ColumnStats::with_ndv(9.0).with_range(0.0, 0.08)),
                ("l_returnflag", ColumnStats::with_ndv(3.0)),
                ("l_linestatus", ColumnStats::with_ndv(2.0)),
                (
                    "l_shipdate",
                    ColumnStats::with_ndv(2_526.0).with_range(date_lo, date_hi),
                ),
                (
                    "l_commitdate",
                    ColumnStats::with_ndv(2_466.0).with_range(date_lo, date_hi),
                ),
                (
                    "l_receiptdate",
                    ColumnStats::with_ndv(2_554.0).with_range(date_lo, date_hi),
                ),
                ("l_shipinstruct", ColumnStats::with_ndv(4.0)),
                ("l_shipmode", ColumnStats::with_ndv(7.0)),
            ],
        );
        c
    }
}

// -- estimator math ---------------------------------------------------------

/// Selectivity of `column = literal` under the uniform-values assumption:
/// each distinct value captures an equal share of the non-NULL rows.
pub fn eq_selectivity(col: &ColumnStats) -> f64 {
    ((1.0 - col.null_fraction) / col.ndv.max(1.0)).clamp(1e-9, 1.0)
}

/// Selectivity of a range predicate `column <op> bound` from the column's
/// numeric `[min, max]` interval (uniform-spread assumption). Falls back to
/// `fallback` when the column has no numeric range.
pub fn range_selectivity(col: &ColumnStats, op: CmpOp, bound: f64, fallback: f64) -> f64 {
    let (Some(min), Some(max)) = (col.min, col.max) else {
        return fallback;
    };
    if max <= min {
        return fallback;
    }
    let width = max - min;
    let frac_below = ((bound - min) / width).clamp(0.0, 1.0);
    let not_null = 1.0 - col.null_fraction;
    let sel = match op {
        CmpOp::Lt | CmpOp::Le => frac_below,
        CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
        CmpOp::Eq => return eq_selectivity(col),
        CmpOp::Ne => return (1.0 - eq_selectivity(col)).max(0.0),
    };
    (sel * not_null).clamp(1e-9, 1.0)
}

/// Combined selectivity of a conjunction under the independence
/// assumption, floored so deep predicate stacks never reach zero.
pub fn conjunction_selectivity(sels: impl IntoIterator<Item = f64>) -> f64 {
    sels.into_iter().product::<f64>().max(1e-6)
}

/// Per-pair join selectivity under the containment assumption: the smaller
/// key domain is contained in the larger, so matches occur at rate
/// `1 / max(ndv_left, ndv_right)` and `|L ⋈ R| = |L|·|R|·sel`.
pub fn join_key_selectivity(left: &ColumnStats, right: &ColumnStats) -> f64 {
    1.0 / left.ndv.max(right.ndv).max(1.0)
}

/// Estimated distinct-group count of a grouped aggregation: the capped
/// product of the group columns' NDVs (`None` for any column without
/// statistics — the caller falls back to its flat heuristic).
pub fn group_count(ndvs: &[Option<f64>], input_rows: f64) -> Option<f64> {
    let mut product = 1.0f64;
    for ndv in ndvs {
        product *= (*ndv)?;
        if product >= input_rows {
            // More combinations than rows: every row is its own group.
            return Some(input_rows.max(1.0));
        }
    }
    Some(product.clamp(1.0, input_rows.max(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp_tpch::TpchTable;

    #[test]
    fn equality_selectivity_follows_ndv() {
        let c = ColumnStats::with_ndv(100.0);
        assert!((eq_selectivity(&c) - 0.01).abs() < 1e-12);
        // NULLs shrink the matching fraction.
        let mut n = ColumnStats::with_ndv(100.0);
        n.null_fraction = 0.5;
        assert!((eq_selectivity(&n) - 0.005).abs() < 1e-12);
        // Degenerate NDV never divides by zero.
        assert!(eq_selectivity(&ColumnStats::with_ndv(0.0)) <= 1.0);
    }

    #[test]
    fn range_selectivity_interpolates_the_interval() {
        let c = ColumnStats::with_ndv(100.0).with_range(0.0, 100.0);
        let lt = range_selectivity(&c, CmpOp::Lt, 25.0, 0.3);
        assert!((lt - 0.25).abs() < 1e-12);
        let gt = range_selectivity(&c, CmpOp::Gt, 25.0, 0.3);
        assert!((gt - 0.75).abs() < 1e-12);
        // Out-of-range bounds clamp instead of going negative.
        assert!(range_selectivity(&c, CmpOp::Lt, -5.0, 0.3) <= 1e-9 + f64::EPSILON);
        assert!((range_selectivity(&c, CmpOp::Gt, -5.0, 0.3) - 1.0).abs() < 1e-12);
        // No numeric range: the flat fallback survives.
        let s = ColumnStats::with_ndv(10.0);
        assert_eq!(range_selectivity(&s, CmpOp::Lt, 1.0, 0.3), 0.3);
    }

    #[test]
    fn conjunction_multiplies_independently() {
        let sel = conjunction_selectivity([0.1, 0.5]);
        assert!((sel - 0.05).abs() < 1e-12);
        // Deep stacks are floored, not zeroed.
        assert!(conjunction_selectivity(vec![1e-3; 10]) >= 1e-6);
    }

    #[test]
    fn join_containment_uses_the_larger_domain() {
        let fk = ColumnStats::with_ndv(1_000.0); // foreign key
        let pk = ColumnStats::with_ndv(1_000.0); // primary key
                                                 // FK ⋈ PK at equal domains: every probe row finds one match, so
                                                 // |L⋈R| = |L|·|R|/ndv = |L| when |R| = ndv.
        let sel = join_key_selectivity(&fk, &pk);
        assert!((sel - 1e-3).abs() < 1e-15);
        let narrow = ColumnStats::with_ndv(10.0);
        assert!((join_key_selectivity(&narrow, &pk) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn group_count_caps_at_input_rows() {
        assert_eq!(group_count(&[Some(4.0), Some(3.0)], 1e6), Some(12.0));
        assert_eq!(group_count(&[Some(1e4), Some(1e4)], 1e6), Some(1e6));
        assert_eq!(group_count(&[Some(4.0), None], 1e6), None);
        assert_eq!(group_count(&[], 5.0), Some(1.0));
    }

    #[test]
    fn declared_tpch_scales_with_sf() {
        let c = StatsCatalog::declared_tpch(0.01);
        assert_eq!(c.table("orders").unwrap().rows, 15_000.0);
        assert_eq!(c.column("lineitem", "l_orderkey").unwrap().ndv, 15_000.0);
        assert_eq!(c.column_anywhere("l_quantity").unwrap().ndv, 50.0);
        assert!(c.column_anywhere("no_such_column").is_none());
    }

    /// Every column the TPC-H catalog declares, against the generated data
    /// at two scale factors: the values lie inside the declared range, no
    /// NDV exceeds its table's rows, and every declared domain of at most
    /// 200 values is exactly the number of distinct values generated.
    #[test]
    fn declared_statistics_describe_generated_data() {
        use hsqp_storage::{decimal_to_f64, Column, DataType};
        use hsqp_tpch::TpchDb;
        use std::collections::HashSet;

        for sf in [0.01, 0.05] {
            let db = TpchDb::generate(sf);
            let catalog = StatsCatalog::declared_tpch(sf);
            for table in TpchTable::ALL {
                let declared = catalog.table(table.name()).expect("declared table");
                let data = db.table(table);
                for (name, stats) in &declared.columns {
                    let what = format!("{name} at SF {sf}");
                    assert!(
                        stats.ndv <= declared.rows,
                        "{what}: NDV {} above {} rows",
                        stats.ndv,
                        declared.rows
                    );
                    let (distinct, range) = match data.column_by_name(name) {
                        Column::I64(v, None) => {
                            let decimal = data.schema().field(name).dtype == DataType::Decimal;
                            let promote =
                                |x: i64| if decimal { decimal_to_f64(x) } else { x as f64 };
                            let lo = v.iter().copied().min().map(promote);
                            let hi = v.iter().copied().max().map(promote);
                            (v.iter().collect::<HashSet<_>>().len(), lo.zip(hi))
                        }
                        Column::Str(v, None) => {
                            let values = (0..data.rows()).map(|i| v.get(i));
                            (values.collect::<HashSet<_>>().len(), None)
                        }
                        _ => panic!("{what}: floats or NULLs, which TPC-H does not generate"),
                    };
                    if let (Some(min), Some(max)) = (stats.min, stats.max) {
                        let (lo, hi) = range.unwrap_or_else(|| panic!("{what}: not numeric"));
                        assert!(
                            min <= lo && hi <= max,
                            "{what}: generated [{lo}, {hi}] outside declared [{min}, {max}]"
                        );
                    }
                    if stats.ndv <= 200.0 {
                        assert_eq!(distinct as f64, stats.ndv, "{what}: distinct values");
                    }
                }
            }
        }
    }
}
