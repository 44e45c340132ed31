//! All 22 TPC-H queries expressed against the logical query builder.
//!
//! The [`LogicalPlan`] / [`LogicalQuery`] API has no exchange operators, no
//! aggregation phases and no broadcast decisions — the
//! [`planner`](crate::planner) derives all of that. Scalar subqueries
//! (Q11's HAVING threshold, Q15's maximum revenue, Q22's average balance)
//! become earlier [`LogicalQuery`] stages binding
//! [`param`] references, and shared subplans (Q2's
//! candidate set, Q15's revenue view) are registered once with
//! [`LogicalQuery::with`] and scanned via [`LogicalPlan::from_cte`].
//! `tests/planner_differential.rs` checks every query's result against a
//! reference evaluator that shares no code with the engine.

use hsqp_storage::date_from_ymd;
use hsqp_tpch::TpchTable;

use crate::error::EngineError;
use crate::expr::{col, lit, litf, lits, param, Expr};
use crate::logical::{LogicalPlan, LogicalQuery};
use crate::plan::{AggFunc, AggSpec, JoinKind, MapExpr, SortKey};

/// Build the logical query for TPC-H query `n` (1–22).
///
/// Returns [`EngineError::UnknownQuery`] for numbers outside 1–22.
pub fn tpch_logical(n: u32) -> Result<LogicalQuery, EngineError> {
    match n {
        1 => Ok(q1().into()),
        2 => Ok(q2()),
        3 => Ok(q3().into()),
        4 => Ok(q4().into()),
        5 => Ok(q5().into()),
        6 => Ok(q6().into()),
        7 => Ok(q7().into()),
        8 => Ok(q8().into()),
        9 => Ok(q9().into()),
        10 => Ok(q10().into()),
        11 => Ok(q11()),
        12 => Ok(q12().into()),
        13 => Ok(q13().into()),
        14 => Ok(q14().into()),
        15 => Ok(q15()),
        16 => Ok(q16().into()),
        17 => Ok(q17().into()),
        18 => Ok(q18().into()),
        19 => Ok(q19().into()),
        20 => Ok(q20().into()),
        21 => Ok(q21().into()),
        22 => Ok(q22()),
        _ => Err(EngineError::UnknownQuery(n)),
    }
}

fn revenue() -> Expr {
    col("l_extendedprice").mul(litf(1.0).sub(col("l_discount")))
}

/// Q1 — pricing summary report.
fn q1() -> LogicalPlan {
    let cutoff = date_from_ymd(1998, 12, 1) - 90;
    let disc_price = revenue();
    let charge = disc_price.clone().mul(litf(1.0).add(col("l_tax")));
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_shipdate").le(lit(cutoff)))
        .aggregate(
            &["l_returnflag", "l_linestatus"],
            vec![
                AggSpec::new(AggFunc::Sum, col("l_quantity"), "sum_qty"),
                AggSpec::new(AggFunc::Sum, col("l_extendedprice"), "sum_base_price"),
                AggSpec::new(AggFunc::Sum, disc_price, "sum_disc_price"),
                AggSpec::new(AggFunc::Sum, charge, "sum_charge"),
                AggSpec::new(AggFunc::Avg, col("l_quantity"), "avg_qty"),
                AggSpec::new(AggFunc::Avg, col("l_extendedprice"), "avg_price"),
                AggSpec::new(AggFunc::Avg, col("l_discount"), "avg_disc"),
                AggSpec::new(AggFunc::Count, lit(1), "count_order"),
            ],
        )
        .sort(vec![
            SortKey::asc("l_returnflag"),
            SortKey::asc("l_linestatus"),
        ])
}

/// Q3 — shipping priority (top-10 revenue).
fn q3() -> LogicalPlan {
    let cutoff = date_from_ymd(1995, 3, 15);
    let customer =
        LogicalPlan::scan(TpchTable::Customer).filter(col("c_mktsegment").eq(lits("BUILDING")));
    let cust_orders = LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_orderdate").lt(lit(cutoff)))
        .join(customer, &["o_custkey"], &["c_custkey"], JoinKind::LeftSemi);
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_shipdate").gt(lit(cutoff)))
        .join(
            cust_orders,
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        )
        .aggregate(
            &["l_orderkey", "o_orderdate", "o_shippriority"],
            vec![AggSpec::new(AggFunc::Sum, revenue(), "revenue")],
        )
        .top_k(
            vec![SortKey::desc("revenue"), SortKey::asc("o_orderdate")],
            10,
        )
}

/// Q4 — order priority checking (EXISTS as a semi join).
fn q4() -> LogicalPlan {
    let late_lines =
        LogicalPlan::scan(TpchTable::Lineitem).filter(col("l_commitdate").lt(col("l_receiptdate")));
    LogicalPlan::scan(TpchTable::Orders)
        .filter(
            col("o_orderdate")
                .ge(lit(date_from_ymd(1993, 7, 1)))
                .and(col("o_orderdate").lt(lit(date_from_ymd(1993, 10, 1)))),
        )
        .join(
            late_lines,
            &["o_orderkey"],
            &["l_orderkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(
            &["o_orderpriority"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "order_count")],
        )
        .sort(vec![SortKey::asc("o_orderpriority")])
}

/// Q5 — local supplier volume within ASIA.
fn q5() -> LogicalPlan {
    let asia_nations = LogicalPlan::scan(TpchTable::Nation)
        .join(
            LogicalPlan::scan(TpchTable::Region).filter(col("r_name").eq(lits("ASIA"))),
            &["n_regionkey"],
            &["r_regionkey"],
            JoinKind::LeftSemi,
        )
        .select(vec![
            MapExpr::new("sn_key", col("n_nationkey")),
            MapExpr::new("sn_name", col("n_name")),
        ]);
    let supp_nation = LogicalPlan::scan(TpchTable::Supplier)
        .join(asia_nations, &["s_nationkey"], &["sn_key"], JoinKind::Inner)
        .select(vec![
            MapExpr::new("supp_key", col("s_suppkey")),
            MapExpr::new("supp_nationkey", col("s_nationkey")),
            MapExpr::new("n_name", col("sn_name")),
        ]);
    let cust_orders = LogicalPlan::scan(TpchTable::Orders)
        .filter(
            col("o_orderdate")
                .ge(lit(date_from_ymd(1994, 1, 1)))
                .and(col("o_orderdate").lt(lit(date_from_ymd(1995, 1, 1)))),
        )
        .join(
            LogicalPlan::scan(TpchTable::Customer),
            &["o_custkey"],
            &["c_custkey"],
            JoinKind::Inner,
        );
    LogicalPlan::scan(TpchTable::Lineitem)
        .join(
            cust_orders,
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        )
        .join(
            supp_nation,
            &["l_suppkey", "c_nationkey"],
            &["supp_key", "supp_nationkey"],
            JoinKind::Inner,
        )
        .aggregate(
            &["n_name"],
            vec![AggSpec::new(AggFunc::Sum, revenue(), "revenue")],
        )
        .sort(vec![SortKey::desc("revenue")])
}

/// Q6 — forecasting revenue change.
fn q6() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipdate")
                .ge(lit(date_from_ymd(1994, 1, 1)))
                .and(col("l_shipdate").lt(lit(date_from_ymd(1995, 1, 1))))
                .and(col("l_discount").between(litf(0.0499), litf(0.0701)))
                .and(col("l_quantity").lt(litf(24.0))),
        )
        .aggregate(
            &[],
            vec![AggSpec::new(
                AggFunc::Sum,
                col("l_extendedprice").mul(col("l_discount")),
                "revenue",
            )],
        )
}

/// Q10 — returned-item reporting (top 20 customers by lost revenue).
fn q10() -> LogicalPlan {
    let orders = LogicalPlan::scan(TpchTable::Orders).filter(
        col("o_orderdate")
            .ge(lit(date_from_ymd(1993, 10, 1)))
            .and(col("o_orderdate").lt(lit(date_from_ymd(1994, 1, 1)))),
    );
    let customer = LogicalPlan::scan(TpchTable::Customer).join(
        LogicalPlan::scan(TpchTable::Nation),
        &["c_nationkey"],
        &["n_nationkey"],
        JoinKind::Inner,
    );
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_returnflag").eq(lits("R")))
        .join(orders, &["l_orderkey"], &["o_orderkey"], JoinKind::Inner)
        .join(customer, &["o_custkey"], &["c_custkey"], JoinKind::Inner)
        .aggregate(
            &[
                "c_custkey",
                "c_name",
                "c_acctbal",
                "c_phone",
                "n_name",
                "c_address",
                "c_comment",
            ],
            vec![AggSpec::new(AggFunc::Sum, revenue(), "revenue")],
        )
        .top_k(vec![SortKey::desc("revenue")], 20)
}

/// Q12 — shipping modes and order priority.
fn q12() -> LogicalPlan {
    let urgent = col("o_orderpriority").in_str(&["1-URGENT", "2-HIGH"]);
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipmode")
                .in_str(&["MAIL", "SHIP"])
                .and(col("l_commitdate").lt(col("l_receiptdate")))
                .and(col("l_shipdate").lt(col("l_commitdate")))
                .and(col("l_receiptdate").ge(lit(date_from_ymd(1994, 1, 1))))
                .and(col("l_receiptdate").lt(lit(date_from_ymd(1995, 1, 1)))),
        )
        .join(
            LogicalPlan::scan(TpchTable::Orders),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("l_shipmode", col("l_shipmode")),
            MapExpr::new("high_line", urgent.clone().case(lit(1), lit(0))),
            MapExpr::new("low_line", urgent.not().case(lit(1), lit(0))),
        ])
        .aggregate(
            &["l_shipmode"],
            vec![
                AggSpec::new(AggFunc::Sum, col("high_line"), "high_line_count"),
                AggSpec::new(AggFunc::Sum, col("low_line"), "low_line_count"),
            ],
        )
        .sort(vec![SortKey::asc("l_shipmode")])
}

/// Q14 — promotion effect within one month.
fn q14() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipdate")
                .ge(lit(date_from_ymd(1995, 9, 1)))
                .and(col("l_shipdate").lt(lit(date_from_ymd(1995, 10, 1)))),
        )
        .join(
            LogicalPlan::scan(TpchTable::Part),
            &["l_partkey"],
            &["p_partkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new(
                "promo",
                col("p_type").like("PROMO%").case(revenue(), litf(0.0)),
            ),
            MapExpr::new("rev", revenue()),
        ])
        .aggregate(
            &[],
            vec![
                AggSpec::new(AggFunc::Sum, col("promo"), "promo_sum"),
                AggSpec::new(AggFunc::Sum, col("rev"), "rev_sum"),
            ],
        )
        .select(vec![MapExpr::new(
            "promo_revenue",
            litf(100.0).mul(col("promo_sum")).div(col("rev_sum")),
        )])
}

/// Q2 — minimum-cost supplier. The candidate set (EUROPE partsupp ⨝ BRASS
/// parts) is planned once as a shared subplan; the correlated
/// `min(ps_supplycost)` becomes a per-part aggregate over the same CTE,
/// semi-joined back on (partkey, cost).
fn q2() -> LogicalQuery {
    let eur_nations = LogicalPlan::scan(TpchTable::Nation).join(
        LogicalPlan::scan(TpchTable::Region).filter(col("r_name").eq(lits("EUROPE"))),
        &["n_regionkey"],
        &["r_regionkey"],
        JoinKind::LeftSemi,
    );
    let eur_supp = LogicalPlan::scan(TpchTable::Supplier).join(
        eur_nations,
        &["s_nationkey"],
        &["n_nationkey"],
        JoinKind::Inner,
    );
    let part = LogicalPlan::scan(TpchTable::Part)
        .filter(col("p_size").eq(lit(15)).and(col("p_type").like("%BRASS")))
        .project(&["p_partkey", "p_mfgr"]);
    let candidates = LogicalPlan::scan(TpchTable::Partsupp)
        .join(eur_supp, &["ps_suppkey"], &["s_suppkey"], JoinKind::Inner)
        // The cost stays a Decimal; join keys are canonicalized by logical
        // type, so it equi-joins against the Float64 MIN() aggregate by
        // value (no explicit cast needed).
        .select(vec![
            MapExpr::new("ps_partkey", col("ps_partkey")),
            MapExpr::new("cost", col("ps_supplycost")),
            MapExpr::new("s_acctbal", col("s_acctbal")),
            MapExpr::new("s_name", col("s_name")),
            MapExpr::new("n_name", col("n_name")),
            MapExpr::new("s_address", col("s_address")),
            MapExpr::new("s_phone", col("s_phone")),
            MapExpr::new("s_comment", col("s_comment")),
        ])
        .join(part, &["ps_partkey"], &["p_partkey"], JoinKind::Inner);
    let min_cost = LogicalPlan::from_cte("candidates")
        .aggregate(
            &["ps_partkey"],
            vec![AggSpec::new(AggFunc::Min, col("cost"), "min_cost")],
        )
        .select(vec![
            MapExpr::new("mc_partkey", col("ps_partkey")),
            MapExpr::new("mc_cost", col("min_cost")),
        ]);
    let best = LogicalPlan::from_cte("candidates")
        .join(
            min_cost,
            &["ps_partkey", "cost"],
            &["mc_partkey", "mc_cost"],
            JoinKind::LeftSemi,
        )
        .top_k(
            vec![
                SortKey::desc("s_acctbal"),
                SortKey::asc("n_name"),
                SortKey::asc("s_name"),
                SortKey::asc("ps_partkey"),
            ],
            100,
        );
    LogicalQuery::cte("candidates", candidates).then(best)
}

/// nation filtered to FRANCE/GERMANY, for both sides of Q7.
fn q7_nations() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Nation).filter(col("n_name").in_str(&["FRANCE", "GERMANY"]))
}

/// Q7 — volume shipping between FRANCE and GERMANY.
fn q7() -> LogicalPlan {
    let supp_nation = LogicalPlan::scan(TpchTable::Supplier)
        .join(
            q7_nations(),
            &["s_nationkey"],
            &["n_nationkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("supp_key", col("s_suppkey")),
            MapExpr::new("supp_nation", col("n_name")),
        ]);
    let cust_nation = LogicalPlan::scan(TpchTable::Customer)
        .join(
            q7_nations(),
            &["c_nationkey"],
            &["n_nationkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("cust_key", col("c_custkey")),
            MapExpr::new("cust_nation", col("n_name")),
        ]);
    let orders_cust = LogicalPlan::scan(TpchTable::Orders).join(
        cust_nation,
        &["o_custkey"],
        &["cust_key"],
        JoinKind::Inner,
    );
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipdate")
                .ge(lit(date_from_ymd(1995, 1, 1)))
                .and(col("l_shipdate").le(lit(date_from_ymd(1996, 12, 31)))),
        )
        .join(supp_nation, &["l_suppkey"], &["supp_key"], JoinKind::Inner)
        .join(
            orders_cust,
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        )
        .filter(
            col("supp_nation")
                .eq(lits("FRANCE"))
                .and(col("cust_nation").eq(lits("GERMANY")))
                .or(col("supp_nation")
                    .eq(lits("GERMANY"))
                    .and(col("cust_nation").eq(lits("FRANCE")))),
        )
        .select(vec![
            MapExpr::new("supp_nation", col("supp_nation")),
            MapExpr::new("cust_nation", col("cust_nation")),
            MapExpr::new("l_year", col("l_shipdate").year()),
            MapExpr::new("volume", revenue()),
        ])
        .aggregate(
            &["supp_nation", "cust_nation", "l_year"],
            vec![AggSpec::new(AggFunc::Sum, col("volume"), "revenue")],
        )
        .sort(vec![
            SortKey::asc("supp_nation"),
            SortKey::asc("cust_nation"),
            SortKey::asc("l_year"),
        ])
}

/// Q8 — national market share of BRAZIL within AMERICA.
fn q8() -> LogicalPlan {
    let part =
        LogicalPlan::scan(TpchTable::Part).filter(col("p_type").eq(lits("ECONOMY ANODIZED STEEL")));
    let supp_nation = LogicalPlan::scan(TpchTable::Supplier)
        .join(
            LogicalPlan::scan(TpchTable::Nation),
            &["s_nationkey"],
            &["n_nationkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("supp_key", col("s_suppkey")),
            MapExpr::new("supp_nation", col("n_name")),
        ]);
    let america_nations = LogicalPlan::scan(TpchTable::Nation).join(
        LogicalPlan::scan(TpchTable::Region).filter(col("r_name").eq(lits("AMERICA"))),
        &["n_regionkey"],
        &["r_regionkey"],
        JoinKind::LeftSemi,
    );
    let customer_america = LogicalPlan::scan(TpchTable::Customer).join(
        america_nations,
        &["c_nationkey"],
        &["n_nationkey"],
        JoinKind::LeftSemi,
    );
    let orders = LogicalPlan::scan(TpchTable::Orders)
        .filter(
            col("o_orderdate")
                .ge(lit(date_from_ymd(1995, 1, 1)))
                .and(col("o_orderdate").le(lit(date_from_ymd(1996, 12, 31)))),
        )
        .join(
            customer_america,
            &["o_custkey"],
            &["c_custkey"],
            JoinKind::LeftSemi,
        );
    LogicalPlan::scan(TpchTable::Lineitem)
        .join(part, &["l_partkey"], &["p_partkey"], JoinKind::LeftSemi)
        .join(supp_nation, &["l_suppkey"], &["supp_key"], JoinKind::Inner)
        .join(orders, &["l_orderkey"], &["o_orderkey"], JoinKind::Inner)
        .select(vec![
            MapExpr::new("o_year", col("o_orderdate").year()),
            MapExpr::new("volume", revenue()),
            MapExpr::new(
                "brazil_volume",
                col("supp_nation")
                    .eq(lits("BRAZIL"))
                    .case(revenue(), litf(0.0)),
            ),
        ])
        .aggregate(
            &["o_year"],
            vec![
                AggSpec::new(AggFunc::Sum, col("brazil_volume"), "brazil"),
                AggSpec::new(AggFunc::Sum, col("volume"), "total"),
            ],
        )
        .select(vec![
            MapExpr::new("o_year", col("o_year")),
            MapExpr::new("mkt_share", col("brazil").div(col("total"))),
        ])
        .sort(vec![SortKey::asc("o_year")])
}

/// Q9 — product-type profit measure across all nations and years.
fn q9() -> LogicalPlan {
    let part = LogicalPlan::scan(TpchTable::Part).filter(col("p_name").like("%green%"));
    let supp_nation = LogicalPlan::scan(TpchTable::Supplier)
        .join(
            LogicalPlan::scan(TpchTable::Nation),
            &["s_nationkey"],
            &["n_nationkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("supp_key", col("s_suppkey")),
            MapExpr::new("nation", col("n_name")),
        ]);
    LogicalPlan::scan(TpchTable::Lineitem)
        .join(part, &["l_partkey"], &["p_partkey"], JoinKind::LeftSemi)
        .join(
            LogicalPlan::scan(TpchTable::Partsupp),
            &["l_partkey", "l_suppkey"],
            &["ps_partkey", "ps_suppkey"],
            JoinKind::Inner,
        )
        .join(supp_nation, &["l_suppkey"], &["supp_key"], JoinKind::Inner)
        .join(
            LogicalPlan::scan(TpchTable::Orders),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::Inner,
        )
        .select(vec![
            MapExpr::new("nation", col("nation")),
            MapExpr::new("o_year", col("o_orderdate").year()),
            MapExpr::new(
                "amount",
                revenue().sub(col("ps_supplycost").mul(col("l_quantity"))),
            ),
        ])
        .aggregate(
            &["nation", "o_year"],
            vec![AggSpec::new(AggFunc::Sum, col("amount"), "sum_profit")],
        )
        .sort(vec![SortKey::asc("nation"), SortKey::desc("o_year")])
}

/// Q11 — important stock identification. Stage 1 sums the GERMANY stock
/// value over the shared view (the HAVING threshold); the result stage
/// reuses the same view and filters groups against `param(0)`.
fn q11() -> LogicalQuery {
    let german_supp = LogicalPlan::scan(TpchTable::Supplier).join(
        LogicalPlan::scan(TpchTable::Nation).filter(col("n_name").eq(lits("GERMANY"))),
        &["s_nationkey"],
        &["n_nationkey"],
        JoinKind::LeftSemi,
    );
    let view = LogicalPlan::scan(TpchTable::Partsupp)
        .join(
            german_supp,
            &["ps_suppkey"],
            &["s_suppkey"],
            JoinKind::LeftSemi,
        )
        .select(vec![
            MapExpr::new("ps_partkey", col("ps_partkey")),
            MapExpr::new("stock_value", col("ps_supplycost").mul(col("ps_availqty"))),
        ]);
    let total = LogicalPlan::from_cte("germany_partsupp").aggregate(
        &[],
        vec![AggSpec::new(AggFunc::Sum, col("stock_value"), "total")],
    );
    let per_part = LogicalPlan::from_cte("germany_partsupp")
        .aggregate(
            &["ps_partkey"],
            vec![AggSpec::new(AggFunc::Sum, col("stock_value"), "value")],
        )
        .filter(col("value").gt(param(0).mul(litf(0.0001))))
        .sort(vec![SortKey::desc("value")]);
    LogicalQuery::cte("germany_partsupp", view)
        .then(total)
        .then(per_part)
}

/// Q13 — customer order-count distribution: left outer join feeding a
/// double aggregation.
fn q13() -> LogicalPlan {
    let orders = LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_comment").like("%special%requests%").not());
    LogicalPlan::scan(TpchTable::Customer)
        .join(orders, &["c_custkey"], &["o_custkey"], JoinKind::LeftOuter)
        .aggregate(
            &["c_custkey"],
            vec![AggSpec::new(AggFunc::Count, col("o_orderkey"), "c_count")],
        )
        .aggregate(
            &["c_count"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "custdist")],
        )
        .sort(vec![SortKey::desc("custdist"), SortKey::desc("c_count")])
}

/// The Q15 revenue view: supplier revenue over one quarter.
fn q15_revenue() -> LogicalPlan {
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipdate")
                .ge(lit(date_from_ymd(1996, 1, 1)))
                .and(col("l_shipdate").lt(lit(date_from_ymd(1996, 4, 1)))),
        )
        .aggregate(
            &["l_suppkey"],
            vec![AggSpec::new(AggFunc::Sum, revenue(), "total_revenue")],
        )
}

/// Q15 — top supplier. The revenue view is materialized once; stage 1
/// finds its maximum, the result stage keeps the supplier(s) whose revenue
/// equals `param(0)`. Exact equality is safe here: both stages read the
/// same materialized temp, so `param(0)` is bit-identical to a stored
/// `total_revenue` value.
fn q15() -> LogicalQuery {
    let max_rev = LogicalPlan::from_cte("revenue").aggregate(
        &[],
        vec![AggSpec::new(AggFunc::Max, col("total_revenue"), "max_rev")],
    );
    let winners = LogicalPlan::from_cte("revenue").filter(col("total_revenue").eq(param(0)));
    let result = LogicalPlan::scan(TpchTable::Supplier)
        .project(&["s_suppkey", "s_name", "s_address", "s_phone"])
        .join(winners, &["s_suppkey"], &["l_suppkey"], JoinKind::Inner)
        .sort(vec![SortKey::asc("s_suppkey")]);
    LogicalQuery::cte("revenue", q15_revenue())
        .then(max_rev)
        .then(result)
}

/// Q16 — parts/supplier relationship: `count(distinct)` plus an anti join
/// against complained-about suppliers.
fn q16() -> LogicalPlan {
    let part = LogicalPlan::scan(TpchTable::Part).filter(
        col("p_brand")
            .eq(lits("Brand#45"))
            .not()
            .and(col("p_type").like("MEDIUM POLISHED%").not())
            .and(col("p_size").in_i64(&[49, 14, 23, 45, 19, 3, 36, 9])),
    );
    let complainers = LogicalPlan::scan(TpchTable::Supplier)
        .filter(col("s_comment").like("%Customer%Complaints%"));
    LogicalPlan::scan(TpchTable::Partsupp)
        .join(part, &["ps_partkey"], &["p_partkey"], JoinKind::Inner)
        .join(
            complainers,
            &["ps_suppkey"],
            &["s_suppkey"],
            JoinKind::LeftAnti,
        )
        .aggregate(
            &["p_brand", "p_type", "p_size"],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("ps_suppkey"),
                "supplier_cnt",
            )],
        )
        .sort(vec![
            SortKey::desc("supplier_cnt"),
            SortKey::asc("p_brand"),
            SortKey::asc("p_type"),
            SortKey::asc("p_size"),
        ])
}

/// Q17 — small-quantity-order revenue. The correlated AVG becomes a
/// per-part aggregate joined back on partkey.
fn q17() -> LogicalPlan {
    let avg_qty = LogicalPlan::scan(TpchTable::Lineitem)
        .aggregate(
            &["l_partkey"],
            vec![AggSpec::new(AggFunc::Avg, col("l_quantity"), "avg_qty")],
        )
        .select(vec![
            MapExpr::new("ap_partkey", col("l_partkey")),
            MapExpr::new("threshold", litf(0.2).mul(col("avg_qty"))),
        ]);
    let part = LogicalPlan::scan(TpchTable::Part).filter(
        col("p_brand")
            .eq(lits("Brand#23"))
            .and(col("p_container").eq(lits("MED BOX"))),
    );
    LogicalPlan::scan(TpchTable::Lineitem)
        .join(part, &["l_partkey"], &["p_partkey"], JoinKind::LeftSemi)
        .join(avg_qty, &["l_partkey"], &["ap_partkey"], JoinKind::Inner)
        .filter(col("l_quantity").lt(col("threshold")))
        .aggregate(
            &[],
            vec![AggSpec::new(
                AggFunc::Sum,
                col("l_extendedprice"),
                "sum_price",
            )],
        )
        .select(vec![MapExpr::new(
            "avg_yearly",
            col("sum_price").div(litf(7.0)),
        )])
}

/// Q18 — large-volume customers (top 100 by order value).
fn q18() -> LogicalPlan {
    let big_orders = LogicalPlan::scan(TpchTable::Lineitem)
        .aggregate(
            &["l_orderkey"],
            vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "sum_qty")],
        )
        .filter(col("sum_qty").gt(litf(300.0)));
    LogicalPlan::scan(TpchTable::Orders)
        .project(&["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
        .join(
            big_orders,
            &["o_orderkey"],
            &["l_orderkey"],
            JoinKind::Inner,
        )
        .join(
            LogicalPlan::scan(TpchTable::Customer).project(&["c_custkey", "c_name"]),
            &["o_custkey"],
            &["c_custkey"],
            JoinKind::Inner,
        )
        .top_k(
            vec![SortKey::desc("o_totalprice"), SortKey::asc("o_orderdate")],
            100,
        )
}

/// Q19 — discounted revenue, a disjunction of three brand/container/
/// quantity windows evaluated after a partkey join.
fn q19() -> LogicalPlan {
    let window = |brand: &str, containers: &[&str], qlo: f64, qhi: f64, smax: i64| {
        col("p_brand")
            .eq(lits(brand))
            .and(col("p_container").in_str(containers))
            .and(col("l_quantity").ge(litf(qlo)))
            .and(col("l_quantity").le(litf(qhi)))
            .and(col("p_size").between(lit(1), lit(smax)))
    };
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipmode")
                .in_str(&["AIR", "REG AIR"])
                .and(col("l_shipinstruct").eq(lits("DELIVER IN PERSON"))),
        )
        .join(
            LogicalPlan::scan(TpchTable::Part),
            &["l_partkey"],
            &["p_partkey"],
            JoinKind::Inner,
        )
        .filter(
            window(
                "Brand#12",
                &["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
                1.0,
                11.0,
                5,
            )
            .or(window(
                "Brand#23",
                &["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                10.0,
                20.0,
                10,
            ))
            .or(window(
                "Brand#34",
                &["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                20.0,
                30.0,
                15,
            )),
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Sum, revenue(), "revenue")])
}

/// Q20 — potential part promotion: nested IN subqueries become semi joins
/// against aggregated shipment volumes.
fn q20() -> LogicalPlan {
    let shipped = LogicalPlan::scan(TpchTable::Lineitem)
        .filter(
            col("l_shipdate")
                .ge(lit(date_from_ymd(1994, 1, 1)))
                .and(col("l_shipdate").lt(lit(date_from_ymd(1995, 1, 1)))),
        )
        .aggregate(
            &["l_partkey", "l_suppkey"],
            vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "shipped_qty")],
        )
        .select(vec![
            MapExpr::new("sq_partkey", col("l_partkey")),
            MapExpr::new("sq_suppkey", col("l_suppkey")),
            MapExpr::new("half_qty", litf(0.5).mul(col("shipped_qty"))),
        ]);
    let forest_parts = LogicalPlan::scan(TpchTable::Part).filter(col("p_name").like("forest%"));
    let candidates = LogicalPlan::scan(TpchTable::Partsupp)
        .join(
            forest_parts,
            &["ps_partkey"],
            &["p_partkey"],
            JoinKind::LeftSemi,
        )
        .join(
            shipped,
            &["ps_partkey", "ps_suppkey"],
            &["sq_partkey", "sq_suppkey"],
            JoinKind::Inner,
        )
        .filter(col("ps_availqty").gt(col("half_qty")))
        // DISTINCT supplier keys before the final semi join.
        .aggregate(
            &["ps_suppkey"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "hits")],
        );
    LogicalPlan::scan(TpchTable::Supplier)
        .project(&["s_suppkey", "s_name", "s_address", "s_nationkey"])
        .join(
            LogicalPlan::scan(TpchTable::Nation).filter(col("n_name").eq(lits("CANADA"))),
            &["s_nationkey"],
            &["n_nationkey"],
            JoinKind::LeftSemi,
        )
        .join(
            candidates,
            &["s_suppkey"],
            &["ps_suppkey"],
            JoinKind::LeftSemi,
        )
        .sort(vec![SortKey::asc("s_name")])
}

/// Q21 — suppliers who kept orders waiting: the EXISTS / NOT EXISTS pair
/// reduces to distinct-supplier counts per order (the late line's supplier
/// is at fault iff the order has ≥ 2 suppliers and exactly 1 late one).
fn q21() -> LogicalPlan {
    let all_supp = LogicalPlan::scan(TpchTable::Lineitem)
        .select(vec![
            MapExpr::new("ao_orderkey", col("l_orderkey")),
            MapExpr::new("ao_suppkey", col("l_suppkey")),
        ])
        .aggregate(
            &["ao_orderkey"],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("ao_suppkey"),
                "n_supp",
            )],
        );
    let late_supp = LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_receiptdate").gt(col("l_commitdate")))
        .select(vec![
            MapExpr::new("lo_orderkey", col("l_orderkey")),
            MapExpr::new("lo_suppkey", col("l_suppkey")),
        ])
        .aggregate(
            &["lo_orderkey"],
            vec![AggSpec::new(
                AggFunc::CountDistinct,
                col("lo_suppkey"),
                "n_late_supp",
            )],
        );
    let saudi_supp = LogicalPlan::scan(TpchTable::Supplier)
        .project(&["s_suppkey", "s_name", "s_nationkey"])
        .join(
            LogicalPlan::scan(TpchTable::Nation).filter(col("n_name").eq(lits("SAUDI ARABIA"))),
            &["s_nationkey"],
            &["n_nationkey"],
            JoinKind::LeftSemi,
        );
    let f_orders = LogicalPlan::scan(TpchTable::Orders).filter(col("o_orderstatus").eq(lits("F")));
    LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_receiptdate").gt(col("l_commitdate")))
        .join(saudi_supp, &["l_suppkey"], &["s_suppkey"], JoinKind::Inner)
        .join(
            f_orders,
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::LeftSemi,
        )
        .join(all_supp, &["l_orderkey"], &["ao_orderkey"], JoinKind::Inner)
        .join(
            late_supp,
            &["l_orderkey"],
            &["lo_orderkey"],
            JoinKind::Inner,
        )
        .filter(col("n_supp").gt(lit(1)).and(col("n_late_supp").eq(lit(1))))
        .aggregate(
            &["s_name"],
            vec![AggSpec::new(AggFunc::Count, lit(1), "numwait")],
        )
        .top_k(vec![SortKey::desc("numwait"), SortKey::asc("s_name")], 100)
}

/// Q22's country-code prefixes.
const Q22_CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];

/// Q22 — global sales opportunity. Stage 1 computes the average positive
/// account balance (the scalar subquery); the result stage anti-joins
/// orders away from customers above `param(0)` and groups by country code.
fn q22() -> LogicalQuery {
    let avg_bal = LogicalPlan::scan(TpchTable::Customer)
        .filter(
            col("c_phone")
                .substr(1, 2)
                .in_str(&Q22_CODES)
                .and(col("c_acctbal").gt(litf(0.0))),
        )
        .aggregate(
            &[],
            vec![AggSpec::new(AggFunc::Avg, col("c_acctbal"), "avg_bal")],
        );
    let result = LogicalPlan::scan(TpchTable::Customer)
        .filter(
            col("c_phone")
                .substr(1, 2)
                .in_str(&Q22_CODES)
                .and(col("c_acctbal").gt(param(0))),
        )
        .join(
            LogicalPlan::scan(TpchTable::Orders),
            &["c_custkey"],
            &["o_custkey"],
            JoinKind::LeftAnti,
        )
        .select(vec![
            MapExpr::new("cntrycode", col("c_phone").substr(1, 2)),
            MapExpr::new("c_acctbal", col("c_acctbal")),
        ])
        .aggregate(
            &["cntrycode"],
            vec![
                AggSpec::new(AggFunc::Count, lit(1), "numcust"),
                AggSpec::new(AggFunc::Sum, col("c_acctbal"), "totacctbal"),
            ],
        )
        .sort(vec![SortKey::asc("cntrycode")]);
    LogicalQuery::stage(avg_bal).then(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Planner, PlannerConfig};

    #[test]
    fn all_builder_queries_lower() {
        let planner = Planner::new(PlannerConfig::new(4));
        for n in crate::queries::ALL_QUERIES {
            let lq = tpch_logical(n).unwrap();
            let physical = planner
                .plan_query(&lq)
                .unwrap_or_else(|e| panic!("query {n} failed to lower: {e}"));
            assert_eq!(
                physical.stages.len(),
                lq.ctes().len() + lq.stages().len(),
                "query {n}: one physical stage per CTE + logical stage"
            );
            let result = &physical.stages.last().unwrap().plan;
            assert!(
                result.exchange_count() >= 1,
                "query {n} must exchange at least once"
            );
        }
    }

    #[test]
    fn multi_stage_queries_use_the_new_machinery() {
        // Scalar-subquery stages (Q11, Q15, Q22) and shared subplans
        // (Q2, Q11, Q15) exercise LogicalQuery rather than flat plans.
        for (n, ctes, stages) in [(2, 1, 1), (11, 1, 2), (15, 1, 2), (22, 0, 2)] {
            let lq = tpch_logical(n).unwrap();
            assert_eq!(lq.ctes().len(), ctes, "Q{n} CTE count");
            assert_eq!(lq.stages().len(), stages, "Q{n} stage count");
        }
    }

    #[test]
    fn unknown_query_numbers_are_rejected() {
        assert!(matches!(
            tpch_logical(23),
            Err(EngineError::UnknownQuery(23))
        ));
        assert!(matches!(tpch_logical(0), Err(EngineError::UnknownQuery(0))));
    }

    #[test]
    fn lowered_output_schemas_are_pinned() {
        // The differential tests compare result *contents*; here we pin the
        // output schemas (names, in order) so a migration can't silently
        // drop or reorder columns.
        let planner = Planner::new(PlannerConfig::new(2));
        let cols = |n: u32| {
            planner
                .query_output_columns(&tpch_logical(n).unwrap())
                .unwrap()
        };
        assert_eq!(
            cols(1)[..3],
            [
                "l_returnflag".to_string(),
                "l_linestatus".into(),
                "sum_qty".into()
            ]
        );
        assert_eq!(
            cols(3),
            vec![
                "l_orderkey".to_string(),
                "o_orderdate".into(),
                "o_shippriority".into(),
                "revenue".into()
            ]
        );
        assert_eq!(cols(6), vec!["revenue".to_string()]);
        assert_eq!(cols(14), vec!["promo_revenue".to_string()]);
        assert_eq!(
            cols(22),
            vec![
                "cntrycode".to_string(),
                "numcust".into(),
                "totacctbal".into()
            ]
        );
        assert_eq!(cols(21), vec!["s_name".to_string(), "numwait".into()]);
        // CTE-reading result stages resolve through the owning query.
        assert_eq!(
            cols(15),
            vec![
                "s_suppkey".to_string(),
                "s_name".into(),
                "s_address".into(),
                "s_phone".into(),
                "l_suppkey".into(),
                "total_revenue".into()
            ]
        );
        assert_eq!(
            cols(2)[..4],
            [
                "ps_partkey".to_string(),
                "cost".into(),
                "s_acctbal".into(),
                "s_name".into()
            ]
        );
    }
}
