//! The 22 TPC-H queries and the physical query a plan runs as.
//!
//! [`builder`] writes every query against the logical plan builder; the
//! [`planner`](crate::planner) lowers it to a physical [`Query`]: one
//! distributed [`Plan`] per stage, with exchange operators inserted where
//! tuples must cross servers. Correlated subqueries are decorrelated the way
//! HyPer's optimizer unnests them; scalar subqueries (e.g. Q22's average
//! balance) become earlier *stages* whose first result row binds
//! [`Expr::Param`](crate::expr::Expr::Param) values for the final stage.

use crate::error::EngineError;
use crate::plan::{AggPhase, AggSpec, Plan};

pub mod builder;

pub use builder::tpch_logical;

/// What the cluster does with one stage's output.
#[derive(Debug, Clone, PartialEq)]
pub enum StageRole {
    /// Bind the first row of the coordinator's result as query parameters
    /// ([`Expr::Param`](crate::expr::Expr::Param)), appended in column
    /// order after parameters bound by earlier stages.
    Params,
    /// Keep every node's local output as a temporary relation under this
    /// name, readable by later stages through
    /// [`Plan::TempScan`].
    Materialize(String),
    /// The query result (always and only the last stage).
    Result,
}

impl StageRole {
    /// Short human-readable label (used by profiles and EXPLAIN output).
    pub fn label(&self) -> String {
        match self {
            StageRole::Params => "params".into(),
            StageRole::Materialize(name) => format!("materialize {name:?}"),
            StageRole::Result => "result".into(),
        }
    }
}

/// One stage of a physical [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStage {
    /// The distributed plan to execute SPMD.
    pub plan: Plan,
    /// What happens to its output.
    pub role: StageRole,
    /// The planner's cardinality estimate for the stage result, compared
    /// against profiled actuals in EXPLAIN output. `None` for a plan built
    /// by hand, which carries no estimates.
    pub estimated_rows: Option<f64>,
    /// The feedback-corrected cardinality that overrode the static
    /// estimate, when the planner ran in
    /// [`StatsMode::Feedback`](crate::stats::StatsMode) and its
    /// [`FeedbackCache`](crate::stats::FeedbackCache) held an observation
    /// for this stage's plan. `None` when the static estimate was used.
    pub feedback_rows: Option<f64>,
}

/// A multi-stage physical query: parameter and materialization stages run
/// first, the final stage produces the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Stages in execution order; the last produces the result.
    pub stages: Vec<QueryStage>,
    /// TPC-H query number (1–22) for reporting; 0 for ad-hoc queries
    /// lowered from a [`LogicalQuery`](crate::logical::LogicalQuery).
    pub number: u32,
}

impl Query {
    /// Single-stage query.
    pub fn single(number: u32, plan: Plan) -> Self {
        Self {
            stages: vec![QueryStage {
                plan,
                role: StageRole::Result,
                estimated_rows: None,
                feedback_rows: None,
            }],
            number,
        }
    }

    /// Build a query from fully described stages. The last stage's role is
    /// forced to [`StageRole::Result`]; fails with [`EngineError::Planner`]
    /// when `stages` is empty or a non-final stage is marked `Result`.
    pub fn from_stages(number: u32, mut stages: Vec<QueryStage>) -> Result<Self, EngineError> {
        let Some(last) = stages.last_mut() else {
            return Err(EngineError::Planner(
                "query needs at least one stage".into(),
            ));
        };
        last.role = StageRole::Result;
        if stages[..stages.len() - 1]
            .iter()
            .any(|s| s.role == StageRole::Result)
        {
            return Err(EngineError::Planner(
                "only the last stage may produce the result".into(),
            ));
        }
        Ok(Self { stages, number })
    }
}

/// Distributed grouping-free aggregation: local partials, gathered and
/// merged at the coordinator. The result exists on node 0 only.
pub fn global_agg(input: Plan, aggs: Vec<AggSpec>) -> Plan {
    let partial = Plan::Aggregate {
        input: Box::new(input),
        group_by: Vec::new(),
        aggs: aggs.clone(),
        phase: AggPhase::Partial,
    };
    Plan::Aggregate {
        input: Box::new(partial.gather()),
        group_by: Vec::new(),
        aggs,
        phase: AggPhase::Final,
    }
}

/// All 22 query numbers.
pub const ALL_QUERIES: [u32; 22] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use crate::plan::AggFunc;
    use hsqp_tpch::TpchTable;

    #[test]
    fn global_agg_gathers_partials() {
        let p = global_agg(
            Plan::scan(TpchTable::Lineitem),
            vec![AggSpec::new(AggFunc::Sum, col("l_quantity"), "s")],
        );
        assert_eq!(p.exchange_count(), 1);
        assert!(matches!(
            p,
            Plan::Aggregate {
                phase: AggPhase::Final,
                ..
            }
        ));
    }

    #[test]
    fn stage_roles_are_validated() {
        let stage = |role| QueryStage {
            plan: Plan::scan(TpchTable::Nation).gather(),
            role,
            estimated_rows: None,
            feedback_rows: None,
        };
        assert!(matches!(
            Query::from_stages(1, vec![]),
            Err(EngineError::Planner(_))
        ));
        let q = Query::from_stages(11, vec![stage(StageRole::Params); 2]).unwrap();
        assert_eq!(q.stages[0].role, StageRole::Params);
        assert_eq!(q.stages[1].role, StageRole::Result);
        assert!(matches!(
            Query::from_stages(0, vec![stage(StageRole::Result), stage(StageRole::Params)]),
            Err(EngineError::Planner(_))
        ));
    }
}
