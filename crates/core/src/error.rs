//! Engine error type.

use std::fmt;

/// Errors surfaced by the public engine API.
///
/// Internal invariant violations (plan bugs, schema mismatches) panic
/// instead — they indicate programming errors, not runtime conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A referenced relation was not loaded into the cluster.
    UnknownTable(String),
    /// The requested TPC-H query number does not exist.
    UnknownQuery(u32),
    /// The cluster was already shut down.
    ClusterDown,
    /// Invalid configuration.
    Config(String),
    /// The distributed planner rejected a logical plan (unknown column,
    /// ambiguous name, key arity mismatch, …).
    Planner(String),
    /// A query failed at run time for a data-dependent reason (e.g. a
    /// scalar-subquery parameter stage produced no rows).
    Execution(String),
    /// The query was cancelled via
    /// [`QueryHandle::cancel`](crate::cluster::QueryHandle::cancel) before
    /// it produced a result.
    Cancelled,
    /// The admission queue already held `max_queued` submissions, and the
    /// query was rejected without being enqueued.
    Admission(String),
    /// The query's deadline elapsed before it produced a result; the
    /// engine cancelled it cooperatively and freed its resources.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            EngineError::UnknownQuery(q) => write!(f, "unknown TPC-H query: {q}"),
            EngineError::ClusterDown => write!(f, "cluster already shut down"),
            EngineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Planner(msg) => write!(f, "planner error: {msg}"),
            EngineError::Execution(msg) => write!(f, "execution error: {msg}"),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::Admission(msg) => write!(f, "admission rejected: {msg}"),
            EngineError::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            EngineError::UnknownTable("foo".into()).to_string(),
            "unknown table: foo"
        );
        assert_eq!(
            EngineError::UnknownQuery(23).to_string(),
            "unknown TPC-H query: 23"
        );
        assert!(EngineError::ClusterDown.to_string().contains("shut down"));
        assert!(EngineError::Config("x".into()).to_string().contains("x"));
        assert!(EngineError::Planner("no col".into())
            .to_string()
            .contains("no col"));
        assert!(EngineError::Execution("no rows".into())
            .to_string()
            .contains("no rows"));
        assert!(EngineError::Admission("queue at max_queued".into())
            .to_string()
            .contains("max_queued"));
        assert!(EngineError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn composes_with_question_mark_callers() {
        // The whole point of `impl std::error::Error`: downstream code can
        // use `?` into `Box<dyn Error>`.
        fn caller() -> Result<(), Box<dyn std::error::Error>> {
            Err(EngineError::UnknownQuery(99))?
        }
        let err = caller().unwrap_err();
        assert_eq!(err.to_string(), "unknown TPC-H query: 99");
    }
}
