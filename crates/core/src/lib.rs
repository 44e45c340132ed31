//! # hsqp-engine — the distributed query engine
//!
//! This crate implements the paper's contribution: a distributed query
//! engine built on **hybrid parallelism** and an **RDMA-based, NUMA-aware
//! communication multiplexer** with low-latency round-robin network
//! scheduling (§3).
//!
//! * Locally, queries run with *morsel-driven parallelism* ([`local`]):
//!   workers pull constant-size morsels from a shared dispenser, which
//!   self-balances load (work stealing) and keeps tuples NUMA-local.
//! * Globally, *decoupled exchange operators* ([`exchange`]) partition
//!   tuples by CRC32 hash into per-server messages, hand them to the
//!   per-server communication multiplexer, and consume incoming messages
//!   from NUMA-local receive queues with cross-socket work stealing.
//! * The multiplexer sends messages over the [`hsqp_net`] fabric — RDMA or
//!   TCP — following the round-robin network schedule that avoids switch
//!   contention.
//! * The *classic exchange operator* baseline (n·t parallel units, static
//!   partition ownership, no stealing, no scheduling) is implemented for
//!   comparison, as are chunked vs partitioned data placement.
//!
//! [`queries`] writes all 22 TPC-H queries (the paper's workload) against
//! the logical plan builder. A query is served in three layers: the
//! [`coordinator`] (admission, scheduling, the stage loop — written once),
//! a backend that carries each stage to the nodes — threads of a simulated
//! [`cluster`] or the processes of a [`remote`] one — and the node
//! ([`exec`]), which executes its share and is the same in both.
//!
//! Queries are written against the [`logical`] plan builder and lowered by
//! the distributed [`planner`], which places exchange operators, chooses
//! broadcast vs repartition joins, and inserts pre-aggregation
//! automatically; [`session`] wraps cluster + planner behind one
//! programmable facade. Every expression runs as a program compiled once
//! per stage ([`vm`]).
//!
//! Queries are *submitted*, not merely run:
//! [`Session::submit`](session::Session::submit) returns a
//! [`QueryHandle`] and the coordinator's dispatcher executes up to
//! [`max_concurrent`](cluster::ClusterConfig::max_concurrent) queries at
//! once over the shared multiplexers — every wire message is tagged with
//! a [`QueryId`], temp relations live in per-query namespaces, and
//! fabric statistics are accounted per query.
//!
//! Execution is observable end to end: the span-based [`profile`]r records
//! per stage × node × operator timings (network wait split out at exchange
//! boundaries) into each query's [`QueryProfile`], and the cluster-wide
//! [`metrics`] registry aggregates dispatcher and fabric health across
//! queries.
//!
//! Queries are admitted into one FIFO (`max_queued` caps how many may
//! wait), drained by `max_concurrent` dispatchers, and cancelled
//! cooperatively at morsel granularity ([`QueryHandle::cancel`] or a
//! per-query deadline in [`SubmitOptions`], both from [`serve`]).

pub mod cluster;
pub mod coordinator;
pub mod cost;
pub mod error;
pub mod exchange;
pub mod exec;
pub mod expr;
pub mod local;
pub mod logical;
pub mod metrics;
pub mod ops;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod queries;
pub mod remote;
pub mod serial;
pub mod serve;
pub mod session;
pub mod stats;
pub mod vm;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig, EngineKind, Transport};
pub use coordinator::{Coordinator, QueryHandle, QueryResult};
pub use cost::CostModel;
pub use error::EngineError;
pub use expr::Expr;
pub use hsqp_net::QueryId;
pub use logical::{JoinStrategy, LogicalPlan};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use plan::{AggFunc, AggSpec, ExchangeKind, JoinKind, Plan, SortKey};
pub use planner::{Planner, PlannerConfig, TableStats};
pub use profile::{chrome_trace, QueryProfile};
pub use remote::{NodeServer, ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
pub use serve::{CancelToken, StopReason, SubmitOptions};
pub use session::{Session, SessionBuilder};
pub use stats::{ColumnStats, StatsCatalog, TableStatistics};
pub use vm::{CompiledStage, ExprProgram};
