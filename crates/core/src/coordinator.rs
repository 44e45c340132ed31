//! The coordinator: everything about serving a query that does not depend
//! on where the nodes are.
//!
//! The engine has three layers. A *node* ([`crate::exec`]) executes its
//! share of one stage on the query's worker there, the same runtime on
//! either cluster. A `Backend` is the one decision that differs between
//! clusters — how a stage reaches the nodes and how their replies come
//! back: a call and a channel inside the process ([`crate::cluster`]) or
//! the control protocol over TCP ([`crate::remote`]); both fold the replies
//! with one `StageReplies`. The [`Coordinator`] is written once on top of
//! that: query ids, the admission queue (one FIFO, capped at `max_queued`)
//! and the `max_concurrent` dispatchers that drain it, [`QueryHandle`]s,
//! deadlines and cancellation, the stage loop (validation, parameter
//! binding), the mapping of a stopped query to its typed error, metrics,
//! and retire-exactly-once cleanup.
//!
//! [`Cluster`](crate::cluster::Cluster) and
//! [`ProcessCluster`](crate::remote::ProcessCluster) set nodes up, load
//! data, and deref to the `Coordinator` they own, so `submit`, `run`,
//! `metrics`, … are the same code on either.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hsqp_net::QueryId;
use hsqp_storage::{decimal_to_f64, DataType, Table, Value};

use crate::error::EngineError;
use crate::exchange::Traffic;
use crate::exec::{panic_message, StageReply};
use crate::expr::Expr;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::plan::Plan;
use crate::profile::{QueryProfile, StageProfile, StageRecorder};
use crate::queries::{Query, QueryStage, StageRole};
use crate::serve::{CancelToken, SubmitOptions};

/// One stage of one query: what a node needs to execute its share of it.
pub(crate) struct StageCall<'a> {
    pub query: QueryId,
    /// Stages of one query use disjoint exchange-id ranges derived from it.
    pub stage_idx: u32,
    pub stage: &'a QueryStage,
    /// Values bound by the query's earlier `Params` stages.
    pub params: &'a [Value],
    /// Carries the query's deadline; see [`Backend::run_stage`].
    pub cancel: &'a CancelToken,
}

/// What a stage left behind once every node finished it.
pub(crate) struct StageOutcome {
    /// Node 0's output of a `Params` or `Result` stage.
    pub node0: Option<Table>,
    /// The stage's merged spans, where the backend can collect them.
    pub profile: Option<StageProfile>,
}

/// Every node's reply to one stage, kept as the replies arrive: how either
/// backend turns them into the stage's outcome.
pub(crate) struct StageReplies {
    replies: Vec<Option<StageReply>>,
    /// The node whose failure arrived first.
    first_failure: Option<usize>,
}

impl StageReplies {
    pub fn new(nodes: usize) -> Self {
        Self {
            replies: (0..nodes).map(|_| None).collect(),
            first_failure: None,
        }
    }

    /// Whether a node has yet to reply.
    pub fn pending(&self) -> bool {
        self.replies.iter().any(Option::is_none)
    }

    pub fn add(&mut self, node: usize, reply: StageReply) {
        if !matches!(reply, StageReply::Done { .. }) {
            self.first_failure.get_or_insert(node);
        }
        self.replies[node] = Some(reply);
    }

    /// The stage's outcome. A stage that no node would compile is an
    /// [`EngineError::Planner`]: none of it ran anywhere. Any other failure
    /// is the first to arrive, naming its node; so is a stage that one
    /// node refused and the others ran (and were aborted in).
    pub fn finish(self, call: &StageCall<'_>) -> Result<StageOutcome, EngineError> {
        let stage_idx = call.stage_idx;
        let refused = |r: &Option<StageReply>| matches!(r, Some(StageReply::Refused(_)));
        let refused_everywhere = self.replies.iter().all(refused);
        let nodes = self.replies.len();
        let (mut node0, mut profiles) = (None, Vec::new());
        for (node, reply) in self.replies.into_iter().enumerate() {
            match reply {
                Some(StageReply::Done { table, profile }) => {
                    if node == 0 {
                        node0 = table;
                    }
                    profiles.extend(profile);
                }
                Some(StageReply::Refused(why) | StageReply::Failed(why))
                    if self.first_failure == Some(node) =>
                {
                    return Err(if refused_everywhere {
                        EngineError::Planner(why)
                    } else {
                        EngineError::Execution(format!(
                            "node {node} failed stage {stage_idx}: {why}"
                        ))
                    });
                }
                Some(_) => {}
                None => {
                    return Err(EngineError::Execution(format!(
                        "node {node} never answered stage {stage_idx}"
                    )))
                }
            }
        }
        // Labelled from node 0's programs; every node compiled the same.
        let profile = (profiles.len() == nodes).then(|| {
            let (recorders, programs): (Vec<_>, Vec<_>) = profiles.into_iter().unzip();
            let stage = call.stage;
            StageRecorder::from_nodes(recorders).finish(
                &stage.plan,
                &programs[0],
                stage.role.label(),
                stage.estimated_rows,
            )
        });
        Ok(StageOutcome { node0, profile })
    }
}

/// How stages reach the nodes. Two implementations run queries; a third,
/// in this module's tests, injects the failures neither can produce on
/// demand.
pub(crate) trait Backend: Send + Sync {
    /// Run one stage on every node and wait for all of them. Materialized
    /// output stays on the nodes. Must return within about a morsel of
    /// `call.cancel` stopping (cancelled or past its deadline), with any
    /// error: the coordinator maps it to the token's reason. `submitted` is
    /// the anchor of the query's profile timeline.
    fn run_stage(
        &self,
        call: &StageCall<'_>,
        submitted: Instant,
    ) -> Result<StageOutcome, EngineError>;

    /// Stop whatever `query` still has running on the nodes. Called after
    /// a failed `run_stage`, before [`retire`](Self::retire).
    fn abort(&self, query: QueryId);

    /// Release the query's state on every node (temps, receive-hub slots)
    /// and return the traffic the nodes counted for it, summed. Called
    /// exactly once per dispatched query, whatever its outcome.
    fn retire(&self, query: QueryId) -> Traffic;

    /// Add the nodes' counters (`NodeCtx::counters` and the network's) to
    /// a metrics snapshot, each summed over the nodes.
    fn node_counters(&self, snap: &mut MetricsSnapshot);
}

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryResult {
    /// Id the query ran under.
    pub query: QueryId,
    /// The gathered result table (node 0's output).
    pub table: Table,
    /// Wall-clock execution time (includes time spent queued for a
    /// dispatcher slot).
    pub elapsed: Duration,
    /// Time the query spent queued for admission before a dispatcher
    /// slot picked it up (a component of [`elapsed`](Self::elapsed)).
    pub queue_wait: Duration,
    /// Bytes this query shipped between nodes (per-query accounting —
    /// concurrent queries do not pollute each other's numbers).
    pub bytes_shuffled: u64,
    /// Network messages this query sent.
    pub messages_sent: u64,
    /// The query's execution profile: `None` with
    /// [`ClusterConfig::profiling`](crate::cluster::ClusterConfig::profiling)
    /// off and on socket clusters, whose nodes do not ship spans back yet.
    pub profile: Option<QueryProfile>,
}

impl QueryResult {
    /// Rows in the result.
    pub fn row_count(&self) -> usize {
        self.table.rows()
    }
}

enum HandleState {
    Pending,
    /// Completed; `None` once the result has been taken.
    Done(Option<Result<QueryResult, EngineError>>),
}

/// State shared between a [`QueryHandle`] and the dispatcher.
struct QueryShared {
    id: QueryId,
    cancel: CancelToken,
    state: Mutex<HandleState>,
    done: Condvar,
    /// Stages are appended as they complete, so a cancelled or failed
    /// query keeps the stages that finished. Locked once per stage.
    profile: Mutex<QueryProfile>,
}

/// Handle to a submitted query.
///
/// Returned by [`Coordinator::submit`] (and
/// [`Session::submit`](crate::session::Session::submit)). The query runs
/// asynchronously on the coordinator's dispatcher; the handle observes and
/// controls it.
pub struct QueryHandle {
    shared: Arc<QueryShared>,
}

impl QueryHandle {
    /// The id the coordinator assigned to this query (tags all its wire
    /// messages and temp relations).
    pub fn id(&self) -> QueryId {
        self.shared.id
    }

    /// Block until the query completes and take its result.
    ///
    /// Returns [`EngineError::Cancelled`] if [`cancel`](Self::cancel) took
    /// effect first, and an execution error if the result was already
    /// taken through [`try_result`](Self::try_result).
    pub fn wait(self) -> Result<QueryResult, EngineError> {
        self.wait_until(None).expect("waits for ever")
    }

    /// Block until the query completes or `timeout` elapses. Returns
    /// `None` on timeout (the query keeps running — pair with
    /// [`cancel`](Self::cancel) to abandon it); otherwise takes the
    /// result exactly like [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResult, EngineError>> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<QueryResult, EngineError>> {
        let mut state = self.shared.state.lock();
        loop {
            if let HandleState::Done(result) = &mut *state {
                return Some(result.take().unwrap_or_else(|| {
                    Err(EngineError::Execution("query result already taken".into()))
                }));
            }
            match deadline {
                None => self.shared.done.wait(&mut state),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    self.shared.done.wait_for(&mut state, remaining);
                }
            }
        }
    }

    /// Take the result if the query has completed; `None` while it is
    /// still queued or running. A completed result can be taken once.
    pub fn try_result(&self) -> Option<Result<QueryResult, EngineError>> {
        match &mut *self.shared.state.lock() {
            HandleState::Pending => None,
            HandleState::Done(result) => result.take(),
        }
    }

    /// Whether the query has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        matches!(&*self.shared.state.lock(), HandleState::Done(_))
    }

    /// Request cancellation. Cooperative and morsel-bounded: a queued
    /// query never starts, a running one stops at its next morsel (or
    /// exchange-wait poll) rather than its next stage boundary; either
    /// way its temp relations and receive-hub slots are released and
    /// [`wait`](Self::wait) returns
    /// [`EngineError::Cancelled`]. A query already past its last check
    /// completes normally.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// Snapshot of the query's execution profile: the stages that have
    /// completed so far (all of them once the query finished; a partial
    /// prefix while it runs or after cancellation). Empty where
    /// [`QueryResult::profile`] is `None`.
    pub fn profile(&self) -> QueryProfile {
        self.shared.profile.lock().clone()
    }
}

/// One admitted query waiting for (or holding) a dispatcher slot.
struct Submission {
    /// The query's stages, in execution order.
    stages: std::vec::IntoIter<QueryStage>,
    submitted: Instant,
    shared: Arc<QueryShared>,
}

/// Pre-resolved dispatcher instruments, so admission and completion paths
/// never look up the registry by name.
struct DispatchMetrics {
    queue_depth: Arc<Gauge>,
    active: Arc<Gauge>,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    rejected: Arc<Counter>,
    admission_wait_us: Arc<Histogram>,
    stage_rounds: Arc<Counter>,
    /// What the nodes reported sending for each retired query, whatever
    /// its outcome.
    bytes_shuffled: Arc<Counter>,
    messages_sent: Arc<Counter>,
}

impl DispatchMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        Self {
            queue_depth: reg.gauge("dispatcher.queue_depth"),
            active: reg.gauge("queries.active"),
            submitted: reg.counter("queries.submitted"),
            completed: reg.counter("queries.completed"),
            failed: reg.counter("queries.failed"),
            cancelled: reg.counter("queries.cancelled"),
            rejected: reg.counter("queries.rejected"),
            admission_wait_us: reg.histogram("dispatcher.admission_wait_us"),
            stage_rounds: reg.counter("stages.executed"),
            bytes_shuffled: reg.counter("queries.bytes_shuffled"),
            messages_sent: reg.counter("queries.messages_sent"),
        }
    }
}

struct Inner {
    backend: Arc<dyn Backend>,
    next_query: AtomicU32,
    down: AtomicBool,
    metrics: MetricsRegistry,
    dm: DispatchMetrics,
    /// Admitted queries no dispatcher has picked up yet, oldest first.
    queue: Mutex<VecDeque<Submission>>,
    /// Rung when a submission is queued and when the coordinator closes.
    wake: Condvar,
    /// Submissions the queue holds before rejecting more.
    max_queued: Option<usize>,
}

/// Admits, schedules and runs queries on a cluster's nodes. See the
/// module docs; obtained by dereferencing a
/// [`Cluster`](crate::cluster::Cluster) or a
/// [`ProcessCluster`](crate::remote::ProcessCluster).
pub struct Coordinator {
    inner: Arc<Inner>,
    dispatchers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Coordinator {
    /// Start the dispatcher pool over `backend`: up to `max_concurrent`
    /// queries run their stages at once; the rest wait in the queue, first
    /// come first served, and at most `max_queued` of them.
    pub(crate) fn start(
        backend: Arc<dyn Backend>,
        max_concurrent: u16,
        max_queued: Option<usize>,
    ) -> Self {
        let metrics = MetricsRegistry::new();
        let inner = Arc::new(Inner {
            backend,
            next_query: AtomicU32::new(0),
            down: AtomicBool::new(false),
            dm: DispatchMetrics::new(&metrics),
            metrics,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            max_queued,
        });
        let dispatchers = (0..max_concurrent)
            .map(|d| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dispatch-{d}"))
                    .spawn(move || {
                        while let Some(sub) = inner.next_submission() {
                            inner.execute_submission(sub);
                        }
                    })
                    .expect("spawn dispatcher")
            })
            .collect();
        Self {
            inner,
            dispatchers: Mutex::new(dispatchers),
        }
    }

    /// Check the two serving knobs a cluster configuration carries, before
    /// the cluster starts anything it would have to tear down again.
    pub(crate) fn validate(
        max_concurrent: u16,
        max_queued: Option<usize>,
    ) -> Result<(), EngineError> {
        if max_concurrent == 0 {
            return Err(EngineError::Config(
                "need at least one concurrent query slot".into(),
            ));
        }
        if max_queued == Some(0) {
            return Err(EngineError::Config(
                "max_queued must be at least 1 (or unset)".into(),
            ));
        }
        Ok(())
    }

    /// Submit a query for asynchronous execution with no deadline,
    /// returning immediately with a [`QueryHandle`]. At most
    /// `max_concurrent` queries run at once; the rest wait their turn in
    /// submission order.
    pub fn submit(&self, query: &Query) -> Result<QueryHandle, EngineError> {
        self.submit_with(query, &SubmitOptions::default())
    }

    /// Submit a query under explicit serving options: an optional deadline
    /// after which it is cooperatively cancelled (morsel-bounded) and
    /// resolves to [`EngineError::DeadlineExceeded`].
    ///
    /// Fails fast with [`EngineError::Admission`] when the queue already
    /// holds `max_queued` submissions.
    pub fn submit_with(
        &self,
        query: &Query,
        opts: &SubmitOptions,
    ) -> Result<QueryHandle, EngineError> {
        if query.stages.is_empty() {
            return Err(EngineError::Planner(
                "query needs at least one stage".into(),
            ));
        }
        let inner = &self.inner;
        let submitted = Instant::now();
        let id = QueryId(inner.next_query.fetch_add(1, Ordering::Relaxed));
        let shared = Arc::new(QueryShared {
            id,
            cancel: CancelToken::with_deadline(opts.deadline.map(|d| submitted + d)),
            state: Mutex::new(HandleState::Pending),
            done: Condvar::new(),
            profile: Mutex::new(QueryProfile::new(id, query.number)),
        });
        let submission = Submission {
            stages: query.stages.clone().into_iter(),
            submitted,
            shared: Arc::clone(&shared),
        };
        let mut queue = inner.queue.lock();
        if inner.down.load(Ordering::SeqCst) {
            return Err(EngineError::ClusterDown);
        }
        if let Some(cap) = inner.max_queued.filter(|&cap| queue.len() >= cap) {
            inner.dm.rejected.inc();
            return Err(EngineError::Admission(format!(
                "{cap} queries already wait for a dispatcher (max_queued={cap})"
            )));
        }
        inner.dm.queue_depth.inc();
        queue.push_back(submission);
        drop(queue);
        inner.dm.submitted.inc();
        inner.wake.notify_one();
        Ok(QueryHandle { shared })
    }

    /// Run a multi-stage query to completion: parameter stages bind their
    /// first result row as `Expr::Param` values for later stages,
    /// materialization stages leave per-node temp relations behind for
    /// `Plan::TempScan`, and the final stage's gathered table comes back
    /// from node 0. Sugar for [`submit`](Self::submit) +
    /// [`QueryHandle::wait`].
    pub fn run(&self, query: &Query) -> Result<QueryResult, EngineError> {
        self.submit(query)?.wait()
    }

    /// [`run`](Self::run) under explicit serving options.
    pub fn run_with(
        &self,
        query: &Query,
        opts: &SubmitOptions,
    ) -> Result<QueryResult, EngineError> {
        self.submit_with(query, opts)?.wait()
    }

    /// Run a single plan SPMD and return node 0's result.
    pub fn run_plan(&self, plan: &Plan) -> Result<QueryResult, EngineError> {
        self.run(&Query::single(0, plan.clone()))
    }

    /// Snapshot the metrics registry — dispatcher counters and gauges, the
    /// admission-wait histogram, the traffic of retired queries — plus the
    /// nodes' counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        self.inner.backend.node_counters(&mut snap);
        snap
    }

    /// Stop admitting and join the dispatcher pool: in-flight queries
    /// complete, queued ones fail with [`EngineError::ClusterDown`]. The
    /// owning cluster calls this before it stops the nodes. Idempotent.
    pub(crate) fn close(&self) {
        if self.inner.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Taking the queue's lock once the flag is set means no dispatcher
        // is between reading the flag and waiting when the wake-up comes.
        drop(self.inner.queue.lock());
        self.inner.wake.notify_all();
        for h in self.dispatchers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.close();
    }
}

impl Inner {
    /// The oldest queued submission, blocking while the queue is empty and
    /// open. After [`Coordinator::close`] the backlog still drains (each
    /// one fails with [`EngineError::ClusterDown`]), then `None`.
    fn next_submission(&self) -> Option<Submission> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(sub) = queue.pop_front() {
                return Some(sub);
            }
            if self.down.load(Ordering::SeqCst) {
                return None;
            }
            self.wake.wait(&mut queue);
        }
    }

    /// Run one admitted query to completion on this dispatcher thread and
    /// publish its result. Whatever happens — success, error,
    /// cancellation — the query is retired on the backend afterwards, so it
    /// can neither wedge the nodes nor leak, and the traffic the nodes
    /// report for it is counted.
    fn execute_submission(&self, mut sub: Submission) {
        let queue_wait = sub.submitted.elapsed();
        self.dm.queue_depth.dec();
        self.dm
            .admission_wait_us
            .observe(queue_wait.as_micros() as u64);
        self.dm.active.inc();
        let shared = Arc::clone(&sub.shared);
        let result = if self.down.load(Ordering::SeqCst) {
            Err(EngineError::ClusterDown)
        } else {
            // Backends contain their nodes' panics; this net is for the
            // stage bookkeeping itself, so the submitter always gets an
            // error rather than a forever-blocked `wait()` and the
            // dispatcher slot survives.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_stages(&mut sub)))
                .unwrap_or_else(|payload| {
                    Err(EngineError::Execution(format!(
                        "query execution panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                })
        };
        // A stopped query surfaces as whatever its nodes made of it (a
        // contained panic, a `StageFail`); map that back to the reason the
        // token recorded. The reason, not the clock: an unrelated failure
        // whose deadline passes during teardown keeps its own message.
        let result = match result {
            Err(EngineError::Execution(msg)) => match shared.cancel.stop_reason() {
                Some(reason) => Err(reason.into_error()),
                None => Err(EngineError::Execution(msg)),
            },
            other => other,
        };
        if result.is_err() {
            self.backend.abort(shared.id);
        }
        let sent = self.backend.retire(shared.id);
        self.dm.active.dec();
        let result = result.map(|table| {
            let profile = shared.profile.lock();
            QueryResult {
                query: shared.id,
                table,
                elapsed: sub.submitted.elapsed(),
                queue_wait,
                bytes_shuffled: sent.bytes,
                messages_sent: sent.messages,
                profile: (!profile.stages.is_empty()).then(|| profile.clone()),
            }
        });
        match &result {
            Ok(_) => &self.dm.completed,
            Err(EngineError::Cancelled) | Err(EngineError::DeadlineExceeded) => &self.dm.cancelled,
            Err(_) => &self.dm.failed,
        }
        .inc();
        // Whatever this query put on the wire is counted, completed or not.
        self.dm.bytes_shuffled.add(sent.bytes);
        self.dm.messages_sent.add(sent.messages);
        *shared.state.lock() = HandleState::Done(Some(result));
        shared.done.notify_all();
    }

    /// The stage loop; returns the result stage's table.
    fn run_stages(&self, sub: &mut Submission) -> Result<Table, EngineError> {
        let shared = &sub.shared;
        let cancel = &shared.cancel;
        let mut params: Vec<Value> = Vec::new();
        let mut materialized: Vec<String> = Vec::new();
        let mut final_table: Option<Table> = None;
        for (stage_idx, stage) in (0u32..).zip(sub.stages.by_ref()) {
            // Cooperative cancellation point: between stages (and before
            // the first), where nothing is in flight. Backends check the
            // same token per morsel.
            if let Some(reason) = cancel.should_stop() {
                return Err(reason.into_error());
            }
            // Reject dangling temp references and unbound parameters
            // before the plan reaches the nodes, where they would panic.
            let mut referenced = Vec::new();
            collect_temp_scans(&stage.plan, &mut referenced);
            if let Some(name) = referenced
                .iter()
                .find(|n| !materialized.iter().any(|m| m == **n))
            {
                return Err(EngineError::Planner(format!(
                    "temp relation {name:?} is not materialized by an earlier stage"
                )));
            }
            if let Some(m) = plan_max_param(&stage.plan).filter(|&m| m >= params.len()) {
                return Err(EngineError::Planner(format!(
                    "plan references parameter {m}, but earlier stages bind \
                     only {} parameter(s)",
                    params.len()
                )));
            }
            let call = StageCall {
                query: shared.id,
                stage_idx,
                stage: &stage,
                params: &params,
                cancel,
            };
            let outcome = self.backend.run_stage(&call, sub.submitted)?;
            self.dm.stage_rounds.inc();
            if let Some(profile) = outcome.profile {
                shared.profile.lock().stages.push(profile);
            }
            let node0 = |what: &str| {
                outcome.node0.ok_or_else(|| {
                    EngineError::Execution(format!("node 0 returned no {what} table"))
                })
            };
            match stage.role {
                StageRole::Result => final_table = Some(node0("result")?),
                StageRole::Params => {
                    // Bind row 0 of the stage result as parameters, in
                    // column order.
                    let t = node0("parameter")?;
                    if t.rows() == 0 {
                        return Err(EngineError::Execution(
                            "parameter stage produced no rows".into(),
                        ));
                    }
                    for (c, field) in t.schema().fields().iter().enumerate() {
                        // Bind Decimal scalars as promoted floats: that is
                        // how expression evaluation reads Decimal columns,
                        // so a raw fixed-point i64 here would compare 100x
                        // off against any downstream column.
                        params.push(match (field.dtype, t.value(0, c)) {
                            (DataType::Decimal, Value::I64(cents)) => {
                                Value::F64(decimal_to_f64(cents))
                            }
                            (_, v) => v,
                        });
                    }
                }
                StageRole::Materialize(name) => materialized.push(name),
            }
        }

        final_table.ok_or_else(|| EngineError::Planner("query has no result stage".into()))
    }
}

/// Collect every temp-relation name a plan reads through `Plan::TempScan`.
fn collect_temp_scans<'p>(plan: &'p Plan, out: &mut Vec<&'p str>) {
    if let Plan::TempScan { name, .. } = plan {
        out.push(name);
    }
    for child in plan.children() {
        collect_temp_scans(child, out);
    }
}

/// Highest `Expr::Param` index referenced anywhere in a physical plan.
fn plan_max_param(plan: &Plan) -> Option<usize> {
    let own = match plan {
        Plan::Scan { filter, .. } => filter.as_ref().and_then(Expr::max_param),
        Plan::Filter { predicate, .. } => predicate.max_param(),
        Plan::Map { outputs, .. } => outputs.iter().filter_map(|o| o.expr.max_param()).max(),
        Plan::Aggregate { aggs, .. } => aggs.iter().filter_map(|a| a.expr.max_param()).max(),
        Plan::TempScan { .. }
        | Plan::HashJoin { .. }
        | Plan::Sort { .. }
        | Plan::Exchange { .. } => None,
    };
    own.max(
        plan.children()
            .iter()
            .filter_map(|c| plan_max_param(c))
            .max(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp_storage::{Field, Schema};
    use hsqp_tpch::TpchTable;

    /// What the fake backend does to the stage it is armed for.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// A node reports `StageFail`.
        Error,
        /// No node ever answers; only the query's token ends the wait.
        Block,
        /// A node's control connection dies.
        NodeDown,
    }

    /// A backend with no nodes behind it: every stage succeeds with an
    /// empty table, except the one a fault is armed for. Logs its calls.
    struct Fake {
        /// The stage index the fault hits, and the fault; taken by the
        /// first query that gets there.
        fault: Mutex<Option<(u32, Fault)>>,
        /// Every call in order: what, and for which query.
        calls: Mutex<Vec<(&'static str, u32)>>,
    }

    impl Backend for Fake {
        fn run_stage(
            &self,
            call: &StageCall<'_>,
            _submitted: Instant,
        ) -> Result<StageOutcome, EngineError> {
            self.calls.lock().push(("stage", call.query.0));
            let fault = {
                let mut armed = self.fault.lock();
                match *armed {
                    Some((at, fault)) if at == call.stage_idx => {
                        *armed = None;
                        Some(fault)
                    }
                    _ => None,
                }
            };
            let fail = |msg: &str| Err(EngineError::Execution(msg.into()));
            match fault {
                Some(Fault::Error) => fail("node 1 failed stage 1: boom"),
                Some(Fault::NodeDown) => fail("node 1 died mid-query: connection reset"),
                Some(Fault::Block) => {
                    // What `run_stage` owes the coordinator: come back once
                    // the token stops — as nodes do, with an untyped error.
                    while call.cancel.should_stop().is_none() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    fail("node 0 failed stage 1: query stopped between morsels")
                }
                None => Ok(StageOutcome {
                    node0: Some(Table::empty(Schema::new(vec![Field::new(
                        "x",
                        DataType::Int64,
                    )]))),
                    profile: None,
                }),
            }
        }

        fn abort(&self, query: QueryId) {
            self.calls.lock().push(("abort", query.0));
        }

        fn retire(&self, query: QueryId) -> Traffic {
            self.calls.lock().push(("retire", query.0));
            RETIRED
        }

        fn node_counters(&self, _snap: &mut MetricsSnapshot) {}
    }

    /// What the fake's nodes report for every query they retire.
    const RETIRED: Traffic = Traffic {
        bytes: 4242,
        messages: 17,
    };

    /// A materialization, then a result stage that reads it.
    fn two_stages() -> Query {
        let stage = |plan, role| QueryStage {
            plan,
            role,
            estimated_rows: None,
        };
        Query {
            stages: vec![
                stage(
                    Plan::scan(TpchTable::Nation),
                    StageRole::Materialize("t".into()),
                ),
                stage(Plan::temp_scan("t").gather(), StageRole::Result),
            ],
            number: 0,
        }
    }

    /// Arm `fault` for the second stage, run the query under `opts` on a
    /// coordinator with a single dispatcher slot (cancelling it after a
    /// moment if `cancel`), and check everything the coordinator promises
    /// about a failed query, its traffic counted included.
    /// Returns the error the handle resolved to.
    fn fail_second_stage(fault: Fault, opts: &SubmitOptions, cancel: bool) -> EngineError {
        let fake = Arc::new(Fake {
            fault: Mutex::new(Some((1, fault))),
            calls: Mutex::new(Vec::new()),
        });
        let coordinator = Coordinator::start(Arc::clone(&fake) as Arc<dyn Backend>, 1, None);
        let handle = coordinator.submit_with(&two_stages(), opts).unwrap();
        let id = handle.id().0;
        if cancel {
            std::thread::sleep(Duration::from_millis(20));
            handle.cancel();
        }
        let error = handle
            .wait_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("{fault:?}: the handle never resolved"))
            .expect_err("the armed stage fails the query");

        // Two stages ran, then abort, then exactly one retire.
        let calls: Vec<&str> = fake
            .calls
            .lock()
            .iter()
            .filter(|(_, query)| *query == id)
            .map(|(what, _)| *what)
            .collect();
        assert_eq!(calls, ["stage", "stage", "abort", "retire"], "{fault:?}");

        // What the nodes reported at retire is counted, although the query
        // failed.
        let sent = |name: &str| coordinator.metrics().counter(name);
        let bytes = "queries.bytes_shuffled";
        let messages = "queries.messages_sent";
        assert_eq!(sent(bytes), Some(RETIRED.bytes), "{fault:?}");
        assert_eq!(sent(messages), Some(RETIRED.messages), "{fault:?}");

        // The only dispatcher slot was released, and the fault is spent.
        let next = coordinator
            .run(&two_stages())
            .expect("the next query completes");
        assert_eq!(next.row_count(), 0);
        assert_eq!(
            (next.bytes_shuffled, next.messages_sent),
            (RETIRED.bytes, RETIRED.messages)
        );
        assert_eq!(sent(bytes), Some(2 * RETIRED.bytes));
        assert_eq!(sent(messages), Some(2 * RETIRED.messages));
        let metrics = coordinator.metrics();
        let moved = match error {
            EngineError::Cancelled | EngineError::DeadlineExceeded => "queries.cancelled",
            _ => "queries.failed",
        };
        for counter in ["queries.failed", "queries.cancelled"] {
            let expected = u64::from(counter == moved);
            assert_eq!(
                metrics.counter(counter),
                Some(expected),
                "{fault:?} {counter}"
            );
        }
        assert_eq!(metrics.counter("queries.completed"), Some(1));
        assert_eq!(metrics.gauge("queries.active"), Some(0));
        error
    }

    #[test]
    fn a_failing_stage_fails_the_query_with_its_message() {
        let generous = SubmitOptions::default().with_deadline(Duration::from_secs(60));
        for (fault, needle) in [(Fault::Error, "boom"), (Fault::NodeDown, "died")] {
            match fail_second_stage(fault, &generous, false) {
                EngineError::Execution(msg) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{fault:?}: expected Execution, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_silent_stage_ends_at_the_deadline_or_the_cancel() {
        let started = Instant::now();
        let tight = SubmitOptions::default().with_deadline(Duration::from_millis(50));
        let error = fail_second_stage(Fault::Block, &tight, false);
        assert!(matches!(error, EngineError::DeadlineExceeded), "{error:?}");
        let error = fail_second_stage(Fault::Block, &SubmitOptions::default(), true);
        assert!(matches!(error, EngineError::Cancelled), "{error:?}");
        // Both were ended by their token, not by `wait_timeout` giving up.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    /// Closing drains the queue: the running query ends as it would, each
    /// queued one fails with `ClusterDown`, and so does a submission made
    /// after the close.
    #[test]
    fn close_fails_the_backlog_and_later_submissions() {
        let fake = Arc::new(Fake {
            fault: Mutex::new(Some((1, Fault::Block))),
            calls: Mutex::new(Vec::new()),
        });
        let coordinator = Coordinator::start(Arc::clone(&fake) as Arc<dyn Backend>, 1, None);
        let running = coordinator.submit(&two_stages()).unwrap();
        while coordinator.metrics().gauge("queries.active") != Some(1) {
            std::thread::yield_now();
        }
        let queued: Vec<QueryHandle> = (0..2)
            .map(|_| coordinator.submit(&two_stages()).unwrap())
            .collect();
        std::thread::scope(|s| {
            s.spawn(|| coordinator.close());
            while !coordinator.inner.down.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            running.cancel();
        });
        let resolved = |h: &QueryHandle| h.wait_timeout(Duration::from_secs(10)).expect("resolved");
        assert!(matches!(resolved(&running), Err(EngineError::Cancelled)));
        for handle in &queued {
            assert!(matches!(resolved(handle), Err(EngineError::ClusterDown)));
        }
        assert!(matches!(
            coordinator.submit(&two_stages()),
            Err(EngineError::ClusterDown)
        ));
    }

    #[test]
    fn invalid_plans_never_reach_the_backend() {
        let fake = Arc::new(Fake {
            fault: Mutex::new(None),
            calls: Mutex::new(Vec::new()),
        });
        let coordinator = Coordinator::start(Arc::clone(&fake) as Arc<dyn Backend>, 1, None);
        let dangling = coordinator.run_plan(&Plan::temp_scan("nope").gather());
        assert!(
            matches!(dangling, Err(EngineError::Planner(_))),
            "{dangling:?}"
        );
        let unbound = Plan::scan(TpchTable::Nation)
            .filter(crate::expr::col("n_nationkey").gt(crate::expr::param(0)))
            .gather();
        let unbound = coordinator.run_plan(&unbound);
        assert!(
            matches!(unbound, Err(EngineError::Planner(_))),
            "{unbound:?}"
        );
        assert!(fake.calls.lock().iter().all(|(what, _)| *what != "stage"));
    }
}
