//! Multi-tenant serving layer: tenant identity, weighted-fair admission
//! queues, cooperative cancellation tokens, and open-loop arrival
//! processes.
//!
//! This module holds the serving-side policy objects the rest of the
//! engine threads through its mechanisms:
//!
//! - [`TenantId`] / [`TenantConfig`] tag every submission with who it
//!   belongs to and what that tenant is entitled to (scheduling weight,
//!   `max_queued` / `max_concurrent` admission caps).
//! - [`WdrrQueue`] replaces the dispatcher's single FIFO channel with
//!   per-tenant queues drained by weighted deficit round-robin, so a
//!   heavy tenant cannot starve a light one beyond its weight share.
//! - [`CancelToken`] is the shared cooperative-cancellation flag checked
//!   at **morsel** granularity inside `NodeExec` operator loops and at
//!   exchange waits, carrying an optional deadline so per-query timeouts
//!   land within one morsel rather than one stage.
//! - [`ArrivalProcess`] generates Poisson / uniform arrival schedules for
//!   the open-loop workload driver (`hsqp --open-loop`).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::EngineError;

// ---------------------------------------------------------------------------
// Tenant identity and entitlements
// ---------------------------------------------------------------------------

/// Opaque tenant identity attached to every submission.
///
/// Cheap to clone (shared string); compares by name. Queries submitted
/// without an explicit tenant run as [`TenantId::default`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// The tenant queries run as when no tenant is named.
    pub const DEFAULT_NAME: &'static str = "default";

    /// Tenant id for `name`.
    pub fn new(name: &str) -> Self {
        TenantId(Arc::from(name))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::new(Self::DEFAULT_NAME)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId::new(name)
    }
}

/// Per-tenant scheduling weight and admission caps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Deficit round-robin weight (≥ 1): per scheduling round a tenant
    /// with weight `w` is credited `w` query starts, so two backlogged
    /// tenants with weights 4:1 complete work in a 4:1 ratio.
    pub weight: u32,
    /// Maximum queued-but-not-yet-running submissions; over-cap
    /// submissions are rejected fast with [`EngineError::Admission`].
    /// `None` = unbounded.
    pub max_queued: Option<usize>,
    /// Maximum concurrently executing queries for this tenant;
    /// submissions over this cap stay queued (they are not rejected).
    /// `None` = bounded only by the dispatcher pool.
    pub max_concurrent: Option<u16>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_queued: None,
            max_concurrent: None,
        }
    }
}

impl TenantConfig {
    /// Uncapped tenant with the given scheduling weight.
    pub fn weighted(weight: u32) -> Self {
        TenantConfig {
            weight,
            ..TenantConfig::default()
        }
    }

    /// Reject invalid entitlements (zero weight or zero caps).
    pub fn validate(&self, tenant: &str) -> Result<(), EngineError> {
        if self.weight == 0 {
            return Err(EngineError::Config(format!(
                "tenant {tenant:?}: weight must be >= 1"
            )));
        }
        if self.max_queued == Some(0) {
            return Err(EngineError::Config(format!(
                "tenant {tenant:?}: max_queued must be >= 1 (or unset)"
            )));
        }
        if self.max_concurrent == Some(0) {
            return Err(EngineError::Config(format!(
                "tenant {tenant:?}: max_concurrent must be >= 1 (or unset)"
            )));
        }
        Ok(())
    }
}

/// Per-submission serving options: which tenant the query runs as and an
/// optional deadline after which it is cooperatively cancelled.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Tenant the query is accounted and scheduled under.
    pub tenant: TenantId,
    /// Relative deadline: once elapsed the query stops within one morsel
    /// and resolves to [`EngineError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options running as `tenant` with no deadline.
    pub fn tenant(name: &str) -> Self {
        SubmitOptions {
            tenant: TenantId::new(name),
            ..SubmitOptions::default()
        }
    }

    /// Attach a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// Why a query was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline elapsed.
    DeadlineExceeded,
}

impl StopReason {
    /// The typed engine error this stop reason resolves to.
    pub fn into_error(self) -> EngineError {
        match self {
            StopReason::Cancelled => EngineError::Cancelled,
            StopReason::DeadlineExceeded => EngineError::DeadlineExceeded,
        }
    }
}

const TOKEN_LIVE: u8 = 0;
const TOKEN_CANCELLED: u8 = 1;
const TOKEN_DEADLINE: u8 = 2;

/// Shared cooperative-cancellation flag with an optional deadline.
///
/// One token is created per query; clones share the same tripwire, so a
/// `cancel()` on the handle is observed by every operator loop and
/// exchange wait polling [`CancelToken::should_stop`]. The deadline is
/// immutable per token value, but [`CancelToken::child_with_deadline`]
/// derives a token that shares the tripwire under a different deadline —
/// how a remote node applies the coordinator's remaining-time budget to
/// one shipped stage.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// Live token with no deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Live token that trips once `deadline` passes (if set).
    pub fn with_deadline(deadline: Option<Instant>) -> Self {
        CancelToken {
            state: Arc::new(AtomicU8::new(TOKEN_LIVE)),
            deadline,
        }
    }

    /// Token sharing this token's tripwire but carrying `deadline`
    /// instead of the parent's.
    pub fn child_with_deadline(&self, deadline: Option<Instant>) -> Self {
        CancelToken {
            state: Arc::clone(&self.state),
            deadline,
        }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trip the token as user-cancelled. A deadline trip that already
    /// happened wins (first reason sticks).
    pub fn cancel(&self) {
        let _ = self.state.compare_exchange(
            TOKEN_LIVE,
            TOKEN_CANCELLED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Check the tripwire *and* the deadline: the call operator loops
    /// make once per morsel. Returns the stop reason once tripped.
    pub fn should_stop(&self) -> Option<StopReason> {
        match self.state.load(Ordering::SeqCst) {
            TOKEN_CANCELLED => return Some(StopReason::Cancelled),
            TOKEN_DEADLINE => return Some(StopReason::DeadlineExceeded),
            _ => {}
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let _ = self.state.compare_exchange(
                    TOKEN_LIVE,
                    TOKEN_DEADLINE,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                return self.stop_reason();
            }
        }
        None
    }

    /// The recorded stop reason without re-checking the deadline — used
    /// to map an execution failure back to the typed error that caused
    /// it, without misclassifying an unrelated failure whose deadline
    /// happened to pass during teardown.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self.state.load(Ordering::SeqCst) {
            TOKEN_CANCELLED => Some(StopReason::Cancelled),
            TOKEN_DEADLINE => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// Whether the token has tripped (either reason).
    pub fn is_stopped(&self) -> bool {
        self.state.load(Ordering::SeqCst) != TOKEN_LIVE
    }

    /// Panic with a recognizable message if the token has tripped — the
    /// morsel-loop escape hatch. The panic unwinds to the node's
    /// `catch_unwind`, and the coordinator maps the failure back to
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExceeded`] via
    /// [`CancelToken::stop_reason`].
    pub fn check_morsel(&self) {
        if let Some(reason) = self.should_stop() {
            panic!("query stopped between morsels: {reason:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Weighted deficit round-robin admission queue
// ---------------------------------------------------------------------------

struct TenantQueue<T> {
    id: TenantId,
    cfg: TenantConfig,
    queue: VecDeque<T>,
    deficit: u64,
    running: usize,
}

struct WdrrState<T> {
    tenants: Vec<TenantQueue<T>>,
    index: HashMap<TenantId, usize>,
    cursor: usize,
    closed: bool,
}

impl<T> WdrrState<T> {
    fn tenant_mut(&mut self, id: &TenantId) -> &mut TenantQueue<T> {
        let i = match self.index.get(id) {
            Some(&i) => i,
            None => {
                // Unknown tenants self-register with default entitlements
                // (weight 1, no caps) on first submission.
                let i = self.tenants.len();
                self.tenants.push(TenantQueue {
                    id: id.clone(),
                    cfg: TenantConfig::default(),
                    queue: VecDeque::new(),
                    deficit: 0,
                    running: 0,
                });
                self.index.insert(id.clone(), i);
                i
            }
        };
        &mut self.tenants[i]
    }
}

/// Multi-tenant admission queue drained by weighted deficit round-robin.
///
/// Each tenant owns a FIFO of pending items plus a deficit counter. A
/// scheduling round credits every backlogged tenant `weight` starts;
/// [`WdrrQueue::pop`] serves tenants round-robin, spending one credit per
/// item, skipping tenants at their `max_concurrent` cap. With unit-cost
/// items this is classic DRR: over any backlogged interval tenants are
/// served in proportion to their weights, so a flood from one tenant
/// delays another only by its weight share. An idle tenant's deficit
/// resets — weights bound *shares*, they do not bank idle time.
///
/// Shutdown protocol: [`WdrrQueue::close`] wakes all poppers; `pop` then
/// ignores concurrency caps and drains every remaining item (letting the
/// dispatcher fail them cleanly) before returning `None`.
pub struct WdrrQueue<T> {
    state: Mutex<WdrrState<T>>,
    wake: Condvar,
}

impl<T> WdrrQueue<T> {
    /// Empty queue with the given pre-registered tenants; unknown tenants
    /// self-register with [`TenantConfig::default`] on first push.
    pub fn new(tenants: &[(String, TenantConfig)]) -> Self {
        let mut state = WdrrState {
            tenants: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            closed: false,
        };
        for (name, cfg) in tenants {
            let id = TenantId::new(name);
            state.tenant_mut(&id).cfg = cfg.clone();
        }
        WdrrQueue {
            state: Mutex::new(state),
            wake: Condvar::new(),
        }
    }

    /// Register `tenant` (or update its entitlements if already known).
    pub fn configure(&self, tenant: &TenantId, cfg: TenantConfig) {
        let mut st = self.state.lock();
        st.tenant_mut(tenant).cfg = cfg;
        // A raised max_concurrent may unblock waiting poppers.
        self.wake.notify_all();
    }

    /// Entitlements currently in force for `tenant`, if registered.
    pub fn config_of(&self, tenant: &TenantId) -> Option<TenantConfig> {
        let st = self.state.lock();
        let i = *st.index.get(tenant)?;
        Some(st.tenants[i].cfg.clone())
    }

    /// Enqueue one item for `tenant`.
    ///
    /// Fails fast with [`EngineError::Admission`] when the tenant is at
    /// its `max_queued` cap, and with [`EngineError::ClusterDown`] after
    /// [`WdrrQueue::close`].
    pub fn push(&self, tenant: &TenantId, item: T) -> Result<(), EngineError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(EngineError::ClusterDown);
        }
        let t = st.tenant_mut(tenant);
        if let Some(cap) = t.cfg.max_queued {
            if t.queue.len() >= cap {
                return Err(EngineError::Admission(format!(
                    "tenant {tenant:?} is at max_queued={cap}"
                )));
            }
        }
        t.queue.push_back(item);
        drop(st);
        self.wake.notify_one();
        Ok(())
    }

    /// Dequeue the next item per the DRR schedule, blocking while the
    /// queue is open but nothing is runnable. Returns `None` only when
    /// closed *and* fully drained. The caller owes a matching
    /// [`WdrrQueue::finish`] for the returned tenant.
    pub fn pop(&self) -> Option<(TenantId, T)> {
        let mut st = self.state.lock();
        loop {
            if let Some(hit) = Self::try_pop_locked(&mut st) {
                return Some(hit);
            }
            if st.closed && st.tenants.iter().all(|t| t.queue.is_empty()) {
                return None;
            }
            self.wake.wait(&mut st);
        }
    }

    fn try_pop_locked(st: &mut WdrrState<T>) -> Option<(TenantId, T)> {
        let n = st.tenants.len();
        if n == 0 {
            return None;
        }
        loop {
            let mut any_runnable = false;
            for k in 0..n {
                let i = (st.cursor + k) % n;
                let t = &mut st.tenants[i];
                if t.queue.is_empty() {
                    // Standard DRR: idle tenants do not bank credit.
                    t.deficit = 0;
                    continue;
                }
                // After close, caps are moot — drain everything so the
                // dispatcher can fail the leftovers and retire their
                // stats entries.
                let runnable = st.closed
                    || t.cfg
                        .max_concurrent
                        .is_none_or(|cap| t.running < cap as usize);
                if !runnable {
                    continue;
                }
                any_runnable = true;
                if t.deficit >= 1 {
                    t.deficit -= 1;
                    let item = t.queue.pop_front().expect("non-empty queue");
                    t.running += 1;
                    let id = t.id.clone();
                    st.cursor = (i + 1) % n;
                    return Some((id, item));
                }
            }
            if !any_runnable {
                return None;
            }
            // New round: credit every backlogged tenant its weight. At
            // least one runnable tenant then has deficit ≥ 1 (weights
            // are ≥ 1), so this loop terminates.
            for t in &mut st.tenants {
                if !t.queue.is_empty() {
                    t.deficit += u64::from(t.cfg.weight.max(1));
                }
            }
        }
    }

    /// Record that an item popped for `tenant` finished executing,
    /// releasing its `max_concurrent` slot.
    pub fn finish(&self, tenant: &TenantId) {
        let mut st = self.state.lock();
        let t = st.tenant_mut(tenant);
        t.running = t.running.saturating_sub(1);
        drop(st);
        self.wake.notify_all();
    }

    /// Close the queue: no further pushes are admitted; poppers drain the
    /// backlog (ignoring caps) and then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Items currently queued for `tenant` (0 if unknown).
    pub fn queued(&self, tenant: &TenantId) -> usize {
        let st = self.state.lock();
        st.index
            .get(tenant)
            .map_or(0, |&i| st.tenants[i].queue.len())
    }

    /// Items currently queued across all tenants.
    pub fn total_queued(&self) -> usize {
        let st = self.state.lock();
        st.tenants.iter().map(|t| t.queue.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Per-tenant metrics rollup
// ---------------------------------------------------------------------------

/// Point-in-time per-tenant serving counters, rolled up from the cluster
/// metrics registry (`tenant.<name>.*` instruments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMetrics {
    /// Tenant name.
    pub tenant: String,
    /// Queries accepted into the tenant's queue.
    pub submitted: u64,
    /// Queries that produced a result.
    pub completed: u64,
    /// Queries that failed for a non-cancellation reason.
    pub failed: u64,
    /// Queries resolved as cancelled or deadline-exceeded.
    pub cancelled: u64,
    /// Submissions rejected at admission (`max_queued` cap).
    pub rejected: u64,
    /// Network bytes shuffled by the tenant's completed queries.
    pub bytes_shuffled: u64,
    /// Network messages sent by the tenant's completed queries.
    pub messages_sent: u64,
}

// ---------------------------------------------------------------------------
// Open-loop arrival processes
// ---------------------------------------------------------------------------

/// How the open-loop driver spaces query arrivals at a fixed offered
/// load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps (memoryless): the classic open-loop
    /// model where bursts contend for the dispatcher.
    Poisson,
    /// One arrival every `1/λ`: isolates queueing from burstiness.
    Uniform,
}

impl ArrivalProcess {
    /// Parse `poisson` / `uniform`.
    pub fn parse(s: &str) -> Result<Self, EngineError> {
        match s {
            "poisson" => Ok(ArrivalProcess::Poisson),
            "uniform" => Ok(ArrivalProcess::Uniform),
            other => Err(EngineError::Config(format!(
                "unknown arrival process {other:?} (expected poisson | uniform)"
            ))),
        }
    }

    /// Deterministic arrival offsets (from window start) for an offered
    /// load of `rate_per_hour` queries/hour over `duration`.
    ///
    /// Poisson draws exponential gaps from a seeded generator so a run is
    /// reproducible; uniform spaces arrivals exactly `1/λ` apart.
    pub fn offsets(self, rate_per_hour: f64, duration: Duration, seed: u64) -> Vec<Duration> {
        assert!(
            rate_per_hour.is_finite() && rate_per_hour > 0.0,
            "offered load must be positive"
        );
        let mean_gap = 3600.0 / rate_per_hour; // seconds
        let horizon = duration.as_secs_f64();
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let gap = match self {
                ArrivalProcess::Uniform => mean_gap,
                ArrivalProcess::Poisson => {
                    // Inverse-CDF exponential sample; 1-u ∈ (0, 1] so the
                    // log argument never hits zero.
                    let u = rand::distr::unit_f64(&mut rng);
                    -(1.0f64 - u).ln() * mean_gap
                }
            };
            t += gap;
            if t >= horizon {
                return out;
            }
            out.push(Duration::from_secs_f64(t));
        }
    }
}

/// Parse an `--tenants name:weight[,name:weight...]` spec into tenant
/// configs (weights must be ≥ 1).
pub fn parse_tenant_spec(spec: &str) -> Result<Vec<(String, TenantConfig)>, EngineError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, weight) = match part.split_once(':') {
            Some((name, w)) => {
                let weight: u32 = w.trim().parse().map_err(|_| {
                    EngineError::Config(format!("invalid tenant weight in {part:?}"))
                })?;
                (name.trim(), weight)
            }
            None => (part, 1),
        };
        if name.is_empty() {
            return Err(EngineError::Config(format!(
                "empty tenant name in {spec:?}"
            )));
        }
        let cfg = TenantConfig::weighted(weight);
        cfg.validate(name)?;
        out.push((name.to_string(), cfg));
    }
    if out.is_empty() {
        return Err(EngineError::Config(
            "--tenants must name at least one tenant".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn drain_order(queue: &WdrrQueue<u32>, n: usize) -> Vec<(String, u32)> {
        (0..n)
            .map(|_| {
                let (t, v) = queue.pop().expect("queue should not be drained yet");
                queue.finish(&t);
                (t.as_str().to_string(), v)
            })
            .collect()
    }

    #[test]
    fn wdrr_serves_in_weight_proportion() {
        let queue = WdrrQueue::new(&[
            ("gold".into(), TenantConfig::weighted(3)),
            ("silver".into(), TenantConfig::weighted(1)),
        ]);
        let gold = TenantId::new("gold");
        let silver = TenantId::new("silver");
        for i in 0..8 {
            queue.push(&gold, i).unwrap();
            queue.push(&silver, 100 + i).unwrap();
        }
        // First 8 pops: gold gets its 3-credit rounds, silver 1 each → 6:2.
        let first = drain_order(&queue, 8);
        let gold_served = first.iter().filter(|(t, _)| t == "gold").count();
        assert_eq!(gold_served, 6, "3:1 weights must serve 6 gold of first 8");
        // Both FIFOs preserve per-tenant order.
        let gold_vals: Vec<u32> = first
            .iter()
            .filter(|(t, _)| t == "gold")
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(gold_vals, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn wdrr_idle_tenant_does_not_bank_credit() {
        let queue = WdrrQueue::new(&[
            ("a".into(), TenantConfig::weighted(4)),
            ("b".into(), TenantConfig::weighted(1)),
        ]);
        let a = TenantId::new("a");
        let b = TenantId::new("b");
        // Only b is backlogged for a while; a must not accumulate rounds
        // of credit it can spend later to monopolize the queue.
        for i in 0..5 {
            queue.push(&b, i).unwrap();
        }
        let only_b = drain_order(&queue, 5);
        assert!(only_b.iter().all(|(t, _)| t == "b"));
        for i in 0..4 {
            queue.push(&a, i).unwrap();
            queue.push(&b, 100 + i).unwrap();
        }
        let mixed = drain_order(&queue, 5);
        let b_served = mixed.iter().filter(|(t, _)| t == "b").count();
        assert!(
            b_served >= 1,
            "b must still be served within a's first round: {mixed:?}"
        );
    }

    #[test]
    fn wdrr_rejects_over_max_queued_and_respects_max_concurrent() {
        let queue = WdrrQueue::new(&[(
            "t".into(),
            TenantConfig {
                weight: 1,
                max_queued: Some(2),
                max_concurrent: Some(1),
            },
        )]);
        let t = TenantId::new("t");
        queue.push(&t, 1).unwrap();
        queue.push(&t, 2).unwrap();
        let err = queue.push(&t, 3).unwrap_err();
        assert!(
            matches!(err, EngineError::Admission(ref m) if m.contains("max_queued")),
            "expected Admission, got {err:?}"
        );

        // One item runs; the second must wait for finish() despite being
        // queued, because max_concurrent = 1.
        let (tid, v) = queue.pop().unwrap();
        assert_eq!(v, 1);
        let got_second = Arc::new(AtomicUsize::new(0));
        let queue = Arc::new(queue);
        let waiter = {
            let queue = Arc::clone(&queue);
            let got = Arc::clone(&got_second);
            std::thread::spawn(move || {
                let (tid, v) = queue.pop().unwrap();
                got.store(v as usize, Ordering::SeqCst);
                queue.finish(&tid);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            got_second.load(Ordering::SeqCst),
            0,
            "second item ran before the first finished"
        );
        queue.finish(&tid);
        waiter.join().unwrap();
        assert_eq!(got_second.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wdrr_close_drains_backlog_then_returns_none() {
        let queue = WdrrQueue::new(&[(
            "t".into(),
            TenantConfig {
                weight: 1,
                max_queued: None,
                max_concurrent: Some(1),
            },
        )]);
        let t = TenantId::new("t");
        for i in 0..3 {
            queue.push(&t, i).unwrap();
        }
        queue.close();
        assert!(matches!(
            queue.push(&t, 9).unwrap_err(),
            EngineError::ClusterDown
        ));
        // Caps are ignored after close: all three drain without finish().
        let mut drained = Vec::new();
        while let Some((_, v)) = queue.pop() {
            drained.push(v);
        }
        assert_eq!(drained, vec![0, 1, 2]);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn wdrr_unknown_tenant_self_registers() {
        let queue: WdrrQueue<u32> = WdrrQueue::new(&[]);
        let t = TenantId::new("walk-in");
        queue.push(&t, 7).unwrap();
        assert_eq!(queue.queued(&t), 1);
        assert_eq!(queue.config_of(&t), Some(TenantConfig::default()));
        let (tid, v) = queue.pop().unwrap();
        assert_eq!((tid.as_str(), v), ("walk-in", 7));
        queue.finish(&tid);
    }

    #[test]
    fn cancel_token_trips_once_with_first_reason() {
        let token = CancelToken::new();
        assert!(token.should_stop().is_none());
        token.cancel();
        assert_eq!(token.should_stop(), Some(StopReason::Cancelled));
        assert_eq!(token.stop_reason(), Some(StopReason::Cancelled));

        let deadline = CancelToken::with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(deadline.should_stop(), Some(StopReason::DeadlineExceeded));
        // A later cancel() does not rewrite the reason.
        deadline.cancel();
        assert_eq!(deadline.stop_reason(), Some(StopReason::DeadlineExceeded));

        let future = CancelToken::with_deadline(Some(Instant::now() + Duration::from_secs(3600)));
        assert!(future.should_stop().is_none());
    }

    #[test]
    fn cancel_token_child_shares_tripwire() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
        // Child deadline trips the shared state; parent observes it.
        assert_eq!(child.should_stop(), Some(StopReason::DeadlineExceeded));
        assert_eq!(parent.stop_reason(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn arrival_offsets_match_offered_load() {
        // 3600 q/h over 2 s → mean gap 1 s → exactly 1 uniform arrival
        // (at t=1) inside [0, 2).
        let uniform = ArrivalProcess::Uniform.offsets(3600.0, Duration::from_secs(2), 1);
        assert_eq!(uniform.len(), 1);
        assert_eq!(uniform[0], Duration::from_secs(1));

        // Poisson at high rate: deterministic per seed, roughly λ·T
        // arrivals, strictly increasing offsets within the window.
        let a = ArrivalProcess::Poisson.offsets(360_000.0, Duration::from_secs(2), 42);
        let b = ArrivalProcess::Poisson.offsets(360_000.0, Duration::from_secs(2), 42);
        assert_eq!(a, b);
        assert!(a.len() > 100 && a.len() < 300, "got {}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs(2));
    }

    #[test]
    fn tenant_spec_parses_and_validates() {
        let spec = parse_tenant_spec("gold:4, silver:1,bare").unwrap();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec[0].0, "gold");
        assert_eq!(spec[0].1.weight, 4);
        assert_eq!(spec[2].1.weight, 1);
        assert!(parse_tenant_spec("gold:0").is_err());
        assert!(parse_tenant_spec("gold:x").is_err());
        assert!(parse_tenant_spec("").is_err());
        assert!(TenantConfig {
            weight: 1,
            max_queued: Some(0),
            max_concurrent: None
        }
        .validate("t")
        .is_err());
    }
}
