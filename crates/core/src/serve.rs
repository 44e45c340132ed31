//! Serving-side policy objects: per-submission options and cooperative
//! cancellation.
//!
//! - [`SubmitOptions`] carries a query's optional deadline to
//!   [`Coordinator::submit_with`](crate::coordinator::Coordinator::submit_with).
//! - [`CancelToken`] is the shared cooperative-cancellation flag checked
//!   at **morsel** granularity inside `NodeExec` operator loops and at
//!   exchange waits, carrying an optional deadline so per-query timeouts
//!   land within one morsel rather than one stage.
//!
//! Admission is the coordinator's: one FIFO drained by `max_concurrent`
//! dispatchers and capped at `max_queued` waiting queries.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::EngineError;

/// Per-submission serving options: an optional deadline after which the
/// query is cooperatively cancelled.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Relative deadline: once elapsed the query stops within one morsel
    /// and resolves to [`EngineError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Attach a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
