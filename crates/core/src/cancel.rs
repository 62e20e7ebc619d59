//! Cooperative cancellation and wall-clock deadlines.
//!
//! Cycle budgets bound a run in *simulated* time; a wedged host, an
//! oversubscribed CI box, or a campaign-level time budget need a bound
//! in *wall-clock* time as well. [`CancelToken`] is the cooperative
//! primitive for that: a shared cancellation flag plus an optional
//! deadline, checked by the FAME measure loop between simulation chunks
//! (never inside a cycle), so an expired token stops a run at a clean
//! boundary and the caller can still emit a valid partial report.
//!
//! Tokens are hierarchical by sharing: [`CancelToken::child_with_budget`]
//! derives a per-cell token that observes the parent's cancellation flag
//! while carrying its own (tighter) deadline — cancelling the parent
//! expires every child, but a child's deadline never cancels siblings.
//!
//! Deadlines make results wall-clock-dependent by design, so tokens are
//! strictly opt-in: runs without one are bit-reproducible exactly as
//! before.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation/deadline token.
///
/// Cloning shares the cancellation flag (all clones expire together when
/// [`CancelToken::cancel`] fires) and copies the deadline.
#[derive(Debug, Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline: expires only when explicitly cancelled.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// A token that expires `budget` of wall-clock time from now (or when
    /// cancelled, whichever comes first).
    #[must_use]
    pub fn with_budget(budget: Duration) -> CancelToken {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// A child token sharing this token's cancellation flag, with its own
    /// deadline `budget` from now — clamped to the parent's deadline, so
    /// a child can only be *stricter* than its parent.
    #[must_use]
    pub fn child_with_budget(&self, budget: Duration) -> CancelToken {
        let child_deadline = Instant::now().checked_add(budget);
        CancelToken {
            cancelled: Arc::clone(&self.cancelled),
            deadline: match (self.deadline, child_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Fires the cancellation flag: this token and every clone/child
    /// sharing the flag expire immediately and permanently.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has fired (deadline not consulted).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Whether the token has expired: cancelled, or past its deadline.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.expired());
    }

    #[test]
    fn cancel_expires_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.expired());
    }

    #[test]
    fn zero_budget_expires_immediately_without_cancelling() {
        let t = CancelToken::with_budget(Duration::ZERO);
        assert!(t.expired());
        assert!(!t.is_cancelled(), "deadline expiry is not cancellation");
    }

    #[test]
    fn generous_budget_stays_live() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!t.expired());
    }

    #[test]
    fn child_shares_parent_flag_but_not_its_deadline() {
        let parent = CancelToken::new();
        let child = parent.child_with_budget(Duration::ZERO);
        assert!(child.expired(), "child deadline applies to the child");
        assert!(!parent.expired(), "child deadline never expires the parent");
        parent.cancel();
        assert!(
            child.is_cancelled(),
            "parent cancellation reaches the child"
        );
    }

    #[test]
    fn child_deadline_clamps_to_parent() {
        let parent = CancelToken::with_budget(Duration::ZERO);
        let child = parent.child_with_budget(Duration::from_secs(3600));
        assert!(
            child.expired(),
            "child cannot outlive its parent's deadline"
        );
    }
}
