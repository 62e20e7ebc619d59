//! Typed simulator errors and the watchdog's diagnostic snapshot.
//!
//! A cycle-level model of shared-resource arbitration can livelock in
//! ways a functional simulator cannot: a saturated load-miss queue, a
//! balancer cap that never releases, a priority write that switches
//! both contexts off. Every such condition must surface as a typed
//! error carrying enough microarchitectural state to name the stuck
//! resource, never as a hang or a bare panic.

use p5_isa::ThreadId;
use std::error::Error;
use std::fmt;

/// The shared pipeline resource a stalled core is wedged on, as
/// inferred from occupancies at the moment the watchdog tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckResource {
    /// The load-miss queue is saturated (or has zero entries, so
    /// beyond-L1 misses can never issue at all).
    LoadMissQueue,
    /// The global completion table is full and no group completes.
    GlobalCompletionTable,
    /// The dynamic resource balancer is gating decode indefinitely.
    Balancer,
    /// An issue queue is full of instructions that never become ready.
    IssueQueue,
    /// A branch redirect never resolved.
    BranchRedirect,
    /// No context has a program loaded (or priorities switch both off).
    NoActiveThread,
    /// No single culprit stands out; the snapshot carries the raw state.
    Unknown,
}

impl StuckResource {
    /// Short lower-case name used in diagnostics ("lmq", "gct", ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StuckResource::LoadMissQueue => "lmq",
            StuckResource::GlobalCompletionTable => "gct",
            StuckResource::Balancer => "balancer",
            StuckResource::IssueQueue => "issue-queue",
            StuckResource::BranchRedirect => "branch-redirect",
            StuckResource::NoActiveThread => "no-active-thread",
            StuckResource::Unknown => "unknown",
        }
    }
}

impl fmt::Display for StuckResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-thread slice of a [`DiagnosticSnapshot`]: the decode-slot ledger
/// and blocking counters for one hardware context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDiag {
    /// Whether a program is loaded on this context.
    pub active: bool,
    /// Software-controlled priority level (0-7).
    pub priority_level: u8,
    /// Instructions committed since the last stats reset.
    pub committed: u64,
    /// Instructions decoded since the last stats reset.
    pub decoded: u64,
    /// Decode cycles granted to this context by the priority policy.
    pub decode_cycles_granted: u64,
    /// Granted decode cycles in which at least one instruction decoded.
    pub decode_cycles_used: u64,
    /// Decode cycles lost to branch-redirect stalls.
    pub blocked_branch: u64,
    /// Decode cycles lost to a full GCT.
    pub blocked_gct: u64,
    /// Decode cycles lost to a full issue queue.
    pub blocked_queue: u64,
    /// Decode cycles lost to the dynamic resource balancer.
    pub blocked_balancer: u64,
    /// Dispatch groups this context currently holds in the GCT.
    pub gct_groups: usize,
    /// Outstanding beyond-L1 misses this context holds in the LMQ.
    pub lmq_outstanding: usize,
    /// Whether a branch redirect is pending on this context.
    pub redirect_pending: bool,
}

/// Everything the watchdog saw when it declared a forward-progress
/// stall: the decode-slot ledger per thread, shared-structure
/// occupancies, balancer state, and the inferred culprit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosticSnapshot {
    /// Absolute cycle at which the watchdog tripped.
    pub cycle: u64,
    /// Cycles since the last group committed on any active thread.
    pub stalled_for: u64,
    /// Per-context state, indexed by [`ThreadId::index`].
    pub threads: [ThreadDiag; 2],
    /// Groups currently in the GCT (both threads).
    pub gct_occupancy: usize,
    /// GCT capacity.
    pub gct_entries: usize,
    /// Entries currently in the load-miss queue.
    pub lmq_occupancy: usize,
    /// Load-miss-queue capacity.
    pub lmq_entries: usize,
    /// Instructions waiting across all four issue queues.
    pub issue_queue_occupancy: usize,
    /// Whether the dynamic resource balancer is enabled.
    pub balancer_enabled: bool,
    /// The resource the stall is attributed to.
    pub culprit: StuckResource,
}

impl DiagnosticSnapshot {
    /// Per-thread slice for `thread`.
    #[must_use]
    pub fn thread(&self, thread: ThreadId) -> &ThreadDiag {
        &self.threads[thread.index()]
    }
}

impl fmt::Display for DiagnosticSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "forward-progress stall at cycle {} ({} cycles without a commit); culprit: {}",
            self.cycle, self.stalled_for, self.culprit
        )?;
        writeln!(
            f,
            "  gct {}/{}  lmq {}/{}  issue-queues {}  balancer {}",
            self.gct_occupancy,
            self.gct_entries,
            self.lmq_occupancy,
            self.lmq_entries,
            self.issue_queue_occupancy,
            if self.balancer_enabled { "on" } else { "off" },
        )?;
        for tid in ThreadId::ALL {
            let t = self.thread(tid);
            if !t.active {
                writeln!(f, "  {tid:?}: inactive")?;
                continue;
            }
            writeln!(
                f,
                "  {tid:?}: prio {} committed {} decoded {} grants {} used {} \
                 blocked[branch {} gct {} queue {} balancer {}] \
                 gct-groups {} lmq {} redirect {}",
                t.priority_level,
                t.committed,
                t.decoded,
                t.decode_cycles_granted,
                t.decode_cycles_used,
                t.blocked_branch,
                t.blocked_gct,
                t.blocked_queue,
                t.blocked_balancer,
                t.gct_groups,
                t.lmq_outstanding,
                t.redirect_pending,
            )?;
        }
        Ok(())
    }
}

/// Typed simulator error: every abnormal end of a run is one of these,
/// never a panic and never a silent truncation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No group committed on any active thread for the configured
    /// watchdog window; the snapshot names the saturated resource.
    ForwardProgressStall {
        /// State at the moment the watchdog tripped.
        snapshot: Box<DiagnosticSnapshot>,
    },
    /// The cycle budget ran out before every active thread reached its
    /// repetition target (the run was progressing, just slowly).
    BudgetExhausted {
        /// The budget that was exhausted.
        cycle_budget: u64,
        /// Repetitions each thread had completed when the budget ran out.
        repetitions: [usize; 2],
        /// The repetition target each thread was asked to reach.
        target: [usize; 2],
    },
    /// A configuration parameter is structurally invalid.
    InvalidConfig {
        /// The offending parameter.
        field: &'static str,
        /// Why it is invalid.
        message: String,
    },
    /// A deliberately injected fault was the proximate cause of failure
    /// (reported by the fault harness when it can attribute the error).
    InjectedFault {
        /// Cycle at which the fault fired.
        cycle: u64,
        /// Human-readable description of the injected fault.
        description: String,
    },
    /// The run needed an active thread but none was loaded.
    NoActiveThread,
    /// A cooperative wall-clock deadline (see `CancelToken`) expired
    /// before the run finished. Not retryable: a retry under the same
    /// expired token fails identically, and under a campaign time budget
    /// it would double-spend wall-clock the budget no longer has.
    Deadline {
        /// Which phase the token expired in (`"warmup"`, `"measure"`,
        /// or `"campaign"` for cells skipped before starting).
        phase: &'static str,
    },
    /// The worker simulating a cell panicked; the panic was caught at
    /// the cell boundary and converted into this error instead of
    /// aborting the campaign.
    CellPanic {
        /// The panic payload's message.
        message: String,
    },
    /// A result replayed from a durable journal. The original error's
    /// rendered text is carried verbatim so replayed degradation
    /// annotations are byte-identical to the originals.
    Replayed {
        /// The original error text.
        cause: String,
    },
}

impl SimError {
    /// The watchdog snapshot, if this error carries one.
    #[must_use]
    pub fn snapshot(&self) -> Option<&DiagnosticSnapshot> {
        match self {
            SimError::ForwardProgressStall { snapshot } => Some(snapshot),
            _ => None,
        }
    }

    /// Whether escalating the cycle budget and retrying could plausibly
    /// turn this failure into a completion.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SimError::BudgetExhausted { .. } | SimError::ForwardProgressStall { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ForwardProgressStall { snapshot } => write!(f, "{snapshot}"),
            SimError::BudgetExhausted {
                cycle_budget,
                repetitions,
                target,
            } => write!(
                f,
                "cycle budget of {cycle_budget} exhausted at repetitions \
                 [{}/{}, {}/{}]",
                repetitions[0], target[0], repetitions[1], target[1],
            ),
            SimError::InvalidConfig { field, message } => {
                write!(f, "invalid config `{field}`: {message}")
            }
            SimError::InjectedFault { cycle, description } => {
                write!(f, "injected fault at cycle {cycle}: {description}")
            }
            SimError::NoActiveThread => write!(f, "no active thread loaded"),
            SimError::Deadline { phase } => {
                write!(f, "wall-clock deadline exceeded during {phase}")
            }
            SimError::CellPanic { message } => {
                write!(f, "cell panicked: {message}")
            }
            SimError::Replayed { cause } => f.write_str(cause),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> DiagnosticSnapshot {
        let t = ThreadDiag {
            active: true,
            priority_level: 4,
            committed: 100,
            decoded: 200,
            decode_cycles_granted: 500,
            decode_cycles_used: 40,
            blocked_branch: 0,
            blocked_gct: 0,
            blocked_queue: 460,
            blocked_balancer: 0,
            gct_groups: 1,
            lmq_outstanding: 0,
            redirect_pending: false,
        };
        DiagnosticSnapshot {
            cycle: 123_456,
            stalled_for: 100_000,
            threads: [t.clone(), t],
            gct_occupancy: 2,
            gct_entries: 20,
            lmq_occupancy: 0,
            lmq_entries: 0,
            issue_queue_occupancy: 24,
            balancer_enabled: true,
            culprit: StuckResource::LoadMissQueue,
        }
    }

    #[test]
    fn display_names_the_culprit() {
        let e = SimError::ForwardProgressStall {
            snapshot: Box::new(snapshot()),
        };
        let msg = e.to_string();
        assert!(msg.contains("culprit: lmq"), "message was: {msg}");
        assert!(msg.contains("100000 cycles without a commit"));
    }

    #[test]
    fn retryability() {
        assert!(SimError::BudgetExhausted {
            cycle_budget: 1,
            repetitions: [0, 0],
            target: [1, 0],
        }
        .is_retryable());
        assert!(!SimError::NoActiveThread.is_retryable());
        assert!(!SimError::InvalidConfig {
            field: "decode_width",
            message: "must be nonzero".into(),
        }
        .is_retryable());
        assert!(
            !SimError::Deadline { phase: "measure" }.is_retryable(),
            "retrying after a deadline would double-spend the time budget"
        );
        assert!(!SimError::CellPanic {
            message: "boom".into()
        }
        .is_retryable());
    }

    #[test]
    fn replayed_error_renders_its_cause_verbatim() {
        let original = SimError::Deadline { phase: "warmup" };
        let replayed = SimError::Replayed {
            cause: original.to_string(),
        };
        assert_eq!(
            replayed.to_string(),
            original.to_string(),
            "journal round-trips must preserve degradation text exactly"
        );
    }

    #[test]
    fn snapshot_accessor() {
        let e = SimError::ForwardProgressStall {
            snapshot: Box::new(snapshot()),
        };
        assert_eq!(e.snapshot().unwrap().culprit, StuckResource::LoadMissQueue);
        assert!(SimError::NoActiveThread.snapshot().is_none());
    }
}
