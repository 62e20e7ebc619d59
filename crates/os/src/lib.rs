//! # p5-os
//!
//! The software layer of the POWER5 priority reproduction: privilege
//! enforcement, the Linux 2.6.23 priority behaviours the paper describes,
//! and the paper's non-intrusive kernel patch (Section 4.3).
//!
//! The paper observes that a stock Linux kernel
//!
//! * lets user code set only priorities 2, 3 and 4 (the rest require
//!   supervisor or hypervisor privilege — Table 1);
//! * itself lowers a context's priority in three cases: spinning on a
//!   kernel lock, waiting for a cross-CPU operation, and running the idle
//!   thread (eventually switching the core to single-thread mode);
//! * resets the thread priority to MEDIUM (4) on *every* kernel entry
//!   (interrupt, exception, system call), because it does not track the
//!   current priority — which would silently destroy any experiment that
//!   sets priorities and expects them to persist.
//!
//! The paper's kernel patch therefore (a) exposes priorities 1–6 to user
//! space through a `/sys` pseudo-file interface, (b) removes the kernel's
//! own priority fiddling, and (c) stops the reset-on-interrupt behaviour.
//! [`Kernel`] models both the vanilla and the patched kernel; the
//! experiment harness uses the patched mode exactly as the authors did.
//!
//! # Example
//!
//! ```
//! use p5_core::{CoreConfig, SmtCore};
//! use p5_isa::{Op, Priority, Program, StaticInst, ThreadId};
//! use p5_os::{Kernel, KernelMode, OsError};
//!
//! let mut b = Program::builder("toy");
//! b.push(StaticInst::new(Op::IntAlu));
//! b.iterations(100);
//! let prog = b.build()?;
//!
//! let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
//! core.load_program(ThreadId::T0, prog.clone());
//! core.load_program(ThreadId::T1, prog);
//!
//! let mut kernel = Kernel::new(core, KernelMode::Vanilla);
//! // Vanilla kernel: user space cannot set priority 6...
//! assert_eq!(
//!     kernel.set_user_priority(ThreadId::T0, Priority::High),
//!     Err(OsError::InsufficientPrivilege { requested: Priority::High })
//! );
//! // ...but the patched kernel exposes 1-6.
//! let mut kernel = kernel.into_mode(KernelMode::Patched);
//! kernel.set_user_priority(ThreadId::T0, Priority::High)?;
//! assert_eq!(kernel.core().priority(ThreadId::T0), Priority::High);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use p5_core::{SimError, SmtCore};
use p5_isa::{Priority, PrivilegeLevel, ThreadId};
use std::fmt;

/// Errors returned by the software priority interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// The caller's privilege does not allow the requested priority; on
    /// real hardware the or-nop is "simply treated as a nop".
    InsufficientPrivilege {
        /// The priority that was requested.
        requested: Priority,
    },
    /// A `/sys` write addressed a path that does not exist.
    InvalidPath,
    /// A `/sys` write carried a value that is not a priority level.
    InvalidValue,
    /// A timer-interrupt interval of zero cycles was requested.
    InvalidTimerInterval,
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::InsufficientPrivilege { requested } => {
                write!(f, "insufficient privilege to set priority {requested}")
            }
            OsError::InvalidPath => write!(f, "no such sysfs attribute"),
            OsError::InvalidValue => write!(f, "value is not a priority level (0-7)"),
            OsError::InvalidTimerInterval => {
                write!(f, "timer interval must be a nonzero cycle count")
            }
        }
    }
}

impl std::error::Error for OsError {}

/// Which kernel is running: the stock one or the paper's patched one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Stock Linux 2.6.23 behaviour: user space limited to priorities
    /// 2–4, kernel lowers priorities when spinning/idle, and resets every
    /// context to MEDIUM at each kernel entry.
    Vanilla,
    /// The paper's experimental kernel: priorities 1–6 available to user
    /// space via `/sys`, no kernel-initiated priority changes, no reset
    /// on interrupt.
    Patched,
}

/// Statistics of kernel-initiated priority activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Timer interrupts delivered.
    pub timer_interrupts: u64,
    /// Priority resets performed on kernel entry (vanilla only).
    pub priority_resets: u64,
    /// Successful software priority changes.
    pub priority_writes: u64,
}

/// The simulated operating-system layer wrapping one [`SmtCore`].
///
/// Owns the core; the experiment harness drives time through
/// [`Kernel::run_cycles`] so kernel entries (timer interrupts) can take
/// effect at the right moments.
#[derive(Debug)]
pub struct Kernel {
    core: SmtCore,
    mode: KernelMode,
    /// Cycles between timer interrupts (kernel entries).
    timer_interval: u64,
    cycles_to_timer: u64,
    stats: KernelStats,
}

impl Kernel {
    /// Default timer-interrupt interval: 250 Hz on a ~1.5 GHz POWER5 is an
    /// interrupt every ~6M cycles; scaled down to simulator horizons.
    pub const DEFAULT_TIMER_INTERVAL: u64 = 1_000_000;

    /// Wraps a core.
    #[must_use]
    pub fn new(core: SmtCore, mode: KernelMode) -> Kernel {
        Kernel {
            core,
            mode,
            timer_interval: Kernel::DEFAULT_TIMER_INTERVAL,
            cycles_to_timer: Kernel::DEFAULT_TIMER_INTERVAL,
            stats: KernelStats::default(),
        }
    }

    /// Rebuilds the kernel in a different mode (state and core preserved).
    #[must_use]
    pub fn into_mode(self, mode: KernelMode) -> Kernel {
        Kernel { mode, ..self }
    }

    /// Sets the timer-interrupt interval in cycles.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidTimerInterval`] if `interval` is zero (the
    /// kernel would field interrupts forever without running anything).
    pub fn set_timer_interval(&mut self, interval: u64) -> Result<(), OsError> {
        if interval == 0 {
            return Err(OsError::InvalidTimerInterval);
        }
        self.timer_interval = interval;
        self.cycles_to_timer = self.cycles_to_timer.min(interval);
        Ok(())
    }

    /// The kernel mode in force.
    #[must_use]
    pub fn mode(&self) -> KernelMode {
        self.mode
    }

    /// The wrapped core.
    #[must_use]
    pub fn core(&self) -> &SmtCore {
        &self.core
    }

    /// Mutable access to the wrapped core (for loading programs).
    pub fn core_mut(&mut self) -> &mut SmtCore {
        &mut self.core
    }

    /// Consumes the kernel and returns the core.
    #[must_use]
    pub fn into_core(self) -> SmtCore {
        self.core
    }

    /// Kernel-activity statistics.
    #[must_use]
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The privilege level user-space priority writes are checked
    /// against: the patch "makes priority 1 to 6 available to the user",
    /// i.e. user writes act with supervisor rights.
    #[must_use]
    pub fn user_privilege(&self) -> PrivilegeLevel {
        match self.mode {
            KernelMode::Vanilla => PrivilegeLevel::User,
            KernelMode::Patched => PrivilegeLevel::Supervisor,
        }
    }

    fn set_priority_checked(
        &mut self,
        thread: ThreadId,
        priority: Priority,
        privilege: PrivilegeLevel,
    ) -> Result<(), OsError> {
        if !priority.settable_by(privilege) {
            return Err(OsError::InsufficientPrivilege {
                requested: priority,
            });
        }
        self.core.set_priority(thread, priority);
        self.stats.priority_writes += 1;
        Ok(())
    }

    /// A user-space priority request (the `/sys` interface or a user-mode
    /// or-nop).
    ///
    /// # Errors
    ///
    /// [`OsError::InsufficientPrivilege`] if the mode's user privilege
    /// does not cover `priority`.
    pub fn set_user_priority(
        &mut self,
        thread: ThreadId,
        priority: Priority,
    ) -> Result<(), OsError> {
        let privilege = self.user_privilege();
        self.set_priority_checked(thread, priority, privilege)
    }

    /// A kernel-mode (supervisor) priority request.
    ///
    /// # Errors
    ///
    /// [`OsError::InsufficientPrivilege`] for priorities 0 and 7, which
    /// need the hypervisor.
    pub fn set_supervisor_priority(
        &mut self,
        thread: ThreadId,
        priority: Priority,
    ) -> Result<(), OsError> {
        self.set_priority_checked(thread, priority, PrivilegeLevel::Supervisor)
    }

    /// A hypervisor-call priority request (any priority, including 0 and
    /// 7).
    ///
    /// # Errors
    ///
    /// Never fails today — the hypervisor may set any priority — but the
    /// `Result` keeps the signature uniform with the other setters and
    /// leaves room for hypervisor-level policy.
    pub fn set_hypervisor_priority(
        &mut self,
        thread: ThreadId,
        priority: Priority,
    ) -> Result<(), OsError> {
        self.set_priority_checked(thread, priority, PrivilegeLevel::Hypervisor)
    }

    /// Kernel behaviour when a context spins on a lock: "the priority of
    /// the spinning process is reduced" (vanilla only; the patch removes
    /// kernel-initiated changes).
    pub fn enter_spin_wait(&mut self, thread: ThreadId) {
        if self.mode == KernelMode::Vanilla {
            self.core.set_priority(thread, Priority::VeryLow);
        }
    }

    /// Kernel behaviour when the spinning context acquires the lock: the
    /// priority returns to MEDIUM.
    pub fn exit_spin_wait(&mut self, thread: ThreadId) {
        if self.mode == KernelMode::Vanilla {
            self.core.set_priority(thread, Priority::Medium);
        }
    }

    /// Kernel behaviour when a context runs the idle loop: priority is
    /// reduced, and with both contexts idle the core would move toward
    /// single-thread / low-power operation.
    pub fn enter_idle(&mut self, thread: ThreadId) {
        if self.mode == KernelMode::Vanilla {
            self.core.set_priority(thread, Priority::VeryLow);
        }
    }

    /// A kernel entry (interrupt, exception or system call) on the
    /// vanilla kernel resets the context's priority to MEDIUM, "since the
    /// kernel does not keep track of the actual priority".
    pub fn kernel_entry(&mut self, thread: ThreadId) {
        if self.mode == KernelMode::Vanilla && self.core.priority(thread) != Priority::Medium {
            self.core.set_priority(thread, Priority::Medium);
            self.stats.priority_resets += 1;
        }
    }

    /// Advances the simulation by `n` cycles, delivering timer interrupts
    /// (kernel entries on both contexts) at the configured interval.
    pub fn run_cycles(&mut self, mut n: u64) {
        while n > 0 {
            let chunk = n.min(self.cycles_to_timer);
            self.core.run_cycles(chunk);
            n -= chunk;
            self.cycles_to_timer -= chunk;
            if self.cycles_to_timer == 0 {
                self.deliver_timer_interrupt();
            }
        }
    }

    /// Advances the simulation by `n` cycles like [`Kernel::run_cycles`],
    /// but under the core's forward-progress watchdog: a wedged core
    /// surfaces its diagnostic snapshot instead of burning the rest of
    /// the span. Stall time accumulates across timer chunks, so the
    /// watchdog window may be longer than the timer interval.
    ///
    /// # Errors
    ///
    /// [`SimError::ForwardProgressStall`] naming the saturated resource.
    pub fn try_run_cycles(&mut self, mut n: u64) -> Result<(), SimError> {
        while n > 0 {
            let chunk = n.min(self.cycles_to_timer);
            self.core.try_run_cycles(chunk)?;
            n -= chunk;
            self.cycles_to_timer -= chunk;
            if self.cycles_to_timer == 0 {
                self.deliver_timer_interrupt();
            }
        }
        Ok(())
    }

    fn deliver_timer_interrupt(&mut self) {
        self.stats.timer_interrupts += 1;
        if let Some(pmu) = self.core.pmu_mut() {
            pmu.record_instant(None, p5_pmu::PmuEventKind::TimerInterrupt);
        }
        for t in ThreadId::ALL {
            self.kernel_entry(t);
        }
        self.cycles_to_timer = self.timer_interval;
    }
}

/// A node of the `/sys` pseudo-file tree the paper's patch exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysfsNode {
    /// `thread<N>/priority` — the software priority of context N.
    ThreadPriority(ThreadId),
    /// `timer/interval_cycles` — the timer-interrupt interval.
    TimerInterval,
}

impl SysfsNode {
    /// Every node of the tree (for exhaustive round-trip tests).
    pub const ALL: [SysfsNode; 3] = [
        SysfsNode::ThreadPriority(ThreadId::T0),
        SysfsNode::ThreadPriority(ThreadId::T1),
        SysfsNode::TimerInterval,
    ];

    /// The node's path below the sysfs mount point.
    #[must_use]
    pub fn path(self) -> String {
        match self {
            SysfsNode::ThreadPriority(t) => format!("thread{}/priority", t.index()),
            SysfsNode::TimerInterval => "timer/interval_cycles".to_string(),
        }
    }

    /// Parses a path into its node.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidPath`] if no node has this path.
    pub fn parse(path: &str) -> Result<SysfsNode, OsError> {
        match path {
            "thread0/priority" => Ok(SysfsNode::ThreadPriority(ThreadId::T0)),
            "thread1/priority" => Ok(SysfsNode::ThreadPriority(ThreadId::T1)),
            "timer/interval_cycles" => Ok(SysfsNode::TimerInterval),
            _ => Err(OsError::InvalidPath),
        }
    }
}

impl fmt::Display for SysfsNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.path())
    }
}

/// A typed, validated write against the sysfs tree — what a string write
/// parses into, and what programmatic callers construct directly so that
/// an invalid request is unrepresentable.
///
/// ```
/// use p5_core::{CoreConfig, SmtCore};
/// use p5_isa::{Priority, ThreadId};
/// use p5_os::{Kernel, KernelMode, SysfsRequest};
///
/// let mut kernel = Kernel::new(SmtCore::new(CoreConfig::tiny_for_tests()),
///                              KernelMode::Patched);
/// SysfsRequest::set_priority(ThreadId::T0, Priority::High).apply(&mut kernel)?;
/// assert_eq!(kernel.core().priority(ThreadId::T0), Priority::High);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysfsRequest {
    /// Request `priority` for `thread` with user privileges.
    SetPriority {
        /// The targeted context.
        thread: ThreadId,
        /// The requested priority.
        priority: Priority,
    },
    /// Set the timer-interrupt interval.
    SetTimerInterval {
        /// Interval in core cycles (must be nonzero).
        cycles: u64,
    },
}

impl SysfsRequest {
    /// A priority write for `thread`.
    #[must_use]
    pub fn set_priority(thread: ThreadId, priority: Priority) -> SysfsRequest {
        SysfsRequest::SetPriority { thread, priority }
    }

    /// A timer-interval write.
    #[must_use]
    pub fn set_timer_interval(cycles: u64) -> SysfsRequest {
        SysfsRequest::SetTimerInterval { cycles }
    }

    /// The node this request writes to.
    #[must_use]
    pub fn node(&self) -> SysfsNode {
        match *self {
            SysfsRequest::SetPriority { thread, .. } => SysfsNode::ThreadPriority(thread),
            SysfsRequest::SetTimerInterval { .. } => SysfsNode::TimerInterval,
        }
    }

    /// The value a string write would carry for this request (the
    /// inverse of [`SysfsRequest::parse`]).
    #[must_use]
    pub fn value_string(&self) -> String {
        match *self {
            SysfsRequest::SetPriority { priority, .. } => priority.level().to_string(),
            SysfsRequest::SetTimerInterval { cycles } => cycles.to_string(),
        }
    }

    /// Parses a `(path, value)` string write into a typed request.
    /// Values tolerate surrounding whitespace, as sysfs writes do.
    ///
    /// # Errors
    ///
    /// [`OsError::InvalidPath`] for unknown paths and
    /// [`OsError::InvalidValue`] for non-numeric or out-of-range values.
    /// Privilege is *not* checked here — that is [`SysfsRequest::apply`]'s
    /// job, because it depends on the kernel the request is applied to.
    pub fn parse(path: &str, value: &str) -> Result<SysfsRequest, OsError> {
        let value = value.trim();
        match SysfsNode::parse(path)? {
            SysfsNode::ThreadPriority(thread) => {
                let level: u8 = value.parse().map_err(|_| OsError::InvalidValue)?;
                let priority = Priority::from_level(level).ok_or(OsError::InvalidValue)?;
                Ok(SysfsRequest::SetPriority { thread, priority })
            }
            SysfsNode::TimerInterval => {
                let cycles: u64 = value.parse().map_err(|_| OsError::InvalidValue)?;
                Ok(SysfsRequest::SetTimerInterval { cycles })
            }
        }
    }

    /// Applies the request to a kernel with user privileges.
    ///
    /// # Errors
    ///
    /// [`OsError::InsufficientPrivilege`] if the kernel mode forbids the
    /// requested priority, [`OsError::InvalidTimerInterval`] for a zero
    /// interval.
    pub fn apply(&self, kernel: &mut Kernel) -> Result<(), OsError> {
        match *self {
            SysfsRequest::SetPriority { thread, priority } => {
                kernel.set_user_priority(thread, priority)
            }
            SysfsRequest::SetTimerInterval { cycles } => kernel.set_timer_interval(cycles),
        }
    }
}

/// The `/sys` pseudo-file interface the paper's patch adds: writing a
/// priority level to `thread<N>/priority` requests that priority for
/// context N with user privileges.
///
/// This is the thin string-parsing shim over [`SysfsRequest`] kept for
/// the repro binary and examples; programmatic callers should construct
/// a [`SysfsRequest`] directly.
///
/// ```
/// use p5_core::{CoreConfig, SmtCore};
/// use p5_isa::{Priority, ThreadId};
/// use p5_os::{Kernel, KernelMode, sysfs_write};
///
/// let mut kernel = Kernel::new(SmtCore::new(CoreConfig::tiny_for_tests()),
///                              KernelMode::Patched);
/// sysfs_write(&mut kernel, "thread0/priority", "6")?;
/// assert_eq!(kernel.core().priority(ThreadId::T0), Priority::High);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`OsError::InvalidPath`] for unknown paths, [`OsError::InvalidValue`]
/// for non-numeric or out-of-range values, and
/// [`OsError::InsufficientPrivilege`] if the kernel mode forbids the
/// level.
pub fn sysfs_write(kernel: &mut Kernel, path: &str, value: &str) -> Result<(), OsError> {
    SysfsRequest::parse(path, value)?.apply(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_core::CoreConfig;
    use p5_isa::{Op, Program, StaticInst};

    fn toy_program() -> Program {
        let mut b = Program::builder("toy");
        for _ in 0..10 {
            b.push(StaticInst::new(Op::IntAlu));
        }
        b.iterations(100);
        b.build().unwrap()
    }

    fn kernel(mode: KernelMode) -> Kernel {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, toy_program());
        core.load_program(ThreadId::T1, toy_program());
        Kernel::new(core, mode)
    }

    #[test]
    fn vanilla_user_can_set_only_2_3_4() {
        let mut k = kernel(KernelMode::Vanilla);
        for p in [Priority::Low, Priority::MediumLow, Priority::Medium] {
            assert_eq!(k.set_user_priority(ThreadId::T0, p), Ok(()));
        }
        for p in [
            Priority::Off,
            Priority::VeryLow,
            Priority::MediumHigh,
            Priority::High,
            Priority::VeryHigh,
        ] {
            assert_eq!(
                k.set_user_priority(ThreadId::T0, p),
                Err(OsError::InsufficientPrivilege { requested: p })
            );
        }
    }

    #[test]
    fn patched_user_can_set_1_through_6() {
        let mut k = kernel(KernelMode::Patched);
        for level in 1..=6u8 {
            let p = Priority::from_level(level).unwrap();
            assert_eq!(
                k.set_user_priority(ThreadId::T0, p),
                Ok(()),
                "level {level}"
            );
        }
        // 0 and 7 still need the hypervisor even on the patched kernel.
        for p in [Priority::Off, Priority::VeryHigh] {
            assert!(k.set_user_priority(ThreadId::T0, p).is_err());
        }
        k.set_hypervisor_priority(ThreadId::T0, Priority::VeryHigh)
            .unwrap();
        assert_eq!(k.core().priority(ThreadId::T0), Priority::VeryHigh);
    }

    #[test]
    fn vanilla_kernel_resets_priority_on_timer_interrupt() {
        let mut k = kernel(KernelMode::Vanilla);
        k.set_timer_interval(10_000).unwrap();
        k.set_supervisor_priority(ThreadId::T0, Priority::High)
            .unwrap();
        assert_eq!(k.core().priority(ThreadId::T0), Priority::High);
        k.run_cycles(10_000);
        // "it also resets the thread priority to MEDIUM every time it
        //  enters a kernel service routine"
        assert_eq!(k.core().priority(ThreadId::T0), Priority::Medium);
        assert!(k.stats().priority_resets >= 1);
        assert_eq!(k.stats().timer_interrupts, 1);
    }

    #[test]
    fn timer_interrupts_land_in_the_pmu() {
        let mut k = kernel(KernelMode::Patched);
        k.set_timer_interval(10_000).unwrap();
        k.core_mut().enable_pmu(p5_pmu::PmuConfig::counters_only());
        k.run_cycles(30_000);
        let pmu = k.core_mut().take_pmu().expect("pmu enabled");
        assert_eq!(pmu.counters().kernel_entries, 3);
        assert!(pmu
            .events()
            .iter()
            .any(|e| matches!(e.kind, p5_pmu::PmuEventKind::TimerInterrupt)));
    }

    #[test]
    fn patched_kernel_preserves_priorities_across_interrupts() {
        let mut k = kernel(KernelMode::Patched);
        k.set_timer_interval(10_000).unwrap();
        k.set_user_priority(ThreadId::T0, Priority::High).unwrap();
        k.run_cycles(50_000);
        assert_eq!(k.core().priority(ThreadId::T0), Priority::High);
        assert_eq!(k.stats().priority_resets, 0);
        assert_eq!(k.stats().timer_interrupts, 5);
    }

    #[test]
    fn spin_wait_lowers_and_restores_priority_on_vanilla() {
        let mut k = kernel(KernelMode::Vanilla);
        k.enter_spin_wait(ThreadId::T1);
        assert_eq!(k.core().priority(ThreadId::T1), Priority::VeryLow);
        k.exit_spin_wait(ThreadId::T1);
        assert_eq!(k.core().priority(ThreadId::T1), Priority::Medium);
    }

    #[test]
    fn patched_kernel_does_not_touch_priorities_when_spinning() {
        let mut k = kernel(KernelMode::Patched);
        k.set_user_priority(ThreadId::T1, Priority::High).unwrap();
        k.enter_spin_wait(ThreadId::T1);
        assert_eq!(k.core().priority(ThreadId::T1), Priority::High);
    }

    #[test]
    fn idle_lowers_priority_on_vanilla() {
        let mut k = kernel(KernelMode::Vanilla);
        k.enter_idle(ThreadId::T1);
        assert_eq!(k.core().priority(ThreadId::T1), Priority::VeryLow);
    }

    #[test]
    fn sysfs_interface_parses_and_enforces() {
        let mut k = kernel(KernelMode::Patched);
        assert_eq!(sysfs_write(&mut k, "thread1/priority", " 5 "), Ok(()));
        assert_eq!(k.core().priority(ThreadId::T1), Priority::MediumHigh);
        assert_eq!(
            sysfs_write(&mut k, "thread2/priority", "4"),
            Err(OsError::InvalidPath)
        );
        assert_eq!(
            sysfs_write(&mut k, "thread0/priority", "nine"),
            Err(OsError::InvalidValue)
        );
        assert_eq!(
            sysfs_write(&mut k, "thread0/priority", "9"),
            Err(OsError::InvalidValue)
        );
        assert_eq!(
            sysfs_write(&mut k, "thread0/priority", "7"),
            Err(OsError::InsufficientPrivilege {
                requested: Priority::VeryHigh
            })
        );
    }

    #[test]
    fn sysfs_nodes_round_trip_through_paths() {
        for node in SysfsNode::ALL {
            assert_eq!(SysfsNode::parse(&node.path()), Ok(node), "{node}");
        }
        assert_eq!(
            SysfsNode::parse("thread9/priority"),
            Err(OsError::InvalidPath)
        );
        assert_eq!(SysfsNode::parse(""), Err(OsError::InvalidPath));
    }

    #[test]
    fn sysfs_requests_round_trip_exhaustively() {
        // Every representable priority request...
        for t in ThreadId::ALL {
            for level in 0..=7u8 {
                let Some(priority) = Priority::from_level(level) else {
                    continue;
                };
                let req = SysfsRequest::set_priority(t, priority);
                assert_eq!(
                    SysfsRequest::parse(&req.node().path(), &req.value_string()),
                    Ok(req),
                    "thread {t} level {level}"
                );
            }
        }
        // ...and timer-interval requests, including the zero that only
        // apply() rejects.
        for cycles in [0u64, 1, 10_000, u64::MAX] {
            let req = SysfsRequest::set_timer_interval(cycles);
            assert_eq!(
                SysfsRequest::parse(&req.node().path(), &req.value_string()),
                Ok(req)
            );
        }
    }

    #[test]
    fn typed_requests_apply_with_privilege_checks() {
        let mut k = kernel(KernelMode::Vanilla);
        assert_eq!(
            SysfsRequest::set_priority(ThreadId::T0, Priority::Medium).apply(&mut k),
            Ok(())
        );
        assert_eq!(
            SysfsRequest::set_priority(ThreadId::T0, Priority::High).apply(&mut k),
            Err(OsError::InsufficientPrivilege {
                requested: Priority::High
            })
        );
        assert_eq!(
            SysfsRequest::set_timer_interval(0).apply(&mut k),
            Err(OsError::InvalidTimerInterval)
        );
        assert_eq!(
            SysfsRequest::set_timer_interval(5_000).apply(&mut k),
            Ok(())
        );
    }

    #[test]
    fn sysfs_timer_interval_string_writes() {
        let mut k = kernel(KernelMode::Patched);
        assert_eq!(
            sysfs_write(&mut k, "timer/interval_cycles", " 8000 "),
            Ok(())
        );
        assert_eq!(
            sysfs_write(&mut k, "timer/interval_cycles", "soon"),
            Err(OsError::InvalidValue)
        );
        assert_eq!(
            sysfs_write(&mut k, "timer/interval_cycles", "0"),
            Err(OsError::InvalidTimerInterval)
        );
    }

    #[test]
    fn reset_on_interrupt_destroys_experiments_demo() {
        // The motivating observation: on the vanilla kernel a priority
        // experiment decays back to (4,4), so measured decode shares end
        // up nearly equal; on the patched kernel the skew persists.
        let run = |mode| {
            let mut k = kernel(mode);
            k.set_timer_interval(5_000).unwrap();
            let _ = k.set_supervisor_priority(ThreadId::T0, Priority::High);
            k.run_cycles(200_000);
            let s = k.core().stats();
            s.thread(ThreadId::T0).decode_cycles_granted as f64
                / s.thread(ThreadId::T1).decode_cycles_granted.max(1) as f64
        };
        let vanilla_skew = run(KernelMode::Vanilla);
        let patched_skew = run(KernelMode::Patched);
        assert!(
            patched_skew > vanilla_skew * 2.0,
            "patched {patched_skew} vs vanilla {vanilla_skew}"
        );
    }

    #[test]
    fn zero_timer_interval_is_rejected() {
        let mut k = kernel(KernelMode::Patched);
        assert_eq!(k.set_timer_interval(0), Err(OsError::InvalidTimerInterval));
        // The old interval stays in force and the kernel still runs.
        k.run_cycles(Kernel::DEFAULT_TIMER_INTERVAL);
        assert_eq!(k.stats().timer_interrupts, 1);
    }

    #[test]
    fn try_run_cycles_delivers_interrupts_on_a_healthy_core() {
        let mut k = kernel(KernelMode::Vanilla);
        k.set_timer_interval(10_000).unwrap();
        k.set_supervisor_priority(ThreadId::T0, Priority::High)
            .unwrap();
        k.try_run_cycles(50_000).expect("healthy core never stalls");
        assert_eq!(k.stats().timer_interrupts, 5);
        // Vanilla reset-on-kernel-entry still happens on the try_ path.
        assert_eq!(k.core().priority(ThreadId::T0), Priority::Medium);
    }

    #[test]
    fn try_run_cycles_surfaces_a_wedged_core() {
        use p5_core::StuckResource;
        use p5_isa::{BranchBehavior, DataKind, Reg, StreamSpec};

        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.lmq_entries = 0;
        // Window longer than the timer interval: the stall must
        // accumulate across timer chunks to be seen at all.
        cfg.watchdog_stall_cycles = 30_000;
        let mut core = SmtCore::new(cfg);
        let ptr = Reg::new(1);
        let mut b = Program::builder("chase");
        let s = b.stream(StreamSpec::pointer_chase(256 * 1024));
        b.push(
            StaticInst::new(Op::Load {
                stream: s,
                kind: DataKind::Int,
            })
            .dst(ptr)
            .src1(ptr),
        );
        b.push(StaticInst::new(Op::Branch(BranchBehavior::LoopBack)));
        b.iterations(1_000);
        core.load_program(ThreadId::T0, b.build().unwrap());

        let mut k = Kernel::new(core, KernelMode::Patched);
        k.set_timer_interval(10_000).unwrap();
        let err = k
            .try_run_cycles(10_000_000)
            .expect_err("a zero-LMQ chase wedges the core");
        let SimError::ForwardProgressStall { snapshot } = err else {
            panic!("expected a forward-progress stall, got {err}");
        };
        assert_eq!(snapshot.culprit, StuckResource::LoadMissQueue);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            OsError::InsufficientPrivilege {
                requested: Priority::High
            }
            .to_string(),
            "insufficient privilege to set priority 6 (high)"
        );
        assert_eq!(OsError::InvalidPath.to_string(), "no such sysfs attribute");
    }

    #[test]
    fn mode_transition_preserves_core_state() {
        let mut k = kernel(KernelMode::Vanilla);
        k.run_cycles(1_000);
        let committed = k.core().stats().committed(ThreadId::T0);
        let k = k.into_mode(KernelMode::Patched);
        assert_eq!(k.core().stats().committed(ThreadId::T0), committed);
        assert_eq!(k.mode(), KernelMode::Patched);
    }
}
