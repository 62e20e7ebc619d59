//! POWER5 software-controlled thread priorities (paper Table 1) and the
//! decode-slot allocation rule (paper Equation 1).

use crate::ThreadId;
use std::fmt;

/// Privilege level required to set a given [`Priority`] (paper Table 1).
///
/// Ordering reflects capability: `User < Supervisor < Hypervisor`. A level
/// can set every priority whose requirement is `<=` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrivilegeLevel {
    /// Unprivileged user code. May set priorities 2, 3 and 4 only.
    User,
    /// Operating-system (supervisor) code. May set priorities 1 through 6.
    Supervisor,
    /// Hypervisor firmware. May set the whole range, 0 through 7.
    Hypervisor,
}

impl fmt::Display for PrivilegeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivilegeLevel::User => write!(f, "user"),
            PrivilegeLevel::Supervisor => write!(f, "supervisor"),
            PrivilegeLevel::Hypervisor => write!(f, "hypervisor"),
        }
    }
}

/// The `or X,X,X` no-op encoding that sets a thread priority from software
/// (paper Table 1). The operation "only changes the thread priority and
/// performs no other operation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrNopEncoding {
    /// The register number `X` in `or X,X,X`.
    pub reg: u8,
}

impl fmt::Display for OrNopEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "or {r},{r},{r}", r = self.reg)
    }
}

/// One of the eight POWER5 software-controlled thread priorities
/// (paper Table 1).
///
/// Priority 0 switches the thread off; priority 7 means the thread runs in
/// single-thread (ST) mode with the sibling context off. Priorities are
/// *independent of the operating system's notion of process priority*
/// (paper footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Priority {
    /// 0 — thread shut off (hypervisor only).
    Off = 0,
    /// 1 — very low (supervisor); used for "transparent" background threads.
    VeryLow = 1,
    /// 2 — low (user/supervisor).
    Low = 2,
    /// 3 — medium-low (user/supervisor).
    MediumLow = 3,
    /// 4 — medium (user/supervisor); the default priority.
    Medium = 4,
    /// 5 — medium-high (supervisor).
    MediumHigh = 5,
    /// 6 — high (supervisor).
    High = 6,
    /// 7 — very high, single-thread mode (hypervisor only).
    VeryHigh = 7,
}

impl Default for Priority {
    /// The default priority is `Medium` (4): Linux "restores it to MEDIUM (4)
    /// as soon as there is some job to perform" (paper Section 4.3).
    fn default() -> Self {
        Priority::Medium
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.level(), self.name())
    }
}

/// Error returned when a numeric level cannot be converted to a [`Priority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityError {
    /// The out-of-range level that was supplied.
    pub level: u8,
}

impl fmt::Display for PriorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "priority level {} is out of range 0..=7", self.level)
    }
}

impl std::error::Error for PriorityError {}

impl TryFrom<u8> for Priority {
    type Error = PriorityError;

    fn try_from(level: u8) -> Result<Self, Self::Error> {
        Priority::from_level(level).ok_or(PriorityError { level })
    }
}

impl From<Priority> for u8 {
    fn from(p: Priority) -> u8 {
        p.level()
    }
}

impl Priority {
    /// All eight priorities, in ascending order.
    pub const ALL: [Priority; 8] = [
        Priority::Off,
        Priority::VeryLow,
        Priority::Low,
        Priority::MediumLow,
        Priority::Medium,
        Priority::MediumHigh,
        Priority::High,
        Priority::VeryHigh,
    ];

    /// Converts a numeric level (0–7) to a priority, or `None` if out of
    /// range.
    ///
    /// ```
    /// use p5_isa::Priority;
    /// assert_eq!(Priority::from_level(4), Some(Priority::Medium));
    /// assert_eq!(Priority::from_level(8), None);
    /// ```
    #[must_use]
    pub fn from_level(level: u8) -> Option<Priority> {
        Priority::ALL.get(level as usize).copied()
    }

    /// The numeric level, 0–7.
    #[must_use]
    pub fn level(self) -> u8 {
        self as u8
    }

    /// Human-readable name as used in paper Table 1.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::Off => "thread shut off",
            Priority::VeryLow => "very low",
            Priority::Low => "low",
            Priority::MediumLow => "medium-low",
            Priority::Medium => "medium",
            Priority::MediumHigh => "medium-high",
            Priority::High => "high",
            Priority::VeryHigh => "very high",
        }
    }

    /// The minimum privilege level required to set this priority
    /// (paper Table 1).
    #[must_use]
    pub fn required_privilege(self) -> PrivilegeLevel {
        match self {
            Priority::Off | Priority::VeryHigh => PrivilegeLevel::Hypervisor,
            Priority::VeryLow | Priority::MediumHigh | Priority::High => PrivilegeLevel::Supervisor,
            Priority::Low | Priority::MediumLow | Priority::Medium => PrivilegeLevel::User,
        }
    }

    /// The `or X,X,X` nop encoding that sets this priority, or `None` for
    /// priority 0, which has no or-nop form and is reached through a
    /// hypervisor call (paper Table 1).
    #[must_use]
    pub fn or_nop(self) -> Option<OrNopEncoding> {
        let reg = match self {
            Priority::Off => return None,
            Priority::VeryLow => 31,
            Priority::Low => 1,
            Priority::MediumLow => 6,
            Priority::Medium => 2,
            Priority::MediumHigh => 5,
            Priority::High => 3,
            Priority::VeryHigh => 7,
        };
        Some(OrNopEncoding { reg })
    }

    /// Inverse of [`Priority::or_nop`]: decodes an `or X,X,X` register
    /// number into the priority it requests, or `None` if `X` is not one of
    /// the special registers (in which case the instruction is an ordinary
    /// `or`).
    #[must_use]
    pub fn from_or_nop(reg: u8) -> Option<Priority> {
        match reg {
            31 => Some(Priority::VeryLow),
            1 => Some(Priority::Low),
            6 => Some(Priority::MediumLow),
            2 => Some(Priority::Medium),
            5 => Some(Priority::MediumHigh),
            3 => Some(Priority::High),
            7 => Some(Priority::VeryHigh),
            _ => None,
        }
    }

    /// Whether `privilege` suffices to set this priority. If not, the
    /// or-nop "is simply treated as a nop" (paper Section 3.2).
    #[must_use]
    pub fn settable_by(self, privilege: PrivilegeLevel) -> bool {
        privilege >= self.required_privilege()
    }
}

/// The full contents of paper Table 1 as `(priority, name, privilege,
/// or-nop)` rows, for presentation and for the Table 1 experiment.
pub const PRIORITY_TABLE: [(Priority, &str, PrivilegeLevel, Option<OrNopEncoding>); 8] = [
    (
        Priority::Off,
        "thread shut off",
        PrivilegeLevel::Hypervisor,
        None,
    ),
    (
        Priority::VeryLow,
        "very low",
        PrivilegeLevel::Supervisor,
        Some(OrNopEncoding { reg: 31 }),
    ),
    (
        Priority::Low,
        "low",
        PrivilegeLevel::User,
        Some(OrNopEncoding { reg: 1 }),
    ),
    (
        Priority::MediumLow,
        "medium-low",
        PrivilegeLevel::User,
        Some(OrNopEncoding { reg: 6 }),
    ),
    (
        Priority::Medium,
        "medium",
        PrivilegeLevel::User,
        Some(OrNopEncoding { reg: 2 }),
    ),
    (
        Priority::MediumHigh,
        "medium-high",
        PrivilegeLevel::Supervisor,
        Some(OrNopEncoding { reg: 5 }),
    ),
    (
        Priority::High,
        "high",
        PrivilegeLevel::Supervisor,
        Some(OrNopEncoding { reg: 3 }),
    ),
    (
        Priority::VeryHigh,
        "very high",
        PrivilegeLevel::Hypervisor,
        Some(OrNopEncoding { reg: 7 }),
    ),
];

/// How the decode stage divides its cycles between the two contexts,
/// derived from the pair of software-controlled priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodePolicy {
    /// Normal SMT operation (paper Equation 1): out of every `period`
    /// decode cycles, `favoured` receives `favoured_slots` and the sibling
    /// receives the rest. With equal priorities `favoured_slots == 1` and
    /// `period == 2` (strict alternation; the favoured designation is then
    /// arbitrary but fixed to `T0` for determinism).
    Ratio {
        /// The thread with the higher (or equal) priority.
        favoured: ThreadId,
        /// Decode cycles granted to `favoured` out of every `period`.
        favoured_slots: u32,
        /// The window `R` of Equation 1.
        period: u32,
    },
    /// One context is shut off (priority 0) or the sibling is in
    /// single-thread mode (priority 7): `runner` owns every decode cycle.
    SingleThread {
        /// The only live context.
        runner: ThreadId,
    },
    /// Both threads at priority 1: the core runs in low-power mode,
    /// "decoding only one instruction every 32 cycles" (paper Section 3.2),
    /// alternating between the threads.
    LowPower,
    /// Both threads shut off (priority 0); the core is idle.
    BothOff,
}

impl DecodePolicy {
    /// The fraction of decode cycles granted to `thread` under this policy,
    /// in `[0, 1]`. Low-power mode counts its single instruction per 32
    /// cycles as 1/64 per thread.
    #[must_use]
    pub fn decode_share(self, thread: ThreadId) -> f64 {
        match self {
            DecodePolicy::Ratio {
                favoured,
                favoured_slots,
                period,
            } => {
                if thread == favoured {
                    f64::from(favoured_slots) / f64::from(period)
                } else {
                    f64::from(period - favoured_slots) / f64::from(period)
                }
            }
            DecodePolicy::SingleThread { runner } => {
                if thread == runner {
                    1.0
                } else {
                    0.0
                }
            }
            DecodePolicy::LowPower => 1.0 / 64.0,
            DecodePolicy::BothOff => 0.0,
        }
    }
}

/// Computes the decode-slot allocation for a pair of priorities
/// (paper Equation 1 plus the Section 3.2 special cases).
///
/// `prio_p` belongs to [`ThreadId::T0`] (PThread) and `prio_s` to
/// [`ThreadId::T1`] (SThread).
///
/// * `R = 2^(|PrioP - PrioS| + 1)`; the higher-priority thread receives
///   `R - 1` of every `R` decode cycles and the other receives one.
/// * Priority 0 switches a thread off; priority 7 implies the sibling is
///   off (ST mode). If both ask for exclusive ownership (e.g. (7,7)), T0
///   wins deterministically — real firmware would reject the request, and
///   [`p5-os`](../p5_os/index.html) enforces that at the software layer.
/// * (1,1) is the low-power mode.
///
/// ```
/// use p5_isa::{decode_policy, DecodePolicy, Priority, ThreadId};
///
/// // Equal priorities alternate 1-of-2.
/// let p = decode_policy(Priority::Medium, Priority::Medium);
/// assert_eq!(p.decode_share(ThreadId::T0), 0.5);
///
/// // +2 difference: R = 8, favoured thread gets 7 of 8 cycles.
/// let p = decode_policy(Priority::High, Priority::Medium);
/// assert_eq!(
///     p,
///     DecodePolicy::Ratio { favoured: ThreadId::T0, favoured_slots: 7, period: 8 }
/// );
/// ```
#[must_use]
pub fn decode_policy(prio_p: Priority, prio_s: Priority) -> DecodePolicy {
    use Priority::{Off, VeryHigh, VeryLow};

    match (prio_p, prio_s) {
        (Off, Off) => DecodePolicy::BothOff,
        (Off, _) => DecodePolicy::SingleThread {
            runner: ThreadId::T1,
        },
        (_, Off) => DecodePolicy::SingleThread {
            runner: ThreadId::T0,
        },
        // Priority 7 means "running in ST mode (the other thread is off)".
        // If both request it, T0 wins deterministically.
        (VeryHigh, _) => DecodePolicy::SingleThread {
            runner: ThreadId::T0,
        },
        (_, VeryHigh) => DecodePolicy::SingleThread {
            runner: ThreadId::T1,
        },
        (VeryLow, VeryLow) => DecodePolicy::LowPower,
        (p, s) => {
            let diff = i32::from(p.level()) - i32::from(s.level());
            let favoured = if diff >= 0 {
                ThreadId::T0
            } else {
                ThreadId::T1
            };
            let r: u32 = 1 << (diff.unsigned_abs() + 1);
            DecodePolicy::Ratio {
                favoured,
                favoured_slots: r - 1,
                period: r,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_levels_are_exhaustive_and_ordered() {
        for (i, (p, _, _, _)) in PRIORITY_TABLE.iter().enumerate() {
            assert_eq!(p.level() as usize, i);
        }
    }

    #[test]
    fn table1_matches_accessors() {
        for (p, name, priv_level, or_nop) in PRIORITY_TABLE {
            assert_eq!(p.name(), name);
            assert_eq!(p.required_privilege(), priv_level);
            assert_eq!(p.or_nop(), or_nop);
        }
    }

    #[test]
    fn or_nop_encodings_match_paper_table1() {
        assert_eq!(Priority::VeryLow.or_nop().unwrap().reg, 31);
        assert_eq!(Priority::Low.or_nop().unwrap().reg, 1);
        assert_eq!(Priority::MediumLow.or_nop().unwrap().reg, 6);
        assert_eq!(Priority::Medium.or_nop().unwrap().reg, 2);
        assert_eq!(Priority::MediumHigh.or_nop().unwrap().reg, 5);
        assert_eq!(Priority::High.or_nop().unwrap().reg, 3);
        assert_eq!(Priority::VeryHigh.or_nop().unwrap().reg, 7);
        assert_eq!(Priority::Off.or_nop(), None);
    }

    #[test]
    fn or_nop_roundtrip() {
        for p in Priority::ALL {
            if let Some(enc) = p.or_nop() {
                assert_eq!(Priority::from_or_nop(enc.reg), Some(p));
            }
        }
        // Ordinary `or` register numbers decode to no priority request.
        assert_eq!(Priority::from_or_nop(0), None);
        assert_eq!(Priority::from_or_nop(4), None);
        assert_eq!(Priority::from_or_nop(8), None);
    }

    #[test]
    fn privilege_capability_ordering() {
        assert!(PrivilegeLevel::Hypervisor > PrivilegeLevel::Supervisor);
        assert!(PrivilegeLevel::Supervisor > PrivilegeLevel::User);
    }

    #[test]
    fn user_can_set_exactly_2_3_4() {
        let settable: Vec<_> = Priority::ALL
            .into_iter()
            .filter(|p| p.settable_by(PrivilegeLevel::User))
            .collect();
        assert_eq!(
            settable,
            vec![Priority::Low, Priority::MediumLow, Priority::Medium]
        );
    }

    #[test]
    fn supervisor_can_set_1_through_6() {
        let settable: Vec<_> = Priority::ALL
            .into_iter()
            .filter(|p| p.settable_by(PrivilegeLevel::Supervisor))
            .map(Priority::level)
            .collect();
        assert_eq!(settable, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn hypervisor_can_set_everything() {
        assert!(Priority::ALL
            .into_iter()
            .all(|p| p.settable_by(PrivilegeLevel::Hypervisor)));
    }

    #[test]
    fn equation1_example_from_paper() {
        // "assuming that PThread has priority 6 and SThread has priority 2,
        //  R would be 32, so the core decodes 31 times from PThread and once
        //  from SThread."
        let p = decode_policy(Priority::High, Priority::Low);
        assert_eq!(
            p,
            DecodePolicy::Ratio {
                favoured: ThreadId::T0,
                favoured_slots: 31,
                period: 32
            }
        );
    }

    #[test]
    fn equal_priorities_alternate() {
        for p in [
            Priority::Low,
            Priority::MediumLow,
            Priority::Medium,
            Priority::MediumHigh,
            Priority::High,
        ] {
            assert_eq!(
                decode_policy(p, p),
                DecodePolicy::Ratio {
                    favoured: ThreadId::T0,
                    favoured_slots: 1,
                    period: 2
                }
            );
        }
    }

    #[test]
    fn both_priority_one_is_low_power() {
        assert_eq!(
            decode_policy(Priority::VeryLow, Priority::VeryLow),
            DecodePolicy::LowPower
        );
    }

    #[test]
    fn priority_zero_switches_thread_off() {
        assert_eq!(
            decode_policy(Priority::Off, Priority::Medium),
            DecodePolicy::SingleThread {
                runner: ThreadId::T1
            }
        );
        assert_eq!(
            decode_policy(Priority::Medium, Priority::Off),
            DecodePolicy::SingleThread {
                runner: ThreadId::T0
            }
        );
        assert_eq!(
            decode_policy(Priority::Off, Priority::Off),
            DecodePolicy::BothOff
        );
    }

    #[test]
    fn priority_seven_is_single_thread_mode() {
        assert_eq!(
            decode_policy(Priority::VeryHigh, Priority::Medium),
            DecodePolicy::SingleThread {
                runner: ThreadId::T0
            }
        );
        assert_eq!(
            decode_policy(Priority::Medium, Priority::VeryHigh),
            DecodePolicy::SingleThread {
                runner: ThreadId::T1
            }
        );
    }

    #[test]
    fn ratio_matches_closed_form_for_all_normal_pairs() {
        // Paper Section 5: "at priority +4 a thread receives 31 of each 32
        // decode slots ... at priority -4, a thread receives only one out
        // of 32 decode slots".
        for p in 1..=6u8 {
            for s in 1..=6u8 {
                if p == 1 && s == 1 {
                    continue;
                }
                let pp = Priority::from_level(p).unwrap();
                let ss = Priority::from_level(s).unwrap();
                let policy = decode_policy(pp, ss);
                let diff = i32::from(p) - i32::from(s);
                let r = 1u32 << (diff.unsigned_abs() + 1);
                match policy {
                    DecodePolicy::Ratio {
                        favoured,
                        favoured_slots,
                        period,
                    } => {
                        assert_eq!(period, r, "period for ({p},{s})");
                        assert_eq!(favoured_slots, r - 1, "slots for ({p},{s})");
                        if diff > 0 {
                            assert_eq!(favoured, ThreadId::T0);
                        } else if diff < 0 {
                            assert_eq!(favoured, ThreadId::T1);
                        }
                    }
                    other => panic!("expected Ratio for ({p},{s}), got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn decode_share_sums_to_one_for_ratio() {
        for p in 1..=6u8 {
            for s in 1..=6u8 {
                if p == 1 && s == 1 {
                    continue;
                }
                let policy = decode_policy(
                    Priority::from_level(p).unwrap(),
                    Priority::from_level(s).unwrap(),
                );
                let total = policy.decode_share(ThreadId::T0) + policy.decode_share(ThreadId::T1);
                assert!(
                    (total - 1.0).abs() < 1e-12,
                    "shares for ({p},{s}) sum to {total}"
                );
            }
        }
    }

    #[test]
    fn plus_four_gets_31_of_32_slots() {
        let policy = decode_policy(Priority::High, Priority::Low);
        assert!((policy.decode_share(ThreadId::T0) - 31.0 / 32.0).abs() < 1e-12);
        assert!((policy.decode_share(ThreadId::T1) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn try_from_u8() {
        assert_eq!(Priority::try_from(4u8), Ok(Priority::Medium));
        assert_eq!(Priority::try_from(9u8), Err(PriorityError { level: 9 }));
        assert_eq!(u8::from(Priority::High), 6);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Priority::Medium.to_string(), "4 (medium)");
        assert_eq!(
            Priority::VeryLow.or_nop().unwrap().to_string(),
            "or 31,31,31"
        );
        assert_eq!(PrivilegeLevel::Hypervisor.to_string(), "hypervisor");
    }

    #[test]
    fn priority_error_display() {
        let err = PriorityError { level: 42 };
        assert_eq!(err.to_string(), "priority level 42 is out of range 0..=7");
    }
}
