//! Property-style tests over the public API: the decode-slot arithmetic
//! of Equation 1, program construction, cache behaviour, and the
//! simulator's conservation laws.
//!
//! These were once `proptest` properties; they are now deterministic
//! seeded-PRNG loops so the suite builds and runs with no network access
//! (no external dev-dependencies). Each property draws a few hundred
//! cases from a fixed xorshift64* stream, which keeps failures exactly
//! reproducible.

use p5repro::core::{stream_base_address, CoreConfig, SmtCore};
use p5repro::isa::{decode_policy, DecodePolicy, Op, Priority, Program, Reg, StaticInst, ThreadId};
use p5repro::mem::{Cache, CacheConfig};

/// Deterministic xorshift64* generator, the same family the simulator
/// itself uses for data-dependent branches.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Equation 1: for any normal priority pair the two decode shares sum
/// to one and follow `R = 2^(|d|+1)`.
#[test]
fn decode_shares_sum_to_one() {
    for p in 1u8..=6 {
        for s in 1u8..=6 {
            if p == 1 && s == 1 {
                continue; // low-power special case
            }
            let policy = decode_policy(
                Priority::from_level(p).unwrap(),
                Priority::from_level(s).unwrap(),
            );
            let share0 = policy.decode_share(ThreadId::T0);
            let share1 = policy.decode_share(ThreadId::T1);
            assert!((share0 + share1 - 1.0).abs() < 1e-12, "pair ({p},{s})");
            let d = i32::from(p) - i32::from(s);
            let r = f64::from(1u32 << (d.unsigned_abs() + 1));
            let expected_hi = (r - 1.0) / r;
            let hi = share0.max(share1);
            assert!((hi - expected_hi).abs() < 1e-12, "pair ({p},{s})");
        }
    }
}

/// The favoured thread's share is monotone in the priority difference.
#[test]
fn favoured_share_is_monotone_in_difference() {
    for s in 1u8..=5 {
        let mut last = 0.0;
        for p in s..=6 {
            if p == 1 && s == 1 {
                continue;
            }
            let policy = decode_policy(
                Priority::from_level(p).unwrap(),
                Priority::from_level(s).unwrap(),
            );
            let share = policy.decode_share(ThreadId::T0);
            assert!(share >= last, "pair ({p},{s})");
            last = share;
        }
    }
}

/// Or-nop encodings decode back to the priority they encode.
#[test]
fn or_nop_roundtrip() {
    for level in 1u8..=7 {
        let p = Priority::from_level(level).unwrap();
        let enc = p.or_nop().unwrap();
        assert_eq!(Priority::from_or_nop(enc.reg), Some(p));
    }
}

/// Program construction: body length and iteration counts are
/// preserved, and instruction totals multiply correctly.
#[test]
fn program_builder_roundtrip() {
    let mut rng = Rng::new(0xB111_D3E5);
    for _ in 0..64 {
        let body_len = rng.range(1, 199) as usize;
        let iters = rng.range(1, 999);
        let mut b = Program::builder("prop");
        for i in 0..body_len {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new((i % 64) as u8)));
        }
        b.iterations(iters);
        let p = b.build().unwrap();
        assert_eq!(p.body().len(), body_len);
        assert_eq!(p.iterations(), iters);
        assert_eq!(p.instructions_per_repetition(), body_len as u64 * iters);
    }
}

/// A cache always hits immediately after a fill, and a working set no
/// larger than the cache never misses on re-walk.
#[test]
fn cache_retains_fitting_working_sets() {
    let mut rng = Rng::new(0xCAC4E);
    for _ in 0..64 {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 64 * 64,
            line_bytes: 64,
            associativity: 4,
            latency: 1,
        });
        // 16 sets x 4 ways but walk few sets: stay conservative.
        let lines = rng.range(1, 63).min(16);
        for i in 0..lines {
            cache.fill(i * 64);
        }
        for i in 0..lines {
            assert!(cache.access(ThreadId::T0, i * 64), "line {i} must hit");
        }
    }
}

/// Stream base addresses never collide across threads and stream
/// indices for footprints below 64 GiB.
#[test]
fn stream_regions_are_disjoint() {
    let mut rng = Rng::new(0x57_3EA5);
    for _ in 0..512 {
        let s1 = rng.range(0, 15) as usize;
        let s2 = rng.range(0, 15) as usize;
        let offset = rng.next() % (1u64 << 36);
        let a = stream_base_address(ThreadId::T0, s1) + offset;
        let b = stream_base_address(ThreadId::T1, s2);
        assert!(
            a < b || a >= b + (1 << 36),
            "streams ({s1},{s2}) offset {offset:#x} overlap"
        );
    }
}

/// Conservation: cycles simulated equal decode grants across both
/// threads (every cycle is granted to exactly one context when both
/// are active), and committed instructions never exceed decoded ones.
#[test]
fn simulator_conservation_laws() {
    let mut rng = Rng::new(0xC0_15E7);
    for _ in 0..12 {
        let prio0 = rng.range(2, 6) as u8;
        let prio1 = rng.range(2, 6) as u8;
        let cycles = rng.range(1_000, 20_000);

        let mut b = Program::builder("conserve");
        for i in 0..10 {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
        }
        b.iterations(100);
        let prog = b.build().unwrap();

        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, prog.clone());
        core.load_program(ThreadId::T1, prog);
        core.set_priority(ThreadId::T0, Priority::from_level(prio0).unwrap());
        core.set_priority(ThreadId::T1, Priority::from_level(prio1).unwrap());
        core.run_cycles(cycles);

        let s = core.stats();
        let g0 = s.thread(ThreadId::T0).decode_cycles_granted;
        let g1 = s.thread(ThreadId::T1).decode_cycles_granted;
        assert_eq!(g0 + g1, cycles, "pair ({prio0},{prio1})");
        for t in ThreadId::ALL {
            let st = s.thread(t);
            assert!(st.committed <= st.decoded);
            assert!(st.decode_cycles_used <= st.decode_cycles_granted);
        }
        assert!(core.gct_occupancy() <= core.config().gct_entries);
    }
}

/// The effective decode policy is consistent with the priority pair
/// for every combination, including the special levels.
#[test]
fn effective_policy_is_total() {
    for p in 0u8..=7 {
        for s in 0u8..=7 {
            let policy = decode_policy(
                Priority::from_level(p).unwrap(),
                Priority::from_level(s).unwrap(),
            );
            // Every pair maps to a policy whose shares are sane.
            let total = policy.decode_share(ThreadId::T0) + policy.decode_share(ThreadId::T1);
            match policy {
                DecodePolicy::BothOff => assert_eq!(total, 0.0),
                DecodePolicy::LowPower => assert!(total <= 1.0),
                _ => assert!((total - 1.0).abs() < 1e-12, "pair ({p},{s})"),
            }
        }
    }
}
