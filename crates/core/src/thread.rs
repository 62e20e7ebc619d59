//! Per-context state: the pre-decoded program and its cursor,
//! address-stream generators, register producers, and in-flight
//! dispatch groups.

use crate::config::{CoreConfig, OpLatencies};
use crate::queues::{ExecKind, Producer};
use p5_isa::{
    AccessPattern, BranchBehavior, FuClass, Op, Priority, PrivilegeLevel, Program, Reg, StreamSpec,
    ThreadId,
};

/// Base virtual address of a thread's address stream.
///
/// Streams of the two contexts live in disjoint regions (distinct
/// processes), and streams within a program are disjoint as well, so all
/// cache interaction between threads is destructive, as in the paper's
/// multiprogrammed workloads.
#[must_use]
pub fn stream_base_address(thread: ThreadId, stream_index: usize) -> u64 {
    ((thread.index() as u64 + 1) << 44) | ((stream_index as u64) << 36)
}

/// Generates the dynamic address sequence of one declared stream.
#[derive(Debug, Clone)]
pub(crate) struct StreamCursor {
    spec: StreamSpec,
    base: u64,
    /// Sequential pattern: count of loads issued so far.
    count: u64,
    /// Pointer-chase pattern: current line index of the full-period walk.
    chase_state: u64,
    /// Pointer-chase: number of lines in the ring (exact footprint).
    chase_lines: u64,
    /// Pointer-chase: line stride, coprime with `chase_lines` so the walk
    /// visits every line before repeating.
    chase_stride: u64,
    line_bytes: u64,
    /// Address produced by the most recent load (reused by stores).
    last_addr: u64,
}

impl StreamCursor {
    pub(crate) fn new(
        thread: ThreadId,
        stream_index: usize,
        spec: StreamSpec,
        line_bytes: u64,
        salt: u64,
    ) -> StreamCursor {
        let base = stream_base_address(thread, stream_index) ^ salt;
        let chase_lines = (spec.footprint_bytes / line_bytes).max(1);
        // A stride coprime with the ring size gives a full-period walk
        // that touches every line exactly once per pass, in an order that
        // defeats both the next-line prefetcher and spatial locality.
        let chase_stride = coprime_stride(chase_lines);
        StreamCursor {
            spec,
            base,
            count: 0,
            chase_state: 0,
            chase_lines,
            chase_stride,
            line_bytes,
            last_addr: base,
        }
    }

    /// Address of the next load of this stream (advances the cursor).
    pub(crate) fn next_load_addr(&mut self) -> u64 {
        let addr = match self.spec.pattern {
            AccessPattern::Sequential { stride } => {
                let offset = (self.count * stride) % self.spec.footprint_bytes;
                self.count += 1;
                self.base + offset
            }
            AccessPattern::PointerChase => {
                self.chase_state = (self.chase_state + self.chase_stride) % self.chase_lines;
                self.base + self.chase_state * self.line_bytes
            }
        };
        self.last_addr = addr;
        addr
    }

    /// Address for a store of this stream: the element most recently
    /// loaded (the paper's loop bodies store back to `a[i+s]`).
    pub(crate) fn store_addr(&self) -> u64 {
        self.last_addr
    }
}

/// Picks a stride near 61.8% of `n`, coprime with `n`, for a full-period
/// strided ring walk.
fn coprime_stride(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut s = ((n as f64 * 0.618) as u64) | 1; // odd start
    while gcd(s, n) != 1 {
        s += 2;
    }
    s
}

/// What decoding an instruction does beyond queueing it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    /// Queues as this fixed-latency kind.
    Fixed(ExecKind),
    /// Requests a priority change, then queues as a one-cycle op.
    OrNop(Priority),
    /// Draws the next address of this stream.
    Load(usize),
    /// Stores to this stream's last loaded address.
    Store(usize),
    /// Resolves its direction and consults the predictor; it resolves
    /// `latency` cycles after issue.
    Branch {
        behavior: BranchBehavior,
        latency: u64,
    },
}

/// One instruction of a loaded program, decoded once at load with the
/// core's latencies resolved: everything the decode stage reads of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInst {
    pub(crate) class: FuClass,
    pub(crate) dst: Option<Reg>,
    pub(crate) src: [Option<Reg>; 2],
    pub(crate) action: Action,
}

impl DecodedInst {
    fn new(inst: p5_isa::StaticInst, lat: &OpLatencies) -> DecodedInst {
        let fixed = |latency, occupancy| Action::Fixed(ExecKind::Fixed { latency, occupancy });
        let action = match inst.op {
            Op::IntAlu => fixed(lat.int_alu, 1),
            Op::IntMul => fixed(lat.int_mul, lat.int_mul_occupancy),
            Op::IntDiv => fixed(lat.int_div, lat.int_div_occupancy),
            Op::FpAlu => fixed(lat.fp_alu, 1),
            Op::FpDiv => fixed(lat.fp_div, lat.fp_div_occupancy),
            Op::Nop => fixed(1, 1),
            Op::OrNop(requested) => Action::OrNop(requested),
            Op::Load { stream, .. } => Action::Load(stream.index()),
            Op::Store { stream, .. } => Action::Store(stream.index()),
            Op::Branch(behavior) => Action::Branch {
                behavior,
                latency: lat.branch,
            },
        };
        DecodedInst {
            class: inst.op.fu_class(),
            dst: inst.dst,
            src: [inst.src1, inst.src2],
            action,
        }
    }
}

/// One dispatch group occupying a GCT entry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Group {
    /// Instructions dispatched into the group.
    pub(crate) total: u32,
    /// Instructions issued so far.
    pub(crate) issued: u32,
    /// Latest finish cycle of the issued instructions: once all `total`
    /// have issued, the group is complete from this cycle on.
    pub(crate) done_at: u64,
    /// Number of program repetitions whose final instruction is in this
    /// group (0 or more; recorded at retire).
    pub(crate) rep_ends: u32,
}

/// A context's in-flight dispatch groups, oldest first. Group ids count
/// up from 0, and a group sits in slot `id & mask` from decode to
/// retire: the ring is a power of two no smaller than the GCT, which
/// bounds the groups in flight.
#[derive(Debug, Clone)]
pub(crate) struct GroupRing {
    slots: Vec<Group>,
    /// Id of the oldest in-flight group.
    head: u32,
    /// Id the next decoded group takes (ids wrap around).
    tail: u32,
    /// The cycle the oldest group can retire from: its `done_at` once
    /// all its instructions have issued, else `u64::MAX`.
    retire_at: u64,
}

impl GroupRing {
    fn new(gct_entries: usize) -> GroupRing {
        GroupRing {
            slots: vec![Group::default(); gct_entries.next_power_of_two()],
            head: 0,
            tail: 0,
            retire_at: u64::MAX,
        }
    }

    fn slot(&self, id: u32) -> usize {
        id as usize & (self.slots.len() - 1)
    }

    pub(crate) fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// The id the next pushed group takes.
    pub(crate) fn next_id(&self) -> u32 {
        self.tail
    }

    /// The cycle the oldest group can retire from (`u64::MAX` while it
    /// has unissued instructions, or no group is in flight).
    pub(crate) fn retire_at(&self) -> u64 {
        self.retire_at
    }

    /// Removes and returns the oldest group.
    pub(crate) fn pop_front(&mut self) -> Group {
        debug_assert!(self.head != self.tail, "no group in flight");
        let group = self.slots[self.slot(self.head)];
        self.head = self.head.wrapping_add(1);
        self.retire_at = u64::MAX;
        if self.head != self.tail {
            let next = self.slots[self.slot(self.head)];
            if next.issued == next.total {
                self.retire_at = next.done_at;
            }
        }
        group
    }

    /// Appends a group with nothing issued yet.
    pub(crate) fn push_back(&mut self, group: Group) {
        debug_assert!(self.len() < self.slots.len(), "group ring overflow");
        debug_assert!(group.issued < group.total);
        let slot = self.slot(self.tail);
        self.slots[slot] = group;
        self.tail = self.tail.wrapping_add(1);
    }

    /// Records that an instruction of in-flight group `id` issued and
    /// finishes at `finish`.
    pub(crate) fn note_issue(&mut self, id: u32, finish: u64) {
        debug_assert!(
            id.wrapping_sub(self.head) < self.tail.wrapping_sub(self.head),
            "group {id} not in flight"
        );
        let slot = self.slot(id);
        let group = &mut self.slots[slot];
        group.issued += 1;
        group.done_at = group.done_at.max(finish);
        if id == self.head && group.issued == group.total {
            self.retire_at = group.done_at;
        }
    }

    /// The in-flight groups, oldest first.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Group> {
        (0..self.len() as u32).map(|k| &self.slots[self.slot(self.head.wrapping_add(k))])
    }
}

/// Architectural state of one hardware thread context.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    pub(crate) program: Program,
    /// `program`'s body, decoded once at load.
    pub(crate) decoded: Vec<DecodedInst>,
    pub(crate) privilege: PrivilegeLevel,
    /// Index of the next instruction to decode within the loop body.
    pub(crate) pc: usize,
    /// Current micro-iteration within the repetition.
    pub(crate) iter: u64,
    pub(crate) cursors: Vec<StreamCursor>,
    /// The most recent producer of each architectural register. A fixed
    /// inline array: the dependency lookup is on the per-instruction
    /// decode path and must not chase a heap pointer.
    pub(crate) reg_producer: [Producer; p5_isa::Reg::COUNT],
    /// Sequence number of the program's first decoded instruction: queued
    /// entries below it belong to a program unloaded or replaced since,
    /// and drain without touching this one's groups or registers.
    pub(crate) first_seq: u64,
    /// Decode is stalled until this cycle (branch redirect).
    pub(crate) fetch_stall_until: u64,
    /// A mispredicted branch was decoded and has not yet resolved; decode
    /// stops until the engine converts this into a `fetch_stall_until`.
    pub(crate) redirect_pending: Option<u64>,
    /// In-flight dispatch groups, oldest first.
    pub(crate) groups: GroupRing,
}

impl ThreadState {
    pub(crate) fn new(
        program: Program,
        config: &CoreConfig,
        thread: ThreadId,
        salt: u64,
        first_seq: u64,
    ) -> ThreadState {
        let line_bytes = config.mem.l1d.line_bytes;
        let cursors = program
            .streams()
            .iter()
            .enumerate()
            .map(|(i, spec)| StreamCursor::new(thread, i, *spec, line_bytes, salt))
            .collect();
        let decoded = program
            .body()
            .iter()
            .map(|&inst| DecodedInst::new(inst, &config.latencies))
            .collect();
        ThreadState {
            program,
            decoded,
            privilege: PrivilegeLevel::Hypervisor,
            pc: 0,
            iter: 0,
            cursors,
            reg_producer: [Producer(0); p5_isa::Reg::COUNT],
            first_seq,
            fetch_stall_until: 0,
            redirect_pending: None,
            groups: GroupRing::new(config.gct_entries),
        }
    }

    /// Whether decoding `pc` now would consume the final instruction of
    /// the final micro-iteration of the current repetition.
    pub(crate) fn at_repetition_end(&self) -> bool {
        self.pc == self.decoded.len() - 1 && self.iter == self.program.iterations() - 1
    }

    /// Advances the program cursor past the instruction at `pc`.
    pub(crate) fn advance(&mut self) {
        self.pc += 1;
        if self.pc == self.decoded.len() {
            self.pc = 0;
            self.iter += 1;
            if self.iter == self.program.iterations() {
                self.iter = 0; // auto-restart: the engine records the boundary
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_isa::{Op, StaticInst};

    fn config() -> CoreConfig {
        CoreConfig::tiny_for_tests()
    }

    fn program(iters: u64, body_len: usize) -> Program {
        let mut b = Program::builder("t");
        for _ in 0..body_len {
            b.push(StaticInst::new(Op::IntAlu));
        }
        b.iterations(iters);
        b.build().unwrap()
    }

    #[test]
    fn base_addresses_are_disjoint() {
        let a = stream_base_address(ThreadId::T0, 0);
        let b = stream_base_address(ThreadId::T0, 1);
        let c = stream_base_address(ThreadId::T1, 0);
        // 64 GiB stream regions, 16 TiB thread regions: no overlap for any
        // realistic footprint.
        assert!(b - a >= 1 << 36);
        assert!(c - a >= 1 << 44);
    }

    #[test]
    fn sequential_cursor_wraps_within_footprint() {
        let spec = StreamSpec::sequential(256, 64);
        let mut c = StreamCursor::new(ThreadId::T0, 0, spec, 64, 0);
        let base = stream_base_address(ThreadId::T0, 0);
        let addrs: Vec<u64> = (0..6).map(|_| c.next_load_addr() - base).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 0, 64]);
    }

    #[test]
    fn chase_cursor_visits_every_line_before_repeating() {
        let spec = StreamSpec::pointer_chase(16 * 64);
        let mut c = StreamCursor::new(ThreadId::T0, 0, spec, 64, 0);
        let base = stream_base_address(ThreadId::T0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let line = (c.next_load_addr() - base) / 64;
            assert!(line < 16);
            seen.insert(line);
        }
        assert_eq!(seen.len(), 16, "full-period walk must touch all lines");
    }

    #[test]
    fn chase_ring_uses_exact_footprint() {
        let spec = StreamSpec::pointer_chase(100 * 64);
        let c = StreamCursor::new(ThreadId::T0, 0, spec, 64, 0);
        assert_eq!(c.chase_lines, 100);
        // Full period for a non-power-of-two ring too.
        let mut c = c.clone();
        let base = stream_base_address(ThreadId::T0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert((c.next_load_addr() - base) / 64);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn store_reuses_last_load_address() {
        let spec = StreamSpec::sequential(1024, 8);
        let mut c = StreamCursor::new(ThreadId::T0, 0, spec, 64, 0);
        let a1 = c.next_load_addr();
        assert_eq!(c.store_addr(), a1);
        let a2 = c.next_load_addr();
        assert_eq!(c.store_addr(), a2);
        assert_ne!(a1, a2);
    }

    #[test]
    fn advance_wraps_iterations() {
        let mut t = ThreadState::new(program(2, 3), &config(), ThreadId::T0, 0, 1);
        assert!(!t.at_repetition_end());
        for _ in 0..5 {
            t.advance();
        }
        // pc = 2, iter = 1: the last instruction of the last iteration.
        assert!(t.at_repetition_end());
        t.advance();
        assert_eq!(t.pc, 0);
        assert_eq!(t.iter, 0);
    }

    #[test]
    fn groups_keep_their_ring_slot_across_wraps() {
        let mut t = ThreadState::new(program(1, 1), &config(), ThreadId::T0, 0, 1);
        let ring = t.groups.slots.len();
        assert_eq!(ring, config().gct_entries.next_power_of_two());
        // Start near the end of the id space, so ids wrap as well.
        t.groups.head = u32::MAX - 3;
        t.groups.tail = u32::MAX - 3;
        // Cycle the ring a few times with two groups of two in flight,
        // issuing one instruction of each at decode.
        for round in 0..3 * ring as u64 {
            let id = t.groups.next_id();
            t.groups.push_back(Group {
                total: 2,
                ..Group::default()
            });
            t.groups.note_issue(id, 100 + round);
            if t.groups.len() > 2 {
                t.groups.pop_front();
            }
        }
        let last = 3 * ring as u64 - 1;
        let done: Vec<u64> = t.groups.iter().map(|g| g.done_at).collect();
        assert_eq!(done, [100 + last - 1, 100 + last]);
        assert_eq!(t.groups.retire_at(), u64::MAX, "the head has one left");
        let head = t.groups.next_id().wrapping_sub(2);
        t.groups.note_issue(head, 50);
        assert_eq!(
            t.groups.retire_at(),
            100 + last - 1,
            "the head's latest finish"
        );
        t.groups.note_issue(head.wrapping_add(1), 500);
        assert_eq!(t.groups.pop_front().done_at, 100 + last - 1);
        assert_eq!(t.groups.retire_at(), 500, "the next head was complete");
        t.groups.pop_front();
        assert_eq!(t.groups.retire_at(), u64::MAX, "no group in flight");
    }
}
