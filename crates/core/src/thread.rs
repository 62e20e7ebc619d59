//! Per-context state: program cursor, address-stream generators,
//! register producers, and in-flight dispatch groups.

use crate::queues::Producer;
use p5_isa::{AccessPattern, PrivilegeLevel, Program, StreamSpec, ThreadId};
use std::collections::VecDeque;

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

/// One dispatch group occupying a GCT entry.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) id: u64,
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

/// Architectural state of one hardware thread context.
#[derive(Debug, Clone)]
pub(crate) struct ThreadState {
    pub(crate) program: Program,
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
    pub(crate) groups: VecDeque<Group>,
    pub(crate) next_group_id: u64,
}

impl ThreadState {
    pub(crate) fn new(
        program: Program,
        line_bytes: u64,
        thread: ThreadId,
        salt: u64,
        first_seq: u64,
    ) -> ThreadState {
        let cursors = program
            .streams()
            .iter()
            .enumerate()
            .map(|(i, spec)| StreamCursor::new(thread, i, *spec, line_bytes, salt))
            .collect();
        ThreadState {
            program,
            privilege: PrivilegeLevel::Hypervisor,
            pc: 0,
            iter: 0,
            cursors,
            reg_producer: [Producer(0); p5_isa::Reg::COUNT],
            first_seq,
            fetch_stall_until: 0,
            redirect_pending: None,
            groups: VecDeque::new(),
            next_group_id: 1,
        }
    }

    /// Finds an in-flight group by id (groups retire in id order, so the
    /// offset from the head id is the index).
    pub(crate) fn group_mut(&mut self, id: u64) -> &mut Group {
        let head = self
            .groups
            .front()
            .expect("instruction issued for a thread with no in-flight groups")
            .id;
        let idx = (id - head) as usize;
        &mut self.groups[idx]
    }

    /// Whether decoding `pc` now would consume the final instruction of
    /// the final micro-iteration of the current repetition.
    pub(crate) fn at_repetition_end(&self) -> bool {
        self.pc == self.program.body().len() - 1 && self.iter == self.program.iterations() - 1
    }

    /// Advances the program cursor past the instruction at `pc`.
    pub(crate) fn advance(&mut self) {
        self.pc += 1;
        if self.pc == self.program.body().len() {
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
        let mut t = ThreadState::new(program(2, 3), 128, ThreadId::T0, 0, 1);
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
    fn group_lookup_by_id() {
        let mut t = ThreadState::new(program(1, 1), 128, ThreadId::T0, 0, 1);
        t.groups.push_back(Group {
            id: 7,
            total: 5,
            issued: 0,
            done_at: 0,
            rep_ends: 0,
        });
        t.groups.push_back(Group {
            id: 8,
            total: 3,
            issued: 0,
            done_at: 0,
            rep_ends: 0,
        });
        t.group_mut(8).issued = 2;
        assert_eq!(t.groups[1].issued, 2);
        assert_eq!(t.groups[0].issued, 0);
    }
}
