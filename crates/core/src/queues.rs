//! Issue queues, the writeback (finish) table, and the load-miss queue.

use p5_isa::{FuClass, ThreadId};

/// What an issue-queue entry does when it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecKind {
    /// Fixed-latency execution (ALU, MUL, FP, branch, nop, or-nop).
    /// `occupancy` is the number of cycles the functional unit stays busy
    /// (1 = fully pipelined).
    Fixed { latency: u64, occupancy: u64 },
    /// Load: walks the memory hierarchy, may need an LMQ entry.
    Load { addr: u64 },
    /// Store: allocates in the hierarchy, never blocks retirement here.
    Store { addr: u64 },
    /// Branch that was mispredicted at decode: on finish, redirects the
    /// thread's fetch.
    MispredictedBranch { latency: u64 },
}

/// An instruction waiting in an issue queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QEntry {
    pub(crate) seq: u64,
    pub(crate) thread: ThreadId,
    pub(crate) group_id: u64,
    /// Producer sequence numbers this instruction waits on (0 = none).
    pub(crate) dep1: u64,
    pub(crate) dep2: u64,
    pub(crate) kind: ExecKind,
}

/// The four shared issue queues.
#[derive(Debug, Clone)]
pub(crate) struct IssueQueues {
    pub(crate) fxq: Vec<QEntry>,
    pub(crate) fpq: Vec<QEntry>,
    pub(crate) lsq: Vec<QEntry>,
    pub(crate) brq: Vec<QEntry>,
    caps: [usize; 4],
    /// Per class (indexed by `FuClass as usize`), a cycle before which
    /// no entry of the queue can pass its dependency check: the issue
    /// scan skips the class until then, and the idle skip takes it as
    /// the class's horizon. A scan that tests every entry it leaves in
    /// the queue sets it to the earliest finish cycle of an entry's
    /// first unready producer, or to 0 if the units ran out first or a
    /// ready entry was held back by a port or LMQ gate. A producer that
    /// issues later lowers it to its own finish cycle
    /// ([`note_issue`](IssueQueues::note_issue)), and a new entry
    /// resets it to 0 ([`push`](IssueQueues::push)).
    pub(crate) wake: [u64; 4],
}

impl IssueQueues {
    pub(crate) fn new(fxq: usize, fpq: usize, lsq: usize, brq: usize) -> IssueQueues {
        IssueQueues {
            fxq: Vec::with_capacity(fxq),
            fpq: Vec::with_capacity(fpq),
            lsq: Vec::with_capacity(lsq),
            brq: Vec::with_capacity(brq),
            caps: [fxq, fpq, lsq, brq],
            wake: [0; 4],
        }
    }

    /// Appends a decoded instruction to its class's queue.
    pub(crate) fn push(&mut self, class: FuClass, entry: QEntry) {
        self.queue(class).push(entry);
        self.wake[class as usize] = 0;
    }

    /// Records that an instruction finishing at `finish` issued: any
    /// queued consumer of it may be ready from then on.
    pub(crate) fn note_issue(&mut self, finish: u64) {
        for wake in &mut self.wake {
            *wake = (*wake).min(finish);
        }
    }

    pub(crate) fn queue(&mut self, class: FuClass) -> &mut Vec<QEntry> {
        match class {
            FuClass::Fxu => &mut self.fxq,
            FuClass::Fpu => &mut self.fpq,
            FuClass::Lsu => &mut self.lsq,
            FuClass::Bru => &mut self.brq,
        }
    }

    pub(crate) fn has_room(&self, class: FuClass) -> bool {
        let (len, cap) = match class {
            FuClass::Fxu => (self.fxq.len(), self.caps[0]),
            FuClass::Fpu => (self.fpq.len(), self.caps[1]),
            FuClass::Lsu => (self.lsq.len(), self.caps[2]),
            FuClass::Bru => (self.brq.len(), self.caps[3]),
        };
        len < cap
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.fxq.len() + self.fpq.len() + self.lsq.len() + self.brq.len()
    }
}

/// Records the finish (writeback) cycle of issued instructions, indexed by
/// sequence number in a ring.
///
/// Disambiguation: the slot for sequence `s` can hold the record of `s`
/// itself, of an older wrapped sequence (`s - k*N`, meaning `s` has not
/// issued yet), or of a newer one (`s + k*N`, meaning `s` finished long
/// ago). Since the in-flight window is bounded by the GCT (far below `N`),
/// comparing the stored sequence against the queried one resolves all
/// three cases.
#[derive(Debug, Clone)]
pub(crate) struct FinishTable {
    slots: Vec<(u64, u64)>, // (seq, finish_cycle)
    mask: u64,
}

impl FinishTable {
    pub(crate) fn new(capacity_pow2: usize) -> FinishTable {
        assert!(capacity_pow2.is_power_of_two());
        FinishTable {
            slots: vec![(0, 0); capacity_pow2],
            mask: capacity_pow2 as u64 - 1,
        }
    }

    pub(crate) fn set(&mut self, seq: u64, finish: u64) {
        self.slots[(seq & self.mask) as usize] = (seq, finish);
    }

    /// Returns the cycle at which the value produced by `seq` is
    /// available, or `None` if `seq` has not issued yet.
    pub(crate) fn get(&self, seq: u64) -> Option<u64> {
        let (stored, finish) = self.slots[(seq & self.mask) as usize];
        if stored == seq {
            Some(finish)
        } else if stored > seq {
            // Overwritten by a much newer instruction: `seq` finished in
            // the distant past.
            Some(0)
        } else {
            None
        }
    }

    /// The cycle from which the value of `dep` is available: 0 for no
    /// dependency (`dep == 0`), `u64::MAX` while its producer has not
    /// issued.
    pub(crate) fn ready_from(&self, dep: u64) -> u64 {
        if dep == 0 {
            return 0;
        }
        self.get(dep).unwrap_or(u64::MAX)
    }
}

/// The shared load-miss queue (LMQ / MSHRs): bounds the number of
/// outstanding beyond-L1 misses, which bounds memory-level parallelism.
#[derive(Debug, Clone)]
pub(crate) struct LoadMissQueue {
    entries: Vec<(u64, ThreadId, bool)>, // (release_cycle, owner, beyond-L2)
    capacity: usize,
    /// Earliest release cycle among `entries` (`u64::MAX` when empty).
    next_release: u64,
}

impl LoadMissQueue {
    pub(crate) fn new(capacity: usize) -> LoadMissQueue {
        LoadMissQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_release: u64::MAX,
        }
    }

    /// Drops entries whose miss has returned. Called every cycle, and
    /// almost always with nothing due, so that case is one comparison.
    pub(crate) fn expire(&mut self, now: u64) {
        if now < self.next_release {
            return;
        }
        self.entries.retain(|&(release, _, _)| release > now);
        self.next_release = self
            .entries
            .iter()
            .map(|&(release, _, _)| release)
            .min()
            .unwrap_or(u64::MAX);
    }

    pub(crate) fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Outstanding misses owned by `thread`.
    pub(crate) fn outstanding(&self, thread: ThreadId) -> usize {
        self.entries.iter().filter(|&&(_, t, _)| t == thread).count()
    }

    /// Outstanding *beyond-L2* misses owned by `thread` (the balancer's
    /// L2-miss congestion signal).
    pub(crate) fn outstanding_deep(&self, thread: ThreadId) -> usize {
        self.entries
            .iter()
            .filter(|&&(_, t, deep)| t == thread && deep)
            .count()
    }

    pub(crate) fn push(&mut self, release: u64, thread: ThreadId, deep: bool) {
        debug_assert!(self.entries.len() < self.capacity);
        self.entries.push((release, thread, deep));
        self.next_release = self.next_release.min(release);
    }

    /// Earliest release cycle among the outstanding entries, if any —
    /// the first cycle at which [`expire`](LoadMissQueue::expire) can
    /// change the queue's state (an event-horizon source for the idle
    /// skip).
    pub(crate) fn next_release(&self) -> Option<u64> {
        (self.next_release != u64::MAX).then_some(self.next_release)
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_table_unissued_is_none() {
        let t = FinishTable::new(16);
        assert_eq!(t.get(5), None);
        assert_eq!(t.ready_from(5), u64::MAX);
        assert_eq!(t.ready_from(0), 0, "dep 0 means no dependency");
    }

    #[test]
    fn finish_table_set_get() {
        let mut t = FinishTable::new(16);
        t.set(5, 42);
        assert_eq!(t.get(5), Some(42));
        assert_eq!(t.ready_from(5), 42);
    }

    #[test]
    fn finish_table_wrap_disambiguation() {
        let mut t = FinishTable::new(16);
        t.set(5, 42);
        t.set(21, 100); // 21 = 5 + 16: overwrites slot 5
        // Querying the old seq now reports "finished long ago".
        assert_eq!(t.get(5), Some(0));
        assert_eq!(t.ready_from(5), 0);
        // Querying a future seq in the same slot reports "not issued".
        assert_eq!(t.get(37), None);
    }

    #[test]
    fn lmq_room_and_expiry() {
        let mut q = LoadMissQueue::new(2);
        assert!(q.has_room());
        q.push(10, ThreadId::T0, false);
        q.push(20, ThreadId::T0, true);
        assert!(!q.has_room());
        assert_eq!(q.next_release(), Some(10));
        q.expire(9); // nothing due yet
        assert_eq!(q.occupancy(), 2);
        q.expire(10); // entry releasing at 10 is done at cycle 10
        assert!(q.has_room());
        assert_eq!(q.outstanding(ThreadId::T0), 1);
        assert_eq!(q.occupancy(), 1);
        assert_eq!(q.next_release(), Some(20));
        q.expire(20);
        assert_eq!(q.next_release(), None);
    }

    #[test]
    fn lmq_per_thread_accounting() {
        let mut q = LoadMissQueue::new(4);
        q.push(100, ThreadId::T0, true);
        q.push(100, ThreadId::T1, true);
        q.push(100, ThreadId::T1, false);
        assert_eq!(q.outstanding(ThreadId::T0), 1);
        assert_eq!(q.outstanding(ThreadId::T1), 2);
        assert_eq!(q.outstanding_deep(ThreadId::T1), 1);
    }

    #[test]
    fn issue_queue_capacity() {
        let mut q = IssueQueues::new(2, 2, 2, 2);
        assert!(q.has_room(FuClass::Fxu));
        let e = QEntry {
            seq: 1,
            thread: ThreadId::T0,
            group_id: 1,
            dep1: 0,
            dep2: 0,
            kind: ExecKind::Fixed { latency: 1, occupancy: 1 },
        };
        q.push(FuClass::Fxu, e);
        q.push(FuClass::Fxu, QEntry { seq: 2, ..e });
        assert!(!q.has_room(FuClass::Fxu));
        assert!(q.has_room(FuClass::Fpu));
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn issue_queue_wake_tracks_pushes_and_issues() {
        let mut q = IssueQueues::new(2, 2, 2, 2);
        q.wake = [u64::MAX, 50, 40, 30];
        q.note_issue(45);
        assert_eq!(
            q.wake,
            [45, 45, 40, 30],
            "an issue lowers every class to its finish"
        );
        let e = QEntry {
            seq: 1,
            thread: ThreadId::T0,
            group_id: 1,
            dep1: 0,
            dep2: 0,
            kind: ExecKind::Store { addr: 0 },
        };
        q.push(FuClass::Lsu, e);
        assert_eq!(q.wake, [45, 45, 0, 30], "a new entry forces a scan");
    }
}
