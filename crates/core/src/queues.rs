//! Issue queues with producer-to-consumer wakeup, and the load-miss
//! queue.

use p5_isa::{FuClass, Reg, ThreadId};

/// The most entries an issue queue may hold: its slot sets are `u64` masks.
pub(crate) const MAX_QUEUE_SLOTS: usize = 64;

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
    /// The entry's dispatch group in its thread's ring.
    pub(crate) group_id: u32,
    /// The register the instruction writes, if any.
    pub(crate) dst: Option<Reg>,
    pub(crate) kind: ExecKind,
}

/// A register's latest producer: the cycle its value is available from
/// (0 if none wrote it) or, with `QUEUED` set, its class and slot. One
/// word, as a two-field enum stalled decode on store forwarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Producer(pub(crate) u64);

impl Producer {
    const QUEUED: u64 = 1 << 63;

    pub(crate) const fn queued(class: FuClass, slot: u8) -> Producer {
        Producer(Producer::QUEUED | (class as u64) << 8 | slot as u64)
    }
}

/// One class's issue queue: an entry keeps its slot from decode to issue,
/// and per-slot state sits in parallel arrays.
#[derive(Debug, Clone)]
struct ClassQueue {
    entries: Vec<QEntry>,
    /// Per slot, the latest finish among its issued producers.
    ready_at: Vec<u64>,
    /// Per slot, its producers that have not issued.
    waiting: Vec<u8>,
    /// Per slot and class, the consumer slots waiting on it.
    consumers: Vec<[u64; 4]>,
    /// Occupied slots, oldest first.
    age: Vec<u8>,
    free: u64,
    /// Slots whose producers have all issued and finished by `now`.
    ready: u64,
    /// Slots woken in the cycle before `soon_at`, ready from it on.
    soon: u64,
    soon_at: u64,
    /// Slots whose producers have all issued but finish later; the
    /// earliest finish is `next_ready` (`u64::MAX` if none).
    timed: u64,
    next_ready: u64,
}

impl ClassQueue {
    /// Marks `slot` ready from `ready_at`, waking it in cycle `now`.
    fn wake(&mut self, slot: u32, ready_at: u64, now: u64) {
        if ready_at > now + 1 {
            self.timed |= 1 << slot;
            self.next_ready = self.next_ready.min(ready_at);
            return;
        }
        if self.soon_at <= now {
            self.ready |= self.soon;
            self.soon = 0;
        }
        self.soon |= 1 << slot;
        self.soon_at = now + 1;
    }
}

/// The four shared issue queues. An entry waits on the producers of its
/// sources that had not issued when it was decoded, and each producer's
/// issue wakes its consumers: the issue stage never tests an entry that
/// cannot issue, nor searches for a producer.
#[derive(Debug, Clone)]
pub(crate) struct IssueQueues {
    classes: [ClassQueue; 4],
    /// The cycle of the last [`ready`](Self::ready) call: the current
    /// one, as the issue stage calls it first every cycle.
    now: u64,
}

impl IssueQueues {
    /// Queues of `sizes` slots, indexed by `FuClass as usize`.
    pub(crate) fn new(sizes: [usize; 4]) -> IssueQueues {
        let vacant = QEntry {
            seq: 0,
            thread: ThreadId::T0,
            group_id: 0,
            dst: None,
            kind: ExecKind::Store { addr: 0 },
        };
        IssueQueues {
            classes: sizes.map(|size| ClassQueue {
                entries: vec![vacant; size],
                ready_at: vec![0; size],
                waiting: vec![0; size],
                consumers: vec![[0; 4]; size],
                age: Vec::with_capacity(size),
                free: u64::MAX >> (MAX_QUEUE_SLOTS - size),
                ready: 0,
                soon: 0,
                soon_at: 0,
                timed: 0,
                next_ready: u64::MAX,
            }),
            now: 0,
        }
    }

    /// Queues `entry` in `class`, waiting on `sources` (a producer named
    /// twice is waited on once), and returns its slot.
    #[inline]
    pub(crate) fn push(&mut self, class: FuClass, entry: QEntry, sources: [Producer; 2]) -> u8 {
        let c = class as usize;
        let slot = self.classes[c].free.trailing_zeros();
        let (mut ready_at, mut waiting) = (0, 0);
        for (i, Producer(source)) in sources.into_iter().enumerate() {
            if source & Producer::QUEUED == 0 {
                ready_at = ready_at.max(source);
            } else if i == 0 || source != sources[0].0 {
                let producer = &mut self.classes[(source >> 8) as u8 as usize];
                let at = usize::from(source as u8);
                debug_assert!(producer.free & (1 << at) == 0, "producer slot is free");
                producer.consumers[at][c] |= 1 << slot;
                waiting += 1;
            }
        }
        let q = &mut self.classes[c];
        let i = slot as usize;
        q.entries[i] = entry;
        q.ready_at[i] = ready_at;
        q.waiting[i] = waiting;
        q.free &= !(1 << slot);
        if waiting == 0 {
            q.wake(slot, ready_at, self.now);
        }
        q.age.push(slot as u8);
        slot as u8
    }

    /// The slots of `class` whose entries can issue at `now`. The issue
    /// stage calls this for every class every cycle.
    #[inline]
    pub(crate) fn ready(&mut self, class: FuClass, now: u64) -> u64 {
        self.now = now;
        let q = &mut self.classes[class as usize];
        // Nothing to promote or issue: the common case of a class whose
        // entries all wait on unissued producers, or of an empty one.
        if q.ready | q.soon | q.timed == 0 {
            return 0;
        }
        if q.soon_at <= now {
            q.ready |= q.soon;
            q.soon = 0;
        }
        if now >= q.next_ready {
            q.next_ready = u64::MAX;
            let mut timed = q.timed;
            while timed != 0 {
                let slot = timed.trailing_zeros();
                timed &= timed - 1;
                let ready_at = q.ready_at[slot as usize];
                if ready_at <= now {
                    q.timed &= !(1 << slot);
                    q.ready |= 1 << slot;
                } else {
                    q.next_ready = q.next_ready.min(ready_at);
                }
            }
        }
        q.ready
    }

    /// The oldest entry of `class` at or after position `from` of its
    /// age list whose slot is in `left`, which loses that slot: its
    /// position, slot and entry.
    #[inline]
    pub(crate) fn next_ready(
        &self,
        class: FuClass,
        from: usize,
        left: &mut u64,
    ) -> Option<(usize, u8, QEntry)> {
        let q = &self.classes[class as usize];
        let pos = from + q.age[from..].iter().position(|&s| *left & (1 << s) != 0)?;
        let slot = q.age[pos];
        *left &= !(1 << slot);
        Some((pos, slot, q.entries[usize::from(slot)]))
    }

    /// Removes the entry at `pos` of `class`'s age list, which issued
    /// and finishes at `finish`, and wakes the consumers waiting on it.
    #[inline]
    pub(crate) fn issue(&mut self, class: FuClass, pos: usize, finish: u64) {
        let q = &mut self.classes[class as usize];
        let slot = q.age.remove(pos);
        q.free |= 1 << slot;
        q.ready &= !(1 << slot);
        let consumers = std::mem::take(&mut q.consumers[usize::from(slot)]);
        for (q, mut mask) in self.classes.iter_mut().zip(consumers) {
            while mask != 0 {
                let k = mask.trailing_zeros();
                mask &= mask - 1;
                let i = k as usize;
                q.ready_at[i] = q.ready_at[i].max(finish);
                q.waiting[i] -= 1;
                if q.waiting[i] == 0 {
                    q.wake(k, q.ready_at[i], self.now);
                }
            }
        }
    }

    /// The earliest cycle at which an entry whose producers have all
    /// issued becomes ready, if any: exact after a cycle in which nothing
    /// issued or decoded, whose `ready` calls left `soon` empty.
    pub(crate) fn next_wakeup(&self) -> Option<u64> {
        let next = self.classes.iter().map(|q| q.next_ready).min()?;
        (next != u64::MAX).then_some(next)
    }

    /// The entries queued in `class`, oldest first.
    pub(crate) fn entries(&self, class: FuClass) -> impl Iterator<Item = &QEntry> {
        let q = &self.classes[class as usize];
        q.age.iter().map(|&slot| &q.entries[usize::from(slot)])
    }

    pub(crate) fn has_room(&self, class: FuClass) -> bool {
        self.classes[class as usize].free != 0
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.classes.iter().map(|q| q.age.len()).sum()
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
    /// Per thread, its entries and how many of them are beyond-L2.
    owned: [usize; 2],
    owned_deep: [usize; 2],
}

impl LoadMissQueue {
    pub(crate) fn new(capacity: usize) -> LoadMissQueue {
        LoadMissQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_release: u64::MAX,
            owned: [0; 2],
            owned_deep: [0; 2],
        }
    }

    /// Drops entries whose miss has returned. Called every cycle, and
    /// almost always with nothing due, so that case is one comparison.
    pub(crate) fn expire(&mut self, now: u64) {
        if now < self.next_release {
            return;
        }
        let (owned, owned_deep) = (&mut self.owned, &mut self.owned_deep);
        self.entries.retain(|&(release, thread, deep)| {
            let due = release <= now;
            if due {
                owned[thread.index()] -= 1;
                owned_deep[thread.index()] -= usize::from(deep);
            }
            !due
        });
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
        self.owned[thread.index()]
    }

    /// Outstanding *beyond-L2* misses owned by `thread` (the balancer's
    /// L2-miss congestion signal).
    pub(crate) fn outstanding_deep(&self, thread: ThreadId) -> usize {
        self.owned_deep[thread.index()]
    }

    pub(crate) fn push(&mut self, release: u64, thread: ThreadId, deep: bool) {
        debug_assert!(self.entries.len() < self.capacity);
        self.entries.push((release, thread, deep));
        self.next_release = self.next_release.min(release);
        self.owned[thread.index()] += 1;
        self.owned_deep[thread.index()] += usize::from(deep);
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
        q.push(50, ThreadId::T1, true);
        q.expire(50);
        assert_eq!(q.outstanding(ThreadId::T1), 2, "expiry releases the count");
        assert_eq!(q.outstanding_deep(ThreadId::T1), 1);
        q.expire(100);
        assert_eq!(
            [q.outstanding(ThreadId::T0), q.outstanding(ThreadId::T1)],
            [0, 0]
        );
        assert_eq!(q.outstanding_deep(ThreadId::T1), 0);
    }

    fn entry(seq: u64, dst: Option<Reg>) -> QEntry {
        QEntry {
            seq,
            thread: ThreadId::T0,
            group_id: 1,
            dst,
            kind: ExecKind::Fixed {
                latency: 1,
                occupancy: 1,
            },
        }
    }

    const NONE: [Producer; 2] = [Producer(0); 2];

    /// The sequence numbers of `class`'s entries that can issue at
    /// `now`, oldest first.
    fn ready_seqs(q: &mut IssueQueues, class: FuClass, now: u64) -> Vec<u64> {
        let mut left = q.ready(class, now);
        let mut seqs = Vec::new();
        let mut from = 0;
        while let Some((pos, _, e)) = q.next_ready(class, from, &mut left) {
            seqs.push(e.seq);
            from = pos + 1;
        }
        seqs
    }

    #[test]
    fn issue_queue_capacity() {
        let mut q = IssueQueues::new([2, 2, 2, 2]);
        assert!(q.has_room(FuClass::Fxu));
        q.push(FuClass::Fxu, entry(1, None), NONE);
        q.push(FuClass::Fxu, entry(2, None), NONE);
        assert!(!q.has_room(FuClass::Fxu));
        assert!(q.has_room(FuClass::Fpu));
        assert_eq!(q.occupancy(), 2);
        q.issue(FuClass::Fxu, 0, 5);
        assert!(q.has_room(FuClass::Fxu), "an issue frees its slot");
        let seqs: Vec<u64> = q.entries(FuClass::Fxu).map(|e| e.seq).collect();
        assert_eq!(seqs, [2]);
    }

    #[test]
    fn a_full_64_slot_queue_reuses_freed_slots_oldest_first() {
        let mut q = IssueQueues::new([MAX_QUEUE_SLOTS, 1, 1, 1]);
        for seq in 1..=64 {
            q.push(FuClass::Fxu, entry(seq, None), NONE);
        }
        assert!(!q.has_room(FuClass::Fxu));
        q.issue(FuClass::Fxu, 10, 1);
        assert_eq!(q.push(FuClass::Fxu, entry(65, None), NONE), 10);
        let seqs = ready_seqs(&mut q, FuClass::Fxu, 1);
        let expected: Vec<u64> = (1..=65).filter(|&seq| seq != 11).collect();
        assert_eq!(seqs, expected, "the reused slot holds the youngest entry");
    }

    #[test]
    fn a_consumer_of_two_producers_is_ready_at_the_later_finish() {
        let mut q = IssueQueues::new([4, 4, 4, 4]);
        let load = q.push(FuClass::Lsu, entry(1, Some(Reg::new(1))), NONE);
        let add = q.push(FuClass::Fxu, entry(2, Some(Reg::new(2))), NONE);
        q.push(
            FuClass::Fxu,
            entry(3, None),
            [
                Producer::queued(FuClass::Lsu, load),
                Producer::queued(FuClass::Fxu, add),
            ],
        );
        assert_eq!(ready_seqs(&mut q, FuClass::Lsu, 10), [1]);
        assert_eq!(ready_seqs(&mut q, FuClass::Fxu, 10), [2], "3 waits on both");
        assert_eq!(q.next_wakeup(), None, "nothing is in flight yet");
        // The load issues first and finishes at 40, the add at 12.
        q.issue(FuClass::Lsu, 0, 40);
        assert_eq!(
            ready_seqs(&mut q, FuClass::Fxu, 10),
            [2],
            "3 still waits on the add"
        );
        q.issue(FuClass::Fxu, 0, 12);
        assert_eq!(q.next_wakeup(), Some(40));
        assert!(ready_seqs(&mut q, FuClass::Fxu, 39).is_empty());
        assert_eq!(ready_seqs(&mut q, FuClass::Fxu, 40), [3]);
        assert_eq!(q.next_wakeup(), None);
    }

    #[test]
    fn a_producer_named_by_both_sources_is_waited_on_once() {
        let mut q = IssueQueues::new([4, 4, 4, 4]);
        let p = q.push(FuClass::Fxu, entry(1, Some(Reg::new(7))), NONE);
        let twice = [Producer::queued(FuClass::Fxu, p); 2];
        q.push(FuClass::Fxu, entry(2, None), twice);
        assert_eq!(ready_seqs(&mut q, FuClass::Fxu, 1), [1]);
        q.issue(FuClass::Fxu, 0, 3);
        // Waited on twice, the consumer would never wake.
        assert_eq!(q.next_wakeup(), Some(3));
        assert_eq!(ready_seqs(&mut q, FuClass::Fxu, 3), [2]);
    }
}
