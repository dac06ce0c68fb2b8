//! The event queue at the heart of the DES engine.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is a
//! monotonically increasing tie-breaker, so two events scheduled for the
//! same instant fire in scheduling order. This makes runs deterministic —
//! there is never heap-order nondeterminism to leak into results.
//!
//! # Structure
//!
//! Two **8-ary min-heaps** (shallower than binary, and a parent's
//! children are contiguous, so the pop-path child scan streams a handful
//! of adjacent cache lines), one per event class:
//!
//! * **Deliveries** carry the message payload inline and need no
//!   cancellation, so their heap does zero bookkeeping — a push/pop is
//!   just a hole-sift over a flat `Vec`.
//! * **Timers** are index-addressed: timer ids are dense sequential
//!   counters, so a plain `Vec<u32>` maps each id to its current heap
//!   slot (updated with one array store per sift move — no hashing).
//!   Cancelling a timer is therefore an O(log n) *removal*: the event
//!   leaves the queue immediately instead of lingering as a tombstone to
//!   be skipped at dispatch, which is what the previous `BinaryHeap` +
//!   cancelled-set design did for the whole run.
//!
//! Dispatch merges the two heaps by `(time, seq)`. Since that key is a
//! strict total order over all events, the merged pop sequence is exactly
//! the one a single heap would produce — swapping the structure cannot
//! change dispatch order, so seeded runs stay bit-for-bit reproducible.

use crate::engine::{ActorId, Envelope, TimerId};
use crate::time::SimTime;

/// Heap branching factor.
const ARITY: usize = 8;

/// Sentinel for "timer not currently queued".
const NOT_QUEUED: u32 = u32::MAX;

/// What happens when an event fires.
pub(crate) enum EventKind<M> {
    /// Deliver a message envelope to an actor.
    Deliver { dst: ActorId, env: Envelope<M> },
    /// Fire a timer on an actor.
    Timer {
        actor: ActorId,
        id: TimerId,
        tag: u64,
    },
}

pub(crate) struct ScheduledEvent<M> {
    pub time: SimTime,
    pub kind: EventKind<M>,
}

struct DeliverEntry<M> {
    time: SimTime,
    seq: u64,
    dst: ActorId,
    env: Envelope<M>,
}

/// 32 bytes: four entries per pair of cache lines on the sift path. The
/// timer id is stored relative to the table base as `u32` — a single busy
/// period would need a >16 GB position table before the width mattered
/// (enforced at push).
#[derive(Clone, Copy)]
struct TimerEntry {
    time: SimTime,
    seq: u64,
    tag: u64,
    actor: ActorId,
    /// `TimerId - timer_pos_base` of the armed timer.
    id: u32,
}

/// Min-queue of scheduled events with stable tie-breaking and
/// slot-addressed timer cancellation.
pub(crate) struct EventQueue<M> {
    delivers: Vec<DeliverEntry<M>>,
    timers: Vec<TimerEntry>,
    /// Heap slot of each timer id at offset `id - timer_pos_base`
    /// (`NOT_QUEUED` once fired or cancelled). Rebased whenever the timer
    /// heap drains, so it grows with the id span of one busy period — not
    /// with the total number of timers ever armed — at 4 bytes per id,
    /// traded for hash-free O(1) slot lookups.
    timer_pos: Vec<u32>,
    /// Timer ids below this are known fired/cancelled (table rebase point).
    timer_pos_base: u64,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            delivers: Vec::new(),
            timers: Vec::new(),
            timer_pos: Vec::new(),
            timer_pos_base: 0,
            next_seq: 0,
        }
    }

    /// Pre-size the queue (the engine reserves mailbox room per actor so
    /// steady-state scheduling doesn't regrow the buffers mid-run).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.delivers.reserve(additional);
        self.timers.reserve(additional);
    }

    pub(crate) fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match kind {
            EventKind::Deliver { dst, env } => {
                self.delivers.push(DeliverEntry {
                    time,
                    seq,
                    dst,
                    env,
                });
                self.sift_up_deliver(self.delivers.len() - 1);
            }
            EventKind::Timer { actor, id, tag } => {
                if self.timers.is_empty() {
                    // No timer pending: every id below this one is dead, so
                    // rebase the table instead of letting it grow with the
                    // total number of timers ever armed.
                    self.timer_pos.clear();
                    self.timer_pos_base = id.0;
                }
                debug_assert!(id.0 >= self.timer_pos_base, "timer ids are monotone");
                let rel = id.0 - self.timer_pos_base;
                assert!(
                    rel < u64::from(NOT_QUEUED),
                    "timer id span exhausted (dense position table)"
                );
                let idx = rel as usize;
                if idx >= self.timer_pos.len() {
                    self.timer_pos.resize(idx + 1, NOT_QUEUED);
                }
                self.timers.push(TimerEntry {
                    time,
                    seq,
                    tag,
                    actor,
                    id: rel as u32,
                });
                let slot = self.timers.len() - 1;
                self.timer_pos[idx] = slot as u32;
                self.sift_up_timer(slot);
            }
        }
    }

    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the queue's tests call it")
    )]
    pub(crate) fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pop the earliest event only if it is scheduled at or before
    /// `deadline` (single root inspection per heap; saves the
    /// peek-then-pop double probe in the engine's hot loop).
    pub(crate) fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<ScheduledEvent<M>> {
        let dk = self.delivers.first().map(|e| (e.time, e.seq));
        let tk = self.timers.first().map(|e| (e.time, e.seq));
        let take_timer = match (dk, tk) {
            (None, None) => return None,
            (Some(d), None) => {
                if d.0 > deadline {
                    return None;
                }
                false
            }
            (None, Some(t)) => {
                if t.0 > deadline {
                    return None;
                }
                true
            }
            (Some(d), Some(t)) => {
                if d.min(t).0 > deadline {
                    return None;
                }
                t < d
            }
        };
        if take_timer {
            let e = self.remove_timer_at(0);
            Some(ScheduledEvent {
                time: e.time,
                kind: EventKind::Timer {
                    actor: e.actor,
                    id: TimerId(self.timer_pos_base + u64::from(e.id)),
                    tag: e.tag,
                },
            })
        } else {
            let e = self.remove_deliver_at(0);
            Some(ScheduledEvent {
                time: e.time,
                kind: EventKind::Deliver {
                    dst: e.dst,
                    env: e.env,
                },
            })
        }
    }

    /// Cancel a pending timer by removing its event from the heap (slot
    /// lookup + one sift). Returns whether the timer was still pending.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) -> bool {
        let Some(rel) = id.0.checked_sub(self.timer_pos_base) else {
            return false; // from a drained epoch: already fired/cancelled
        };
        match self.timer_pos.get(rel as usize) {
            Some(&slot) if slot != NOT_QUEUED => {
                self.remove_timer_at(slot as usize);
                true
            }
            _ => false,
        }
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let d = self.delivers.first().map(|e| (e.time, e.seq));
        let t = self.timers.first().map(|e| (e.time, e.seq));
        match (d, t) {
            (None, None) => None,
            (Some(k), None) | (None, Some(k)) => Some(k.0),
            (Some(a), Some(b)) => Some(a.min(b).0),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.delivers.len() + self.timers.len()
    }

    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the queue's tests call it")
    )]
    pub(crate) fn is_empty(&self) -> bool {
        self.delivers.is_empty() && self.timers.is_empty()
    }

    // ---- deliver heap (no position tracking) ----

    fn remove_deliver_at(&mut self, pos: usize) -> DeliverEntry<M> {
        let last = self.delivers.len() - 1;
        let removed = self.delivers.swap_remove(pos);
        if pos < last {
            self.sift_up_deliver(pos);
            self.sift_down_deliver(pos);
        }
        removed
    }

    fn sift_up_deliver(&mut self, idx: usize) {
        let mut idx = idx;
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            let (a, b) = (
                (self.delivers[idx].time, self.delivers[idx].seq),
                (self.delivers[parent].time, self.delivers[parent].seq),
            );
            if a < b {
                self.delivers.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down_deliver(&mut self, mut idx: usize) {
        let len = self.delivers.len();
        loop {
            let first_child = idx * ARITY + 1;
            if first_child >= len {
                break;
            }
            let end = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            let mut min_key = (
                self.delivers[first_child].time,
                self.delivers[first_child].seq,
            );
            for c in first_child + 1..end {
                let k = (self.delivers[c].time, self.delivers[c].seq);
                if k < min_key {
                    min_child = c;
                    min_key = k;
                }
            }
            if min_key < (self.delivers[idx].time, self.delivers[idx].seq) {
                self.delivers.swap(idx, min_child);
                idx = min_child;
            } else {
                break;
            }
        }
    }

    // ---- timer heap (slot-addressed) ----

    fn remove_timer_at(&mut self, pos: usize) -> TimerEntry {
        let last = self.timers.len() - 1;
        let removed = self.timers.swap_remove(pos);
        self.timer_pos[removed.id as usize] = NOT_QUEUED;
        if pos < last {
            self.timer_pos[self.timers[pos].id as usize] = pos as u32;
            self.sift_up_timer(pos);
            self.sift_down_timer(pos);
        }
        removed
    }

    fn sift_up_timer(&mut self, mut idx: usize) {
        let entry = self.timers[idx];
        let key = (entry.time, entry.seq);
        while idx > 0 {
            let parent = (idx - 1) / ARITY;
            let p = self.timers[parent];
            if key < (p.time, p.seq) {
                self.timers[idx] = p;
                self.timer_pos[p.id as usize] = idx as u32;
                idx = parent;
            } else {
                break;
            }
        }
        self.timers[idx] = entry;
        self.timer_pos[entry.id as usize] = idx as u32;
    }

    fn sift_down_timer(&mut self, mut idx: usize) {
        let len = self.timers.len();
        if len == 0 {
            return;
        }
        let entry = self.timers[idx];
        let key = (entry.time, entry.seq);
        loop {
            let first_child = idx * ARITY + 1;
            if first_child >= len {
                break;
            }
            let end = (first_child + ARITY).min(len);
            let mut min_child = first_child;
            let mut min_key = (self.timers[first_child].time, self.timers[first_child].seq);
            for c in first_child + 1..end {
                let k = (self.timers[c].time, self.timers[c].seq);
                if k < min_key {
                    min_child = c;
                    min_key = k;
                }
            }
            if min_key < key {
                let c = self.timers[min_child];
                self.timers[idx] = c;
                self.timer_pos[c.id as usize] = idx as u32;
                idx = min_child;
            } else {
                break;
            }
        }
        self.timers[idx] = entry;
        self.timer_pos[entry.id as usize] = idx as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ActorId;
    use crate::topology::SiteId;

    fn timer_event(actor: u32, tag: u64) -> EventKind<()> {
        EventKind::Timer {
            actor: ActorId(actor),
            id: TimerId(tag),
            tag,
        }
    }

    fn deliver_event(dst: u32, sent_at: u64) -> EventKind<()> {
        EventKind::Deliver {
            dst: ActorId(dst),
            env: Envelope {
                from: ActorId(0),
                from_site: SiteId(0),
                sent_at: SimTime(sent_at),
                msg: (),
            },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(30), timer_event(0, 0));
        q.push(SimTime(10), timer_event(0, 1));
        q.push(SimTime(20), timer_event(0, 2));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for tag in 0..5 {
            q.push(SimTime(7), timer_event(0, tag));
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn timers_and_delivers_interleave_by_time_and_seq() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(10), timer_event(0, 0)); // seq 0
        q.push(SimTime(10), deliver_event(1, 1)); // seq 1 — same instant, later seq
        q.push(SimTime(5), deliver_event(2, 2)); // seq 2 — earlier time
        q.push(SimTime(20), timer_event(3, 3)); // seq 3
        let order: Vec<(u64, bool)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, matches!(e.kind, EventKind::Timer { .. })))
            .collect();
        assert_eq!(
            order,
            vec![(5, false), (10, true), (10, false), (20, true)],
            "merged dispatch must follow (time, seq) exactly"
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(42), timer_event(0, 0));
        q.push(SimTime(5), deliver_event(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(42)));
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(10), timer_event(0, 0));
        q.push(SimTime(30), deliver_event(0, 0));
        assert!(q.pop_at_or_before(SimTime(5)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime(10)).unwrap().time, SimTime(10));
        assert!(q.pop_at_or_before(SimTime(29)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_at_or_before(SimTime(u64::MAX)).unwrap().time,
            SimTime(30)
        );
    }

    #[test]
    fn position_table_rebases_between_busy_periods() {
        let mut q: EventQueue<()> = EventQueue::new();
        // Many generations of short-lived timers with ever-growing ids.
        for gen in 0..1000u64 {
            for j in 0..4 {
                q.push(SimTime(gen * 10 + j), timer_event(0, gen * 4 + j));
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(
            q.timer_pos.len() <= 4,
            "position table grew to {} entries despite rebasing",
            q.timer_pos.len()
        );
        // Ids from drained epochs are reported not-pending, current ones
        // still cancel correctly.
        assert!(!q.cancel_timer(TimerId(0)));
        q.push(SimTime(1_000_000), timer_event(0, 4000));
        assert!(!q.cancel_timer(TimerId(3999)));
        assert!(q.cancel_timer(TimerId(4000)));
        assert!(q.is_empty());
    }

    #[test]
    fn popped_timer_ids_survive_rebasing() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimTime(1), timer_event(0, 7));
        q.pop().unwrap();
        // New epoch: base becomes 100.
        q.push(SimTime(2), timer_event(0, 100));
        match q.pop().unwrap().kind {
            EventKind::Timer { id, .. } => assert_eq!(id, TimerId(100)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cancel_removes_event_entirely() {
        let mut q: EventQueue<()> = EventQueue::new();
        for tag in 0..100 {
            q.push(SimTime(tag * 3), timer_event(0, tag));
        }
        // Cancel every third timer, from the middle of the heap outwards.
        let mut cancelled = Vec::new();
        for tag in (0..100).step_by(3) {
            assert!(q.cancel_timer(TimerId(tag)), "timer {tag} should pend");
            cancelled.push(tag);
        }
        // Cancelling again reports not-pending.
        assert!(!q.cancel_timer(TimerId(0)));
        // Unknown ids are harmless.
        assert!(!q.cancel_timer(TimerId(10_000)));
        assert_eq!(q.len(), 100 - cancelled.len());
        // Remaining events pop in strict order and exclude the cancelled.
        let mut last = SimTime(0);
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= last);
            last = e.time;
            if let EventKind::Timer { tag, .. } = e.kind {
                assert!(tag % 3 != 0, "cancelled timer {tag} still fired");
            }
            popped += 1;
        }
        assert_eq!(popped, 100 - cancelled.len());
    }

    #[test]
    fn cancel_interleaved_with_pushes_keeps_order() {
        // Deterministic stress: interleave pushes and cancels and verify
        // the pop sequence is exactly the sorted surviving set.
        let mut q: EventQueue<()> = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (time, tag)
        let mut x = 0x1234_5678_u64;
        let mut tag = 0u64;
        for round in 0..50 {
            for _ in 0..20 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = x >> 40;
                q.push(SimTime(t), timer_event(0, tag));
                expected.push((t, tag));
                tag += 1;
            }
            // Cancel a pseudo-random pending timer each round.
            let victim = expected[(round * 7) % expected.len()].1;
            if q.cancel_timer(TimerId(victim)) {
                expected.retain(|&(_, g)| g != victim);
            }
        }
        expected.sort_by_key(|&(t, g)| (t, g));
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            if let EventKind::Timer { tag, .. } = e.kind {
                got.push((e.time.0, tag));
            }
        }
        // Sequence numbers follow push order, which here follows tag order,
        // so (time, tag) sorting matches (time, seq) dispatch order.
        assert_eq!(got, expected);
    }
}
