//! Lazy update batching: asynchronous, batched metadata propagation.
//!
//! "Rather than using file-level eager metadata updates across datacenters,
//! we favor the creation of batches of updates for multiple files. We
//! denote this approach *lazy metadata updates*" (paper §III-D). A
//! [`LazyBatcher`] accumulates per-destination queues of entries and
//! releases a batch when it reaches `max_batch` entries or its oldest entry
//! exceeds `max_age`.

use crate::entry::RegistryEntry;
use geometa_cache::FxHashMap;
use geometa_sim::time::{SimDuration, SimTime};
use geometa_sim::topology::SiteId;

/// A batch ready to be shipped to a destination registry instance.
#[derive(Clone, Debug)]
pub struct ReadyBatch {
    /// Destination registry site.
    pub target: SiteId,
    /// Entries to absorb there.
    pub entries: Vec<RegistryEntry>,
}

/// Accumulates lazy updates per destination and decides when to flush.
#[derive(Debug)]
pub struct LazyBatcher {
    max_batch: usize,
    max_age: SimDuration,
    queues: FxHashMap<SiteId, (SimTime, Vec<RegistryEntry>)>,
}

impl LazyBatcher {
    /// Flush when a destination queue reaches `max_batch` entries or its
    /// oldest entry is older than `max_age`.
    pub fn new(max_batch: usize, max_age: SimDuration) -> LazyBatcher {
        assert!(max_batch > 0, "batch size must be positive");
        LazyBatcher {
            max_batch,
            max_age,
            queues: FxHashMap::default(),
        }
    }

    /// Queue capacity to pre-allocate per destination: the full batch size
    /// for ordinary configurations, capped so a huge `max_batch` doesn't
    /// reserve memory it may never use.
    fn queue_capacity(&self) -> usize {
        self.max_batch.min(256)
    }

    /// Queue `entry` for `target`. Returns a batch if the size threshold
    /// tripped.
    ///
    /// Destination queues are pre-sized to the batch threshold, so steady
    /// state enqueueing never reallocates: a queue is allocated once per
    /// destination and each flush hands the full buffer off, replacing it
    /// with a fresh pre-sized one.
    pub fn enqueue(
        &mut self,
        target: SiteId,
        entry: RegistryEntry,
        now: SimTime,
    ) -> Option<ReadyBatch> {
        let cap = self.queue_capacity();
        let (first_at, queue) = self
            .queues
            .entry(target)
            .or_insert_with(|| (now, Vec::with_capacity(cap)));
        if queue.is_empty() {
            *first_at = now;
        }
        queue.push(entry);
        if queue.len() >= self.max_batch {
            let entries = std::mem::replace(queue, Vec::with_capacity(cap));
            Some(ReadyBatch { target, entries })
        } else {
            None
        }
    }

    /// Collect batches whose oldest entry exceeded `max_age` at `now`.
    /// Call periodically (timer-driven).
    pub fn poll_expired(&mut self, now: SimTime) -> Vec<ReadyBatch> {
        let mut out = Vec::new();
        for (&target, (first_at, queue)) in self.queues.iter_mut() {
            if !queue.is_empty() && now.since(*first_at) >= self.max_age {
                let entries = std::mem::take(queue);
                out.push(ReadyBatch { target, entries });
            }
        }
        // Site order, not hash order.
        out.sort_by_key(|b| b.target);
        out
    }

    /// Flush everything unconditionally (shutdown / drain).
    pub fn flush_all(&mut self) -> Vec<ReadyBatch> {
        let mut out = Vec::new();
        for (&target, (_, queue)) in self.queues.iter_mut() {
            if !queue.is_empty() {
                let entries = std::mem::take(queue);
                out.push(ReadyBatch { target, entries });
            }
        }
        out.sort_by_key(|b| b.target);
        out
    }

    /// Entries currently waiting.
    pub fn pending(&self) -> usize {
        self.queues.values().map(|(_, q)| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;

    fn entry(i: u32) -> RegistryEntry {
        RegistryEntry::new(
            format!("f{i}"),
            1,
            FileLocation {
                site: SiteId(0),
                node: i,
            },
            0,
        )
    }

    #[test]
    fn size_threshold_flushes() {
        let mut b = LazyBatcher::new(3, SimDuration::from_secs(10));
        assert!(b.enqueue(SiteId(1), entry(0), SimTime(0)).is_none());
        assert!(b.enqueue(SiteId(1), entry(1), SimTime(1)).is_none());
        let batch = b.enqueue(SiteId(1), entry(2), SimTime(2)).unwrap();
        assert_eq!(batch.target, SiteId(1));
        assert_eq!(batch.entries.len(), 3);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn destinations_batch_independently() {
        let mut b = LazyBatcher::new(2, SimDuration::from_secs(10));
        assert!(b.enqueue(SiteId(1), entry(0), SimTime(0)).is_none());
        assert!(b.enqueue(SiteId(2), entry(1), SimTime(0)).is_none());
        assert!(b.enqueue(SiteId(1), entry(2), SimTime(0)).is_some());
        assert_eq!(b.pending(), 1, "site 2's entry still queued");
    }

    #[test]
    fn age_threshold_flushes_on_poll() {
        let mut b = LazyBatcher::new(100, SimDuration::from_millis(50));
        b.enqueue(SiteId(1), entry(0), SimTime(0));
        assert!(b.poll_expired(SimTime(40_000)).is_empty(), "not old enough");
        let expired = b.poll_expired(SimTime(60_000));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].entries.len(), 1);
    }

    #[test]
    fn age_clock_resets_after_flush() {
        let mut b = LazyBatcher::new(100, SimDuration::from_millis(50));
        b.enqueue(SiteId(1), entry(0), SimTime(0));
        let _ = b.poll_expired(SimTime(60_000));
        // New entry enqueued at t=60ms must NOT be flushed at t=70ms.
        b.enqueue(SiteId(1), entry(1), SimTime(60_000));
        assert!(b.poll_expired(SimTime(70_000)).is_empty());
        assert_eq!(b.poll_expired(SimTime(120_000)).len(), 1);
    }

    #[test]
    fn eager_batcher_emits_immediately() {
        let mut b = LazyBatcher::new(1, SimDuration::ZERO);
        for i in 0..5 {
            let batch = b.enqueue(SiteId(3), entry(i), SimTime(0)).unwrap();
            assert_eq!(batch.entries.len(), 1);
        }
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn flush_all_drains_in_site_order() {
        let mut b = LazyBatcher::new(100, SimDuration::from_secs(10));
        b.enqueue(SiteId(2), entry(0), SimTime(0));
        b.enqueue(SiteId(0), entry(1), SimTime(0));
        b.enqueue(SiteId(1), entry(2), SimTime(0));
        let all = b.flush_all();
        let order: Vec<u16> = all.iter().map(|x| x.target.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(b.pending(), 0);
    }

    /// The WAN saving §III-D argues for: 1 000 updates fanned out to 3
    /// sites cost one message per update per site when eager, and
    /// ceil(1000 / batch) per site when batched.
    #[test]
    fn batching_divides_messages_by_the_batch_size() {
        for (batch, per_site) in [(1usize, 1_000usize), (16, 63), (64, 16), (256, 4)] {
            let mut b = LazyBatcher::new(batch, SimDuration::from_secs(10));
            let mut messages = 0;
            for i in 0..1_000 {
                for target in 1..4 {
                    messages +=
                        usize::from(b.enqueue(SiteId(target), entry(i), SimTime(0)).is_some());
                }
            }
            messages += b.flush_all().len();
            assert_eq!(messages, 3 * per_site, "batch size {batch}");
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = LazyBatcher::new(0, SimDuration::ZERO);
    }

    #[test]
    fn conservation_holds_across_every_flush_path() {
        let mut b = LazyBatcher::new(3, SimDuration::from_millis(50));
        let mut shipped = 0u64;
        for i in 0..10 {
            if let Some(batch) = b.enqueue(SiteId((i % 3) as u16), entry(i), SimTime(i as u64)) {
                shipped += batch.entries.len() as u64;
            }
        }
        assert_eq!(shipped + b.pending() as u64, 10, "after size flushes");
        for batch in b.poll_expired(SimTime(1_000_000)) {
            shipped += batch.entries.len() as u64;
        }
        assert_eq!(shipped, 10, "after age flushes");
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn crash_drain_retries_every_unflushed_entry() {
        // A node crashes with a partially filled batcher: the recovery
        // drain must hand back exactly the unflushed tail so it can be
        // re-shipped — nothing is silently dropped.
        let mut b = LazyBatcher::new(4, SimDuration::from_secs(10));
        let mut shipped = 0;
        for i in 0..10 {
            if let Some(batch) = b.enqueue(SiteId(1), entry(i), SimTime(i as u64)) {
                shipped += batch.entries.len();
            }
        }
        // 2 full batches (8 entries) flushed by size; 2 entries pending at
        // "crash" time.
        assert_eq!(shipped, 8);
        assert_eq!(b.pending(), 2);
        let recovered = b.flush_all();
        let recovered_names: Vec<String> = recovered
            .iter()
            .flat_map(|batch| batch.entries.iter())
            .map(|e| e.name.as_str().to_owned())
            .collect();
        assert_eq!(recovered_names, vec!["f8", "f9"], "the unflushed tail");
        assert_eq!(b.pending(), 0);
        // A second recovery drain is a no-op, not a double-ship.
        assert!(b.flush_all().is_empty());
    }
}
