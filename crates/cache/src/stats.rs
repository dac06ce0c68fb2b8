//! Lock-free operation counters for cache instances.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters.
#[derive(Debug, Default)]
pub(crate) struct StatsCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    conflicts: AtomicU64,
}

impl StatsCounters {
    #[inline]
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub(crate) fn conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of cache operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful reads.
    pub hits: u64,
    /// Reads of absent keys.
    pub misses: u64,
    /// Successful writes (including absorbed entries).
    pub writes: u64,
    /// Conditional writes rejected by the optimistic concurrency check.
    pub conflicts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = StatsCounters::default();
        c.hit();
        c.hit();
        c.miss();
        c.write();
        c.conflict();
        let s = c.snapshot();
        assert_eq!(
            s,
            CacheStats {
                hits: 2,
                misses: 1,
                writes: 1,
                conflicts: 1
            }
        );
    }
}
