//! Client-side operation statistics.
//!
//! Tracks where metadata operations were resolved — locally or remotely —
//! which is the quantity the paper's analysis revolves around (local ops
//! are ~50x cheaper than geo-distant ones).

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters for one client (or one aggregated view).
#[derive(Debug, Default)]
pub struct OpStats {
    /// Reads satisfied by the first (local) probe.
    pub local_read_hits: AtomicU64,
    /// Reads that needed a remote probe.
    pub remote_reads: AtomicU64,
    /// Reads that found the entry nowhere.
    pub read_misses: AtomicU64,
    /// Writes whose synchronous target was the local site.
    pub local_writes: AtomicU64,
    /// Writes whose synchronous target was remote.
    pub remote_writes: AtomicU64,
    /// Fire-and-forget propagation messages issued.
    pub async_pushes: AtomicU64,
    /// Read retries performed (replicated strategy waiting for sync).
    pub retries: AtomicU64,
    /// Read probes that failed over past an unavailable site.
    pub failovers: AtomicU64,
    /// Operations retried after refreshing a stale membership plan.
    pub epoch_refreshes: AtomicU64,
}

/// Plain-data snapshot of [`OpStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    /// Reads satisfied by the first (local) probe.
    pub local_read_hits: u64,
    /// Reads that needed a remote probe.
    pub remote_reads: u64,
    /// Reads that found the entry nowhere.
    pub read_misses: u64,
    /// Writes whose synchronous target was the local site.
    pub local_writes: u64,
    /// Writes whose synchronous target was remote.
    pub remote_writes: u64,
    /// Fire-and-forget propagation messages issued.
    pub async_pushes: u64,
    /// Read retries performed.
    pub retries: u64,
    /// Read probes that failed over past an unavailable site.
    pub failovers: u64,
    /// Operations retried after refreshing a stale membership plan.
    pub epoch_refreshes: u64,
}

impl OpStats {
    /// Take a snapshot.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            local_read_hits: self.local_read_hits.load(Ordering::Relaxed),
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            read_misses: self.read_misses.load(Ordering::Relaxed),
            local_writes: self.local_writes.load(Ordering::Relaxed),
            remote_writes: self.remote_writes.load(Ordering::Relaxed),
            async_pushes: self.async_pushes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            epoch_refreshes: self.epoch_refreshes.load(Ordering::Relaxed),
        }
    }
}

impl OpStatsSnapshot {
    /// All completed reads.
    #[cfg(test)]
    pub(crate) fn reads(&self) -> u64 {
        self.local_read_hits + self.remote_reads + self.read_misses
    }

    /// All writes.
    #[cfg(test)]
    pub(crate) fn writes(&self) -> u64 {
        self.local_writes + self.remote_writes
    }

    /// Fraction of successful reads resolved locally.
    pub fn local_read_ratio(&self) -> f64 {
        let ok = self.local_read_hits + self.remote_reads;
        if ok == 0 {
            0.0
        } else {
            self.local_read_hits as f64 / ok as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = OpStats::default();
        s.local_read_hits.fetch_add(3, Ordering::Relaxed);
        s.remote_reads.fetch_add(1, Ordering::Relaxed);
        s.local_writes.fetch_add(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.reads(), 4);
        assert_eq!(snap.writes(), 2);
        assert!((snap.local_read_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(OpStatsSnapshot::default().local_read_ratio(), 0.0);
    }
}
