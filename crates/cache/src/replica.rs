//! High-availability cache pair: a primary and a replica.
//!
//! Mirrors the paper's cache tier (§III-B): "Our standard cache tier
//! provides high availability by having a primary and a replica cache. If a
//! failure occurs with the primary cache, the replica cache is automatically
//! promoted to primary and a new replica is created and populated."
//!
//! Writes go through the primary and are mirrored synchronously to the
//! replica (within a datacenter the mirroring cost is negligible compared
//! to WAN hops, so a synchronous mirror keeps the model simple and the
//! failover lossless). Reads are served by the primary; when the primary is
//! detected failed, the pair promotes the replica and rebuilds a fresh one.

use crate::entry::{CacheEntry, CacheError, PutCondition};
use crate::key::Key;
use crate::store::ShardedStore;
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A primary/replica cache pair with automatic promotion.
pub struct HaCache {
    primary: RwLock<Arc<ShardedStore>>,
    replica: RwLock<Arc<ShardedStore>>,
    shards: usize,
    promotions: AtomicU64,
}

impl HaCache {
    /// Create a pair whose stores use `shards` shards each.
    pub fn new(shards: usize) -> HaCache {
        HaCache {
            primary: RwLock::new(Arc::new(ShardedStore::new(shards))),
            replica: RwLock::new(Arc::new(ShardedStore::new(shards))),
            shards,
            promotions: AtomicU64::new(0),
        }
    }

    /// Read from the primary; on primary failure, promote and retry once.
    pub fn get(&self, key: &str) -> Result<CacheEntry, CacheError> {
        self.primary_op(|store| store.get(key))
    }

    /// [`Self::get`] by interned key (no hashing).
    pub fn get_key(&self, key: &Key) -> Result<CacheEntry, CacheError> {
        self.primary_op(|store| store.get_key(key))
    }

    /// Batched [`Self::get`] by borrowed key text: the server's zero-copy
    /// request path reads straight from the wire buffer, so no `Key` is
    /// interned. One shard lock per shard group instead of one per key,
    /// results in request order. On primary failure the whole batch
    /// promotes and retries once — the same protocol as
    /// [`Self::primary_op`], lifted to the batch (individual `NotFound`s
    /// are results, not failures, and don't trigger promotion).
    pub fn multi_get(&self, keys: &[&str]) -> Vec<Result<CacheEntry, CacheError>> {
        let primary = self.primary.read().clone();
        let out = primary.multi_get(keys);
        if out.iter().any(|r| r == &Err(CacheError::Unavailable)) {
            self.promote();
            return self.primary.read().multi_get(keys);
        }
        out
    }

    /// Run a read-side operation against the primary; on primary failure,
    /// promote and retry once. Shared by the `&str` and `Key` variants so
    /// the failover protocol lives in one place.
    fn primary_op(
        &self,
        op: impl Fn(&ShardedStore) -> Result<CacheEntry, CacheError>,
    ) -> Result<CacheEntry, CacheError> {
        let primary = self.primary.read().clone();
        match op(&primary) {
            Err(CacheError::Unavailable) => {
                self.promote();
                op(&self.primary.read())
            }
            other => other,
        }
    }

    /// Conditional write through the primary, mirrored to the replica.
    ///
    /// The pair (primary write, replica mirror) executes under the primary
    /// slot's read guard. Promotion takes the corresponding write lock, so
    /// a promotion can never interleave between an acknowledged write and
    /// its mirror — the window that would silently drop the write when the
    /// failed primary is discarded.
    pub fn put_if(
        &self,
        key: &str,
        cond: PutCondition,
        value: Bytes,
        now: u64,
    ) -> Result<u64, CacheError> {
        self.put_if_with(
            cond,
            value,
            now,
            |store, c, v, n| store.put_if(key, c, v, n),
            |replica, entry| {
                let _ = replica.absorb(key, entry);
            },
        )
    }

    /// [`Self::put_if`] by interned key: the single interned handle serves
    /// both the primary write and the replica mirror, so the whole
    /// mirrored write performs no hashing and no key allocation.
    pub fn put_if_key(
        &self,
        key: &Key,
        cond: PutCondition,
        value: Bytes,
        now: u64,
    ) -> Result<u64, CacheError> {
        self.put_if_with(
            cond,
            value,
            now,
            |store, c, v, n| store.put_if_key(key, c, v, n),
            |replica, entry| {
                let _ = replica.absorb_key(key, entry);
            },
        )
    }

    fn put_if_with(
        &self,
        cond: PutCondition,
        value: Bytes,
        now: u64,
        primary_put: impl Fn(&ShardedStore, PutCondition, Bytes, u64) -> Result<u64, CacheError>,
        mirror: impl Fn(&ShardedStore, CacheEntry),
    ) -> Result<u64, CacheError> {
        loop {
            {
                let primary_guard = self.primary.read();
                match primary_put(&primary_guard, cond, value.clone(), now) {
                    Err(CacheError::Unavailable) => {
                        // Fall through to promotion (after the guard drops).
                    }
                    Ok(version) => {
                        // Mirror the committed state, built from what we
                        // just wrote — re-reading the primary would race a
                        // failure between the put and the read. `created_at`
                        // is approximated by `now` for updates; callers that
                        // care carry creation time inside the value.
                        let replica = self.replica.read().clone();
                        mirror(
                            &replica,
                            CacheEntry {
                                value,
                                version,
                                created_at: now,
                                modified_at: now,
                            },
                        );
                        return Ok(version);
                    }
                    Err(e) => return Err(e),
                }
            }
            self.promote();
        }
    }

    /// Unconditional write.
    pub fn put(&self, key: &str, value: Bytes, now: u64) -> Result<u64, CacheError> {
        self.put_if(key, PutCondition::Always, value, now)
    }

    /// Remove from both stores.
    pub fn remove(&self, key: &str) -> Result<CacheEntry, CacheError> {
        let out = self.primary_op(|store| store.remove(key));
        let _ = self.replica.read().remove(key);
        out
    }

    /// [`Self::remove`] by interned key.
    pub fn remove_key(&self, key: &Key) -> Result<CacheEntry, CacheError> {
        let out = self.primary_op(|store| store.remove_key(key));
        let _ = self.replica.read().remove_key(key);
        out
    }

    /// Entries in the current primary.
    pub fn len(&self) -> usize {
        self.primary.read().len()
    }

    /// True when the current primary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.primary.read().is_empty()
    }

    /// Inject a primary failure (for tests and failure-injection runs).
    /// The next operation will trigger promotion.
    pub fn fail_primary(&self) {
        self.primary.read().fail();
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Direct handle to the current primary (diagnostics).
    pub fn primary(&self) -> Arc<ShardedStore> {
        self.primary.read().clone()
    }

    /// Promote the replica to primary and repopulate a fresh replica from
    /// the promoted store's contents.
    fn promote(&self) {
        let mut primary = self.primary.write();
        // Double-check under the lock: another thread may have promoted.
        if !primary.is_failed() {
            return;
        }
        let mut replica = self.replica.write();
        let promoted = replica.clone();
        let fresh = Arc::new(ShardedStore::new(self.shards));
        // Repopulate the fresh replica from the promoted primary. Snapshot
        // pairs are cheap handle clones and absorb_key re-uses the interned
        // key, so repopulation copies no key text.
        for (k, e) in promoted.snapshot() {
            let _ = fresh.absorb_key(&k, e);
        }
        *primary = promoted;
        *replica = fresh;
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for HaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HaCache")
            .field("len", &self.len())
            .field("promotions", &self.promotions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn writes_survive_primary_failure() {
        let ha = HaCache::new(8);
        for i in 0..100 {
            ha.put(&format!("k{i}"), b("v"), i).unwrap();
        }
        ha.fail_primary();
        // Every key is still readable after automatic promotion.
        for i in 0..100 {
            assert!(ha.get(&format!("k{i}")).is_ok(), "k{i} lost in failover");
        }
        assert_eq!(ha.promotions(), 1);
        assert_eq!(ha.len(), 100);
    }

    #[test]
    fn versions_preserved_across_failover() {
        let ha = HaCache::new(8);
        ha.put("k", b("1"), 0).unwrap();
        ha.put("k", b("2"), 1).unwrap();
        ha.put("k", b("3"), 2).unwrap();
        assert_eq!(ha.get("k").unwrap().version, 3);
        ha.fail_primary();
        assert_eq!(ha.get("k").unwrap().version, 3);
        // Post-failover writes continue the version sequence.
        let v = ha.put("k", b("4"), 3).unwrap();
        assert_eq!(v, 4);
    }

    #[test]
    fn failover_during_write_retries_transparently() {
        let ha = HaCache::new(8);
        ha.put("k", b("1"), 0).unwrap();
        ha.fail_primary();
        // The put itself triggers promotion and succeeds.
        let v = ha.put("k", b("2"), 1).unwrap();
        assert_eq!(v, 2);
        assert_eq!(ha.promotions(), 1);
    }

    #[test]
    fn second_failure_also_survivable() {
        let ha = HaCache::new(8);
        ha.put("k", b("1"), 0).unwrap();
        ha.fail_primary();
        assert!(ha.get("k").is_ok());
        ha.put("k2", b("2"), 1).unwrap();
        ha.fail_primary();
        assert!(ha.get("k").is_ok());
        assert!(ha.get("k2").is_ok());
        assert_eq!(ha.promotions(), 2);
    }

    #[test]
    fn occ_semantics_pass_through() {
        let ha = HaCache::new(8);
        ha.put("k", b("1"), 0).unwrap();
        let err = ha.put_if("k", PutCondition::VersionIs(9), b("2"), 1);
        assert!(matches!(err, Err(CacheError::VersionMismatch { .. })));
        let ok = ha.put_if("k", PutCondition::VersionIs(1), b("2"), 1);
        assert_eq!(ok.unwrap(), 2);
    }

    #[test]
    fn remove_applies_to_both() {
        let ha = HaCache::new(8);
        ha.put("k", b("1"), 0).unwrap();
        ha.remove("k").unwrap();
        ha.fail_primary();
        // Gone from the promoted replica too.
        assert_eq!(ha.get("k"), Err(CacheError::NotFound));
    }

    #[test]
    fn multi_get_survives_failover_and_keeps_order() {
        let ha = HaCache::new(8);
        for i in 0..50 {
            ha.put(&format!("k{i}"), Bytes::from(i.to_string().into_bytes()), 0)
                .unwrap();
        }
        let names: Vec<String> = (0..50).map(|i| format!("k{i}")).collect();
        let keys: Vec<&str> = names.iter().map(String::as_str).collect();
        let before = ha.multi_get(&keys);
        for (i, r) in before.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().value.as_ref(), i.to_string().as_bytes());
        }
        ha.fail_primary();
        // The batch itself triggers promotion and succeeds.
        let after = ha.multi_get(&keys);
        assert_eq!(after, before);
        assert_eq!(ha.promotions(), 1);
        // Missing keys are results, not failures.
        let missing = ha.multi_get(&["absent"]);
        assert_eq!(missing, vec![Err(CacheError::NotFound)]);
        assert_eq!(ha.promotions(), 1);
    }

    #[test]
    fn concurrent_access_during_failover() {
        let ha = HaCache::new(16);
        for i in 0..500 {
            ha.put(&format!("pre{i}"), b("v"), 0).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let ha = &ha;
                s.spawn(move || {
                    for i in 0..500 {
                        ha.put(&format!("t{t}-{i}"), b("v"), 1).unwrap();
                        let _ = ha.get(&format!("pre{}", i % 500));
                    }
                });
            }
            // Fail the primary mid-traffic.
            std::thread::sleep(std::time::Duration::from_millis(2));
            ha.fail_primary();
        });
        // All pre-failure and post-failure keys present.
        for i in 0..500 {
            assert!(ha.get(&format!("pre{i}")).is_ok());
        }
        for t in 0..4 {
            for i in 0..500 {
                assert!(ha.get(&format!("t{t}-{i}")).is_ok());
            }
        }
    }
}
