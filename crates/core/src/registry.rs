//! A registry instance: one site's metadata service.
//!
//! Wraps the high-availability cache pair from `geometa-cache` with the
//! registry semantics of the paper (§IV): a *write* is "a look-up read
//! operation to verify whether the entry already exists, followed by the
//! actual write" — existing entries are merged (location union), fresh
//! entries created. A *read* returns the decoded entry.

use crate::consistency::merge_entries;
use crate::entry::RegistryEntry;
use crate::protocol::{RegistryRequest, RegistryResponse};
use crate::MetaError;
use geometa_cache::{CacheEntry, CacheError, HaCache, Key};
use geometa_sim::topology::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of a registry write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The entry did not exist; this write created it.
    Created,
    /// The entry existed; this write merged into it.
    Updated,
}

/// One site's metadata registry service.
pub struct RegistryInstance {
    site: SiteId,
    cache: HaCache,
    gets: AtomicU64,
    puts: AtomicU64,
    absorbs: AtomicU64,
}

impl RegistryInstance {
    /// Create the instance for `site` with `shards`-way sharded caches.
    pub fn new(site: SiteId, shards: usize) -> RegistryInstance {
        RegistryInstance {
            site,
            cache: HaCache::new(shards),
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            absorbs: AtomicU64::new(0),
        }
    }

    /// The site this instance serves.
    pub(crate) fn site(&self) -> SiteId {
        self.site
    }

    /// Apply one request to this instance, stamping writes with `now`:
    /// the registry's request semantics, in exactly one place. Every
    /// transport, the runtime's dispatch, WAL replay and the DES actor
    /// end here.
    pub fn serve(&self, req: RegistryRequest, now: u64) -> RegistryResponse {
        match req {
            RegistryRequest::Get { key } => match self.get_key(&key) {
                Ok(entry) => RegistryResponse::Found { entry },
                Err(error) => RegistryResponse::Error { error },
            },
            RegistryRequest::Put { entry } => match self.put(&entry, now) {
                Ok(_) => RegistryResponse::Ack,
                Err(error) => RegistryResponse::Error { error },
            },
            RegistryRequest::Absorb { entries } => match self.absorb_batch(&entries) {
                Ok(_) => RegistryResponse::Ack,
                Err(error) => RegistryResponse::Error { error },
            },
            RegistryRequest::Remove { key } => match self.remove_key(&key) {
                Ok(()) => RegistryResponse::Ack,
                Err(error) => RegistryResponse::Error { error },
            },
            RegistryRequest::DeltaPull { since } => RegistryResponse::Delta {
                entries: self.delta_since(since),
            },
            // Ops requests are answered by the runtime (`ServiceCore`),
            // which owns membership and WALs; a bare registry instance
            // has neither.
            RegistryRequest::Status | RegistryRequest::Reconfigure { .. } => {
                RegistryResponse::Error {
                    error: MetaError::Unavailable,
                }
            }
        }
    }

    /// Read an entry.
    pub fn get(&self, key: &str) -> Result<RegistryEntry, MetaError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        entry_of(self.cache.get(key))
    }

    /// Read an entry by interned key (the RPC path: the client interned the
    /// key once and it rides the request, so no hashing happens here).
    pub(crate) fn get_key(&self, key: &Key) -> Result<RegistryEntry, MetaError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        entry_of(self.cache.get_key(key))
    }

    /// Batched [`Self::get`] by borrowed key text — the reactor's
    /// zero-copy request path parses keys as `&str` views into the wire
    /// buffer and never interns a [`Key`]. One shard lock per shard
    /// group, results in request order; each key counts as one get.
    pub(crate) fn multi_get(&self, keys: &[&str]) -> Vec<Result<RegistryEntry, MetaError>> {
        self.gets.fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.cache
            .multi_get(keys)
            .into_iter()
            .map(entry_of)
            .collect()
    }

    /// Publish an entry: the paper's lookup-then-write sequence, with
    /// optimistic-concurrency retry. Existing entries are merged.
    ///
    /// The entry's key is interned once up front; every retry of the OCC
    /// loop (a get plus a conditional put, each touching the HA pair's
    /// primary and mirror) then runs without hashing or key allocation.
    pub fn put(&self, entry: &RegistryEntry, now: u64) -> Result<WriteOutcome, MetaError> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        let key = entry.cache_key();
        // OCC loop: read current, merge, conditional write.
        for _ in 0..64 {
            match self.cache.get_key(&key) {
                Ok(cur) => {
                    let existing = RegistryEntry::from_bytes(cur.value)?;
                    let merged = merge_entries(&existing, entry);
                    match self.cache.put_if_key(
                        &key,
                        geometa_cache::PutCondition::VersionIs(cur.version),
                        merged.to_bytes(),
                        now,
                    ) {
                        Ok(_) => return Ok(WriteOutcome::Updated),
                        Err(CacheError::VersionMismatch { .. }) => continue,
                        Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                        Err(e) => return Err(MetaError::Codec(e.to_string())),
                    }
                }
                Err(CacheError::NotFound) => {
                    match self.cache.put_if_key(
                        &key,
                        geometa_cache::PutCondition::Absent,
                        entry.to_bytes(),
                        now,
                    ) {
                        Ok(_) => return Ok(WriteOutcome::Created),
                        Err(CacheError::AlreadyExists { .. }) => continue,
                        Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                        Err(e) => return Err(MetaError::Codec(e.to_string())),
                    }
                }
                Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                Err(e) => return Err(MetaError::Codec(e.to_string())),
            }
        }
        Err(MetaError::Contention)
    }

    /// Absorb an entry propagated from another instance (lazy update or
    /// sync-agent push). Merges like [`Self::put`] but counts separately,
    /// because propagation traffic is not client load.
    ///
    /// Crucially, the absorbed entry keeps its **origin timestamp** as the
    /// cache modification time instead of the local clock. Otherwise a
    /// propagated entry would look freshly modified here, the sync agent's
    /// next delta pull would pick it up again, and every entry would
    /// ping-pong between instances forever.
    pub fn absorb(&self, entry: &RegistryEntry) -> Result<(), MetaError> {
        let now = entry.created_at;
        self.absorbs.fetch_add(1, Ordering::Relaxed);
        let key = entry.cache_key();
        for _ in 0..64 {
            match self.cache.get_key(&key) {
                Ok(cur) => {
                    let existing = RegistryEntry::from_bytes(cur.value)?;
                    let merged = merge_entries(&existing, entry);
                    if merged == existing {
                        return Ok(()); // already subsumed
                    }
                    match self.cache.put_if_key(
                        &key,
                        geometa_cache::PutCondition::VersionIs(cur.version),
                        merged.to_bytes(),
                        now,
                    ) {
                        Ok(_) => return Ok(()),
                        Err(CacheError::VersionMismatch { .. }) => continue,
                        Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                        Err(e) => return Err(MetaError::Codec(e.to_string())),
                    }
                }
                Err(CacheError::NotFound) => {
                    match self.cache.put_if_key(
                        &key,
                        geometa_cache::PutCondition::Absent,
                        entry.to_bytes(),
                        now,
                    ) {
                        Ok(_) => return Ok(()),
                        Err(CacheError::AlreadyExists { .. }) => continue,
                        Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                        Err(e) => return Err(MetaError::Codec(e.to_string())),
                    }
                }
                Err(CacheError::Unavailable) => return Err(MetaError::Unavailable),
                Err(e) => return Err(MetaError::Codec(e.to_string())),
            }
        }
        Err(MetaError::Contention)
    }

    /// Absorb a batch (one sync push).
    pub(crate) fn absorb_batch(&self, entries: &[RegistryEntry]) -> Result<usize, MetaError> {
        for e in entries {
            self.absorb(e)?;
        }
        Ok(entries.len())
    }

    /// Remove an entry.
    #[cfg(test)]
    pub(crate) fn remove(&self, key: &str) -> Result<(), MetaError> {
        match self.cache.remove(key) {
            Ok(_) => Ok(()),
            Err(CacheError::NotFound) => Err(MetaError::NotFound),
            Err(CacheError::Unavailable) => Err(MetaError::Unavailable),
            Err(e) => Err(MetaError::Codec(e.to_string())),
        }
    }

    /// Remove an entry by interned key (the RPC path).
    pub(crate) fn remove_key(&self, key: &Key) -> Result<(), MetaError> {
        match self.cache.remove_key(key) {
            Ok(_) => Ok(()),
            Err(CacheError::NotFound) => Err(MetaError::NotFound),
            Err(CacheError::Unavailable) => Err(MetaError::Unavailable),
            Err(e) => Err(MetaError::Codec(e.to_string())),
        }
    }

    /// Every entry currently stored (used by elastic rebalancing).
    pub fn all_entries(&self) -> Vec<RegistryEntry> {
        self.cache
            .primary()
            .snapshot()
            .into_iter()
            .filter_map(|(_, e)| RegistryEntry::from_bytes(e.value).ok())
            .collect()
    }

    /// All entries modified strictly after `since` (the sync agent's delta
    /// query).
    pub(crate) fn delta_since(&self, since: u64) -> Vec<RegistryEntry> {
        self.cache
            .primary()
            .modified_since(since)
            .into_iter()
            .filter_map(|(_, e)| RegistryEntry::from_bytes(e.value).ok())
            .collect()
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Inject a primary-cache failure (failover exercise).
    pub fn fail_primary(&self) {
        self.cache.fail_primary();
    }

    /// Drop every entry from both cache stores: process-kill amnesia for
    /// crash-recovery exercises. Unlike [`Self::fail_primary`] (which
    /// models a cache-tier failover with the replica surviving), a wipe
    /// models full process death — everything in memory is gone and only
    /// external state (a write-ahead log) can bring it back. Returns the
    /// number of entries lost; the op counters survive (lifetime
    /// accounting, not state).
    pub fn wipe(&self) -> usize {
        let entries = self.all_entries();
        for e in &entries {
            let _ = self.cache.remove(e.name.as_str());
        }
        entries.len()
    }

    /// (gets, puts, absorbs) served so far.
    pub(crate) fn op_counts(&self) -> (u64, u64, u64) {
        (
            self.gets.load(Ordering::Relaxed),
            self.puts.load(Ordering::Relaxed),
            self.absorbs.load(Ordering::Relaxed),
        )
    }
}

/// A cache read as a registry read: decode the value, map the failure.
fn entry_of(read: Result<CacheEntry, CacheError>) -> Result<RegistryEntry, MetaError> {
    match read {
        Ok(e) => RegistryEntry::from_bytes(e.value),
        Err(CacheError::NotFound) => Err(MetaError::NotFound),
        Err(CacheError::Unavailable) => Err(MetaError::Unavailable),
        Err(e) => Err(MetaError::Codec(e.to_string())),
    }
}

impl std::fmt::Debug for RegistryInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (g, p, a) = self.op_counts();
        f.debug_struct("RegistryInstance")
            .field("site", &self.site)
            .field("entries", &self.len())
            .field("gets", &g)
            .field("puts", &p)
            .field("absorbs", &a)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;

    fn loc(site: u16, node: u32) -> FileLocation {
        FileLocation {
            site: SiteId(site),
            node,
        }
    }

    fn reg() -> RegistryInstance {
        RegistryInstance::new(SiteId(0), 8)
    }

    #[test]
    fn put_then_get_roundtrips() {
        let r = reg();
        let e = RegistryEntry::new("f", 123, loc(0, 1), 10).with_producer("t0");
        assert_eq!(r.put(&e, 10).unwrap(), WriteOutcome::Created);
        let back = r.get("f").unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn get_missing_is_not_found() {
        assert_eq!(reg().get("ghost"), Err(MetaError::NotFound));
    }

    #[test]
    fn wipe_forgets_everything_including_the_replica() {
        let r = reg();
        r.put(&RegistryEntry::new("a", 1, loc(0, 1), 10), 10)
            .unwrap();
        r.put(&RegistryEntry::new("b", 2, loc(0, 2), 11), 11)
            .unwrap();
        assert_eq!(r.wipe(), 2);
        assert!(r.is_empty());
        assert_eq!(r.get("a"), Err(MetaError::NotFound));
        // A primary failure after the wipe must not resurrect entries
        // from the replica — the wipe hit both stores.
        r.fail_primary();
        assert_eq!(r.get("b"), Err(MetaError::NotFound));
    }

    #[test]
    fn second_put_merges_locations() {
        let r = reg();
        r.put(&RegistryEntry::new("f", 100, loc(0, 1), 10), 10)
            .unwrap();
        let out = r
            .put(&RegistryEntry::new("f", 100, loc(2, 9), 20), 20)
            .unwrap();
        assert_eq!(out, WriteOutcome::Updated);
        let e = r.get("f").unwrap();
        assert_eq!(e.locations.len(), 2);
        assert!(e.available_at(SiteId(0)) && e.available_at(SiteId(2)));
    }

    #[test]
    fn absorb_is_idempotent() {
        let r = reg();
        let e = RegistryEntry::new("f", 100, loc(1, 2), 5);
        r.absorb(&e).unwrap();
        r.absorb(&e).unwrap();
        assert_eq!(r.len(), 1);
        let (_, _, absorbs) = r.op_counts();
        assert_eq!(absorbs, 2);
    }

    #[test]
    fn absorb_batch_counts() {
        let r = reg();
        let batch: Vec<_> = (0..10)
            .map(|i| RegistryEntry::new(format!("f{i}"), 1, loc(0, i), i as u64))
            .collect();
        assert_eq!(r.absorb_batch(&batch).unwrap(), 10);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn delta_since_filters_by_time() {
        let r = reg();
        r.put(&RegistryEntry::new("old", 1, loc(0, 0), 5), 5)
            .unwrap();
        r.put(&RegistryEntry::new("new", 1, loc(0, 0), 50), 50)
            .unwrap();
        let delta = r.delta_since(10);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].name, "new");
        assert_eq!(r.delta_since(0).len(), 2);
        assert!(r.delta_since(100).is_empty());
    }

    #[test]
    fn remove_works() {
        let r = reg();
        r.put(&RegistryEntry::new("f", 1, loc(0, 0), 0), 0).unwrap();
        r.remove("f").unwrap();
        assert_eq!(r.get("f"), Err(MetaError::NotFound));
        assert_eq!(r.remove("f"), Err(MetaError::NotFound));
    }

    #[test]
    fn survives_primary_failure() {
        let r = reg();
        for i in 0..50 {
            r.put(
                &RegistryEntry::new(format!("f{i}"), 1, loc(0, i), i as u64),
                i as u64,
            )
            .unwrap();
        }
        r.fail_primary();
        for i in 0..50 {
            assert!(r.get(&format!("f{i}")).is_ok(), "f{i} lost after failover");
        }
    }

    #[test]
    fn concurrent_puts_on_same_key_merge_all_locations() {
        let r = reg();
        std::thread::scope(|s| {
            for n in 0..8u32 {
                let r = &r;
                s.spawn(move || {
                    r.put(
                        &RegistryEntry::new("shared", 1, loc((n % 4) as u16, n), 1),
                        1,
                    )
                    .unwrap();
                });
            }
        });
        let e = r.get("shared").unwrap();
        assert_eq!(e.locations.len(), 8, "all concurrent locations must merge");
    }

    #[test]
    fn op_counters_track_traffic() {
        let r = reg();
        r.put(&RegistryEntry::new("f", 1, loc(0, 0), 0), 0).unwrap();
        let _ = r.get("f");
        let _ = r.get("g");
        r.absorb(&RegistryEntry::new("h", 1, loc(1, 1), 1)).unwrap();
        let (gets, puts, absorbs) = r.op_counts();
        assert_eq!((gets, puts, absorbs), (2, 1, 1));
    }
}
