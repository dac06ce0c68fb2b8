//! The sharded concurrent store.
//!
//! Keys are hashed (FxHash) to one of `2^k` shards, each an independent
//! `RwLock<HashMap>`. Reads take a shard read-lock; writes a shard write
//! lock. No lock is ever held across two shards, so the store is deadlock
//! free by construction. All cross-key snapshot operations are collected
//! shard by shard and therefore see a *per-shard*-consistent state, which
//! is exactly the consistency the paper's lazy synchronization needs.
//!
//! # Zero-allocation hot paths
//!
//! Shard maps are keyed by interned [`Key`]s and hashed by the
//! pass-through [`PrehashedBuildHasher`], so a map probe never re-hashes
//! the key text. Two call styles reach them:
//!
//! * **`&str` methods** (`get`, `put`, …) hash the text exactly once per
//!   operation — that one hash picks the shard *and* probes the map — and
//!   allocate only when a fresh key is first inserted.
//! * **`*_key` methods** (`get_key`, `put_if_key`, …) take a pre-interned
//!   [`Key`] and do no hashing and no allocation at all; inserting clones
//!   the `Arc` handle. The registry's OCC loops and the HA mirror use
//!   these.
//!
//! Batch operations ([`Self::multi_get`], [`Self::multi_put`]) group keys
//! by shard and take each shard lock once per batch instead of once per
//! key.

use crate::entry::{CacheEntry, CacheError, PutCondition};
use crate::hash::PrehashedBuildHasher;
use crate::key::{Key, KeyQuery, StrQuery};
use bytes::Bytes;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, Ordering};

#[expect(
    clippy::disallowed_types,
    reason = "keys carry their own hash, so the pass-through hasher is as unseeded as FxHashMap"
)]
type Map = std::collections::HashMap<Key, CacheEntry, PrehashedBuildHasher>;
type Shard = RwLock<Map>;

/// A batch write failed partway through.
///
/// [`ShardedStore::multi_put`] applies entries shard group by shard group
/// and does **not** roll back on failure: entries written before the
/// failure point stay written (they are plain unconditional puts, so
/// retrying the whole batch is idempotent up to version bumps). `applied`
/// reports how many entries had been applied when the error hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchError {
    /// Entries successfully applied before the failure.
    pub applied: usize,
    /// The underlying failure (currently always [`CacheError::Unavailable`]).
    pub error: CacheError,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch aborted after {} entries: {}",
            self.applied, self.error
        )
    }
}

impl std::error::Error for BatchError {}

/// A sharded, versioned, concurrent in-memory store.
pub struct ShardedStore {
    shards: Vec<Shard>,
    mask: u64,
    failed: AtomicBool,
}

impl ShardedStore {
    /// Create a store with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> ShardedStore {
        let n = shards.max(1).next_power_of_two();
        ShardedStore {
            shards: (0..n).map(|_| RwLock::new(Map::default())).collect(),
            mask: (n - 1) as u64,
            failed: AtomicBool::new(false),
        }
    }

    /// Create a store with a sensible default shard count (64).
    pub fn with_default_shards() -> ShardedStore {
        ShardedStore::new(64)
    }

    #[inline]
    fn shard_at(&self, hash: u64) -> &Shard {
        &self.shards[(hash & self.mask) as usize]
    }

    #[inline]
    fn shard_index(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    fn check_available(&self) -> Result<(), CacheError> {
        if self.failed.load(Ordering::Acquire) {
            Err(CacheError::Unavailable)
        } else {
            Ok(())
        }
    }

    /// Mark the instance failed: every subsequent operation returns
    /// [`CacheError::Unavailable`]. Failure injection hook used by the HA
    /// pair and the tests.
    pub(crate) fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Whether the instance is currently marked failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Read an entry. Hashes `key` once; never allocates.
    pub fn get(&self, key: &str) -> Result<CacheEntry, CacheError> {
        self.get_q(&StrQuery::new(key))
    }

    /// Read an entry by interned key. No hashing, no allocation.
    pub fn get_key(&self, key: &Key) -> Result<CacheEntry, CacheError> {
        self.get_q(key)
    }

    fn get_q(&self, q: &dyn KeyQuery) -> Result<CacheEntry, CacheError> {
        self.check_available()?;
        let shard = self.shard_at(q.query_hash()).read();
        match shard.get(q) {
            Some(e) => Ok(e.clone()),
            None => Err(CacheError::NotFound),
        }
    }

    /// Whether a key is present.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &str) -> bool {
        if self.is_failed() {
            return false;
        }
        let q = StrQuery::new(key);
        self.shard_at(q.hash)
            .read()
            .contains_key(&q as &dyn KeyQuery)
    }

    /// Unconditional put. Returns the new version (1 for a fresh key).
    pub fn put(&self, key: &str, value: Bytes, now: u64) -> Result<u64, CacheError> {
        self.put_if(key, PutCondition::Always, value, now)
    }

    /// Unconditional put by interned key.
    pub fn put_key(&self, key: &Key, value: Bytes, now: u64) -> Result<u64, CacheError> {
        self.put_if_key(key, PutCondition::Always, value, now)
    }

    /// Conditional put implementing the optimistic concurrency model.
    /// Hashes `key` once; allocates only when inserting a fresh key.
    pub fn put_if(
        &self,
        key: &str,
        cond: PutCondition,
        value: Bytes,
        now: u64,
    ) -> Result<u64, CacheError> {
        let q = StrQuery::new(key);
        self.put_if_q(&q, cond, value, now, |q| q.to_key())
    }

    /// Conditional put by interned key. No hashing; insertion clones the
    /// `Arc` handle instead of copying the text.
    pub fn put_if_key(
        &self,
        key: &Key,
        cond: PutCondition,
        value: Bytes,
        now: u64,
    ) -> Result<u64, CacheError> {
        self.put_if_q(key, cond, value, now, |k| k.clone())
    }

    fn put_if_q<Q: KeyQuery>(
        &self,
        q: &Q,
        cond: PutCondition,
        value: Bytes,
        now: u64,
        own: impl FnOnce(&Q) -> Key,
    ) -> Result<u64, CacheError> {
        self.check_available()?;
        let mut shard = self.shard_at(q.query_hash()).write();
        Self::apply_put_if(&mut shard, q, cond, value, now, own)
    }

    /// The put-if state machine against one locked shard map. Shared by the
    /// single-key paths and the grouped batch path.
    fn apply_put_if<Q: KeyQuery>(
        map: &mut Map,
        q: &Q,
        cond: PutCondition,
        value: Bytes,
        now: u64,
        own: impl FnOnce(&Q) -> Key,
    ) -> Result<u64, CacheError> {
        match map.get_mut(q as &dyn KeyQuery) {
            Some(existing) => match cond {
                PutCondition::Always => {
                    existing.value = value;
                    existing.version += 1;
                    existing.modified_at = now;
                    Ok(existing.version)
                }
                PutCondition::Absent => Err(CacheError::AlreadyExists {
                    version: existing.version,
                }),
                PutCondition::VersionIs(expected) => {
                    if existing.version == expected {
                        existing.value = value;
                        existing.version += 1;
                        existing.modified_at = now;
                        Ok(existing.version)
                    } else {
                        Err(CacheError::VersionMismatch {
                            expected,
                            actual: Some(existing.version),
                        })
                    }
                }
            },
            None => match cond {
                PutCondition::Always | PutCondition::Absent => {
                    map.insert(
                        own(q),
                        CacheEntry {
                            value,
                            version: 1,
                            created_at: now,
                            modified_at: now,
                        },
                    );
                    Ok(1)
                }
                PutCondition::VersionIs(expected) => Err(CacheError::VersionMismatch {
                    expected,
                    actual: None,
                }),
            },
        }
    }

    /// Insert an entry verbatim (version and timestamps preserved). Used by
    /// replica repopulation and sync propagation, where the *origin's*
    /// version must win, not a locally bumped one. Overwrites only if the
    /// incoming version is newer (last-writer-wins on version, then
    /// timestamp).
    pub fn absorb(&self, key: &str, entry: CacheEntry) -> Result<bool, CacheError> {
        let q = StrQuery::new(key);
        self.absorb_q(&q, entry, |q| q.to_key())
    }

    /// [`Self::absorb`] by interned key: no hashing, no text copy.
    pub fn absorb_key(&self, key: &Key, entry: CacheEntry) -> Result<bool, CacheError> {
        self.absorb_q(key, entry, |k| k.clone())
    }

    fn absorb_q<Q: KeyQuery>(
        &self,
        q: &Q,
        entry: CacheEntry,
        own: impl FnOnce(&Q) -> Key,
    ) -> Result<bool, CacheError> {
        self.check_available()?;
        let mut shard = self.shard_at(q.query_hash()).write();
        match shard.get_mut(q as &dyn KeyQuery) {
            Some(existing) => {
                let newer =
                    (entry.version, entry.modified_at) > (existing.version, existing.modified_at);
                if newer {
                    *existing = entry;
                }
                Ok(newer)
            }
            None => {
                shard.insert(own(q), entry);
                Ok(true)
            }
        }
    }

    /// Remove an entry.
    pub fn remove(&self, key: &str) -> Result<CacheEntry, CacheError> {
        self.remove_q(&StrQuery::new(key))
    }

    /// Remove an entry by interned key.
    pub fn remove_key(&self, key: &Key) -> Result<CacheEntry, CacheError> {
        self.remove_q(key)
    }

    fn remove_q(&self, q: &dyn KeyQuery) -> Result<CacheEntry, CacheError> {
        self.check_available()?;
        let mut shard = self.shard_at(q.query_hash()).write();
        shard.remove(q).ok_or(CacheError::NotFound)
    }

    /// Number of entries (sums shard sizes; racy but exact when quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Remove all entries.
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    /// Batch read: one result per key, in order. Keys are grouped by shard
    /// and each shard lock is taken once per batch, not once per key.
    pub fn multi_get(&self, keys: &[&str]) -> Vec<Result<CacheEntry, CacheError>> {
        let queries: Vec<StrQuery<'_>> = keys.iter().map(|&k| StrQuery::new(k)).collect();
        let mut out: Vec<Result<CacheEntry, CacheError>> =
            keys.iter().map(|_| Err(CacheError::NotFound)).collect();
        // Checked per shard group (like multi_put) so a failure injected
        // mid-batch surfaces as Unavailable for the rest of the batch,
        // matching what per-key gets would have reported.
        let mut available = true;
        let _: Result<(), std::convert::Infallible> = self.visit_shard_groups(
            keys.len(),
            |i| queries[i].hash,
            |shard_idx, group| {
                available = available && self.check_available().is_ok();
                if !available {
                    for &i in group {
                        out[i as usize] = Err(CacheError::Unavailable);
                    }
                    return Ok(());
                }
                let shard = self.shards[shard_idx].read();
                for &i in group {
                    let q = &queries[i as usize];
                    out[i as usize] = match shard.get(q as &dyn KeyQuery) {
                        Some(e) => Ok(e.clone()),
                        None => Err(CacheError::NotFound),
                    };
                }
                Ok(())
            },
        );
        out
    }

    /// Visit a batch of `n` items grouped by shard: `hash_of(i)` is item
    /// `i`'s key hash; `visit(shard_idx, item_indices)` runs once per
    /// shard group. Submission order is preserved within a group (index
    /// tie-break), so duplicate keys in one batch still apply in order —
    /// last-write-wins for writes, deterministic probe order for reads.
    /// An `Err` from `visit` stops the iteration (partial-apply).
    fn visit_shard_groups<E>(
        &self,
        n: usize,
        hash_of: impl Fn(usize) -> u64,
        mut visit: impl FnMut(usize, &[u32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (self.shard_index(hash_of(i as usize)), i));
        let mut pos = 0;
        while pos < n {
            let shard_idx = self.shard_index(hash_of(order[pos] as usize));
            let mut end = pos + 1;
            while end < n && self.shard_index(hash_of(order[end] as usize)) == shard_idx {
                end += 1;
            }
            visit(shard_idx, &order[pos..end])?;
            pos = end;
        }
        Ok(())
    }

    /// Batch unconditional put, grouped by shard (one write-lock
    /// acquisition per shard per batch).
    ///
    /// **Partial-apply semantics:** entries are applied shard group by
    /// shard group with no rollback. If the store fails mid-batch (failure
    /// injection racing the batch), earlier writes stay applied and the
    /// returned [`BatchError`] reports how many via its `applied` field.
    /// Retrying the whole batch afterwards is safe: entries are
    /// unconditional puts, so re-application only bumps versions.
    pub fn multi_put(
        &self,
        items: impl IntoIterator<Item = (impl Into<Key>, Bytes)>,
        now: u64,
    ) -> Result<usize, BatchError> {
        let mut items: Vec<(Key, Bytes)> = items.into_iter().map(|(k, v)| (k.into(), v)).collect();
        if let Err(error) = self.check_available() {
            return Err(BatchError { applied: 0, error });
        }
        let hashes: Vec<u64> = items.iter().map(|(k, _)| k.hash64()).collect();
        let mut applied = 0;
        self.visit_shard_groups(
            items.len(),
            |i| hashes[i],
            |shard_idx, group| {
                // Re-check availability per shard group so a failure injected
                // mid-batch stops the batch at a group boundary.
                if let Err(error) = self.check_available() {
                    return Err(BatchError { applied, error });
                }
                let mut shard = self.shards[shard_idx].write();
                for &i in group {
                    let (key, value) = {
                        let slot = &mut items[i as usize];
                        (slot.0.clone(), std::mem::take(&mut slot.1))
                    };
                    Self::apply_put_if(&mut shard, &key, PutCondition::Always, value, now, |k| {
                        k.clone()
                    })
                    .expect("unconditional put cannot fail on a held shard");
                    applied += 1;
                }
                Ok(())
            },
        )?;
        Ok(applied)
    }

    /// Snapshot of all entries modified strictly after `since` (logical
    /// timestamp). This is the delta query the sync agent issues each cycle.
    /// Key and entry clones are O(1) (`Arc`/`Bytes` handle bumps).
    pub fn modified_since(&self, since: u64) -> Vec<(Key, CacheEntry)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.read();
            for (k, e) in shard.iter() {
                if e.modified_at > since {
                    out.push((k.clone(), e.clone()));
                }
            }
        }
        out
    }

    /// Snapshot of every entry (per-shard consistent). Single pass: grows
    /// as it collects instead of pre-sizing via a full `len()` sweep (which
    /// would read-lock every shard twice).
    pub fn snapshot(&self) -> Vec<(Key, CacheEntry)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.read();
            out.reserve(shard.len());
            out.extend(shard.iter().map(|(k, e)| (k.clone(), e.clone())));
        }
        out
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::with_default_shards()
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("failed", &self.is_failed())
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
    fn put_get_roundtrip() {
        let store = ShardedStore::new(8);
        assert_eq!(store.put("f", b("v1"), 10).unwrap(), 1);
        let e = store.get("f").unwrap();
        assert_eq!(e.value, b("v1"));
        assert_eq!(e.version, 1);
        assert_eq!(e.created_at, 10);
        assert_eq!(e.modified_at, 10);
    }

    #[test]
    fn interned_and_str_paths_see_the_same_entries() {
        let store = ShardedStore::new(8);
        let k = Key::new("shared-key");
        assert_eq!(store.put_key(&k, b("v1"), 1).unwrap(), 1);
        // The &str path finds an entry written through the Key path…
        assert_eq!(store.get("shared-key").unwrap().value, b("v1"));
        // …and vice versa.
        assert_eq!(store.put("shared-key", b("v2"), 2).unwrap(), 2);
        assert_eq!(store.get_key(&k).unwrap().value, b("v2"));
        assert_eq!(store.remove_key(&k).unwrap().version, 2);
        assert_eq!(store.get("shared-key"), Err(CacheError::NotFound));
    }

    #[test]
    fn key_variants_cover_conditions_and_absorb() {
        let store = ShardedStore::new(8);
        let k = Key::new("occ");
        assert_eq!(
            store
                .put_if_key(&k, PutCondition::Absent, b("a"), 0)
                .unwrap(),
            1
        );
        assert_eq!(
            store.put_if_key(&k, PutCondition::Absent, b("b"), 1),
            Err(CacheError::AlreadyExists { version: 1 })
        );
        assert_eq!(
            store
                .put_if_key(&k, PutCondition::VersionIs(1), b("c"), 2)
                .unwrap(),
            2
        );
        assert!(store
            .absorb_key(
                &k,
                CacheEntry {
                    value: b("d"),
                    version: 9,
                    created_at: 0,
                    modified_at: 9
                }
            )
            .unwrap());
        assert_eq!(store.get_key(&k).unwrap().version, 9);
    }

    #[test]
    fn versions_increment_monotonically() {
        let store = ShardedStore::new(8);
        for i in 1..=5u64 {
            let v = store.put("f", b("x"), i).unwrap();
            assert_eq!(v, i);
        }
        assert_eq!(store.get("f").unwrap().created_at, 1);
        assert_eq!(store.get("f").unwrap().modified_at, 5);
    }

    #[test]
    fn get_missing_is_not_found() {
        let store = ShardedStore::new(8);
        assert_eq!(store.get("nope"), Err(CacheError::NotFound));
    }

    #[test]
    fn put_if_absent_semantics() {
        let store = ShardedStore::new(8);
        assert_eq!(
            store.put_if("f", PutCondition::Absent, b("a"), 0).unwrap(),
            1
        );
        let err = store.put_if("f", PutCondition::Absent, b("b"), 1);
        assert_eq!(err, Err(CacheError::AlreadyExists { version: 1 }));
        assert_eq!(store.get("f").unwrap().value, b("a"));
    }

    #[test]
    fn put_if_version_accepts_exact_match_only() {
        let store = ShardedStore::new(8);
        store.put("f", b("a"), 0).unwrap();
        // Correct expected version.
        assert_eq!(
            store
                .put_if("f", PutCondition::VersionIs(1), b("b"), 1)
                .unwrap(),
            2
        );
        // Stale expectation.
        assert_eq!(
            store.put_if("f", PutCondition::VersionIs(1), b("c"), 2),
            Err(CacheError::VersionMismatch {
                expected: 1,
                actual: Some(2)
            })
        );
        // Expecting a version on a missing key.
        assert_eq!(
            store.put_if("g", PutCondition::VersionIs(1), b("c"), 2),
            Err(CacheError::VersionMismatch {
                expected: 1,
                actual: None
            })
        );
    }

    #[test]
    fn absorb_is_last_writer_wins() {
        let store = ShardedStore::new(8);
        store.put("f", b("local"), 5).unwrap(); // version 1, t=5
                                                // Older remote version loses.
        let lost = store
            .absorb(
                "f",
                CacheEntry {
                    value: b("old"),
                    version: 1,
                    created_at: 1,
                    modified_at: 1,
                },
            )
            .unwrap();
        assert!(!lost);
        assert_eq!(store.get("f").unwrap().value, b("local"));
        // Newer remote version wins.
        let won = store
            .absorb(
                "f",
                CacheEntry {
                    value: b("new"),
                    version: 7,
                    created_at: 1,
                    modified_at: 9,
                },
            )
            .unwrap();
        assert!(won);
        let e = store.get("f").unwrap();
        assert_eq!(e.value, b("new"));
        assert_eq!(e.version, 7);
    }

    #[test]
    fn absorb_tie_version_breaks_on_timestamp() {
        let store = ShardedStore::new(8);
        store
            .absorb(
                "f",
                CacheEntry {
                    value: b("a"),
                    version: 3,
                    created_at: 0,
                    modified_at: 10,
                },
            )
            .unwrap();
        let won = store
            .absorb(
                "f",
                CacheEntry {
                    value: b("b"),
                    version: 3,
                    created_at: 0,
                    modified_at: 20,
                },
            )
            .unwrap();
        assert!(won);
        assert_eq!(store.get("f").unwrap().value, b("b"));
    }

    #[test]
    fn remove_returns_entry() {
        let store = ShardedStore::new(8);
        store.put("f", b("v"), 0).unwrap();
        let e = store.remove("f").unwrap();
        assert_eq!(e.value, b("v"));
        assert_eq!(store.remove("f"), Err(CacheError::NotFound));
        assert!(store.is_empty());
    }

    #[test]
    fn len_and_clear() {
        let store = ShardedStore::new(4);
        for i in 0..100 {
            store.put(&format!("k{i}"), b("v"), 0).unwrap();
        }
        assert_eq!(store.len(), 100);
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn multi_ops() {
        let store = ShardedStore::new(4);
        store
            .multi_put(
                vec![("a".to_string(), b("1")), ("b".to_string(), b("2"))],
                0,
            )
            .unwrap();
        let res = store.multi_get(&["a", "b", "c"]);
        assert!(res[0].is_ok() && res[1].is_ok());
        assert_eq!(res[2], Err(CacheError::NotFound));
    }

    #[test]
    fn multi_get_preserves_request_order_across_shards() {
        let store = ShardedStore::new(8);
        let keys: Vec<String> = (0..200).map(|i| format!("k{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            store
                .put(k, Bytes::from(i.to_string().into_bytes()), 0)
                .unwrap();
        }
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let res = store.multi_get(&refs);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().value.as_ref(),
                i.to_string().as_bytes(),
                "result {i} out of order"
            );
        }
    }

    #[test]
    fn multi_put_reports_applied_count_on_failure() {
        let store = ShardedStore::new(4);
        store.fail();
        let err = store
            .multi_put(vec![("a", b("1")), ("b", b("2"))], 0)
            .unwrap_err();
        assert_eq!(err.applied, 0);
        assert_eq!(err.error, CacheError::Unavailable);
        assert!(err.to_string().contains("after 0 entries"));
    }

    #[test]
    fn multi_put_duplicate_keys_apply_last_write_wins() {
        let store = ShardedStore::new(8);
        // Interleave many distinct keys with repeated writes to one key so
        // the shard grouping actually has to reorder across shards; the
        // duplicates must still apply in submission order.
        let mut items: Vec<(String, Bytes)> = Vec::new();
        for i in (0..5000).rev() {
            items.push((format!("k{i}"), b("x")));
            if i % 10 == 0 {
                items.push(("dup".to_string(), Bytes::from(i.to_string().into_bytes())));
            }
        }
        store.multi_put(items, 0).unwrap();
        assert_eq!(
            store.get("dup").unwrap().value.as_ref(),
            b"0",
            "last submitted duplicate must win"
        );
        assert_eq!(store.get("dup").unwrap().version, 500);
    }

    #[test]
    fn multi_put_groups_but_counts_every_entry() {
        let store = ShardedStore::new(2); // few shards => real grouping
        let items: Vec<(String, Bytes)> = (0..100).map(|i| (format!("k{i}"), b("v"))).collect();
        assert_eq!(store.multi_put(items, 7).unwrap(), 100);
        assert_eq!(store.len(), 100);
        for i in 0..100 {
            assert_eq!(store.get(&format!("k{i}")).unwrap().modified_at, 7);
        }
    }

    #[test]
    fn modified_since_returns_delta_only() {
        let store = ShardedStore::new(4);
        store.put("old", b("1"), 5).unwrap();
        store.put("new1", b("2"), 15).unwrap();
        store.put("new2", b("3"), 20).unwrap();
        let mut delta = store.modified_since(10);
        delta.sort_by(|a, b| a.0.cmp(&b.0));
        let keys: Vec<&str> = delta.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["new1", "new2"]);
    }

    #[test]
    fn snapshot_is_complete_and_cheap_to_clone() {
        let store = ShardedStore::new(4);
        for i in 0..50 {
            store.put(&format!("k{i}"), b("v"), i).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 50);
        // Snapshot keys share storage with the store's interned keys.
        let (k, e) = &snap[0];
        assert_eq!(store.get_key(k).unwrap(), *e);
    }

    #[test]
    fn failure_injection_blocks_everything() {
        let store = ShardedStore::new(4);
        store.put("f", b("v"), 0).unwrap();
        store.fail();
        assert_eq!(store.get("f"), Err(CacheError::Unavailable));
        assert_eq!(store.put("g", b("v"), 0), Err(CacheError::Unavailable));
        assert!(!store.contains("f"));
        assert_eq!(store.multi_get(&["f"]), vec![Err(CacheError::Unavailable)]);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::new(10).shard_count(), 16);
        assert_eq!(ShardedStore::new(1).shard_count(), 1);
        assert_eq!(ShardedStore::new(0).shard_count(), 1);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let store = ShardedStore::new(16);
        std::thread::scope(|s| {
            for t in 0..8 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..1000 {
                        store
                            .put(&format!("t{t}-k{i}"), Bytes::from_static(b"v"), i)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 8 * 1000);
    }

    #[test]
    fn concurrent_cas_on_one_key_serializes() {
        let store = ShardedStore::new(16);
        store.put("counter", Bytes::from_static(b"0"), 0).unwrap();
        let total: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let store = &store;
                    s.spawn(move || {
                        let key = Key::new("counter");
                        let mut successes = 0u64;
                        for _ in 0..500 {
                            loop {
                                let cur = store.get_key(&key).unwrap();
                                let n: u64 =
                                    std::str::from_utf8(&cur.value).unwrap().parse().unwrap();
                                let next = Bytes::from((n + 1).to_string().into_bytes());
                                match store.put_if_key(
                                    &key,
                                    PutCondition::VersionIs(cur.version),
                                    next,
                                    0,
                                ) {
                                    Ok(_) => {
                                        successes += 1;
                                        break;
                                    }
                                    Err(CacheError::VersionMismatch { .. }) => continue,
                                    Err(e) => panic!("unexpected {e}"),
                                }
                            }
                        }
                        successes
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(total, 2000);
        let final_val = store.get("counter").unwrap();
        let n: u64 = std::str::from_utf8(&final_val.value)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(n, 2000, "every CAS increment must be preserved");
        assert_eq!(final_val.version, 2001);
    }
}
