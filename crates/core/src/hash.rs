//! Site placement by hashing: who owns a metadata entry?
//!
//! The decentralized strategies map each entry to an *owner site* by
//! hashing "a distinctive attribute of the entry (e.g. the file name)"
//! (paper §IV-C). Three placers are provided:
//!
//! * [`UniformHash`] — `hash(key) mod n`. Constant-time and perfectly
//!   uniform, but adding/removing a site remaps nearly every key — the
//!   elasticity problem the paper's related-work section pins on pure
//!   hashing schemes.
//! * [`ConsistentRing`] — consistent hashing with virtual nodes; membership
//!   changes remap only ~1/n of the keys. This is how the paper's reliance
//!   on a uniform cache that "deals transparently with nodes
//!   arrivals/departures" is realized here.
//! * [`Rendezvous`] — highest-random-weight hashing; same minimal-migration
//!   property, no vnode tuning, O(n) lookup.
//!
//! The `ablation_hash` bench compares the three on migration fraction and
//! lookup cost.

use geometa_cache::hash::fx_hash_str;
use geometa_cache::Key;
use geometa_sim::topology::SiteId;
use std::collections::BTreeMap;

/// Decides which site owns a key.
pub trait SitePlacer: Send + Sync {
    /// The owner site of `key`. Panics only if the placer has no sites.
    fn owner(&self, key: &str) -> SiteId;

    /// The owner site of an interned key. Placers whose decision depends
    /// only on the key's FxHash override this to reuse the precomputed
    /// hash and skip re-scanning the text. Must agree with
    /// [`Self::owner`] on the same text.
    fn owner_key(&self, key: &Key) -> SiteId {
        self.owner(key)
    }

    /// Sites currently participating.
    fn sites(&self) -> Vec<SiteId>;
}

/// `hash(key) mod n` placement over a fixed site list.
#[derive(Clone, Debug)]
pub struct UniformHash {
    sites: Vec<SiteId>,
}

impl UniformHash {
    /// Place over the given sites (order-sensitive: `mod` indexes this list).
    pub fn new(sites: Vec<SiteId>) -> UniformHash {
        assert!(!sites.is_empty(), "placer needs at least one site");
        UniformHash { sites }
    }
}

impl UniformHash {
    #[inline]
    fn owner_of_hash(&self, h: u64) -> SiteId {
        self.sites[(h % self.sites.len() as u64) as usize]
    }
}

impl SitePlacer for UniformHash {
    fn owner(&self, key: &str) -> SiteId {
        self.owner_of_hash(fx_hash_str(key))
    }

    fn owner_key(&self, key: &Key) -> SiteId {
        self.owner_of_hash(key.hash64())
    }

    fn sites(&self) -> Vec<SiteId> {
        self.sites.clone()
    }
}

/// Consistent-hash ring with virtual nodes.
#[derive(Clone, Debug)]
pub struct ConsistentRing {
    ring: BTreeMap<u64, SiteId>,
    vnodes: usize,
    members: Vec<SiteId>,
}

impl ConsistentRing {
    /// Build a ring with `vnodes` virtual nodes per site (128 is a good
    /// default: load imbalance stays within a few percent).
    pub fn new(sites: Vec<SiteId>, vnodes: usize) -> ConsistentRing {
        assert!(!sites.is_empty(), "placer needs at least one site");
        assert!(vnodes > 0, "need at least one virtual node per site");
        let mut ring = ConsistentRing {
            ring: BTreeMap::new(),
            vnodes,
            members: Vec::new(),
        };
        for s in sites {
            ring.add_site(s);
        }
        ring
    }

    /// Add a site (no-op if present). Only ~1/n of keys move to it.
    pub fn add_site(&mut self, site: SiteId) {
        if self.members.contains(&site) {
            return;
        }
        self.members.push(site);
        for v in 0..self.vnodes {
            self.ring.insert(vnode_hash(site, v), site);
        }
    }

    /// Remove a site (no-op if absent). Its keys redistribute to the
    /// remaining sites. Panics if it would empty the ring.
    pub fn remove_site(&mut self, site: SiteId) {
        if !self.members.contains(&site) {
            return;
        }
        assert!(self.members.len() > 1, "cannot remove the last site");
        self.members.retain(|&s| s != site);
        for v in 0..self.vnodes {
            self.ring.remove(&vnode_hash(site, v));
        }
    }

    /// Number of member sites.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }
}

fn vnode_hash(site: SiteId, vnode: usize) -> u64 {
    fx_hash_str(&format!("site-{}#vnode-{}", site.0, vnode))
}

impl ConsistentRing {
    fn owner_of_hash(&self, h: u64) -> SiteId {
        assert!(!self.ring.is_empty(), "placer needs at least one site");
        // First vnode at or after h, wrapping around.
        match self.ring.range(h..).next() {
            Some((_, &site)) => site,
            None => *self.ring.values().next().expect("ring non-empty"),
        }
    }
}

impl SitePlacer for ConsistentRing {
    fn owner(&self, key: &str) -> SiteId {
        self.owner_of_hash(fx_hash_str(key))
    }

    fn owner_key(&self, key: &Key) -> SiteId {
        self.owner_of_hash(key.hash64())
    }

    fn sites(&self) -> Vec<SiteId> {
        self.members.clone()
    }
}

/// Rendezvous (highest-random-weight) hashing.
#[derive(Clone, Debug)]
pub struct Rendezvous {
    sites: Vec<SiteId>,
}

impl Rendezvous {
    /// Place over the given sites.
    pub fn new(sites: Vec<SiteId>) -> Rendezvous {
        assert!(!sites.is_empty(), "placer needs at least one site");
        Rendezvous { sites }
    }

    /// Add a site (no-op if present).
    #[cfg(test)]
    pub(crate) fn add_site(&mut self, site: SiteId) {
        if !self.sites.contains(&site) {
            self.sites.push(site);
        }
    }
}

impl Rendezvous {
    fn owner_of_hash(&self, kh: u64) -> SiteId {
        self.sites
            .iter()
            .copied()
            .max_by_key(|s| {
                // Combine key and site hashes through a strong mixer.
                geometa_sim::rng::mix(kh ^ fx_hash_str(&format!("rdv-{}", s.0)))
            })
            .expect("placer non-empty")
    }
}

impl SitePlacer for Rendezvous {
    fn owner(&self, key: &str) -> SiteId {
        self.owner_of_hash(fx_hash_str(key))
    }

    fn owner_key(&self, key: &Key) -> SiteId {
        self.owner_of_hash(key.hash64())
    }

    fn sites(&self) -> Vec<SiteId> {
        self.sites.clone()
    }
}

/// Fraction of `keys` whose owner differs between two placers (used to
/// quantify migration cost on membership change).
pub fn migration_fraction<A: SitePlacer + ?Sized, B: SitePlacer + ?Sized>(
    before: &A,
    after: &B,
    keys: &[String],
) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let moved = keys
        .iter()
        .filter(|k| before.owner(k) != after.owner(k))
        .count();
    moved as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_sites() -> Vec<SiteId> {
        (0..4).map(SiteId).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("file{i}")).collect()
    }

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let p = UniformHash::new(four_sites());
        for k in keys(1000) {
            let o = p.owner(&k);
            assert_eq!(o, p.owner(&k));
            assert!(o.0 < 4);
        }
    }

    #[test]
    fn uniform_balances_load() {
        let p = UniformHash::new(four_sites());
        let mut counts = [0u32; 4];
        for k in keys(40_000) {
            counts[p.owner(&k).index()] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn ring_balances_load_with_vnodes() {
        let p = ConsistentRing::new(four_sites(), 128);
        let mut counts = [0u32; 4];
        for k in keys(40_000) {
            counts[p.owner(&k).index()] += 1;
        }
        for &c in &counts {
            // vnodes keep imbalance modest.
            assert!((7_000..13_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn ring_add_site_moves_about_one_fifth() {
        let ks = keys(20_000);
        let before = ConsistentRing::new(four_sites(), 128);
        let mut after = before.clone();
        after.add_site(SiteId(4));
        let frac = migration_fraction(&before, &after, &ks);
        // Ideal is 1/5 = 0.2; allow slack for vnode variance.
        assert!((0.12..0.30).contains(&frac), "migration fraction {frac}");
        // Every moved key must have moved TO the new site.
        for k in &ks {
            if before.owner(k) != after.owner(k) {
                assert_eq!(after.owner(k), SiteId(4));
            }
        }
    }

    #[test]
    fn ring_remove_site_only_moves_its_keys() {
        let ks = keys(20_000);
        let before = ConsistentRing::new(four_sites(), 128);
        let mut after = before.clone();
        after.remove_site(SiteId(2));
        for k in &ks {
            let b = before.owner(k);
            let a = after.owner(k);
            if b != SiteId(2) {
                assert_eq!(a, b, "key {k} moved although its owner survived");
            } else {
                assert_ne!(a, SiteId(2));
            }
        }
    }

    #[test]
    fn uniform_membership_change_reshuffles_most_keys() {
        // The known drawback that motivates the ring: adding one site to a
        // mod-n placer moves the vast majority of keys.
        let ks = keys(20_000);
        let before = UniformHash::new(four_sites());
        let after = UniformHash::new((0..5).map(SiteId).collect());
        let frac = migration_fraction(&before, &after, &ks);
        assert!(
            frac > 0.5,
            "mod-hash migration fraction {frac} suspiciously low"
        );
    }

    #[test]
    fn rendezvous_minimal_migration() {
        let ks = keys(20_000);
        let before = Rendezvous::new(four_sites());
        let mut after = before.clone();
        after.add_site(SiteId(4));
        let frac = migration_fraction(&before, &after, &ks);
        assert!((0.15..0.25).contains(&frac), "migration fraction {frac}");
        for k in &ks {
            if before.owner(k) != after.owner(k) {
                assert_eq!(after.owner(k), SiteId(4));
            }
        }
    }

    #[test]
    fn rendezvous_balances_load() {
        let p = Rendezvous::new(four_sites());
        let mut counts = [0u32; 4];
        for k in keys(40_000) {
            counts[p.owner(&k).index()] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn ring_add_remove_is_idempotent() {
        let mut r = ConsistentRing::new(four_sites(), 16);
        r.add_site(SiteId(2)); // already present
        assert_eq!(r.len(), 4);
        r.remove_site(SiteId(9)); // absent
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last site")]
    fn ring_refuses_to_empty() {
        let mut r = ConsistentRing::new(vec![SiteId(0)], 16);
        r.remove_site(SiteId(0));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn uniform_requires_sites() {
        let _ = UniformHash::new(vec![]);
    }

    #[test]
    fn owner_key_agrees_with_owner_for_every_placer() {
        let placers: Vec<Box<dyn SitePlacer>> = vec![
            Box::new(UniformHash::new(four_sites())),
            Box::new(ConsistentRing::new(four_sites(), 64)),
            Box::new(Rendezvous::new(four_sites())),
        ];
        for p in &placers {
            for k in keys(500) {
                assert_eq!(
                    p.owner(&k),
                    p.owner_key(&Key::new(&k)),
                    "interned-key placement must match text placement"
                );
            }
        }
    }
}
