//! Interned cache keys: shared string storage plus a precomputed hash.
//!
//! Metadata operations are small and frequent (the paper's central
//! observation), so per-operation key overhead — allocating `String`
//! copies, hashing the same file name two or three times per op — is
//! measurable. A [`Key`] pays the allocation and the hash exactly once;
//! every subsequent clone is an `Arc` bump and every map probe reuses the
//! stored 64-bit hash.
//!
//! The store accepts plain `&str` too (one hash, zero allocations on the
//! read path) via an internal borrowed-query type, so casual callers never
//! need to intern. Hot-path callers — the registry's OCC loops, the HA
//! mirror, batch propagation — intern once and use the `*_key` methods.

use crate::hash::fx_hash_str;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned key: `Arc<str>` storage with its FxHash precomputed.
///
/// Cloning is O(1) (an atomic increment). Equality compares the hash
/// first, then the bytes; hashing writes the precomputed value, so map
/// probes never re-scan the string.
#[derive(Clone)]
pub struct Key {
    s: Arc<str>,
    hash: u64,
}

impl Key {
    /// Intern `s`: one allocation, one hash.
    pub fn new(s: &str) -> Key {
        Key {
            hash: fx_hash_str(s),
            s: Arc::from(s),
        }
    }

    /// Build from pre-hashed parts (the hash MUST be `fx_hash_str(&s)`).
    pub(crate) fn from_raw(s: Arc<str>, hash: u64) -> Key {
        debug_assert_eq!(hash, fx_hash_str(&s));
        Key { s, hash }
    }

    /// The key's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.s
    }

    /// The precomputed 64-bit FxHash of the key text.
    #[inline]
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Length of the key text in bytes.
    #[inline]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.s.len()
    }

    /// Whether the key text is empty.
    #[inline]
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.s.is_empty()
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::new(s)
    }
}

impl From<&String> for Key {
    fn from(s: &String) -> Key {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        let hash = fx_hash_str(&s);
        Key {
            s: Arc::from(s),
            hash,
        }
    }
}

impl std::ops::Deref for Key {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.s
    }
}

impl AsRef<str> for Key {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.s
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Key) -> bool {
        self.hash == other.hash && self.s == other.s
    }
}
impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        &*self.s == other
    }
}
impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        &*self.s == *other
    }
}
impl PartialEq<String> for Key {
    fn eq(&self, other: &String) -> bool {
        &*self.s == other.as_str()
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.s.cmp(&other.s)
    }
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.s)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", &*self.s)
    }
}

/// Borrowed lookup view: everything the shard maps need from a key.
///
/// Both [`Key`] and the internal borrowed [`StrQuery`] implement this, and
/// the maps are queried through `&dyn KeyQuery` (via the `Borrow` bridge
/// below), so `&str` lookups need neither an allocation nor a second hash.
pub(crate) trait KeyQuery {
    fn query_hash(&self) -> u64;
    fn query_str(&self) -> &str;
}

impl KeyQuery for Key {
    #[inline]
    fn query_hash(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn query_str(&self) -> &str {
        &self.s
    }
}

/// A `&str` plus its hash, computed once per operation.
pub(crate) struct StrQuery<'a> {
    pub hash: u64,
    pub s: &'a str,
}

impl<'a> StrQuery<'a> {
    #[inline]
    pub(crate) fn new(s: &'a str) -> StrQuery<'a> {
        StrQuery {
            hash: fx_hash_str(s),
            s,
        }
    }

    /// Promote to an owned interned key (first insertion of this key).
    pub(crate) fn to_key(&self) -> Key {
        Key::from_raw(Arc::from(self.s), self.hash)
    }
}

impl KeyQuery for StrQuery<'_> {
    #[inline]
    fn query_hash(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn query_str(&self) -> &str {
        self.s
    }
}

impl Hash for dyn KeyQuery + '_ {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.query_hash());
    }
}

impl PartialEq for dyn KeyQuery + '_ {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.query_hash() == other.query_hash() && self.query_str() == other.query_str()
    }
}
impl Eq for dyn KeyQuery + '_ {}

impl<'a> Borrow<dyn KeyQuery + 'a> for Key {
    #[inline]
    fn borrow(&self) -> &(dyn KeyQuery + 'a) {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_precomputes_fx_hash() {
        let k = Key::new("montage/proj_0042.fits");
        assert_eq!(k.hash64(), fx_hash_str("montage/proj_0042.fits"));
        assert_eq!(k.as_str(), "montage/proj_0042.fits");
        assert_eq!(k.len(), 22);
        assert!(!k.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let k = Key::new("shared");
        let c = k.clone();
        assert_eq!(k, c);
        assert_eq!(k.as_str().as_ptr(), c.as_str().as_ptr());
    }

    #[test]
    fn equality_and_order_follow_the_text() {
        assert_eq!(Key::new("a"), Key::new("a"));
        assert_ne!(Key::new("a"), Key::new("b"));
        assert!(Key::new("a") < Key::new("b"));
        assert_eq!(Key::new("x"), "x");
        assert_eq!(Key::new("x"), *"x");
        assert_eq!(Key::new("x"), "x".to_string());
    }

    #[test]
    fn str_query_agrees_with_key() {
        let k = Key::new("f1");
        let q = StrQuery::new("f1");
        assert_eq!(q.hash, k.hash64());
        let dq: &dyn KeyQuery = &q;
        let dk: &dyn KeyQuery = &k;
        assert!(dq == dk);
        assert_eq!(q.to_key(), k);
    }

    #[test]
    fn usable_in_hash_maps_and_formatting() {
        let mut m: crate::FxHashMap<Key, u32> = crate::FxHashMap::default();
        m.insert(Key::new("k1"), 1);
        assert_eq!(m.get(&Key::new("k1")), Some(&1));
        assert_eq!(format!("{}", Key::new("k")), "k");
        assert_eq!(format!("{:?}", Key::new("k")), "\"k\"");
    }
}
