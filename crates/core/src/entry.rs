//! The registry entry: minimal per-file metadata, plus its binary codec.
//!
//! Following the paper (§III-B), an entry stores only what is needed to
//! locate a file — no POSIX permissions or ownership, which scientific
//! workflows never consult during execution. The paper's base case is "a
//! file uniquely identified by its name and containing a set of its
//! locations within the network"; we add the size and producing task, which
//! the provisioning layer (§III-C) uses to plan data movement.
//!
//! Entries are serialized with a small hand-rolled length-prefixed binary
//! codec (`bytes`-based) so the cache tier stores opaque `Bytes` and the
//! network model charges realistic message sizes.
//!
//! # Zero-allocation decode
//!
//! Strings are held as [`MetaStr`] — a UTF-8-validated view into a shared
//! `Bytes` buffer — and locations in an inline-small [`Locations`] vector,
//! so decoding an entry from the wire allocates nothing for its name or
//! producer (they slice the wire buffer) and nothing for up to
//! [`Locations::INLINE`] locations. Since registry traffic is dominated by
//! decode-merge-encode cycles over tiny entries, this removes two `String`
//! and one `Vec` allocation from nearly every metadata operation.

use crate::MetaError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use geometa_cache::Key;
use geometa_sim::topology::SiteId;
use std::fmt;

/// An immutable UTF-8 string backed by a shared [`Bytes`] buffer.
///
/// Cloning is O(1). Decoding slices the wire buffer instead of copying.
/// Derefs to `&str`, so call sites treat it exactly like a string.
#[derive(Clone, Default)]
pub struct MetaStr(Bytes);

impl MetaStr {
    /// Wrap validated bytes. Errors on invalid UTF-8.
    pub(crate) fn from_utf8(bytes: Bytes) -> Result<MetaStr, MetaError> {
        std::str::from_utf8(&bytes).map_err(|e| MetaError::Codec(e.to_string()))?;
        Ok(MetaStr(bytes))
    }

    /// The string view.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: every constructor validates UTF-8 (`from_utf8` checks;
        // the `From` impls start from `str`/`String`), and `Bytes` is
        // immutable, so the invariant holds for the value's lifetime.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }

    /// Length in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl From<&str> for MetaStr {
    fn from(s: &str) -> MetaStr {
        MetaStr(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for MetaStr {
    fn from(s: String) -> MetaStr {
        MetaStr(Bytes::from(s.into_bytes()))
    }
}

impl From<&String> for MetaStr {
    fn from(s: &String) -> MetaStr {
        MetaStr::from(s.as_str())
    }
}

impl std::ops::Deref for MetaStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for MetaStr {
    #[inline]
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for MetaStr {
    #[inline]
    fn eq(&self, other: &MetaStr) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for MetaStr {}

impl PartialEq<str> for MetaStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for MetaStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}
impl PartialEq<String> for MetaStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}
impl PartialEq<MetaStr> for str {
    fn eq(&self, other: &MetaStr) -> bool {
        self == other.as_str()
    }
}
impl PartialEq<MetaStr> for &str {
    fn eq(&self, other: &MetaStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialOrd for MetaStr {
    fn partial_cmp(&self, other: &MetaStr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MetaStr {
    fn cmp(&self, other: &MetaStr) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for MetaStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for MetaStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for MetaStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// Where one replica of a file's data lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileLocation {
    /// Datacenter holding the data.
    pub site: SiteId,
    /// Node within the datacenter (execution-node index).
    pub node: u32,
}

const NO_LOCATION: FileLocation = FileLocation {
    site: SiteId(0),
    node: 0,
};

/// An inline-small vector of [`FileLocation`]s.
///
/// Workflow files overwhelmingly have one or two replicas (origin plus at
/// most a lazy copy at the hash owner), so up to [`Self::INLINE`] locations
/// live inline in the entry with no heap allocation; larger sets spill to
/// a `Vec`. Derefs to `&[FileLocation]`, so indexing, iteration and
/// sorting work as on a plain vector.
#[derive(Clone)]
pub enum Locations {
    /// Up to [`Self::INLINE`] locations stored inline.
    Inline {
        /// Number of live elements in `buf`.
        len: u8,
        /// Inline storage; elements past `len` are padding.
        buf: [FileLocation; Locations::INLINE],
    },
    /// Spilled storage for larger location sets.
    Heap(Vec<FileLocation>),
}

impl Locations {
    /// Number of locations stored without heap allocation.
    pub(crate) const INLINE: usize = 4;

    /// An empty set.
    pub(crate) fn new() -> Locations {
        Locations::Inline {
            len: 0,
            buf: [NO_LOCATION; Self::INLINE],
        }
    }

    /// A single-location set (the common case: the file's origin).
    pub(crate) fn one(loc: FileLocation) -> Locations {
        let mut buf = [NO_LOCATION; Self::INLINE];
        buf[0] = loc;
        Locations::Inline { len: 1, buf }
    }

    /// An empty set that will hold `n` locations, pre-spilled if `n`
    /// exceeds the inline capacity.
    pub(crate) fn with_capacity(n: usize) -> Locations {
        if n <= Self::INLINE {
            Locations::new()
        } else {
            Locations::Heap(Vec::with_capacity(n))
        }
    }

    /// Append a location (unconditionally; see
    /// [`RegistryEntry::add_location`] for the deduplicating variant).
    pub(crate) fn push(&mut self, loc: FileLocation) {
        match self {
            Locations::Inline { len, buf } => {
                if (*len as usize) < Self::INLINE {
                    buf[*len as usize] = loc;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(loc);
                    *self = Locations::Heap(v);
                }
            }
            Locations::Heap(v) => v.push(loc),
        }
    }

    /// The locations as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[FileLocation] {
        match self {
            Locations::Inline { len, buf } => &buf[..*len as usize],
            Locations::Heap(v) => v,
        }
    }

    /// The locations as a mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [FileLocation] {
        match self {
            Locations::Inline { len, buf } => &mut buf[..*len as usize],
            Locations::Heap(v) => v,
        }
    }

    /// Remove every location.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        *self = Locations::new();
    }

    /// Sort in place (sites then nodes; the codec's canonical order).
    pub(crate) fn sort(&mut self) {
        self.as_mut_slice().sort_unstable();
    }
}

impl Default for Locations {
    fn default() -> Self {
        Locations::new()
    }
}

impl std::ops::Deref for Locations {
    type Target = [FileLocation];
    #[inline]
    fn deref(&self) -> &[FileLocation] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Locations {
    #[inline]
    fn deref_mut(&mut self) -> &mut [FileLocation] {
        self.as_mut_slice()
    }
}

impl PartialEq for Locations {
    fn eq(&self, other: &Locations) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Locations {}

impl fmt::Debug for Locations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<FileLocation> for Locations {
    fn from_iter<I: IntoIterator<Item = FileLocation>>(iter: I) -> Locations {
        let mut out = Locations::new();
        for loc in iter {
            out.push(loc);
        }
        out
    }
}

impl<'a> IntoIterator for &'a Locations {
    type Item = &'a FileLocation;
    type IntoIter = std::slice::Iter<'a, FileLocation>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Metadata for one workflow file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Unique file name (the registry key).
    pub name: MetaStr,
    /// File size in bytes (workflow files are typically small; §II-A).
    pub size: u64,
    /// All known locations of the file's data.
    pub locations: Locations,
    /// Name of the task that produced the file, if known (provenance).
    pub producer: Option<MetaStr>,
    /// Logical creation timestamp (microseconds).
    pub created_at: u64,
}

impl RegistryEntry {
    /// A new entry with a single location.
    pub fn new(name: impl Into<MetaStr>, size: u64, location: FileLocation, now: u64) -> Self {
        RegistryEntry {
            name: name.into(),
            size,
            locations: Locations::one(location),
            producer: None,
            created_at: now,
        }
    }

    /// Attach the producing task (builder-style).
    #[cfg(test)]
    pub(crate) fn with_producer(mut self, producer: impl Into<MetaStr>) -> Self {
        self.producer = Some(producer.into());
        self
    }

    /// Add a location if not already present; returns true if added.
    pub(crate) fn add_location(&mut self, loc: FileLocation) -> bool {
        if self.locations.contains(&loc) {
            false
        } else {
            self.locations.push(loc);
            true
        }
    }

    /// Whether any replica of the data lives at `site`.
    pub fn available_at(&self, site: SiteId) -> bool {
        self.locations.iter().any(|l| l.site == site)
    }

    /// The interned cache key for this entry (one allocation + one hash;
    /// reused across a whole OCC retry loop by the registry).
    pub(crate) fn cache_key(&self) -> Key {
        Key::new(&self.name)
    }

    /// Serialize to the wire/cache representation.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serialize by appending to an existing buffer — the in-place variant
    /// of [`RegistryEntry::to_bytes`], byte-identical output. Appends
    /// exactly [`RegistryEntry::encoded_len`] bytes, so request encoders,
    /// WAL records and snapshot images embed an entry without a
    /// throw-away buffer.
    #[inline]
    pub(crate) fn encode_into<B: BufMut>(&self, buf: &mut B) {
        put_str(buf, &self.name);
        buf.put_u64_le(self.size);
        buf.put_u32_le(self.locations.len() as u32);
        for loc in &self.locations {
            buf.put_u16_le(loc.site.0);
            buf.put_u32_le(loc.node);
        }
        match &self.producer {
            Some(p) => {
                buf.put_u8(1);
                put_str(buf, p);
            }
            None => buf.put_u8(0),
        }
        buf.put_u64_le(self.created_at);
    }

    /// Deserialize from the wire/cache representation.
    ///
    /// Zero-copy for strings: `name` and `producer` are slices into `buf`'s
    /// shared storage, not fresh allocations; up to [`Locations::INLINE`]
    /// locations decode without a heap allocation either.
    pub fn from_bytes(mut buf: Bytes) -> Result<RegistryEntry, MetaError> {
        let name = get_str(&mut buf)?;
        if buf.remaining() < 8 + 4 {
            return Err(MetaError::Codec("truncated entry header".into()));
        }
        let size = buf.get_u64_le();
        let n_locs = buf.get_u32_le() as usize;
        if n_locs > 1_000_000 {
            return Err(MetaError::Codec(format!(
                "implausible location count {n_locs}"
            )));
        }
        if buf.remaining() < n_locs * 6 {
            return Err(MetaError::Codec("truncated locations".into()));
        }
        let mut locations = Locations::with_capacity(n_locs);
        for _ in 0..n_locs {
            let site = SiteId(buf.get_u16_le());
            let node = buf.get_u32_le();
            locations.push(FileLocation { site, node });
        }
        if buf.remaining() < 1 {
            return Err(MetaError::Codec("truncated producer flag".into()));
        }
        let producer = match buf.get_u8() {
            0 => None,
            1 => Some(get_str(&mut buf)?),
            other => return Err(MetaError::Codec(format!("bad producer tag {other}"))),
        };
        if buf.remaining() < 8 {
            return Err(MetaError::Codec("truncated timestamp".into()));
        }
        let created_at = buf.get_u64_le();
        Ok(RegistryEntry {
            name,
            size,
            locations,
            producer,
            created_at,
        })
    }

    /// Exact serialized size in bytes (used by the network model).
    pub fn encoded_len(&self) -> usize {
        4 + self.name.len()
            + 8
            + 4
            + self.locations.len() * 6
            + 1
            + self.producer.as_ref().map_or(0, |p| 4 + p.len())
            + 8
    }
}

fn put_str<B: BufMut>(buf: &mut B, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<MetaStr, MetaError> {
    if buf.remaining() < 4 {
        return Err(MetaError::Codec("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if len > 16 * 1024 * 1024 {
        return Err(MetaError::Codec(format!("implausible string length {len}")));
    }
    if buf.remaining() < len {
        return Err(MetaError::Codec("truncated string body".into()));
    }
    MetaStr::from_utf8(buf.split_to(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistryEntry {
        RegistryEntry {
            name: "montage/proj_0042.fits".into(),
            size: 190 * 1024,
            locations: [
                FileLocation {
                    site: SiteId(0),
                    node: 7,
                },
                FileLocation {
                    site: SiteId(2),
                    node: 19,
                },
            ]
            .into_iter()
            .collect(),
            producer: Some("mProject-42".into()),
            created_at: 123_456_789,
        }
    }

    #[test]
    fn roundtrip_full_entry() {
        let e = sample();
        let b = e.to_bytes();
        assert_eq!(b.len(), e.encoded_len());
        let back = RegistryEntry::from_bytes(b).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn roundtrip_minimal_entry() {
        let e = RegistryEntry::new(
            "f",
            0,
            FileLocation {
                site: SiteId(3),
                node: 0,
            },
            0,
        );
        let back = RegistryEntry::from_bytes(e.to_bytes()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.producer, None);
    }

    #[test]
    fn roundtrip_empty_locations() {
        let mut e = sample();
        e.locations.clear();
        let back = RegistryEntry::from_bytes(e.to_bytes()).unwrap();
        assert!(back.locations.is_empty());
    }

    #[test]
    fn decode_is_zero_copy_for_strings() {
        let wire = sample().to_bytes();
        let decoded = RegistryEntry::from_bytes(wire.clone()).unwrap();
        // The name view points inside the wire buffer itself.
        let wire_range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        let name_ptr = decoded.name.as_str().as_ptr() as usize;
        assert!(
            wire_range.contains(&name_ptr),
            "decoded name was copied out of the wire buffer"
        );
        let producer_ptr = decoded.producer.as_ref().unwrap().as_str().as_ptr() as usize;
        assert!(wire_range.contains(&producer_ptr));
    }

    #[test]
    fn locations_stay_inline_up_to_four() {
        let mut locs = Locations::one(FileLocation {
            site: SiteId(0),
            node: 0,
        });
        for i in 1..4u32 {
            locs.push(FileLocation {
                site: SiteId(i as u16),
                node: i,
            });
            assert!(matches!(locs, Locations::Inline { .. }));
        }
        locs.push(FileLocation {
            site: SiteId(9),
            node: 9,
        });
        assert!(matches!(locs, Locations::Heap(_)));
        assert_eq!(locs.len(), 5);
        assert_eq!(locs[4].node, 9);
        // Slice behaviour survives the spill.
        locs.sort();
        assert!(locs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn meta_str_compares_like_str() {
        let m = MetaStr::from("abc");
        assert_eq!(m, "abc");
        assert_eq!("abc", m);
        assert_eq!(m, "abc".to_string());
        let (a, b) = (MetaStr::from("a"), MetaStr::from("b"));
        assert!(a < b);
        assert_eq!(format!("{m}"), "abc");
        assert_eq!(format!("{m:?}"), "\"abc\"");
        assert!(MetaStr::from_utf8(Bytes::from(vec![0xFF, 0xFE])).is_err());
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let full = sample().to_bytes();
        for cut in 0..full.len() {
            let sliced = full.slice(0..cut);
            let res = RegistryEntry::from_bytes(sliced);
            assert!(res.is_err(), "truncation at {cut} should fail");
        }
    }

    #[test]
    fn garbage_payload_errors() {
        let garbage = Bytes::from(vec![0xFFu8; 64]);
        assert!(RegistryEntry::from_bytes(garbage).is_err());
    }

    #[test]
    fn add_location_dedups() {
        let mut e = sample();
        let loc = FileLocation {
            site: SiteId(0),
            node: 7,
        };
        assert!(
            !e.add_location(loc),
            "existing location should not duplicate"
        );
        assert_eq!(e.locations.len(), 2);
        assert!(e.add_location(FileLocation {
            site: SiteId(1),
            node: 1
        }));
        assert_eq!(e.locations.len(), 3);
    }

    #[test]
    fn availability_by_site() {
        let e = sample();
        assert!(e.available_at(SiteId(0)));
        assert!(e.available_at(SiteId(2)));
        assert!(!e.available_at(SiteId(1)));
    }

    #[test]
    fn cache_key_matches_name() {
        let e = sample();
        let k = e.cache_key();
        assert_eq!(k.as_str(), e.name.as_str());
        assert_eq!(k.hash64(), geometa_cache::fx_hash_str(&e.name));
    }

    #[test]
    fn encoded_len_is_exact_for_many_shapes() {
        for n_locs in [0usize, 1, 5, 50] {
            for producer in [None, Some("task")] {
                let e = RegistryEntry {
                    name: "x".repeat(n_locs + 1).into(),
                    size: 42,
                    locations: (0..n_locs)
                        .map(|i| FileLocation {
                            site: SiteId(i as u16),
                            node: i as u32,
                        })
                        .collect(),
                    producer: producer.map(MetaStr::from),
                    created_at: 7,
                };
                assert_eq!(e.to_bytes().len(), e.encoded_len());
            }
        }
    }

    #[test]
    fn entries_are_small_like_the_paper_says() {
        // Metadata must stay tiny relative to even "small" files.
        let e = sample();
        assert!(
            e.encoded_len() < 128,
            "entry unexpectedly large: {}",
            e.encoded_len()
        );
    }
}
