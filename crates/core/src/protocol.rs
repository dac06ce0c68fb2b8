//! Registry RPC protocol: the messages exchanged between clients, registry
//! instances and the synchronization agent.
//!
//! Both executors (the DES binding and the live threaded cluster) speak
//! this protocol. Messages know their wire size so the network model can
//! charge realistic transfer costs.

use crate::entry::RegistryEntry;
use crate::MetaError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use geometa_cache::Key;
use geometa_sim::topology::SiteId;

/// Fixed per-message framing overhead (headers, request ids) charged by the
/// network model on top of the payload.
pub const FRAME_OVERHEAD: usize = 48;

/// Hard cap on the entry count of one `Absorb`/`Delta` message. Decoders
/// reject anything larger before allocating (codec totality on garbage).
pub(crate) const MAX_WIRE_ENTRIES: usize = 1 << 20;

/// Hard cap on one length-prefixed element (key or encoded entry).
const MAX_WIRE_ELEMENT: usize = 64 * 1024 * 1024;

/// A request to a registry instance.
///
/// Key-addressed requests carry an interned [`Key`]: the client interns
/// (one allocation + one hash) and every server-side map probe reuses the
/// precomputed hash. Cloning a request for retry/fan-out is O(1) per key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryRequest {
    /// Read one entry by key.
    Get { key: Key },
    /// Publish one entry (lookup + write semantics).
    Put { entry: RegistryEntry },
    /// Propagated entry from another instance (lazy update path). Absorbed
    /// with merge semantics; not counted as client load.
    Absorb { entries: Vec<RegistryEntry> },
    /// Remove one entry.
    Remove { key: Key },
    /// Sync agent: give me everything modified after `since`.
    DeltaPull { since: u64 },
    /// Ops: report the serving site's health (epoch, WAL position,
    /// connection count). Never epoch-checked — a client with a stale
    /// plan must still be able to ask where the cluster is.
    Status,
    /// Ops: change cluster membership. The serving site coordinates the
    /// rebalance transfer and epoch bump; `Ack` means *accepted*, not
    /// *finished* — poll [`RegistryRequest::Status`] for the epoch flip.
    Reconfigure {
        /// What to do with `site`.
        op: ReconfigureOp,
        /// The site joining, leaving or draining.
        site: SiteId,
    },
}

/// A membership change verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigureOp {
    /// Add the site to the member set (pulls ~1/n of the keys to it).
    Join,
    /// Evacuate the site's keys, then remove it from the member set.
    Leave,
    /// Copy the site's keys to their post-leave owners *without* changing
    /// membership — a warm-up that makes a later `Leave` near-instant.
    Drain,
}

/// One site's health snapshot, served for [`RegistryRequest::Status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteStatus {
    /// The site that answered.
    pub site: SiteId,
    /// Current membership epoch.
    pub epoch: u64,
    /// Current member sites, sorted by id.
    pub members: Vec<SiteId>,
    /// Highest WAL sequence number assigned at this site (0 when the WAL
    /// is disabled or empty).
    pub wal_seq: u64,
    /// Entries currently held by this site's registry.
    pub entries: u64,
    /// Open server-side connections at this site (0 for transports that
    /// have no connections, e.g. in-process).
    pub conns: u32,
    /// Whether a rebalance transfer is currently in flight.
    pub rebalancing: bool,
    /// Entries moved by the most recently completed rebalance.
    pub last_moved: u64,
}

impl RegistryRequest {
    /// Approximate size on the wire, bytes.
    pub fn wire_size(&self) -> u64 {
        let payload = match self {
            RegistryRequest::Get { key } => key.len(),
            RegistryRequest::Put { entry } => entry.encoded_len(),
            RegistryRequest::Absorb { entries } => {
                entries.iter().map(|e| e.encoded_len()).sum::<usize>()
            }
            RegistryRequest::Remove { key } => key.len(),
            RegistryRequest::DeltaPull { .. } => 8,
            RegistryRequest::Status => 1,
            RegistryRequest::Reconfigure { .. } => 3,
        };
        (FRAME_OVERHEAD + payload) as u64
    }

    /// Whether the request mutates registry state.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            RegistryRequest::Put { .. }
                | RegistryRequest::Absorb { .. }
                | RegistryRequest::Remove { .. }
        )
    }
}

/// A registry instance's response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryResponse {
    /// Entry found.
    Found { entry: RegistryEntry },
    /// Write/absorb/remove acknowledged.
    Ack,
    /// Delta pull result.
    Delta { entries: Vec<RegistryEntry> },
    /// Health snapshot for a [`RegistryRequest::Status`].
    Status { status: SiteStatus },
    /// Operation failed.
    Error { error: MetaError },
}

impl RegistryResponse {
    /// Approximate size on the wire, bytes.
    pub fn wire_size(&self) -> u64 {
        let payload = match self {
            RegistryResponse::Found { entry } => entry.encoded_len(),
            RegistryResponse::Ack => 1,
            RegistryResponse::Delta { entries } => {
                entries.iter().map(|e| e.encoded_len()).sum::<usize>()
            }
            RegistryResponse::Status { status } => 40 + 2 * status.members.len(),
            RegistryResponse::Error { .. } => 16,
        };
        (FRAME_OVERHEAD + payload) as u64
    }

    /// Unwrap into a found entry or an error.
    #[cfg(test)]
    pub(crate) fn into_entry(self) -> Result<RegistryEntry, MetaError> {
        match self {
            RegistryResponse::Found { entry } => Ok(entry),
            RegistryResponse::Error { error } => Err(error),
            other => Err(MetaError::Codec(format!("expected Found, got {other:?}"))),
        }
    }

    /// Unwrap an acknowledgement.
    pub(crate) fn into_ack(self) -> Result<(), MetaError> {
        match self {
            RegistryResponse::Ack => Ok(()),
            RegistryResponse::Error { error } => Err(error),
            other => Err(MetaError::Codec(format!("expected Ack, got {other:?}"))),
        }
    }

    /// Unwrap a status snapshot.
    pub fn into_status(self) -> Result<SiteStatus, MetaError> {
        match self {
            RegistryResponse::Status { status } => Ok(status),
            RegistryResponse::Error { error } => Err(error),
            other => Err(MetaError::Codec(format!("expected Status, got {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire codec
//
// The RPC types — not just entries — are serializable, so a transport can
// ship them over any byte stream. The format mirrors the entry codec:
// little-endian, length-prefixed, one leading tag byte per message. Every
// variable-length element (key, encoded entry, error text) carries its own
// u32 length prefix, so decoding slices the shared wire buffer and entry
// strings stay zero-copy (`MetaStr` views into the frame).
//
// Decoders are *total*: any byte sequence either decodes or returns
// `MetaError::Codec` — never a panic, never an unbounded allocation
// (counts and lengths are sanity-capped before any reservation).
// ---------------------------------------------------------------------------

mod tag {
    pub(super) const REQ_GET: u8 = 1;
    pub(super) const REQ_PUT: u8 = 2;
    pub(super) const REQ_ABSORB: u8 = 3;
    pub(super) const REQ_REMOVE: u8 = 4;
    pub(super) const REQ_DELTA_PULL: u8 = 5;
    pub(super) const REQ_STATUS: u8 = 6;
    pub(super) const REQ_RECONFIGURE: u8 = 7;

    pub(super) const RESP_FOUND: u8 = 1;
    pub(super) const RESP_ACK: u8 = 2;
    pub(super) const RESP_DELTA: u8 = 3;
    pub(super) const RESP_ERROR: u8 = 4;
    pub(super) const RESP_STATUS: u8 = 5;

    pub(super) const ERR_NOT_FOUND: u8 = 1;
    pub(super) const ERR_UNAVAILABLE: u8 = 2;
    pub(super) const ERR_CONTENTION: u8 = 3;
    pub(super) const ERR_CODEC: u8 = 4;
    pub(super) const ERR_WRONG_EPOCH: u8 = 5;

    pub(super) const OP_JOIN: u8 = 1;
    pub(super) const OP_LEAVE: u8 = 2;
    pub(super) const OP_DRAIN: u8 = 3;
}

fn put_prefixed<B: BufMut>(buf: &mut B, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn get_prefixed(buf: &mut Bytes) -> Result<Bytes, MetaError> {
    if buf.remaining() < 4 {
        return Err(MetaError::Codec("truncated length prefix".into()));
    }
    let len = buf.get_u32_le() as usize;
    if len > MAX_WIRE_ELEMENT {
        return Err(MetaError::Codec(format!(
            "implausible element length {len}"
        )));
    }
    if buf.remaining() < len {
        return Err(MetaError::Codec("truncated element body".into()));
    }
    Ok(buf.split_to(len))
}

fn put_key<B: BufMut>(buf: &mut B, key: &Key) {
    put_prefixed(buf, key.as_str().as_bytes());
}

fn get_key(buf: &mut Bytes) -> Result<Key, MetaError> {
    let raw = get_prefixed(buf)?;
    let s = std::str::from_utf8(&raw).map_err(|e| MetaError::Codec(e.to_string()))?;
    Ok(Key::new(s))
}

fn put_entries<B: BufMut>(buf: &mut B, entries: &[RegistryEntry]) {
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_u32_le(e.encoded_len() as u32);
        e.encode_into(buf);
    }
}

fn get_entries(buf: &mut Bytes) -> Result<Vec<RegistryEntry>, MetaError> {
    if buf.remaining() < 4 {
        return Err(MetaError::Codec("truncated entry count".into()));
    }
    let n = buf.get_u32_le() as usize;
    if n > MAX_WIRE_ENTRIES {
        return Err(MetaError::Codec(format!("implausible entry count {n}")));
    }
    // Each entry needs at least its 4-byte prefix: reject before reserving.
    if buf.remaining() < n * 4 {
        return Err(MetaError::Codec("truncated entry batch".into()));
    }
    // Cap the up-front reservation: a garbage count that passed the
    // prefix check could otherwise reserve ~100 bytes per claimed entry
    // before the first decode fails. Honest batches grow past 1024
    // entries through ordinary doubling.
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(RegistryEntry::from_bytes(get_prefixed(buf)?)?);
    }
    Ok(out)
}

fn entries_encoded_len(entries: &[RegistryEntry]) -> usize {
    4 + entries.iter().map(|e| 4 + e.encoded_len()).sum::<usize>()
}

fn put_sites<B: BufMut>(buf: &mut B, sites: &[SiteId]) {
    buf.put_u16_le(sites.len() as u16);
    for s in sites {
        buf.put_u16_le(s.0);
    }
}

fn get_sites(buf: &mut Bytes) -> Result<Vec<SiteId>, MetaError> {
    if buf.remaining() < 2 {
        return Err(MetaError::Codec("truncated site count".into()));
    }
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < n * 2 {
        return Err(MetaError::Codec("truncated site list".into()));
    }
    Ok((0..n).map(|_| SiteId(buf.get_u16_le())).collect())
}

/// Borrowed fast-path view of an encoded [`RegistryRequest::Get`]: when
/// `wire` is exactly a well-formed `Get`, returns the key as a `&str`
/// view into `wire` — no interning, no allocation. Anything else
/// (other tags, truncation, bad UTF-8) returns `None` and the caller
/// falls back to the total decoder, which produces the proper error.
pub fn decode_get_key(wire: &[u8]) -> Option<&str> {
    if wire.len() < 5 || wire[0] != tag::REQ_GET {
        return None;
    }
    let len = u32::from_le_bytes([wire[1], wire[2], wire[3], wire[4]]) as usize;
    if wire.len() != 5 + len {
        return None;
    }
    std::str::from_utf8(&wire[5..]).ok()
}

/// Borrowed fast-path decode for the fixed-shape responses (`Ack` and
/// the payload-free errors) straight from a wire slice — no allocation.
/// Returns `None` for anything carrying heap data (`Found`, `Delta`,
/// `Status`, codec errors); the caller falls back to
/// [`RegistryResponse::decode`] after materializing the frame.
pub fn decode_fixed_response(wire: &[u8]) -> Option<RegistryResponse> {
    let error = match *wire {
        [tag::RESP_ACK] => return Some(RegistryResponse::Ack),
        [tag::RESP_ERROR, tag::ERR_NOT_FOUND] => MetaError::NotFound,
        [tag::RESP_ERROR, tag::ERR_UNAVAILABLE] => MetaError::Unavailable,
        [tag::RESP_ERROR, tag::ERR_CONTENTION] => MetaError::Contention,
        [tag::RESP_ERROR, tag::ERR_WRONG_EPOCH, a, b, c, d, e, f, g, h] => MetaError::WrongEpoch {
            epoch: u64::from_le_bytes([a, b, c, d, e, f, g, h]),
        },
        _ => return None,
    };
    Some(RegistryResponse::Error { error })
}

fn finish(buf: Bytes) -> Result<(), MetaError> {
    if buf.has_remaining() {
        Err(MetaError::Codec(format!(
            "{} trailing bytes after message",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

impl RegistryRequest {
    /// Serialize for a byte-stream transport. `encoded_len` is exact.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serialize by appending to an existing buffer — the in-place variant
    /// of [`RegistryRequest::encode`], byte-identical output. Appends
    /// exactly [`RegistryRequest::encoded_len`] bytes; with the buffer
    /// pre-reserved this performs no allocation (the writer owns the
    /// buffer lifecycle, so steady-state encode is alloc-free).
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            RegistryRequest::Get { key } => {
                buf.put_u8(tag::REQ_GET);
                put_key(buf, key);
            }
            RegistryRequest::Put { entry } => {
                buf.put_u8(tag::REQ_PUT);
                buf.put_u32_le(entry.encoded_len() as u32);
                entry.encode_into(buf);
            }
            RegistryRequest::Absorb { entries } => {
                buf.put_u8(tag::REQ_ABSORB);
                put_entries(buf, entries);
            }
            RegistryRequest::Remove { key } => {
                buf.put_u8(tag::REQ_REMOVE);
                put_key(buf, key);
            }
            RegistryRequest::DeltaPull { since } => {
                buf.put_u8(tag::REQ_DELTA_PULL);
                buf.put_u64_le(*since);
            }
            RegistryRequest::Status => buf.put_u8(tag::REQ_STATUS),
            RegistryRequest::Reconfigure { op, site } => {
                buf.put_u8(tag::REQ_RECONFIGURE);
                buf.put_u8(match op {
                    ReconfigureOp::Join => tag::OP_JOIN,
                    ReconfigureOp::Leave => tag::OP_LEAVE,
                    ReconfigureOp::Drain => tag::OP_DRAIN,
                });
                buf.put_u16_le(site.0);
            }
        }
    }

    /// Deserialize one request. Total: errors on garbage, truncation, and
    /// trailing bytes; entry strings are zero-copy views into `buf`.
    pub fn decode(mut buf: Bytes) -> Result<RegistryRequest, MetaError> {
        if !buf.has_remaining() {
            return Err(MetaError::Codec("empty request".into()));
        }
        let req = match buf.get_u8() {
            tag::REQ_GET => RegistryRequest::Get {
                key: get_key(&mut buf)?,
            },
            tag::REQ_PUT => RegistryRequest::Put {
                entry: RegistryEntry::from_bytes(get_prefixed(&mut buf)?)?,
            },
            tag::REQ_ABSORB => RegistryRequest::Absorb {
                entries: get_entries(&mut buf)?,
            },
            tag::REQ_REMOVE => RegistryRequest::Remove {
                key: get_key(&mut buf)?,
            },
            tag::REQ_DELTA_PULL => {
                if buf.remaining() < 8 {
                    return Err(MetaError::Codec("truncated delta-pull watermark".into()));
                }
                RegistryRequest::DeltaPull {
                    since: buf.get_u64_le(),
                }
            }
            tag::REQ_STATUS => RegistryRequest::Status,
            tag::REQ_RECONFIGURE => {
                if buf.remaining() < 3 {
                    return Err(MetaError::Codec("truncated reconfigure".into()));
                }
                let op = match buf.get_u8() {
                    tag::OP_JOIN => ReconfigureOp::Join,
                    tag::OP_LEAVE => ReconfigureOp::Leave,
                    tag::OP_DRAIN => ReconfigureOp::Drain,
                    other => return Err(MetaError::Codec(format!("bad reconfigure op {other}"))),
                };
                RegistryRequest::Reconfigure {
                    op,
                    site: SiteId(buf.get_u16_le()),
                }
            }
            other => return Err(MetaError::Codec(format!("bad request tag {other}"))),
        };
        finish(buf)?;
        Ok(req)
    }

    /// Exact serialized size in bytes (`encode().len()`), used for frame
    /// accounting by the network transports.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            RegistryRequest::Get { key } | RegistryRequest::Remove { key } => 4 + key.len(),
            RegistryRequest::Put { entry } => 4 + entry.encoded_len(),
            RegistryRequest::Absorb { entries } => entries_encoded_len(entries),
            RegistryRequest::DeltaPull { .. } => 8,
            RegistryRequest::Status => 0,
            RegistryRequest::Reconfigure { .. } => 3,
        }
    }
}

impl RegistryResponse {
    /// Serialize for a byte-stream transport. `encoded_len` is exact.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serialize by appending to an existing buffer — the in-place variant
    /// of [`RegistryResponse::encode`], byte-identical output. The server
    /// reactor uses this to encode responses directly into a connection's
    /// out-buffer behind the frame header, skipping the intermediate
    /// `Bytes` and its copy.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            RegistryResponse::Found { entry } => {
                buf.put_u8(tag::RESP_FOUND);
                buf.put_u32_le(entry.encoded_len() as u32);
                entry.encode_into(buf);
            }
            RegistryResponse::Ack => buf.put_u8(tag::RESP_ACK),
            RegistryResponse::Delta { entries } => {
                buf.put_u8(tag::RESP_DELTA);
                put_entries(buf, entries);
            }
            RegistryResponse::Status { status } => {
                buf.put_u8(tag::RESP_STATUS);
                buf.put_u16_le(status.site.0);
                buf.put_u64_le(status.epoch);
                put_sites(buf, &status.members);
                buf.put_u64_le(status.wal_seq);
                buf.put_u64_le(status.entries);
                buf.put_u32_le(status.conns);
                buf.put_u8(status.rebalancing as u8);
                buf.put_u64_le(status.last_moved);
            }
            RegistryResponse::Error { error } => {
                buf.put_u8(tag::RESP_ERROR);
                match error {
                    MetaError::NotFound => buf.put_u8(tag::ERR_NOT_FOUND),
                    MetaError::Unavailable => buf.put_u8(tag::ERR_UNAVAILABLE),
                    MetaError::Contention => buf.put_u8(tag::ERR_CONTENTION),
                    MetaError::WrongEpoch { epoch } => {
                        buf.put_u8(tag::ERR_WRONG_EPOCH);
                        buf.put_u64_le(*epoch);
                    }
                    MetaError::Codec(msg) => {
                        buf.put_u8(tag::ERR_CODEC);
                        put_prefixed(buf, msg.as_bytes());
                    }
                }
            }
        }
    }

    /// Deserialize one response. Total, like [`RegistryRequest::decode`].
    pub fn decode(mut buf: Bytes) -> Result<RegistryResponse, MetaError> {
        if !buf.has_remaining() {
            return Err(MetaError::Codec("empty response".into()));
        }
        let resp = match buf.get_u8() {
            tag::RESP_FOUND => RegistryResponse::Found {
                entry: RegistryEntry::from_bytes(get_prefixed(&mut buf)?)?,
            },
            tag::RESP_ACK => RegistryResponse::Ack,
            tag::RESP_DELTA => RegistryResponse::Delta {
                entries: get_entries(&mut buf)?,
            },
            tag::RESP_STATUS => {
                if buf.remaining() < 10 {
                    return Err(MetaError::Codec("truncated status head".into()));
                }
                let site = SiteId(buf.get_u16_le());
                let epoch = buf.get_u64_le();
                let members = get_sites(&mut buf)?;
                if buf.remaining() < 8 + 8 + 4 + 1 + 8 {
                    return Err(MetaError::Codec("truncated status body".into()));
                }
                RegistryResponse::Status {
                    status: SiteStatus {
                        site,
                        epoch,
                        members,
                        wal_seq: buf.get_u64_le(),
                        entries: buf.get_u64_le(),
                        conns: buf.get_u32_le(),
                        rebalancing: buf.get_u8() != 0,
                        last_moved: buf.get_u64_le(),
                    },
                }
            }
            tag::RESP_ERROR => {
                if !buf.has_remaining() {
                    return Err(MetaError::Codec("truncated error tag".into()));
                }
                let error = match buf.get_u8() {
                    tag::ERR_NOT_FOUND => MetaError::NotFound,
                    tag::ERR_UNAVAILABLE => MetaError::Unavailable,
                    tag::ERR_CONTENTION => MetaError::Contention,
                    tag::ERR_WRONG_EPOCH => {
                        if buf.remaining() < 8 {
                            return Err(MetaError::Codec("truncated epoch".into()));
                        }
                        MetaError::WrongEpoch {
                            epoch: buf.get_u64_le(),
                        }
                    }
                    tag::ERR_CODEC => {
                        let raw = get_prefixed(&mut buf)?;
                        let msg = std::str::from_utf8(&raw)
                            .map_err(|e| MetaError::Codec(e.to_string()))?;
                        MetaError::Codec(msg.to_string())
                    }
                    other => return Err(MetaError::Codec(format!("bad error tag {other}"))),
                };
                RegistryResponse::Error { error }
            }
            other => return Err(MetaError::Codec(format!("bad response tag {other}"))),
        };
        finish(buf)?;
        Ok(resp)
    }

    /// Exact serialized size in bytes (`encode().len()`).
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            RegistryResponse::Found { entry } => 4 + entry.encoded_len(),
            RegistryResponse::Ack => 0,
            RegistryResponse::Delta { entries } => entries_encoded_len(entries),
            RegistryResponse::Status { status } => {
                2 + 8 + 2 + 2 * status.members.len() + 8 + 8 + 4 + 1 + 8
            }
            RegistryResponse::Error { error } => match error {
                MetaError::Codec(msg) => 1 + 4 + msg.len(),
                MetaError::WrongEpoch { .. } => 1 + 8,
                _ => 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{FileLocation, Locations};
    use geometa_sim::topology::SiteId;

    fn entry(name: &str) -> RegistryEntry {
        RegistryEntry::new(
            name,
            10,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            0,
        )
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = RegistryRequest::Get { key: "k".into() };
        let put = RegistryRequest::Put {
            entry: entry("a-much-longer-file-name"),
        };
        assert!(put.wire_size() > small.wire_size());
        let batch = RegistryRequest::Absorb {
            entries: (0..10).map(|i| entry(&format!("f{i}"))).collect(),
        };
        // One frame overhead amortized over ten entries: much bigger than a
        // single put, far smaller than ten framed puts.
        assert!(batch.wire_size() > put.wire_size());
        let single = RegistryRequest::Absorb {
            entries: vec![entry("f0")],
        };
        assert!(batch.wire_size() < single.wire_size() * 10);
    }

    #[test]
    fn write_classification() {
        assert!(RegistryRequest::Put { entry: entry("f") }.is_write());
        assert!(RegistryRequest::Remove { key: "f".into() }.is_write());
        assert!(RegistryRequest::Absorb { entries: vec![] }.is_write());
        assert!(!RegistryRequest::Get { key: "f".into() }.is_write());
        assert!(!RegistryRequest::DeltaPull { since: 0 }.is_write());
    }

    #[test]
    fn response_unwrapping() {
        let e = entry("f");
        assert_eq!(
            RegistryResponse::Found { entry: e.clone() }
                .into_entry()
                .unwrap(),
            e
        );
        assert!(RegistryResponse::Ack.into_ack().is_ok());
        assert_eq!(
            RegistryResponse::Error {
                error: MetaError::NotFound
            }
            .into_entry(),
            Err(MetaError::NotFound)
        );
        assert!(RegistryResponse::Ack.into_entry().is_err());
        assert!(RegistryResponse::Found { entry: e }.into_ack().is_err());
    }

    fn request_shapes() -> Vec<RegistryRequest> {
        vec![
            RegistryRequest::Get { key: "a/b".into() },
            RegistryRequest::Put { entry: entry("f") },
            RegistryRequest::Absorb { entries: vec![] },
            RegistryRequest::Absorb {
                entries: (0..3).map(|i| entry(&format!("e{i}"))).collect(),
            },
            RegistryRequest::Remove { key: "gone".into() },
            RegistryRequest::DeltaPull { since: u64::MAX },
            RegistryRequest::Status,
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Join,
                site: SiteId(4),
            },
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Leave,
                site: SiteId(1),
            },
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Drain,
                site: SiteId(0),
            },
        ]
    }

    fn response_shapes() -> Vec<RegistryResponse> {
        vec![
            RegistryResponse::Found { entry: entry("f") },
            RegistryResponse::Ack,
            RegistryResponse::Delta { entries: vec![] },
            RegistryResponse::Delta {
                entries: (0..3).map(|i| entry(&format!("d{i}"))).collect(),
            },
            RegistryResponse::Error {
                error: MetaError::NotFound,
            },
            RegistryResponse::Error {
                error: MetaError::Unavailable,
            },
            RegistryResponse::Error {
                error: MetaError::Contention,
            },
            RegistryResponse::Error {
                error: MetaError::WrongEpoch { epoch: 7 },
            },
            RegistryResponse::Error {
                error: MetaError::Codec("bad frame".into()),
            },
            RegistryResponse::Status {
                status: SiteStatus {
                    site: SiteId(2),
                    epoch: 9,
                    members: vec![SiteId(0), SiteId(2), SiteId(3)],
                    wal_seq: 1234,
                    entries: 56,
                    conns: 3,
                    rebalancing: true,
                    last_moved: 78,
                },
            },
            RegistryResponse::Status {
                status: SiteStatus {
                    site: SiteId(0),
                    epoch: 0,
                    members: vec![],
                    wal_seq: 0,
                    entries: 0,
                    conns: 0,
                    rebalancing: false,
                    last_moved: 0,
                },
            },
        ]
    }

    #[test]
    fn wire_roundtrip_every_variant() {
        for req in request_shapes() {
            let wire = req.encode();
            assert_eq!(wire.len(), req.encoded_len(), "{req:?}");
            assert_eq!(RegistryRequest::decode(wire).unwrap(), req);
        }
        for resp in response_shapes() {
            let wire = resp.encode();
            assert_eq!(wire.len(), resp.encoded_len(), "{resp:?}");
            assert_eq!(RegistryResponse::decode(wire).unwrap(), resp);
        }
    }

    #[test]
    fn encode_into_matches_encode_for_every_shape() {
        let mut buf = bytes::BytesMut::new();
        for req in request_shapes() {
            buf = bytes::BytesMut::new();
            req.encode_into(&mut buf);
            assert_eq!(&buf[..], &req.encode()[..], "{req:?}");
            let mut vec_buf: Vec<u8> = Vec::new();
            req.encode_into(&mut vec_buf);
            assert_eq!(&vec_buf[..], &req.encode()[..], "{req:?} via Vec<u8>");
        }
        for resp in response_shapes() {
            buf = bytes::BytesMut::new();
            resp.encode_into(&mut buf);
            assert_eq!(&buf[..], &resp.encode()[..], "{resp:?}");
        }
        let _ = buf;
        // The entries inside those messages: in place ≡ `to_bytes`, for
        // every location count around the inline limit, with and without
        // a producer, appended behind existing bytes.
        for n_locs in [0usize, 1, Locations::INLINE, Locations::INLINE + 1, 40] {
            for producer in [None, Some("mProject-7")] {
                let mut e = entry("shape/entry.fits");
                e.locations = (0..n_locs)
                    .map(|i| FileLocation {
                        site: SiteId(i as u16),
                        node: 1000 + i as u32,
                    })
                    .collect();
                e.producer = producer.map(Into::into);
                let mut vec_buf = b"prefix".to_vec();
                e.encode_into(&mut vec_buf);
                assert_eq!(&vec_buf[6..], &e.to_bytes()[..], "{e:?}");
                assert_eq!(vec_buf.len() - 6, e.encoded_len());
            }
        }
    }

    #[test]
    fn borrowed_get_key_fast_path() {
        let wire = RegistryRequest::Get {
            key: "dir/file.fits".into(),
        }
        .encode();
        assert_eq!(decode_get_key(&wire), Some("dir/file.fits"));
        // Everything that is not exactly a well-formed Get falls through.
        assert_eq!(decode_get_key(&RegistryRequest::Status.encode()), None);
        assert_eq!(decode_get_key(&wire[..wire.len() - 1]), None);
        assert_eq!(decode_get_key(b"\x01\xff\xff\xff\xff"), None);
        assert_eq!(decode_get_key(b"\x01\x02\x00\x00\x00\xff\xfe"), None);
    }

    #[test]
    fn borrowed_fixed_response_fast_path() {
        for resp in response_shapes() {
            let wire = resp.encode();
            match decode_fixed_response(&wire) {
                Some(fast) => assert_eq!(fast, resp, "fast path must agree"),
                None => assert!(
                    matches!(
                        resp,
                        RegistryResponse::Found { .. }
                            | RegistryResponse::Delta { .. }
                            | RegistryResponse::Status { .. }
                            | RegistryResponse::Error {
                                error: MetaError::Codec(_)
                            }
                    ),
                    "only heap-carrying responses may fall back: {resp:?}"
                ),
            }
        }
        // Ack and the simple errors must take the fast path.
        assert_eq!(
            decode_fixed_response(&RegistryResponse::Ack.encode()),
            Some(RegistryResponse::Ack)
        );
        assert!(decode_fixed_response(b"").is_none());
    }

    #[test]
    fn wire_decode_rejects_trailing_bytes() {
        let mut wire = bytes::BytesMut::new();
        wire.extend_from_slice(&RegistryRequest::DeltaPull { since: 3 }.encode());
        wire.extend_from_slice(b"x");
        assert!(RegistryRequest::decode(wire.freeze()).is_err());
        let mut wire = bytes::BytesMut::new();
        wire.extend_from_slice(&RegistryResponse::Ack.encode());
        wire.extend_from_slice(b"x");
        assert!(RegistryResponse::decode(wire.freeze()).is_err());
    }

    #[test]
    fn wire_decode_is_zero_copy_for_entry_strings() {
        let wire = RegistryRequest::Put {
            entry: entry("montage/tile_0042.fits"),
        }
        .encode();
        let range = wire.as_ptr() as usize..wire.as_ptr() as usize + wire.len();
        match RegistryRequest::decode(wire.clone()).unwrap() {
            RegistryRequest::Put { entry } => {
                assert!(range.contains(&(entry.name.as_str().as_ptr() as usize)));
            }
            other => panic!("decoded wrong variant {other:?}"),
        }
    }

    #[test]
    fn wire_decode_rejects_implausible_counts() {
        // Absorb claiming 2^30 entries with a 10-byte body must be rejected
        // before any allocation.
        let mut raw = bytes::BytesMut::new();
        raw.put_u8(3); // REQ_ABSORB
        raw.put_u32_le(1 << 30);
        raw.extend_from_slice(&[0u8; 10]);
        assert!(RegistryRequest::decode(raw.freeze()).is_err());
    }
}
