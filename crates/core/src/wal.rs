//! Per-site write-ahead logging and crash-restart recovery.
//!
//! The registry tier is memory-only; this module makes *acked* writes
//! survive a process kill. Every successful write request (`Put`,
//! `Absorb`, `Remove`) is appended to the owning site's log before the
//! ack leaves [`ServiceCore::serve`](crate::runtime::ServiceCore::serve):
//!
//! ```text
//! record   := [len: u32 LE] [crc32: u32 LE] [payload]
//! payload  := [seq: u64 LE] [now_micros: u64 LE] [RegistryRequest wire bytes]
//! ```
//!
//! The payload reuses the PR 5 wire codec verbatim, so a log record is
//! decodable with the same total decoder that guards the TCP path, and
//! the CRC covers the whole payload so a torn or bit-flipped tail is
//! detected before the request codec ever sees it.
//!
//! Two sinks implement the [`WalSink`] contract:
//!
//! * [`MemWal`] — an in-memory log, the runtime's default and the
//!   deterministic simulation's: identical append/replay semantics, no
//!   I/O, no wall-clock.
//! * [`FileWal`] — the real thing: an append-only `wal.log` plus a
//!   `snapshot.bin` per site directory, with a configurable
//!   [`FsyncPolicy`] (sync every append, group commit on a flush
//!   interval, or no syncing for throughput experiments).
//!
//! **Crash-consistency contract.** With `FsyncPolicy::Always` or
//! `GroupCommit`, a write that was acked is on disk; recovery replays it.
//! A write that was *in flight* at the kill may or may not be present —
//! the tail of the log is truncated at the first record whose CRC or
//! framing fails, so a torn append is discarded rather than replayed or
//! panicked over ("never resurrects unacked writes" is enforced by the
//! torn-tail proptest in `crates/core/tests/wal_properties.rs`).
//! Replay applies records through the same
//! [`RegistryInstance::serve`] dispatch as live traffic, stamped with the recorded timestamps;
//! because `Put`/`Absorb`/`Remove` are last-writer-wins on those
//! timestamps, re-applying a record that is also baked into the snapshot
//! is harmless, which is what lets the snapshotter tolerate concurrent
//! appends without a global write lock.

use crate::entry::RegistryEntry;
use crate::protocol::RegistryRequest;
use crate::registry::RegistryInstance;
use bytes::{Buf, BufMut, Bytes};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Header bytes per record: length + CRC32.
pub(crate) const RECORD_HEADER: usize = 8;
/// Fixed payload prefix: sequence number + timestamp.
pub(crate) const PAYLOAD_PREFIX: usize = 16;
/// Upper bound on a single record's payload (mirrors the wire codec's
/// element cap; a length field above this is torn/garbage framing).
pub(crate) const MAX_RECORD_PAYLOAD: usize = 64 * 1024 * 1024;
/// Snapshot file magic ("GWSN" — geometa WAL snapshot).
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"GWSN";

// ---------------------------------------------------------------------
// CRC32 (IEEE), hand-rolled: no external crates in this tree.
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3 polynomial) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed WAL failure. Torn log tails are *not* errors (they are truncated
/// during recovery and reported in [`WalRecovery::torn`]); errors are
/// real I/O failures and corrupt snapshots.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure (`context` names the operation).
    Io {
        /// What the WAL was doing.
        context: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// A snapshot file exists but fails its magic/CRC/codec checks.
    /// Unlike the log tail this is not truncatable: a snapshot is
    /// written atomically (temp + sync + rename), so corruption means
    /// the store is damaged and the operator must decide.
    CorruptSnapshot {
        /// Which file.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
    /// The WAL was asked to recover but found no state (`--recover` on
    /// an empty data dir).
    NothingToRecover {
        /// The site directory inspected.
        dir: PathBuf,
    },
    /// The sink was closed (shutdown) while the append waited for
    /// durability, and the final sync failed.
    Closed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { context, source } => write!(f, "wal {context}: {source}"),
            WalError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            WalError::NothingToRecover { dir } => {
                write!(f, "nothing to recover in {}", dir.display())
            }
            WalError::Closed => write!(f, "wal closed during append"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(context: &'static str, source: std::io::Error) -> WalError {
    WalError::Io { context, source }
}

// ---------------------------------------------------------------------
// Records and pure log coding (proptest surface)
// ---------------------------------------------------------------------

/// One durable write: the request plus the logical timestamp it was
/// served with (replay re-serves it with the same stamp).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic per-site sequence number.
    pub seq: u64,
    /// `ServiceCore::now_micros` at serve time.
    pub now_micros: u64,
    /// The write itself.
    pub req: RegistryRequest,
}

/// Where and why decoding stopped before the end of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first unusable record; recovery truncates here.
    pub offset: u64,
    /// Human-readable reason (short frame, CRC mismatch, codec error).
    pub reason: String,
}

/// Encode one record (header + CRC'd payload).
pub fn encode_record(seq: u64, now_micros: u64, req: &RegistryRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + PAYLOAD_PREFIX + req.encoded_len());
    encode_record_into(&mut out, seq, now_micros, req);
    out
}

/// Append one record to `out`, byte-identical to [`encode_record`]: the
/// header is reserved, the payload encoded behind it, then its length
/// and CRC are filled in over the payload where it lies.
fn encode_record_into(out: &mut Vec<u8>, seq: u64, now_micros: u64, req: &RegistryRequest) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    out.put_u64_le(seq);
    out.put_u64_le(now_micros);
    req.encode_into(out);
    let payload = &out[start + RECORD_HEADER..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc);
}

/// Decode a log image into its clean prefix. Total: every byte sequence
/// yields `(records, torn)` — records up to the first short frame / bad
/// CRC / codec failure, plus where and why decoding stopped (`None` for
/// a clean log). Never panics.
pub fn decode_log(bytes: &[u8]) -> (Vec<WalRecord>, Option<TornTail>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < RECORD_HEADER {
            return (records, torn(offset, "short header"));
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if !(PAYLOAD_PREFIX..=MAX_RECORD_PAYLOAD).contains(&len) {
            return (records, torn(offset, "implausible record length"));
        }
        if rest.len() < RECORD_HEADER + len {
            return (records, torn(offset, "short payload"));
        }
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
        if crc32(payload) != crc {
            return (records, torn(offset, "crc mismatch"));
        }
        let mut buf = Bytes::copy_from_slice(payload);
        let seq = buf.get_u64_le();
        let now_micros = buf.get_u64_le();
        match RegistryRequest::decode(buf) {
            Ok(req) => records.push(WalRecord {
                seq,
                now_micros,
                req,
            }),
            Err(e) => return (records, torn(offset, &format!("request codec: {e:?}"))),
        }
        offset += RECORD_HEADER + len;
    }
    (records, None)
}

fn torn(offset: usize, reason: &str) -> Option<TornTail> {
    Some(TornTail {
        offset: offset as u64,
        reason: reason.to_string(),
    })
}

/// Encode a snapshot image: magic, CRC over the body, the sequence
/// number it covers, then the entries in the entry codec — written into
/// one buffer sized up front, the CRC filled in last over the body.
pub fn encode_snapshot(seq: u64, entries: &[RegistryEntry]) -> Vec<u8> {
    let body_len = 8 + 4 + entries.iter().map(|e| 4 + e.encoded_len()).sum::<usize>();
    let mut out = Vec::with_capacity(8 + body_len);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.put_u32_le(0);
    out.put_u64_le(seq);
    out.put_u32_le(entries.len() as u32);
    for e in entries {
        out.put_u32_le(e.encoded_len() as u32);
        e.encode_into(&mut out);
    }
    let crc = crc32(&out[8..]).to_le_bytes();
    out[4..8].copy_from_slice(&crc);
    out
}

/// Decode a snapshot image. Unlike the log, a snapshot is all-or-nothing:
/// any failure is a typed error naming what broke.
pub fn decode_snapshot(path: &Path, bytes: &[u8]) -> Result<(u64, Vec<RegistryEntry>), WalError> {
    let corrupt = |detail: &str| WalError::CorruptSnapshot {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    if bytes.len() < 8 + 12 {
        return Err(corrupt("short file"));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let body = &bytes[8..];
    if crc32(body) != crc {
        return Err(corrupt("crc mismatch"));
    }
    let mut buf = Bytes::copy_from_slice(body);
    let seq = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    if count > crate::protocol::MAX_WIRE_ENTRIES {
        return Err(corrupt("implausible entry count"));
    }
    let mut entries = Vec::with_capacity(count.min(1024));
    for i in 0..count {
        if buf.remaining() < 4 {
            return Err(corrupt(&format!("short entry header at {i}")));
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(corrupt(&format!("short entry body at {i}")));
        }
        let entry_bytes = buf.split_to(len);
        match RegistryEntry::from_bytes(entry_bytes) {
            Ok(e) => entries.push(e),
            Err(e) => return Err(corrupt(&format!("entry codec at {i}: {e:?}"))),
        }
    }
    Ok((seq, entries))
}

// ---------------------------------------------------------------------
// The sink contract
// ---------------------------------------------------------------------

/// What a deployment layer plugs behind `ServiceCore`: append writes,
/// install snapshots, expose enough state for the snapshot trigger.
pub trait WalSink: Send + Sync {
    /// Append a run of served writes as one unit: one lock acquisition
    /// and one durability wait for the whole run (a file sink under
    /// group commit blocks until the flusher has synced past the last
    /// record). Records get a contiguous sequence range; the returned
    /// value is the *last* assigned seq, available once the run is
    /// durable *per the sink's policy*. Callers must not pass an empty
    /// slice.
    fn append_batch(&self, reqs: &[RegistryRequest], now_micros: u64) -> Result<u64, WalError>;

    /// Append one served write: a batch of one.
    fn append(&self, req: &RegistryRequest, now_micros: u64) -> Result<u64, WalError> {
        self.append_batch(std::slice::from_ref(req), now_micros)
    }

    /// Replace the snapshot with the entries produced by `collect` and
    /// drop the log records it covers. `collect` runs under the sink's
    /// append lock so no record can land in the log without its effect
    /// being visible to the collection.
    fn install_snapshot(
        &self,
        collect: &mut dyn FnMut() -> Vec<RegistryEntry>,
    ) -> Result<(), WalError>;

    /// Records appended since the last snapshot (the snapshot trigger).
    fn records_since_snapshot(&self) -> u64;

    /// Entries in the last installed snapshot — `collect()`'s length, or
    /// the recovered image's on reopen; 0 before the first. The trigger
    /// waits for the log to grow this long.
    fn snapshot_entries(&self) -> u64;

    /// The sequence number the next append will be assigned — i.e. one
    /// past the highest record ever written (0 for a fresh log). The ops
    /// surface reports this as the site's WAL position.
    fn next_seq(&self) -> u64;

    /// Flush everything and stop background machinery. Idempotent.
    fn close(&self);
}

/// Log a run of acked writes against `registry`, then snapshot and
/// truncate once the log has grown to
/// `max(snapshot_every, wal.snapshot_entries())` records: as long as the
/// last snapshot, and never shorter than the floor. A snapshot re-encodes
/// the whole registry, so waiting for a log that long spreads its cost
/// over at least as many records as it writes entries — a constant cost
/// per record whatever the registry's size — while recovery still reads
/// at most one snapshot plus a tail no longer than it (Raft's compaction
/// rule, Ongaro & Ousterhout, USENIX ATC 2014, §7).
///
/// Every server of writes — the live runtime, one request or a batch at
/// a time, and the simulator's registry actor — calls this before an ack
/// leaves the site, so this is the one place the rule lives. `Err` means
/// the append failed and no write of the run may be acked; the failure
/// is already reported on stderr. A snapshot failure is not fatal to the
/// acks (the records are durable in the log): it is reported and retried
/// at the next trigger.
pub fn log_acked_writes(
    wal: &dyn WalSink,
    writes: &[RegistryRequest],
    now_micros: u64,
    snapshot_every: u64,
    registry: &RegistryInstance,
) -> Result<(), WalError> {
    let site = registry.site().0;
    wal.append_batch(writes, now_micros)
        .inspect_err(|e| eprintln!("geometa: wal append failed at site {site}: {e}"))?;
    let pending = wal.records_since_snapshot();
    if pending >= snapshot_every && pending >= wal.snapshot_entries() {
        if let Err(e) = wal.install_snapshot(&mut || registry.all_entries()) {
            eprintln!("geometa: wal snapshot failed at site {site}: {e}");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// MemWal — deterministic in-memory sink
// ---------------------------------------------------------------------

#[derive(Default)]
struct MemWalInner {
    records: Vec<WalRecord>,
    snapshot: Vec<RegistryEntry>,
    snapshot_seq: u64,
    next_seq: u64,
}

/// In-memory WAL: the deployment layers that never touch disk (channel
/// layer, DES binding) get identical append/replay semantics without
/// I/O, and the chaos oracle can read the "log" back to audit
/// durability the same way the physical test reads `wal.log`.
#[derive(Default)]
pub struct MemWal {
    inner: Mutex<MemWalInner>,
}

impl MemWal {
    /// Fresh, empty sink.
    pub fn new() -> MemWal {
        MemWal::default()
    }

    /// Everything a restart would recover: snapshot entries plus the
    /// replayable tail.
    pub fn recovery(&self) -> WalRecovery {
        let inner = self.inner.lock();
        WalRecovery {
            entries: inner.snapshot.clone(),
            tail: inner.records.clone(),
            snapshot_seq: inner.snapshot_seq,
            torn: None,
        }
    }
}

impl WalSink for MemWal {
    fn append_batch(&self, reqs: &[RegistryRequest], now_micros: u64) -> Result<u64, WalError> {
        debug_assert!(!reqs.is_empty(), "append_batch of nothing");
        let mut inner = self.inner.lock();
        let mut last = inner.next_seq;
        for req in reqs {
            let seq = inner.next_seq;
            inner.next_seq = seq + 1;
            inner.records.push(WalRecord {
                seq,
                now_micros,
                req: req.clone(),
            });
            last = seq;
        }
        Ok(last)
    }

    fn install_snapshot(
        &self,
        collect: &mut dyn FnMut() -> Vec<RegistryEntry>,
    ) -> Result<(), WalError> {
        let mut inner = self.inner.lock();
        inner.snapshot = collect();
        inner.snapshot_seq = inner.next_seq;
        inner.records.clear();
        Ok(())
    }

    fn records_since_snapshot(&self) -> u64 {
        self.inner.lock().records.len() as u64
    }

    fn snapshot_entries(&self) -> u64 {
        self.inner.lock().snapshot.len() as u64
    }

    fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    fn close(&self) {}
}

// ---------------------------------------------------------------------
// FileWal — the real on-disk sink
// ---------------------------------------------------------------------

/// When appended records become durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `sync_data` after every append (durable before every ack; one
    /// fsync per write).
    Always,
    /// Group commit: appends block until a background flusher's next
    /// `sync_data` covers them; one fsync amortizes every append that
    /// arrived within the flush interval. Acked ⇒ durable still holds.
    GroupCommit(Duration),
    /// Never sync (throughput experiments; an OS crash can lose acked
    /// writes — a *process* kill cannot, the page cache survives).
    Never,
}

impl FsyncPolicy {
    /// Parse the `--fsync` operator flag.
    pub fn parse(s: &str, group_interval: Duration) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "group" => Some(FsyncPolicy::GroupCommit(group_interval)),
            "off" | "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// What a restart found on disk.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// Entries from the snapshot (empty without one).
    pub entries: Vec<RegistryEntry>,
    /// Log records to replay on top, in sequence order.
    pub tail: Vec<WalRecord>,
    /// Sequence number the snapshot covers.
    pub snapshot_seq: u64,
    /// Set when the log ended in a torn record (which was truncated).
    pub torn: Option<TornTail>,
}

impl WalRecovery {
    /// True when the directory held neither snapshot nor records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tail.is_empty()
    }

    /// Rebuild `registry` from this recovery: absorb the snapshot
    /// entries, then replay the tail through the dispatch live traffic
    /// uses, stamped with the recorded request times. Idempotent (put
    /// merges, absorb is last-writer-wins), so a tail record the
    /// snapshot already covers is harmless.
    pub fn replay_into(&self, registry: &RegistryInstance) {
        for entry in &self.entries {
            let _ = registry.absorb(entry);
        }
        for record in &self.tail {
            let _ = registry.serve(record.req.clone(), record.now_micros);
        }
    }
}

struct FileWalState {
    file: File,
    /// One append run's records, encoded back to back for a single
    /// `write_all`; cleared per run, never shrunk.
    run: Vec<u8>,
    next_seq: u64,
    appended_seq: u64,
    synced_seq: u64,
    records_since_snapshot: u64,
    snapshot_entries: u64,
    stop: bool,
    sick: Option<String>,
}

struct FileWalShared {
    state: Mutex<FileWalState>,
    synced: Condvar,
    policy: FsyncPolicy,
}

/// File-backed per-site WAL: `<dir>/wal.log` + `<dir>/snapshot.bin`.
pub struct FileWal {
    dir: PathBuf,
    shared: Arc<FileWalShared>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Log file name inside a site directory.
pub const LOG_FILE: &str = "wal.log";
/// Snapshot file name inside a site directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// Read and decode a site's log file (the physical chaos test uses this
/// to audit durability against the raw on-disk bytes).
pub fn read_log_file(path: &Path) -> Result<(Vec<WalRecord>, Option<TornTail>), WalError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(decode_log(&bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((Vec::new(), None)),
        Err(e) => Err(io_err("read log", e)),
    }
}

/// Read and decode a site's snapshot file (`Ok(None)` when absent).
pub fn read_snapshot_file(path: &Path) -> Result<Option<(u64, Vec<RegistryEntry>)>, WalError> {
    match std::fs::read(path) {
        Ok(bytes) => decode_snapshot(path, &bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("read snapshot", e)),
    }
}

impl FileWal {
    /// Open (creating if needed) the WAL in `dir` and recover whatever
    /// state it holds: load the snapshot, decode the log, truncate a
    /// torn tail in place, position the append cursor after the last
    /// good record. The caller replays [`WalRecovery`] into its
    /// registry before serving.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<(FileWal, WalRecovery), WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create data dir", e))?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let log_path = dir.join(LOG_FILE);
        let (snapshot_seq, entries) = match read_snapshot_file(&snap_path)? {
            Some((seq, entries)) => (seq, entries),
            None => (0, Vec::new()),
        };
        let (mut tail, torn) = read_log_file(&log_path)?;
        // Records already covered by the snapshot replay harmlessly, but
        // dropping them keeps restart cost proportional to the tail.
        tail.retain(|r| r.seq >= snapshot_seq);
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&log_path)
            .map_err(|e| io_err("open log", e))?;
        if let Some(t) = &torn {
            // Discard the torn tail on disk too, so the next append
            // starts at a clean frame boundary.
            file.set_len(t.offset)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data().map_err(|e| io_err("sync truncation", e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek log end", e))?;
        let next_seq = tail
            .iter()
            .map(|r| r.seq + 1)
            .max()
            .unwrap_or(snapshot_seq)
            .max(snapshot_seq);
        let shared = Arc::new(FileWalShared {
            state: Mutex::new(FileWalState {
                file,
                run: Vec::new(),
                next_seq,
                appended_seq: next_seq.saturating_sub(1),
                synced_seq: next_seq.saturating_sub(1),
                records_since_snapshot: tail.len() as u64,
                snapshot_entries: entries.len() as u64,
                stop: false,
                sick: None,
            }),
            synced: Condvar::new(),
            policy,
        });
        let wal = FileWal {
            dir: dir.to_path_buf(),
            shared: Arc::clone(&shared),
            flusher: Mutex::new(None),
        };
        if let FsyncPolicy::GroupCommit(interval) = policy {
            let shared = Arc::clone(&shared);
            #[expect(
                clippy::disallowed_methods,
                reason = "the flusher is joined by close()/Drop, and FileWal is owned by ServiceCore whose shutdown closes every sink"
            )]
            let handle = std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || flusher_loop(&shared, interval))
                .map_err(|e| io_err("spawn flusher", e))?;
            *wal.flusher.lock() = Some(handle);
        }
        let recovery = WalRecovery {
            entries,
            tail,
            snapshot_seq,
            torn,
        };
        Ok((wal, recovery))
    }
}

fn flusher_loop(shared: &FileWalShared, interval: Duration) {
    let mut state = shared.state.lock();
    loop {
        if state.appended_seq > state.synced_seq && state.sick.is_none() {
            match state.file.sync_data() {
                Ok(()) => state.synced_seq = state.appended_seq,
                Err(e) => state.sick = Some(format!("flusher sync_data: {e}")),
            }
            shared.synced.notify_all();
        }
        if state.stop {
            shared.synced.notify_all();
            return;
        }
        // Group-commit pacing: wake on the interval (or on close()).
        let _ = shared.synced.wait_for(&mut state, interval);
    }
}

impl WalSink for FileWal {
    fn append_batch(&self, reqs: &[RegistryRequest], now_micros: u64) -> Result<u64, WalError> {
        debug_assert!(!reqs.is_empty(), "append_batch of nothing");
        let mut state = self.shared.state.lock();
        if let Some(sick) = &state.sick {
            return Err(io_err(
                "append on sick wal",
                std::io::Error::other(sick.clone()),
            ));
        }
        // Write the whole run under one lock hold: the records get a
        // contiguous seq range, are encoded back to back into one reused
        // buffer and leave in one write, and — under group commit — share
        // a single durability wait on the last seq, so N writes in one
        // serve batch cost one flusher round-trip instead of N.
        let st = &mut *state;
        let first = st.next_seq;
        st.run.clear();
        for (seq, req) in (first..).zip(reqs) {
            encode_record_into(&mut st.run, seq, now_micros, req);
        }
        // The policy branch below makes the whole run durable; the
        // `raw_writes_are_the_reviewed_two` test pins this write.
        if let Err(e) = st.file.write_all(&st.run) {
            st.sick = Some(format!("append write_all: {e}"));
            return Err(io_err("append", e));
        }
        let last = first + reqs.len() as u64 - 1;
        st.next_seq = last + 1;
        st.appended_seq = last;
        st.records_since_snapshot += reqs.len() as u64;
        match self.shared.policy {
            FsyncPolicy::Never => Ok(last),
            FsyncPolicy::Always => {
                // After a failed fsync the kernel may have dropped the
                // dirty pages (Rebello et al., USENIX ATC 2020): a retry
                // could "succeed" over lost records, so the log goes sick
                // like it does for a failed flusher sync or write.
                if let Err(e) = state.file.sync_data() {
                    state.sick = Some(format!("append sync_data: {e}"));
                    return Err(io_err("sync_data", e));
                }
                state.synced_seq = last;
                Ok(last)
            }
            FsyncPolicy::GroupCommit(_) => {
                // Wake the flusher early if it is parked on its interval
                // with nothing else pending; then wait for durability.
                self.shared.synced.notify_all();
                while state.synced_seq < last && !state.stop && state.sick.is_none() {
                    self.shared.synced.wait(&mut state);
                }
                if let Some(sick) = &state.sick {
                    return Err(io_err("group commit", std::io::Error::other(sick.clone())));
                }
                if state.synced_seq < last {
                    // Closed mid-wait: take over the final sync so the
                    // ack still implies durability.
                    state.file.sync_data().map_err(|_| WalError::Closed)?;
                    state.synced_seq = state.appended_seq;
                }
                Ok(last)
            }
        }
    }

    fn install_snapshot(
        &self,
        collect: &mut dyn FnMut() -> Vec<RegistryEntry>,
    ) -> Result<(), WalError> {
        // Hold the append lock across collect + write + truncate: no
        // record can be appended whose effect the collection missed
        // (appends apply to the registry before they reach the log).
        let mut state = self.shared.state.lock();
        let seq = state.next_seq;
        let entries = collect();
        let image = encode_snapshot(seq, &entries);
        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join(SNAPSHOT_FILE);
        let mut f = File::create(&tmp).map_err(|e| io_err("create snapshot temp", e))?;
        f.write_all(&image)
            .map_err(|e| io_err("write snapshot", e))?;
        f.sync_all().map_err(|e| io_err("sync snapshot", e))?;
        drop(f);
        std::fs::rename(&tmp, &final_path).map_err(|e| io_err("rename snapshot", e))?;
        // Persist the rename itself (directory metadata). Until that is
        // durable a crash may bring back the old snapshot, so the log
        // keeps every record: on failure, return before truncating.
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync snapshot dir", e))?;
        // Every record in the log has seq < next_seq and its effect is
        // in the snapshot; drop them all.
        state
            .file
            .set_len(0)
            .map_err(|e| io_err("truncate log", e))?;
        state
            .file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("rewind log", e))?;
        state
            .file
            .sync_data()
            .map_err(|e| io_err("sync truncated log", e))?;
        state.records_since_snapshot = 0;
        state.snapshot_entries = entries.len() as u64;
        state.synced_seq = state.appended_seq;
        Ok(())
    }

    fn records_since_snapshot(&self) -> u64 {
        self.shared.state.lock().records_since_snapshot
    }

    fn snapshot_entries(&self) -> u64 {
        self.shared.state.lock().snapshot_entries
    }

    fn next_seq(&self) -> u64 {
        self.shared.state.lock().next_seq
    }

    fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.appended_seq > state.synced_seq && state.sick.is_none() {
                if let Err(e) = state.file.sync_data() {
                    state.sick = Some(format!("close sync_data: {e}"));
                } else {
                    state.synced_seq = state.appended_seq;
                }
            }
            state.stop = true;
            self.shared.synced.notify_all();
        }
        if let Some(handle) = self.flusher.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FileWal {
    fn drop(&mut self) {
        self.close();
    }
}

impl fmt::Debug for FileWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileWal").field("dir", &self.dir).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;
    use crate::protocol::RegistryResponse;
    use geometa_sim::topology::SiteId;

    impl MemWal {
        /// The live log (records since the last snapshot), in append order.
        fn records(&self) -> Vec<WalRecord> {
            self.inner.lock().records.clone()
        }
    }

    /// Tripwire until a crash checker proves the log durable: the only raw
    /// writes are the snapshot image, synced on the spot, and the append
    /// run, which the fsync policy branch covers whole (`Always` syncs it,
    /// `GroupCommit` blocks until the flusher's `sync_data` covers its last
    /// record, `Never` is the documented opt-out). A new one fails here.
    #[test]
    fn raw_writes_are_the_reviewed_two() {
        let src = include_str!("wal.rs");
        let prod = &src[..src.find("#[cfg(test)]").unwrap()];
        assert_eq!(prod.matches(".write_all(").count(), 2);
        assert_eq!(
            prod.matches(".write(").count(),
            prod.matches(".write(true)").count()
        );
    }

    fn put(name: &str, t: u64) -> RegistryRequest {
        RegistryRequest::Put {
            entry: RegistryEntry::new(
                name,
                64,
                FileLocation {
                    site: SiteId(0),
                    node: 1,
                },
                t,
            ),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "geometa-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The on-disk format, pinned. Both images were written by the
    /// encoders as they stood before records and snapshots were encoded
    /// in place: the current encoders must reproduce them byte for byte,
    /// and the decoders must read them back.
    #[test]
    fn on_disk_format_is_pinned() {
        const PUT_RECORD: &str = "5200000062dd83aa070000000000000087d612000000000002\
            3d0000001000000077616c2f666978747572652e666974730010000000000000\
            01000000020005000000010a0000006d50726f6a6563742d3163000000000000\
            00";
        const SNAPSHOT: &str = "4757534e926693fb2a0000000000000002000000260000000100\
            0000610100000000000000020000000000000000000300090000000003000000\
            00000000320000000b000000736e61702f622e66697473000001000000000001\
            00000001000200000001040000006d4164640500000000000000";
        let put = RegistryRequest::Put {
            entry: RegistryEntry::new(
                "wal/fixture.fits",
                4096,
                FileLocation {
                    site: SiteId(2),
                    node: 5,
                },
                99,
            )
            .with_producer("mProject-1"),
        };
        let record = unhex(PUT_RECORD);
        assert_eq!(encode_record(7, 1_234_567, &put), record);
        let (records, torn) = decode_log(&record);
        assert!(torn.is_none());
        assert_eq!(
            records,
            vec![WalRecord {
                seq: 7,
                now_micros: 1_234_567,
                req: put,
            }]
        );

        let mut a = RegistryEntry::new(
            "a",
            1,
            FileLocation {
                site: SiteId(0),
                node: 0,
            },
            3,
        );
        a.add_location(FileLocation {
            site: SiteId(3),
            node: 9,
        });
        let b = RegistryEntry::new(
            "snap/b.fits",
            65_536,
            FileLocation {
                site: SiteId(1),
                node: 2,
            },
            5,
        )
        .with_producer("mAdd");
        let entries = vec![a, b];
        let image = unhex(SNAPSHOT);
        assert_eq!(encode_snapshot(42, &entries), image);
        assert_eq!(
            decode_snapshot(Path::new("fixture"), &image).unwrap(),
            (42, entries)
        );
    }

    /// The trigger: the floor first, then each snapshot once the log is
    /// as long as the snapshot before it — so snapshot sizes double and
    /// every record pays for at most about one entry re-encoded.
    #[test]
    fn snapshots_wait_for_the_log_to_reach_the_last_snapshot() {
        let registry = RegistryInstance::new(SiteId(0), 4);
        let wal = MemWal::new();
        let mut installs = Vec::new();
        for i in 1..=100u64 {
            let req = put(&format!("r{i}"), i);
            assert_eq!(registry.serve(req.clone(), i), RegistryResponse::Ack);
            log_acked_writes(&wal, std::slice::from_ref(&req), i, 4, &registry).unwrap();
            if wal.records_since_snapshot() == 0 {
                installs.push((i, wal.snapshot_entries()));
            }
        }
        assert_eq!(installs, vec![(4, 4), (8, 8), (16, 16), (32, 32), (64, 64)]);
    }

    #[test]
    fn record_roundtrip() {
        let req = put("wal/a", 7);
        let bytes = encode_record(3, 99, &req);
        let (records, torn) = decode_log(&bytes);
        assert!(torn.is_none());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 3);
        assert_eq!(records[0].now_micros, 99);
        assert!(records[0].req.is_write());
    }

    #[test]
    fn torn_tail_truncates_never_panics() {
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for i in 0..5 {
            log.extend_from_slice(&encode_record(i, i * 10, &put(&format!("k{i}"), i)));
            boundaries.push(log.len());
        }
        assert_eq!(decode_log(&log).0.len(), 5);
        for cut in 0..log.len() {
            // Every truncation yields a clean prefix: decoded records
            // are exactly the complete leading records, in order, and a
            // cut inside a record is reported as a torn tail.
            let (records, torn) = decode_log(&log[..cut]);
            assert!(records.len() <= 5);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
            }
            assert!(boundaries[records.len()] <= cut);
            if !boundaries.contains(&cut) {
                assert!(torn.is_some(), "cut at {cut} lost the torn marker");
            }
        }
    }

    #[test]
    fn corrupted_byte_detected_by_crc() {
        let log = encode_record(0, 1, &put("x", 1));
        for i in RECORD_HEADER..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 0xFF;
            let (records, torn) = decode_log(&bad);
            assert!(records.is_empty(), "byte {i} slipped past the crc");
            assert!(torn.is_some());
        }
    }

    #[test]
    fn mem_wal_append_snapshot_recover() {
        let wal = MemWal::new();
        for i in 0..10u64 {
            wal.append(&put(&format!("m{i}"), i), i).unwrap();
        }
        assert_eq!(wal.records_since_snapshot(), 10);
        wal.install_snapshot(&mut || {
            vec![RegistryEntry::new(
                "snap",
                1,
                FileLocation {
                    site: SiteId(0),
                    node: 0,
                },
                5,
            )]
        })
        .unwrap();
        assert_eq!(wal.records_since_snapshot(), 0);
        wal.append(&put("after", 11), 11).unwrap();
        let rec = wal.recovery();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.snapshot_seq, 10);
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        // MemWal: one batched run produces the same log as N appends.
        let loop_wal = MemWal::new();
        let batch_wal = MemWal::new();
        let reqs: Vec<RegistryRequest> = (0..5u64).map(|i| put(&format!("b{i}"), i)).collect();
        let mut last = 0;
        for r in &reqs {
            last = loop_wal.append(r, 42).unwrap();
        }
        assert_eq!(batch_wal.append_batch(&reqs, 42).unwrap(), last);
        assert_eq!(loop_wal.records(), batch_wal.records());
        assert_eq!(loop_wal.next_seq(), batch_wal.next_seq());

        // FileWal under group commit: contiguous seq range, one durable
        // run, and the recovered log is byte-for-byte what N appends
        // would have produced.
        let dir_a = temp_dir("batch-a");
        let dir_b = temp_dir("batch-b");
        {
            let (wal, _) =
                FileWal::open(&dir_a, FsyncPolicy::GroupCommit(Duration::from_millis(1))).unwrap();
            assert_eq!(wal.append_batch(&reqs, 42).unwrap(), 4);
            assert_eq!(wal.next_seq(), 5);
            wal.close();
        }
        {
            let (wal, _) = FileWal::open(&dir_b, FsyncPolicy::Always).unwrap();
            for r in &reqs {
                wal.append(r, 42).unwrap();
            }
            wal.close();
        }
        let log_a = std::fs::read(dir_a.join("wal.log")).unwrap();
        let log_b = std::fs::read(dir_b.join("wal.log")).unwrap();
        assert_eq!(log_a, log_b, "batched and sequential logs must match");
        let (records, torn) = decode_log(&log_a);
        assert!(torn.is_none());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn file_wal_persists_across_reopen() {
        let dir = temp_dir("reopen");
        {
            let (wal, rec) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
            assert!(rec.is_empty());
            for i in 0..20u64 {
                wal.append(&put(&format!("f{i}"), i), i).unwrap();
            }
            wal.close();
        }
        let (_wal, rec) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.tail.len(), 20);
        assert_eq!(rec.tail[19].seq, 19);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_wal_snapshot_truncates_log() {
        let dir = temp_dir("snap");
        {
            let (wal, _) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
            for i in 0..8u64 {
                wal.append(&put(&format!("s{i}"), i), i).unwrap();
            }
            wal.install_snapshot(&mut || {
                (0..8u64)
                    .map(|i| {
                        RegistryEntry::new(
                            format!("s{i}"),
                            64,
                            FileLocation {
                                site: SiteId(0),
                                node: 1,
                            },
                            i,
                        )
                    })
                    .collect()
            })
            .unwrap();
            wal.append(&put("tail", 9), 9).unwrap();
            wal.close();
        }
        let (_wal, rec) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.entries.len(), 8);
        assert_eq!(rec.snapshot_seq, 8);
        assert_eq!(rec.tail.len(), 1, "only the post-snapshot tail remains");
        assert_eq!(rec.tail[0].seq, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_wal_truncates_torn_tail_on_open() {
        let dir = temp_dir("torn");
        {
            let (wal, _) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
            for i in 0..4u64 {
                wal.append(&put(&format!("t{i}"), i), i).unwrap();
            }
            wal.close();
        }
        // Tear the last record in half.
        let log_path = dir.join(LOG_FILE);
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 5]).unwrap();
        let (wal, rec) = FileWal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rec.tail.len(), 3);
        let t = rec.torn.expect("torn tail must be reported");
        assert_eq!(
            std::fs::metadata(&log_path).unwrap().len(),
            t.offset,
            "the torn bytes must be gone from disk"
        );
        // Appends continue cleanly after the truncation; the re-used
        // sequence number is the torn record's (which was never acked).
        wal.append(&put("t-new", 9), 9).unwrap();
        wal.close();
        let (records, torn) = read_log_file(&log_path).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_acks_are_durable() {
        let dir = temp_dir("group");
        let (wal, _) =
            FileWal::open(&dir, FsyncPolicy::GroupCommit(Duration::from_millis(2))).unwrap();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let wal = &wal;
                scope.spawn(move || {
                    for i in 0..25u64 {
                        wal.append(&put(&format!("g{w}/{i}"), i), i).unwrap();
                    }
                });
            }
        });
        wal.close();
        let (records, torn) = read_log_file(&dir.join(LOG_FILE)).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 100);
        // Sequence numbers are dense and unique.
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..100).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = temp_dir("badsnap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"GWSNgarbagegarbagegarbage").unwrap();
        match FileWal::open(&dir, FsyncPolicy::Always) {
            Err(WalError::CorruptSnapshot { .. }) => {}
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
