//! Property-based tests for the write-ahead log's torn-write handling.
//!
//! The crash-consistency contract under test: for *any* mutilation of the
//! on-disk image — truncation at every byte offset, a flipped byte at
//! every position — recovery yields a clean prefix of what was appended
//! (or a typed error, for the all-or-nothing snapshot). It never panics,
//! and it never resurrects a record that was not appended.
//!
//! Alongside it: the fast codec paths equal their plain definitions (the
//! sliced CRC32 against a bitwise one, a batched append against
//! record-by-record encoding), and the snapshot trigger keeps its bound.

use geometa_core::entry::{FileLocation, RegistryEntry};
use geometa_core::protocol::{ReconfigureOp, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{InlineLayer, RuntimeConfig, ServiceRuntime, WalConfig};
use geometa_core::wal::{
    crc32, decode_log, decode_snapshot, encode_record, encode_snapshot, read_log_file,
    read_snapshot_file, FileWal, FsyncPolicy, WalError, WalSink, LOG_FILE, SNAPSHOT_FILE,
};
use geometa_sim::topology::SiteId;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_entry() -> impl Strategy<Value = RegistryEntry> {
    (
        "[a-z0-9/_.]{1,32}",
        any::<u64>(),
        0..8u16,
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(name, size, site, node, created_at)| {
            RegistryEntry::new(
                &name,
                size,
                FileLocation {
                    site: SiteId(site),
                    node,
                },
                created_at,
            )
        })
}

/// A log image built from appended writes, with per-record boundaries.
fn arb_log() -> impl Strategy<Value = (Vec<RegistryRequest>, Vec<u8>, Vec<usize>)> {
    prop::collection::vec(arb_entry(), 1..8).prop_map(|entries| {
        let reqs: Vec<RegistryRequest> = entries
            .into_iter()
            .map(|entry| RegistryRequest::Put { entry })
            .collect();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, req) in reqs.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64 + 1, 10 * i as u64, req));
            boundaries.push(bytes.len());
        }
        (reqs, bytes, boundaries)
    })
}

/// The decoded records must be exactly the first `n` appended ones.
fn assert_prefix(decoded: &[geometa_core::wal::WalRecord], appended: &[RegistryRequest], n: usize) {
    assert_eq!(decoded.len(), n);
    for (i, rec) in decoded.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1);
        assert_eq!(rec.now_micros, 10 * i as u64);
        assert_eq!(rec.req.encode(), appended[i].encode());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Truncation at every byte offset: the clean prefix survives, the
    /// torn tail is reported at the exact boundary, nothing else appears.
    #[test]
    fn truncation_recovers_a_clean_prefix(
        (reqs, bytes, boundaries) in arb_log(),
        cut_raw in any::<u64>(),
    ) {
        let cut = (cut_raw % (bytes.len() as u64 + 1)) as usize;
        let (decoded, torn) = decode_log(&bytes[..cut]);
        // Complete records strictly inside the cut.
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_prefix(&decoded, &reqs, complete);
        if boundaries.contains(&cut) {
            // Truncation on a record boundary is indistinguishable from a
            // shorter-but-clean log.
            prop_assert!(torn.is_none(), "boundary cut {cut} reported torn {torn:?}");
        } else {
            let torn = torn.expect("mid-record cut must report a torn tail");
            prop_assert_eq!(torn.offset as usize, boundaries[complete]);
        }
    }

    /// A flipped byte at every position: records before the damaged one
    /// survive untouched; the damaged one and everything after it are
    /// dropped — never decoded into something that was not appended.
    /// (A CRC32 collision could in principle let damage pass; at one
    /// byte flip per case this is a 2^-32 deterministic non-event, and
    /// a seed that hit one would fail reproducibly.)
    #[test]
    fn single_byte_corruption_truncates_at_the_damaged_record(
        (reqs, bytes, boundaries) in arb_log(),
        pos_raw in any::<u64>(),
        flip in 1..=255u8,
    ) {
        let pos = (pos_raw % bytes.len() as u64) as usize;
        let mut dirty = bytes.clone();
        dirty[pos] ^= flip;
        let (decoded, torn) = decode_log(&dirty);
        let damaged = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
        assert_prefix(&decoded, &reqs, damaged);
        let torn = torn.expect("corruption must be detected");
        prop_assert_eq!(torn.offset as usize, boundaries[damaged]);
    }

    /// The snapshot is all-or-nothing: any single flipped byte turns the
    /// whole image into a typed `CorruptSnapshot` error — no partial
    /// entry list, no panic.
    #[test]
    fn snapshot_corruption_is_a_typed_error(
        entries in prop::collection::vec(arb_entry(), 0..6),
        seq in any::<u64>(),
        pos_raw in any::<u64>(),
        flip in 1..=255u8,
    ) {
        let clean = encode_snapshot(seq, &entries);
        let (got_seq, got) = decode_snapshot(Path::new("clean"), &clean).expect("clean decodes");
        prop_assert_eq!(got_seq, seq);
        prop_assert_eq!(got.len(), entries.len());
        let mut dirty = clean.clone();
        let pos = (pos_raw % dirty.len() as u64) as usize;
        dirty[pos] ^= flip;
        match decode_snapshot(Path::new("dirty"), &dirty) {
            Err(WalError::CorruptSnapshot { .. }) => {}
            other => prop_assert!(false, "flip at {pos} yielded {other:?}"),
        }
    }
}

/// Requests of every kind over a small key pool, so reads and removes
/// hit what the writes wrote. Reconfigures are limited to ones the core
/// refuses (join of a member or of an unknown site, leave/drain of a
/// non-member): an accepted one starts a background transfer.
fn arb_served_request() -> impl Strategy<Value = RegistryRequest> {
    let entry = || {
        ("k[0-7]", any::<u64>(), 0..4u16, 1..1000u64).prop_map(|(name, size, site, at)| {
            let location = FileLocation {
                site: SiteId(site),
                node: 0,
            };
            RegistryEntry::new(&name, size, location, at)
        })
    };
    prop_oneof![
        "k[0-7]".prop_map(|k| RegistryRequest::Get { key: k.into() }),
        entry().prop_map(|entry| RegistryRequest::Put { entry }),
        prop::collection::vec(entry(), 1..4)
            .prop_map(|entries| RegistryRequest::Absorb { entries }),
        "k[0-7]".prop_map(|k| RegistryRequest::Remove { key: k.into() }),
        prop_oneof![Just(0u64), Just(u64::MAX)]
            .prop_map(|since| RegistryRequest::DeltaPull { since }),
        Just(RegistryRequest::Status),
        (0..8u16).prop_map(|s| RegistryRequest::Reconfigure {
            op: ReconfigureOp::Join,
            site: SiteId(s),
        }),
        (4..8u16).prop_map(|s| RegistryRequest::Reconfigure {
            op: ReconfigureOp::Leave,
            site: SiteId(s),
        }),
    ]
}

/// A unique scratch dir per proptest case (cases run in one process).
fn scratch_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "geometa-wal-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The file-backed sink under the same contract, end to end: append,
    /// close, truncate `wal.log` at an arbitrary offset, reopen. The
    /// recovery is the clean prefix; the cut tail is reported, not
    /// replayed; nothing unappended is resurrected.
    #[test]
    fn file_wal_survives_truncation_on_reopen(
        entries in prop::collection::vec(arb_entry(), 1..6),
        cut_raw in any::<u64>(),
    ) {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let appended: Vec<RegistryRequest> = entries
            .into_iter()
            .map(|entry| RegistryRequest::Put { entry })
            .collect();
        {
            let (wal, recovery) = FileWal::open(&dir, FsyncPolicy::Always).expect("cold open");
            prop_assert!(recovery.is_empty());
            for (i, req) in appended.iter().enumerate() {
                wal.append(req, i as u64).expect("append");
            }
            wal.close();
        }
        let log = dir.join(LOG_FILE);
        let full = std::fs::read(&log).expect("read log");
        let (all, torn) = decode_log(&full);
        prop_assert!(torn.is_none(), "freshly closed log must be clean");
        prop_assert_eq!(all.len(), appended.len());

        let cut = (cut_raw % (full.len() as u64 + 1)) as usize;
        std::fs::write(&log, &full[..cut]).expect("truncate log");
        let (tail, reopen_torn) = read_log_file(&log).expect("reopen never errors on torn");
        for (i, rec) in tail.iter().enumerate() {
            prop_assert_eq!(rec.req.encode(), appended[i].encode());
        }
        prop_assert!(tail.len() <= appended.len());
        if cut < full.len() {
            prop_assert!(
                tail.len() < appended.len() || reopen_torn.is_some() || cut == full.len(),
                "a shortened log cannot still claim every record"
            );
        }
        // And the sink itself reopens on the mutilated image without
        // panicking, seeing exactly the same clean prefix.
        let (wal, recovery) = FileWal::open(&dir, FsyncPolicy::Always).expect("torn reopen");
        prop_assert_eq!(recovery.tail.len(), tail.len());
        wal.close();
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// `ServiceCore::serve` is `serve_batch_into` for a batch of one: fed
    /// the same request stream — every request kind, hits and misses,
    /// refused reconfigures, a site the core does not host — two fresh
    /// runtimes answer identically, snapshot at the same record counts,
    /// and leave the same log and the same snapshot behind. (A file sink
    /// so the log can be read back; timestamps are per-runtime wall
    /// clocks and are not compared.)
    #[test]
    fn serve_matches_a_batch_of_one(reqs in prop::collection::vec(arb_served_request(), 1..24)) {
        let site = SiteId(0);
        let start = || {
            let dir = scratch_dir();
            let config = RuntimeConfig {
                wal: WalConfig::File { data_dir: dir.clone(), fsync: FsyncPolicy::Never },
                snapshot_every: 3,
                ..RuntimeConfig::default()
            };
            (ServiceRuntime::start(config, InlineLayer), dir.join("site-0"))
        };
        let (single, single_dir) = start();
        let (batched, batched_dir) = start();
        let mut scratch = batched.core().new_batch_scratch();
        for req in reqs {
            for target in [site, SiteId(9)] {
                let one = single.core().serve(target, req.clone());
                let (mut batch, mut out) = (vec![req.clone()], Vec::new());
                batched.core().serve_batch_into(target, &mut batch, &mut out, &mut scratch);
                prop_assert_eq!(vec![one], out, "{:?} at {}", req, target);
            }
            let (a, b) = (single.core().wal(site).unwrap(), batched.core().wal(site).unwrap());
            prop_assert_eq!(a.next_seq(), b.next_seq());
            prop_assert_eq!(a.records_since_snapshot(), b.records_since_snapshot());
        }
        single.shutdown();
        batched.shutdown();
        let on_disk = |dir: &Path| {
            let (records, torn) = read_log_file(&dir.join(LOG_FILE)).expect("read log");
            assert!(torn.is_none());
            let log: Vec<_> = records.into_iter().map(|r| (r.seq, r.req)).collect();
            let snapshot = read_snapshot_file(&dir.join(SNAPSHOT_FILE))
                .expect("read snapshot")
                .map(|(seq, mut entries)| {
                    entries.sort_by(|x, y| x.name.as_str().cmp(y.name.as_str()));
                    (seq, entries)
                });
            (log, snapshot)
        };
        prop_assert_eq!(on_disk(&single_dir), on_disk(&batched_dir));
        for dir in [single_dir, batched_dir] {
            std::fs::remove_dir_all(dir.parent().expect("data dir")).expect("cleanup");
        }
    }
}

/// CRC32 (IEEE, reflected) by its definition: bit by bit, no tables.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Every length from empty to eight full words, at every start offset
/// within a word: the eight-at-a-time loop, its bytewise remainder and
/// the hand-over between them all agree with the definition.
#[test]
fn crc32_matches_the_bitwise_definition_at_every_short_length_and_offset() {
    let data: Vec<u8> = (0..80u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    for start in 0..8 {
        for len in 0..=64 {
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "offset {start}, length {len}");
        }
    }
}

/// Writes of every kind the runtime logs.
fn arb_write() -> impl Strategy<Value = RegistryRequest> {
    prop_oneof![
        arb_entry().prop_map(|entry| RegistryRequest::Put { entry }),
        prop::collection::vec(arb_entry(), 0..4)
            .prop_map(|entries| RegistryRequest::Absorb { entries }),
        "[a-z0-9/_.]{1,32}".prop_map(|k| RegistryRequest::Remove { key: k.into() }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes, and an arbitrary (so mostly unaligned) sub-slice
    /// of them.
    #[test]
    fn crc32_matches_the_bitwise_definition(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        start_raw in any::<usize>(),
        len_raw in any::<usize>(),
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        let start = start_raw % (bytes.len() + 1);
        let end = start + len_raw % (bytes.len() - start + 1);
        let sub = &bytes[start..end];
        prop_assert_eq!(crc32(sub), crc32_bitwise(sub));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One `append_batch` run is one buffer encoded in place, and it
    /// must be exactly the records `encode_record` gives one at a time,
    /// with consecutive seqs continuing across runs.
    #[test]
    fn append_batch_writes_the_concatenated_records(
        first in prop::collection::vec(arb_write(), 1..6),
        second in prop::collection::vec(arb_write(), 1..6),
        now in any::<u64>(),
    ) {
        let dir = scratch_dir();
        let (wal, _) = FileWal::open(&dir, FsyncPolicy::Never).expect("open");
        prop_assert_eq!(wal.append_batch(&first, now).expect("append"), first.len() as u64 - 1);
        let last = wal.append_batch(&second, now + 1).expect("append");
        prop_assert_eq!(last, (first.len() + second.len()) as u64 - 1);
        wal.close();
        let mut expected = Vec::new();
        for (seq, req) in first.iter().enumerate() {
            expected.extend_from_slice(&encode_record(seq as u64, now, req));
        }
        for (i, req) in second.iter().enumerate() {
            expected.extend_from_slice(&encode_record((first.len() + i) as u64, now + 1, req));
        }
        prop_assert_eq!(std::fs::read(dir.join(LOG_FILE)).expect("read log"), expected);
        drop(wal);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The snapshot trigger's promise, end to end through `ServiceCore` on a
/// file WAL with a floor of 64. After every batch the log holds at most
/// `max(64, last snapshot's entries) + batch length` records, so a
/// restart reads one snapshot plus a tail no longer than it; snapshots
/// come at doubling sizes, not every 64 records; and the restart
/// recovers exactly the registry.
#[test]
fn log_growth_trigger_bounds_the_tail_and_recovers_exactly() {
    const FLOOR: u64 = 64;
    const KEYS: u64 = 1500;
    let site = SiteId(0);
    let dir = scratch_dir();
    let site_dir = dir.join("site-0");
    let config = RuntimeConfig {
        wal: WalConfig::File {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
        },
        snapshot_every: FLOOR,
        ..RuntimeConfig::default()
    };
    let rt = ServiceRuntime::start(config.clone(), InlineLayer);
    let core = rt.core();
    let wal = core.wal(site).expect("file wal");
    let mut scratch = core.new_batch_scratch();
    let (mut reqs, mut out) = (Vec::new(), Vec::new());
    let (mut published, mut installs, mut last_snapshot) = (0u64, 0u32, 0u64);
    let mut max_batch = 0;
    for batch in 0..400u64 {
        let len = 1 + batch % 13;
        max_batch = max_batch.max(len);
        for _ in 0..len {
            // Keys wrap after KEYS publishes, so later puts merge a new
            // location into an entry the snapshot already holds.
            let location = FileLocation {
                site,
                node: (published / KEYS) as u32,
            };
            let name = format!("bound/{}", published % KEYS);
            let entry = RegistryEntry::new(name, published, location, published);
            reqs.push(RegistryRequest::Put { entry });
            published += 1;
        }
        let before = wal.records_since_snapshot();
        core.serve_batch_into(site, &mut reqs, &mut out, &mut scratch);
        assert!(out.drain(..).all(|r| r == RegistryResponse::Ack));
        let after = wal.records_since_snapshot();
        if after < before + len {
            installs += 1;
            let (_, entries) = read_snapshot_file(&site_dir.join(SNAPSHOT_FILE))
                .expect("read snapshot")
                .expect("a snapshot was installed");
            last_snapshot = entries.len() as u64;
            assert_eq!(wal.snapshot_entries(), last_snapshot);
        }
        assert!(
            after <= FLOOR.max(last_snapshot) + len,
            "batch {batch}: {after} records past a {last_snapshot}-entry snapshot"
        );
    }
    assert!(published > 2500, "a few thousand publishes: {published}");
    // 64, 128, 256, 512, 1024, then every 1500 (the key pool's size):
    // a floor-only trigger would have snapshotted ~45 times.
    assert!(
        (4..=7).contains(&installs),
        "{installs} snapshots for {published} publishes"
    );
    let contents = |rt: &ServiceRuntime<InlineLayer>| {
        let mut entries = rt.core().registry(site).expect("site").all_entries();
        entries.sort_by(|x, y| x.name.as_str().cmp(y.name.as_str()));
        entries
    };
    let before = contents(&rt);
    assert_eq!(before.len() as u64, KEYS);
    rt.shutdown();

    let restarted = ServiceRuntime::start(config, InlineLayer);
    let report = restarted
        .core()
        .recovery_reports()
        .iter()
        .find(|r| r.site == site)
        .expect("site 0 recovered")
        .clone();
    assert_eq!(report.snapshot_entries as u64, last_snapshot);
    assert!(report.replayed as u64 <= FLOOR.max(last_snapshot) + max_batch);
    assert!(report.torn.is_none());
    assert_eq!(contents(&restarted), before);
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
