//! Property-based tests for the write-ahead log's torn-write handling.
//!
//! The crash-consistency contract under test: for *any* mutilation of the
//! on-disk image — truncation at every byte offset, a flipped byte at
//! every position — recovery yields a clean prefix of what was appended
//! (or a typed error, for the all-or-nothing snapshot). It never panics,
//! and it never resurrects a record that was not appended.

use geometa_core::entry::{FileLocation, RegistryEntry};
use geometa_core::protocol::{ReconfigureOp, RegistryRequest};
use geometa_core::runtime::{InlineLayer, RuntimeConfig, ServiceRuntime, WalConfig};
use geometa_core::wal::{
    decode_log, decode_snapshot, encode_record, encode_snapshot, read_log_file, read_snapshot_file,
    FileWal, FsyncPolicy, WalError, WalSink, LOG_FILE, SNAPSHOT_FILE,
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
