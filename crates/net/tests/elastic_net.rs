//! Elastic membership on a **live TCP cluster**, byte-audited: the
//! bounded-movement guarantee the core proves in-process
//! (`geometa_core::runtime` elasticity tests) must also hold when the
//! join runs over real sockets — and the audit here does not trust the
//! server's own counters. It decodes every site's write-ahead log with
//! the production WAL decoder and counts, record by record, which
//! pre-join keys were absorbed where after the join started.
//!
//! Also exercised on the way: frame-header epoch rejection of the stale
//! client plan (the shared transport still stamps epoch 0 after the
//! flip; its first read takes a `WrongEpoch`, refreshes, retries), and
//! the `Status` poll loop an operator would run.

use geometa_core::protocol::{ReconfigureOp, RegistryRequest, RegistryResponse};
use geometa_core::runtime::{ConnectionLayer, RuntimeConfig, ServiceRuntime, WalConfig};
use geometa_core::strategy::StrategyKind;
use geometa_core::transport::RegistryTransport;
use geometa_core::wal::{read_log_file, FsyncPolicy, LOG_FILE};
use geometa_net::{loopback_topology, TcpLayer};
use geometa_sim::topology::SiteId;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

const KEYS: usize = 600;
/// Movement ceiling for a 3 → 4 member join: the ideal consistent-ring
/// transfer is ~1/4 of the keys; 0.45 allows vnode imbalance while
/// still damning any rehash-everything regression (~3/4 would move).
const MOVE_FRAC_CEILING: f64 = 0.45;

/// Keys absorbed at `site` according to its on-disk WAL, restricted to
/// `universe` (the pre-join keys — rebalance traffic, not new writes).
fn absorbed_keys(data_dir: &Path, site: u16, universe: &BTreeSet<String>) -> BTreeSet<String> {
    let path = data_dir.join(format!("site-{site}")).join(LOG_FILE);
    let (records, torn) = read_log_file(&path).unwrap_or_else(|e| panic!("decode {path:?}: {e}"));
    assert!(torn.is_none(), "site {site}: fsync=always left a torn tail");
    let mut keys = BTreeSet::new();
    for r in records {
        if let RegistryRequest::Absorb { entries } = &r.req {
            for e in entries {
                let name = e.name.as_str().to_owned();
                if universe.contains(&name) {
                    keys.insert(name);
                }
            }
        }
    }
    keys
}

/// Total WAL records at `site` (the "nothing new landed here" probe).
fn wal_records(data_dir: &Path, site: u16) -> usize {
    let path = data_dir.join(format!("site-{site}")).join(LOG_FILE);
    read_log_file(&path).map_or(0, |(records, _)| records.len())
}

#[test]
fn tcp_join_movement_is_bounded_and_wal_audited() {
    let data_dir = std::env::temp_dir().join(format!("geometa-elastic-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create data dir");

    // 4-site topology, 3 initial members; site 3 serves but owns nothing.
    let rt = ServiceRuntime::start(
        RuntimeConfig {
            topology: loopback_topology(4),
            kind: StrategyKind::DhtNonReplicated,
            members: Some((0..3).map(SiteId).collect()),
            wal: WalConfig::File {
                data_dir: data_dir.clone(),
                fsync: FsyncPolicy::Always,
            },
            rebalance_throttle: Duration::ZERO,
            ..RuntimeConfig::default()
        },
        TcpLayer::ephemeral(),
    );

    // Publish the pre-join universe over real sockets.
    let mut universe = BTreeSet::new();
    for i in 0..KEYS {
        let client = rt.client(SiteId((i % 3) as u16), 0);
        let key = format!("elastic-net-{i}");
        client.publish(&key, 64 + i as u64).expect("publish");
        universe.insert(key);
    }
    let pre_join_records: Vec<usize> = (0..4).map(|s| wal_records(&data_dir, s)).collect();
    assert_eq!(
        pre_join_records[3], 0,
        "the non-member site must hold nothing before the join"
    );

    // Join site 3 through the wire, exactly as geometa-admin would.
    let transport = rt.layer().transport(rt.core(), SiteId(0));
    match transport.call(
        SiteId(0),
        RegistryRequest::Reconfigure {
            op: ReconfigureOp::Join,
            site: SiteId(3),
        },
    ) {
        RegistryResponse::Ack => {}
        other => panic!("join refused: {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "join never settled");
        if let RegistryResponse::Status { status } =
            transport.call(SiteId(0), RegistryRequest::Status)
        {
            if status.epoch == 1 && !status.rebalancing && status.members.len() == 4 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Byte audit: decode the WALs. The joiner absorbed a bounded slice;
    // the old members took no rebalance traffic at all.
    let moved = absorbed_keys(&data_dir, 3, &universe);
    let frac = moved.len() as f64 / KEYS as f64;
    assert!(
        !moved.is_empty(),
        "join moved nothing — the transfer did not run"
    );
    assert!(
        frac < MOVE_FRAC_CEILING,
        "join moved {} of {KEYS} keys ({frac:.3}) — movement is not bounded",
        moved.len()
    );
    for site in 0..3u16 {
        assert_eq!(
            wal_records(&data_dir, site),
            pre_join_records[site as usize],
            "site {site} must take no writes from a join it only donates to"
        );
    }

    // Zero acked writes lost, read back over the same wire. The shared
    // transport still carries epoch 0, so this sweep also crosses the
    // WrongEpoch → refresh → retry path.
    for key in &universe {
        rt.client(SiteId(0), 0)
            .resolve(key)
            .unwrap_or_else(|e| panic!("'{key}' lost across the join: {e}"));
    }
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
