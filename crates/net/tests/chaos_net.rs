//! The headline live-chaos tier: a join/leave **storm** on a real TCP
//! cluster while the [`ChaosLayer`] injects frame drops, connection
//! resets, delays, slow drips and asymmetric partition windows into
//! every byte — client traffic *and* the background rebalance
//! transfers both flow through the seeded proxies.
//!
//! The invariant, per (strategy × seed) cell:
//!   1. **Zero acked writes lost.** Every publish the client saw `Ok`
//!      for resolves after the storm, read back through the chaos-free
//!      side door ([`ChaosLayer::direct_addrs`]) so verification is not
//!      itself subject to injected drops.
//!   2. **Bounded movement.** Each membership flip's `last_moved`
//!      counter stays under a generous fraction of the total entries —
//!      a rehash-everything regression trips it even under chaos.
//!   3. **Chaos actually happened.** At least one frame drop, reset or
//!      partition drop was counted in `ChaosStats`,
//!      so a silently misconfigured proxy cannot green-wash the run.
//!
//! Every fault is a pure function of `(seed, site, direction,
//! connection index)`; a failing cell is replayed by exporting
//! `GEOMETA_CHAOS_NET_SEEDS=<seed>` and re-running the test. Set
//! `GEOMETA_CHAOS_NET_DIR=<dir>` to run the cells on file-backed WALs
//! and keep the logs as artifacts (the CI smoke job does both).

use geometa_core::protocol::{ReconfigureOp, RegistryRequest, RegistryResponse, SiteStatus};
use geometa_core::runtime::{RuntimeConfig, ServiceRuntime, WalConfig};
use geometa_core::strategy::StrategyKind;
use geometa_core::transport::RegistryTransport;
use geometa_core::wal::FsyncPolicy;
use geometa_core::Key;
use geometa_net::chaos::Direction;
use geometa_net::{
    loopback_topology, transport_for, ChaosConfig, ChaosLayer, PartitionWindow, TcpClientTransport,
    TcpConfig, TcpLayer,
};
use geometa_sim::topology::SiteId;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Concurrent publishers riding out the storm.
const WRITERS: usize = 2;
/// Budget for one membership transition to settle under chaos.
const TRANSITION_BUDGET: Duration = Duration::from_secs(30);
/// `last_moved` ceiling as a fraction of total entries. One join or
/// leave in a 3-or-4-member ring ideally moves ~1/4 to ~1/3; anywhere
/// under this still proves the ring is consistent, while a
/// rehash-everything bug moves ~3/4 and trips it.
const MOVE_FRAC_CEILING: f64 = 0.6;
/// Absolute slack on the movement bound for small populations early in
/// the storm, where one vnode's worth of keys can exceed the fraction.
const MOVE_SLACK: u64 = 32;

/// Short, path- and key-safe strategy tag (`label()` has spaces).
fn tag(kind: StrategyKind) -> &'static str {
    match kind {
        StrategyKind::Centralized => "cn",
        StrategyKind::Replicated => "rep",
        StrategyKind::DhtNonReplicated => "dn",
        StrategyKind::DhtLocalReplica => "dr",
    }
}

fn seeds() -> Vec<u64> {
    let raw = std::env::var("GEOMETA_CHAOS_NET_SEEDS").unwrap_or_else(|_| "11,17,23,29".into());
    let seeds: Vec<u64> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|e| panic!("GEOMETA_CHAOS_NET_SEEDS: bad seed '{s}': {e}"))
        })
        .collect();
    assert!(!seeds.is_empty(), "GEOMETA_CHAOS_NET_SEEDS is empty");
    seeds
}

/// Memory WAL by default; file-backed under `GEOMETA_CHAOS_NET_DIR` so
/// a failing CI cell leaves its logs behind as artifacts.
fn wal_config(kind: StrategyKind, seed: u64) -> WalConfig {
    match std::env::var("GEOMETA_CHAOS_NET_DIR") {
        Ok(dir) => WalConfig::File {
            data_dir: std::path::PathBuf::from(dir).join(format!("{}-{seed}", tag(kind))),
            fsync: FsyncPolicy::GroupCommit(Duration::from_millis(5)),
        },
        Err(_) => WalConfig::Memory,
    }
}

/// Clean (unproxied) transport over the inner layer's addresses, in
/// site order — the verification and control plane. Chaos targets the
/// data plane and the rebalance transfers, which dial the proxies.
fn direct_transport(layer: &ChaosLayer) -> Arc<TcpClientTransport> {
    let map = layer.direct_addrs();
    let addrs: Vec<SocketAddr> = (0..map.len() as u16).map(|s| map[&SiteId(s)]).collect();
    transport_for(&addrs, Duration::from_secs(3))
}

/// Submit `op` for `target` at site 0 and poll until the membership
/// reflects it (`want_member`) at `want_epoch`+ with no rebalance in
/// flight. Resubmits on refusal — under chaos a previous transition's
/// stragglers may briefly hold the rebalance slot.
fn run_transition(
    transport: &TcpClientTransport,
    op: ReconfigureOp,
    target: SiteId,
    want_epoch: u64,
    want_member: bool,
) -> SiteStatus {
    let deadline = Instant::now() + TRANSITION_BUDGET;
    let mut submitted = false;
    loop {
        assert!(
            Instant::now() < deadline,
            "{op:?} of site {} never settled (wanted epoch {want_epoch})",
            target.0
        );
        if let RegistryResponse::Status { status } =
            transport.call(SiteId(0), RegistryRequest::Status)
        {
            let member = status.members.contains(&target);
            if status.epoch >= want_epoch && member == want_member && !status.rebalancing {
                return status;
            }
            if !submitted && !status.rebalancing {
                if let RegistryResponse::Ack =
                    transport.call(SiteId(0), RegistryRequest::Reconfigure { op, site: target })
                {
                    submitted = true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Entries across every reachable site (for the movement bound).
fn total_entries(transport: &TcpClientTransport) -> u64 {
    transport
        .sites()
        .into_iter()
        .filter_map(|site| match transport.call(site, RegistryRequest::Status) {
            RegistryResponse::Status { status } => Some(status.entries),
            _ => None,
        })
        .sum()
}

fn assert_movement_bounded(step: &str, status: &SiteStatus, total: u64, seed: u64) {
    let ceiling = (total as f64 * MOVE_FRAC_CEILING) as u64 + MOVE_SLACK;
    assert!(
        status.last_moved <= ceiling,
        "seed {seed} {step}: moved {} of {total} entries (ceiling {ceiling}) — rebalance movement is not bounded",
        status.last_moved
    );
}

/// One (strategy × seed) storm cell.
fn storm_cell(kind: StrategyKind, seed: u64) {
    let t0 = Instant::now();
    let chaos = ChaosConfig {
        partitions: vec![
            // Site 1 goes deaf early (requests to it vanish), site 2
            // goes mute later (its replies vanish) — both asymmetric,
            // both while writers and a rebalance are in flight.
            PartitionWindow {
                site: SiteId(1),
                direction: Direction::ToServer,
                start: Duration::from_millis(400),
                len: Duration::from_millis(200),
            },
            PartitionWindow {
                site: SiteId(2),
                direction: Direction::ToClient,
                start: Duration::from_millis(900),
                len: Duration::from_millis(200),
            },
        ],
        // Every fault class is active but rare enough that the storm's
        // ordinary traffic still makes progress.
        seed,
        drop_prob: 0.02,
        reset_prob: 0.01,
        delay_prob: 0.05,
        max_delay: Duration::from_millis(15),
        drip_prob: 0.02,
    };
    let layer = ChaosLayer::over(
        TcpLayer::new(TcpConfig {
            // Short call deadline: a dropped frame should cost one
            // retry tick, not a multi-second stall per fault.
            call_timeout: Duration::from_millis(750),
            ..TcpConfig::default()
        }),
        chaos,
    );
    let rt = ServiceRuntime::start(
        RuntimeConfig {
            topology: loopback_topology(4),
            kind,
            members: Some(vec![SiteId(0), SiteId(1), SiteId(2)]),
            wal: wal_config(kind, seed),
            rebalance_throttle: Duration::ZERO,
            ..RuntimeConfig::default()
        },
        layer,
    );
    let stats = rt.layer().stats();

    let stop = AtomicBool::new(false);
    let acked: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let storm = std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (stop, acked, rt) = (&stop, &acked, &rt);
            scope.spawn(move || {
                let client = rt.client(SiteId(w as u16), 0);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("chaos-{}-{seed}-w{w}-{i}", tag(kind));
                    // A failed publish is chaos doing its job; only an
                    // *acked* write joins the must-survive set.
                    if client.publish(&key, 64 + i as u64).is_ok() {
                        acked.lock().unwrap().push(key);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_millis(3));
                }
            });
        }

        // The storm: grow to 4, shrink to 3, grow back — three epoch
        // flips with writers hammering away through the proxies.
        let control = direct_transport(rt.layer());
        let s1 = run_transition(&control, ReconfigureOp::Join, SiteId(3), 1, true);
        assert_movement_bounded("join site 3", &s1, total_entries(&control), seed);
        let s2 = run_transition(&control, ReconfigureOp::Leave, SiteId(1), 2, false);
        assert_movement_bounded("leave site 1", &s2, total_entries(&control), seed);
        let s3 = run_transition(&control, ReconfigureOp::Join, SiteId(1), 3, true);
        assert_movement_bounded("rejoin site 1", &s3, total_entries(&control), seed);
        // Transitions can settle faster than the partition windows
        // open; keep the writers hammering until both windows have
        // passed so every cell actually publishes through a blackout.
        while t0.elapsed() < Duration::from_millis(1_300) {
            std::thread::sleep(Duration::from_millis(25));
        }
        stop.store(true, Ordering::Relaxed);
        s3
    });

    // Verification over the clean side door. Refresh first so Get
    // frames carry the final epoch instead of eating one WrongEpoch
    // round-trip per key.
    let verify = direct_transport(rt.layer());
    verify
        .refresh_membership()
        .expect("post-storm membership refresh");
    let keys = acked.into_inner().expect("acked set");
    assert!(
        !keys.is_empty(),
        "seed {seed}: no write was ever acked — the cell tested nothing"
    );
    let mut lost = Vec::new();
    for key in &keys {
        let mut found = false;
        'key: for round in 0..40 {
            for site in verify.sites() {
                if let RegistryResponse::Found { .. } = verify.call(
                    site,
                    RegistryRequest::Get {
                        key: Key::from(key.as_str()),
                    },
                ) {
                    found = true;
                    break 'key;
                }
            }
            // Stragglers from the final flip may still be absorbing.
            if round < 39 {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        if !found {
            lost.push(key.clone());
        }
    }
    assert!(
        lost.is_empty(),
        "seed {seed} ({kind:?}): {} of {} acked writes LOST: {:?}",
        lost.len(),
        keys.len(),
        &lost[..lost.len().min(10)]
    );
    let structural = [&stats.frames_dropped, &stats.resets, &stats.partition_drops];
    assert!(
        structural.iter().any(|c| c.load(Ordering::Relaxed) > 0),
        "seed {seed}: the chaos layer injected nothing — proxies are miswired"
    );
    eprintln!(
        "chaos-net cell {}/{seed}: acked {} epoch {} | forwarded {} dropped {} resets {} delays {} drips {} partition_drops {}",
        kind.label(),
        keys.len(),
        storm.epoch,
        stats.frames_forwarded.load(Ordering::Relaxed),
        stats.frames_dropped.load(Ordering::Relaxed),
        stats.resets.load(Ordering::Relaxed),
        stats.delays.load(Ordering::Relaxed),
        stats.drips.load(Ordering::Relaxed),
        stats.partition_drops.load(Ordering::Relaxed),
    );
    rt.shutdown();
}

#[test]
fn join_leave_storm_under_chaos_dht() {
    for seed in seeds() {
        storm_cell(StrategyKind::DhtNonReplicated, seed);
    }
}

#[test]
fn join_leave_storm_under_chaos_centralized() {
    for seed in seeds() {
        storm_cell(StrategyKind::Centralized, seed);
    }
}
