//! Physical kill-and-recover: a real `geometa-server` process takes
//! acked writes over TCP, dies by SIGKILL (no flush, no goodbye), and a
//! restart with `--recover` must bring every one of those writes back —
//! verified twice, independently:
//!
//! 1. **against the disk** — between the kill and the restart, the
//!    on-disk snapshot + log tail of every site are decoded directly
//!    (`geometa_core::wal::{read_snapshot_file, read_log_file}`) and
//!    must already contain every acked key;
//! 2. **against the reborn cluster** — after `--recover` replays, every
//!    acked key must resolve over the wire *from the site that wrote
//!    it*. (That is exactly the durability contract: the sync target
//!    that acked holds the entry again. The dht-local-replica strategy's
//!    lazy owner-copy is a best-effort cast and may die with the
//!    process — by design, so a probe from an unrelated site is not
//!    guaranteed, same as the DES oracle's surviving-instance check.)
//!
//! The matrix covers two strategies × four seeds (the acceptance floor
//! for this tier). `--fsync always` keeps acked ⇒ on-disk unconditional
//! so the SIGKILL timing cannot make the test flaky; the group-commit
//! window's durability/latency trade is exercised by the WAL unit tests
//! and the bench, not here.
//!
//! Set `GEOMETA_KILL_RECOVER_DIR` to pin the data-dir root to a known
//! path (CI uses this to upload the post-recovery logs as an artifact
//! when the test fails); by default a per-process temp dir is used and
//! removed on success.

use geometa_core::controller::ArchitectureController;
use geometa_core::protocol::RegistryRequest;
use geometa_core::strategy::StrategyKind;
use geometa_core::transport::RegistryTransport;
use geometa_core::wal::{read_log_file, read_snapshot_file, LOG_FILE, SNAPSHOT_FILE};
use geometa_core::{ClientConfig, StrategyClient};
use geometa_net::transport_for;
use geometa_sim::topology::SiteId;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: usize = 4;
const WRITES_PER_CELL: usize = 24;
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// A booted server process plus the addresses it printed. The stdout
/// reader stays alive for the process lifetime — dropping the pipe
/// would make the server's own shutdown banner fail on a closed fd.
struct Cluster {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addrs: Vec<SocketAddr>,
    recovered_lines: usize,
}

/// Spawn `geometa-server`, wait for `READY`, collect `LISTEN` addresses
/// and count `RECOVERED` banners.
fn boot(strategy: &str, data_dir: &Path, recover: bool) -> Cluster {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_geometa-server"));
    cmd.arg("--sites")
        .arg(SITES.to_string())
        .arg("--base-port")
        .arg("0")
        .arg("--strategy")
        .arg(strategy)
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--fsync")
        .arg("always")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if recover {
        cmd.arg("--recover");
    }
    let mut child = cmd.spawn().expect("spawn geometa-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut addrs: Vec<(u16, SocketAddr)> = Vec::new();
    let mut recovered_lines = 0;
    loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).expect("server stdout") > 0,
            "server exited before READY"
        );
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("LISTEN site=") {
            let (site, addr) = rest.split_once(" addr=").expect("LISTEN line shape");
            addrs.push((
                site.parse().expect("site id"),
                addr.parse().expect("socket addr"),
            ));
        } else if line.starts_with("RECOVERED site=") {
            recovered_lines += 1;
        } else if line.starts_with("READY") {
            break;
        }
    }
    assert_eq!(addrs.len(), SITES, "one LISTEN line per site");
    addrs.sort_by_key(|(site, _)| *site);
    Cluster {
        child,
        stdout,
        addrs: addrs.into_iter().map(|(_, a)| a).collect(),
        recovered_lines,
    }
}

/// Every entry name recoverable from the on-disk state of every site:
/// the union of each site's snapshot entries and the Put/Absorb records
/// in its clean log tail.
fn keys_on_disk(data_dir: &Path) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for site in 0..SITES {
        let dir = data_dir.join(format!("site-{site}"));
        if let Ok(Some((_seq, entries))) = read_snapshot_file(&dir.join(SNAPSHOT_FILE)) {
            for e in entries {
                keys.insert(e.name.as_str().to_owned());
            }
        }
        let Ok((records, torn)) = read_log_file(&dir.join(LOG_FILE)) else {
            continue;
        };
        assert!(
            torn.is_none(),
            "site {site}: --fsync always must not leave a torn tail: {torn:?}"
        );
        for r in records {
            match &r.req {
                RegistryRequest::Put { entry } => {
                    keys.insert(entry.name.as_str().to_owned());
                }
                RegistryRequest::Absorb { entries } => {
                    for e in entries {
                        keys.insert(e.name.as_str().to_owned());
                    }
                }
                _ => {}
            }
        }
    }
    keys
}

/// One full cycle: boot cold, publish acked writes, SIGKILL, audit the
/// disk, reboot with `--recover`, re-resolve everything.
fn kill_and_recover(strategy: &str, kind: StrategyKind, seed: u64, root: &Path) {
    let data_dir = root.join(format!("{strategy}-{seed}"));
    std::fs::create_dir_all(&data_dir).expect("create data dir");

    // Phase 1: cold boot, publish, SIGKILL mid-life.
    let mut cluster = boot(strategy, &data_dir, false);
    assert_eq!(
        cluster.recovered_lines, 0,
        "cold boot has nothing to replay"
    );
    let mut acked: Vec<(String, SiteId)> = Vec::new();
    {
        let transport = transport_for(&cluster.addrs, CALL_TIMEOUT);
        let sites: Vec<SiteId> = (0..SITES as u16).map(SiteId).collect();
        let controller = Arc::new(ArchitectureController::with_kind(kind, sites));
        for i in 0..WRITES_PER_CELL {
            // Spread publishers over sites so DHT ownership and the
            // local-replica path both see traffic.
            let site = SiteId(((seed as usize + i) % SITES) as u16);
            let client = StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig { site, node: 0 },
            );
            let key = format!("kr-{strategy}-{seed}-{i}");
            client
                .publish(&key, 64 + i as u64)
                .unwrap_or_else(|e| panic!("publish {key}: {e}"));
            acked.push((key, site));
        }
    }
    cluster.child.kill().expect("SIGKILL server");
    let _ = cluster.child.wait();

    // Phase 2: the disk alone must already witness every acked write.
    let on_disk = keys_on_disk(&data_dir);
    for (key, _) in &acked {
        assert!(
            on_disk.contains(key),
            "{strategy}/seed {seed}: acked '{key}' missing from on-disk WAL state"
        );
    }

    // Phase 3: restart with --recover; every acked key resolves again.
    let mut cluster = boot(strategy, &data_dir, true);
    assert!(
        cluster.recovered_lines > 0,
        "{strategy}/seed {seed}: restart printed no RECOVERED banner"
    );
    {
        let transport = transport_for(&cluster.addrs, CALL_TIMEOUT);
        let sites: Vec<SiteId> = (0..SITES as u16).map(SiteId).collect();
        let controller = Arc::new(ArchitectureController::with_kind(kind, sites));
        for (key, site) in &acked {
            // Resolve from the site that got the ack: its probe list
            // starts with the sync target the durability promise covers.
            let client = StrategyClient::new(
                Arc::clone(&transport),
                Arc::clone(&controller),
                ClientConfig {
                    site: *site,
                    node: 0,
                },
            );
            client.resolve(key).unwrap_or_else(|e| {
                panic!("{strategy}/seed {seed}: '{key}' lost across SIGKILL+recover: {e}")
            });
        }
    }
    // Graceful stop this time: close stdin, drain stdout to its end
    // (the server prints a STOPPED banner on the way out), then reap.
    drop(cluster.child.stdin.take());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut cluster.stdout, &mut rest).expect("drain server stdout");
    assert!(
        rest.contains("STOPPED"),
        "recovered server did not shut down cleanly: {rest:?}"
    );
    let status = cluster.child.wait().expect("server exit");
    assert!(status.success(), "recovered server exited with {status}");
}

/// Data-dir root: `GEOMETA_KILL_RECOVER_DIR` when CI wants the state
/// kept for artifact upload, else a per-process temp dir.
fn data_root() -> (PathBuf, bool) {
    match std::env::var_os("GEOMETA_KILL_RECOVER_DIR") {
        Some(dir) => (PathBuf::from(dir), true),
        None => (
            std::env::temp_dir().join(format!("geometa-kill-recover-{}", std::process::id())),
            false,
        ),
    }
}

#[test]
fn acked_writes_survive_sigkill_and_recover() {
    let (root, keep) = data_root();
    std::fs::create_dir_all(&root).expect("create data root");
    for (strategy, kind) in [
        ("centralized", StrategyKind::Centralized),
        ("dht-local-replica", StrategyKind::DhtLocalReplica),
    ] {
        for seed in [2u64, 3, 5, 8] {
            kill_and_recover(strategy, kind, seed, &root);
        }
    }
    if !keep {
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A base port where all `SITES` consecutive ports currently bind. The
/// probe listeners are dropped before the server boots — a small race,
/// tolerated because this tier already owns real processes and ports.
fn free_base_port() -> u16 {
    let mut base = 7200 + (std::process::id() % 2000) as u16;
    'outer: for _ in 0..64 {
        let mut probes = Vec::new();
        for i in 0..SITES as u16 {
            match std::net::TcpListener::bind(("127.0.0.1", base + i)) {
                Ok(l) => probes.push(l),
                Err(_) => {
                    base += SITES as u16 + 1;
                    continue 'outer;
                }
            }
        }
        return base;
    }
    panic!("no free base port found");
}

/// A dead peer costs its casters a few dials and then nothing: the failed
/// dials open the site's breaker, which sheds further casts, and the
/// reborn peer takes casts again. One transport lives across the kill and
/// the restart — the cluster must come back on the same ports for its
/// breaker history to be about the same addresses.
#[test]
fn casts_to_a_dead_peer_are_shed_until_it_is_reborn() {
    let (root, keep) = data_root();
    let data_dir = root.join("cast-recovery");
    std::fs::create_dir_all(&data_dir).expect("create data dir");
    let base = free_base_port();

    let mut cmd = Command::new(env!("CARGO_BIN_EXE_geometa-server"));
    cmd.args(["--sites", &SITES.to_string(), "--strategy", "centralized"])
        .args(["--base-port", &base.to_string(), "--fsync", "always"])
        .arg("--data-dir")
        .arg(&data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn geometa-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    wait_ready(&mut stdout);

    let addrs: Vec<SocketAddr> = (0..SITES as u16)
        .map(|i| format!("127.0.0.1:{}", base + i).parse().unwrap())
        .collect();
    let transport = transport_for(&addrs, CALL_TIMEOUT);
    let target = SiteId(1);
    let absorb = |name: &str| RegistryRequest::Absorb {
        entries: vec![geometa_core::RegistryEntry::new(
            name,
            64,
            geometa_core::FileLocation {
                site: target,
                node: 0,
            },
            1,
        )],
    };
    // Cast `name` at the target; true once it can be read back from there.
    let cast_lands = |name: &str| {
        transport.cast(target, absorb(name));
        let key = geometa_core::Key::from(name);
        matches!(
            transport.call(target, RegistryRequest::Get { key }),
            geometa_core::protocol::RegistryResponse::Found { .. }
        )
    };

    // One acked write so `--recover` later has on-disk state to replay,
    // then a warm cast delivery.
    {
        let sites: Vec<SiteId> = (0..SITES as u16).map(SiteId).collect();
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::Centralized,
            sites,
        ));
        let client = StrategyClient::new(
            Arc::clone(&transport),
            controller,
            ClientConfig {
                site: SiteId(0),
                node: 0,
            },
        );
        client.publish("cast-anchor", 64).expect("publish anchor");
    }
    wait_until("first cast delivered", || cast_lands("cast-before-kill"));
    assert_eq!(transport.casts_shed(), 0);

    // Kill the whole cluster. Casts now fail their dials — each waits for
    // its own dial at most, here a refused connect — until the strikes
    // open the breaker; from then on they are shed without dialing.
    child.kill().expect("SIGKILL server");
    let _ = child.wait();
    let mut slowest = Duration::ZERO;
    wait_until("the breaker opens against the dead peer", || {
        let t0 = Instant::now();
        transport.cast(target, absorb("cast-into-the-void"));
        slowest = slowest.max(t0.elapsed());
        transport.breaker_open(target)
    });
    assert!(
        slowest < Duration::from_secs(2),
        "a cast to a dead peer took {slowest:?}: more than one dial"
    );
    let shed = transport.casts_shed();
    transport.cast(target, absorb("cast-into-the-void"));
    assert_eq!(transport.casts_shed(), shed + 1, "an open breaker sheds");

    // Rebirth on the same ports.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_geometa-server"));
    cmd.args(["--sites", &SITES.to_string(), "--strategy", "centralized"])
        .args(["--base-port", &base.to_string(), "--fsync", "always"])
        .args(["--recover"])
        .arg("--data-dir")
        .arg(&data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("respawn geometa-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    wait_ready(&mut stdout);

    // Once the open interval lapses a cast dials the reborn peer and is
    // delivered; the `Get` that reads it back is the correlated response
    // that closes the breaker.
    wait_until("a cast reaches the reborn peer", || {
        cast_lands("cast-after-rebirth")
    });
    assert!(!transport.breaker_open(target));

    drop(child.stdin.take());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("drain server stdout");
    let _ = child.wait();
    if !keep {
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}

/// Drain server stdout until the READY banner.
fn wait_ready(stdout: &mut BufReader<std::process::ChildStdout>) {
    loop {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).expect("server stdout") > 0,
            "server exited before READY"
        );
        if line.starts_with("READY") {
            return;
        }
    }
}

/// Poll `cond` for up to 30s (breaker open intervals reach seconds under
/// repeated strikes), panicking with `what` on timeout.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..600 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn recover_against_empty_dir_is_an_error() {
    let (root, keep) = data_root();
    let dir = root.join("empty-recover");
    std::fs::create_dir_all(&dir).expect("create data dir");
    let out = Command::new(env!("CARGO_BIN_EXE_geometa-server"))
        .args(["--sites", "2", "--base-port", "0", "--recover"])
        .arg("--data-dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("run geometa-server");
    assert_eq!(out.status.code(), Some(2), "usage-error exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--recover"),
        "stderr names the failing flag: {stderr}"
    );
    if !keep {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
