//! `geometa-server` — boot an N-site registry cluster on loopback TCP.
//!
//! ```text
//! geometa-server [--sites 4] [--base-port 7420] [--strategy dht-local-replica]
//!                [--shards 16] [--duration SECS]
//!                [--data-dir PATH] [--fsync always|group|off] [--recover]
//! ```
//!
//! Prints one `LISTEN site=<i> addr=<ip:port>` line per site and then
//! `READY`. Runs until stdin closes (so a parent process owns the
//! lifetime) or, with `--duration`, for a fixed wall-clock window.
//! `--base-port 0` picks ephemeral ports (the printed addresses are the
//! source of truth either way).
//!
//! With `--data-dir` every site keeps a file-backed write-ahead log under
//! `PATH/site-<i>/`; a restart replays snapshot + clean log tail before
//! the sockets open, printing one `RECOVERED site=<i> ...` line per site
//! that had state. `--recover` additionally *requires* existing state —
//! booting against an empty data dir becomes an error instead of a
//! silent cold start. `--fsync` picks the durability/latency trade-off
//! (default `group`: one fsync amortizes every append inside a short
//! flush window; acked ⇒ durable still holds).

// Peer input and connection failures surface as errors, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use geometa_core::runtime::{RuntimeConfig, ServiceRuntime, WalConfig};
use geometa_core::strategy::StrategyKind;
use geometa_core::wal::{FsyncPolicy, WalError};
use geometa_net::cli::{
    die, flag_value, has_flag, parse_or_die, positive_or_die, reject_unknown, strategy_flag,
};
use geometa_net::{loopback_topology, TcpConfig, TcpLayer};
use std::io::Read;
use std::path::PathBuf;
use std::time::Duration;

/// Default group-commit flush interval for `--fsync group`.
const GROUP_COMMIT_INTERVAL: Duration = Duration::from_millis(2);

/// Every flag `main` reads; anything else is refused.
const KNOWN: &[&str] = &[
    "--sites",
    "--base-port",
    "--strategy",
    "--shards",
    "--duration",
    "--data-dir",
    "--fsync",
    "--recover",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, KNOWN);
    let sites = flag_value(&args, "--sites")
        .map(|v| positive_or_die(&v, "--sites takes a positive integer"))
        .unwrap_or(4);
    let base_port: u16 = flag_value(&args, "--base-port")
        .map(|v| parse_or_die(&v, "--base-port takes a port number"))
        .unwrap_or(7420);
    let strategy = strategy_flag(&args, StrategyKind::DhtLocalReplica);
    let shards = flag_value(&args, "--shards")
        .map(|v| positive_or_die(&v, "--shards takes a positive integer"))
        .unwrap_or(16);
    let duration = flag_value(&args, "--duration")
        .map(|v| Duration::from_secs_f64(parse_or_die(&v, "--duration takes seconds")));
    let data_dir = flag_value(&args, "--data-dir").map(PathBuf::from);
    let recover = has_flag(&args, "--recover");
    let fsync = match flag_value(&args, "--fsync") {
        None => FsyncPolicy::GroupCommit(GROUP_COMMIT_INTERVAL),
        Some(v) => FsyncPolicy::parse(&v, GROUP_COMMIT_INTERVAL).unwrap_or_else(|| {
            die(&format!(
                "--fsync: expected always, group or off, got '{v}'"
            ))
        }),
    };
    if recover && data_dir.is_none() {
        die("--recover requires --data-dir");
    }

    let wal = match &data_dir {
        Some(dir) => WalConfig::File {
            data_dir: dir.clone(),
            fsync,
        },
        None => WalConfig::Memory,
    };
    let runtime = ServiceRuntime::try_start(
        RuntimeConfig {
            topology: loopback_topology(sites),
            kind: strategy,
            shards,
            sync_interval: Duration::from_millis(5),
            wal,
            ..RuntimeConfig::default()
        },
        TcpLayer::new(TcpConfig {
            base_port,
            ..TcpConfig::default()
        }),
    )
    .unwrap_or_else(|e| die(&format!("wal: {e}")));

    // `--recover` promises the operator existing state: a cold start
    // against an empty data dir is a mistake (wrong path, wiped volume),
    // not a fresh deployment.
    if let Some(dir) = &data_dir {
        if recover && runtime.core().recovery_reports().is_empty() {
            let dir = dir.clone();
            runtime.shutdown();
            die(&format!(
                "--recover: {}",
                WalError::NothingToRecover { dir }
            ));
        }
    }
    for r in runtime.core().recovery_reports() {
        println!(
            "RECOVERED site={} snapshot_entries={} replayed={} torn={}",
            r.site.0,
            r.snapshot_entries,
            r.replayed,
            r.torn
                .as_ref()
                .map_or("none".to_string(), |t| format!("@{}", t.offset)),
        );
    }

    let mut addrs: Vec<_> = runtime.layer().addrs().iter().collect();
    addrs.sort_by_key(|(site, _)| **site);
    for (site, addr) in addrs {
        println!("LISTEN site={} addr={addr}", site.0);
    }
    println!("READY strategy={} sites={sites}", strategy.label());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    match duration {
        Some(d) => std::thread::sleep(d),
        None => {
            // Parent owns our lifetime: run until stdin closes.
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        }
    }

    let joined = runtime.shutdown();
    println!("STOPPED joined_threads={joined}");
}
