//! `geometa-admin` — operations CLI for a running TCP registry cluster.
//!
//! ```text
//! geometa-admin status --connect ip:port,ip:port,...
//! geometa-admin join   --connect ... --site N [--wait-secs 30]
//! geometa-admin leave  --connect ... --site N [--wait-secs 30]
//! geometa-admin drain  --connect ... --site N [--wait-secs 30]
//! ```
//!
//! `status` probes every address with a breaker-exempt `Status` call and
//! prints one line per site: membership epoch, member set, WAL high
//! sequence, entry count, open connections, and whether a rebalance is
//! in flight. `join`/`leave`/`drain` submit the membership change to the
//! first reachable site (`Ack` means *accepted* — the transfer runs in
//! the background) and then poll `Status` until the change lands: an
//! epoch flip with the right member set for join/leave, `rebalancing:
//! false` for drain (drain copies ahead without flipping the epoch).
//!
//! Exit codes: 0 done, 1 the cluster refused or the wait timed out,
//! 2 usage error.

// Peer input and connection failures surface as errors, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use geometa_core::protocol::{ReconfigureOp, RegistryRequest, RegistryResponse, SiteStatus};
use geometa_core::transport::RegistryTransport;
use geometa_net::cli::{die, flag_value, parse_or_die, reject_unknown};
use geometa_net::transport_for;
use geometa_sim::topology::SiteId;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per-call deadline: admin probes must fail fast on a dark site.
const CALL_TIMEOUT: Duration = Duration::from_secs(3);
/// Poll cadence while waiting for a membership change to land.
const POLL_TICK: Duration = Duration::from_millis(100);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        die("usage: geometa-admin <status|join|leave|drain> --connect ip:port,... [--site N] [--wait-secs 30]");
    };
    let op = match cmd {
        "status" => None,
        "join" => Some(ReconfigureOp::Join),
        "leave" => Some(ReconfigureOp::Leave),
        "drain" => Some(ReconfigureOp::Drain),
        other => die(&format!(
            "unknown command '{other}' (expected status, join, leave or drain)"
        )),
    };
    let known: &[&str] = match op {
        None => &["--connect"],
        Some(_) => &["--connect", "--site", "--wait-secs"],
    };
    reject_unknown(&args[1..], known);
    let addrs: Vec<SocketAddr> = flag_value(&args, "--connect")
        .unwrap_or_else(|| die("--connect ip:port,ip:port,... is required"))
        .split(',')
        .map(|a| {
            a.parse()
                .unwrap_or_else(|e| die(&format!("--connect: bad address '{a}': {e}")))
        })
        .collect();
    let transport = transport_for(&addrs, CALL_TIMEOUT);

    match op {
        None => {
            let mut up = 0usize;
            for site in transport.sites() {
                match transport.call(site, RegistryRequest::Status) {
                    RegistryResponse::Status { status } => {
                        up += 1;
                        print_status(&status);
                    }
                    other => println!("site {:>3}: unreachable ({other:?})", site.0),
                }
            }
            std::process::exit(if up > 0 { 0 } else { 1 });
        }
        Some(op) => {
            let target: u16 = flag_value(&args, "--site")
                .map(|v| parse_or_die(&v, "--site takes a site id"))
                .unwrap_or_else(|| die(&format!("{cmd} needs --site N")));
            let wait_secs: u64 = flag_value(&args, "--wait-secs")
                .map(|v| parse_or_die(&v, "--wait-secs takes seconds"))
                .unwrap_or(30);
            let target = SiteId(target);

            // Submit to the first member that accepts. A site that is
            // down or already mid-rebalance refuses; try the next.
            let mut accepted_by = None;
            let mut last_refusal = None;
            for site in transport.sites() {
                match transport.call(site, RegistryRequest::Reconfigure { op, site: target }) {
                    RegistryResponse::Ack => {
                        accepted_by = Some(site);
                        break;
                    }
                    RegistryResponse::Error { error } => last_refusal = Some(error),
                    _ => {}
                }
            }
            let Some(via) = accepted_by else {
                eprintln!(
                    "error: no site accepted {cmd} of site {} (last refusal: {:?})",
                    target.0, last_refusal
                );
                std::process::exit(1);
            };
            eprintln!("{cmd} of site {} accepted by site {}", target.0, via.0);

            // Poll until the change lands (or the wait budget runs out).
            let deadline = Instant::now() + Duration::from_secs(wait_secs);
            while Instant::now() < deadline {
                if let Some(status) = first_status(&*transport) {
                    let member = status.members.contains(&target);
                    let done = match op {
                        ReconfigureOp::Join => member && !status.rebalancing,
                        ReconfigureOp::Leave => !member && !status.rebalancing,
                        ReconfigureOp::Drain => !status.rebalancing,
                    };
                    if done {
                        println!(
                            "{cmd} of site {} complete: epoch {}, members [{}], moved {}",
                            target.0,
                            status.epoch,
                            fmt_members(&status.members),
                            status.last_moved
                        );
                        std::process::exit(0);
                    }
                }
                std::thread::sleep(POLL_TICK);
            }
            eprintln!(
                "error: {cmd} of site {} did not land within {wait_secs}s",
                target.0
            );
            std::process::exit(1);
        }
    }
}

/// The first reachable site's status snapshot.
fn first_status(transport: &dyn RegistryTransport) -> Option<SiteStatus> {
    for site in transport.sites() {
        if let RegistryResponse::Status { status } = transport.call(site, RegistryRequest::Status) {
            return Some(status);
        }
    }
    None
}

fn fmt_members(members: &[SiteId]) -> String {
    members
        .iter()
        .map(|s| s.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn print_status(s: &SiteStatus) {
    println!(
        "site {:>3}: epoch {:<4} members [{}]  wal_seq {:<8} entries {:<8} conns {:<4} {}",
        s.site.0,
        s.epoch,
        fmt_members(&s.members),
        s.wal_seq,
        s.entries,
        s.conns,
        if s.rebalancing {
            "REBALANCING"
        } else {
            "steady"
        }
    );
}
