//! `geometa-load` — seeded load generator for a TCP registry cluster,
//! closed-loop and open-loop.
//!
//! ```text
//! geometa-load [--quick] [--connect ip:port,ip:port,...] [--sites 4]
//!              [--strategy dht-local-replica] [--workload all|synthetic|montage|buzzflow]
//!              [--mode both|closed|open] [--rate OPS_PER_SEC]
//!              [--threads 32] [--ops 200] [--seed 61444] [--reactors N]
//! ```
//!
//! Without `--connect`, spawns its own cluster on ephemeral loopback
//! ports (still real sockets), with `--reactors` reactor threads per site
//! (default: `TcpConfig`'s). The CI `net-smoke` path uses an external
//! `geometa-server` instead. Workers replay the synthetic and
//! Montage/BuzzFlow op streams (`geometa_workflow::apps::ops`) in the
//! requested mode(s): closed loop (next op only after the previous
//! completed — sustained-capacity throughput) and open loop (fixed
//! arrival rate, latency from each op's *scheduled* issue time —
//! coordinated-omission-safe percentiles). With `--mode both` and no
//! `--rate`, the open-loop rate defaults to 80% of the just-measured
//! closed-loop throughput, i.e. the service observed near but below
//! saturation. Each stream warms its connections with untimed resolves
//! before the clock starts, so `max_us` reports a service latency, not
//! a TCP connect. One line per workload and mode goes to stderr; nothing
//! is written to disk (the gated numbers come from `benchmark/`).

// Peer input and connection failures surface as errors, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use geometa_core::controller::ArchitectureController;
use geometa_core::runtime::{RuntimeConfig, ServiceRuntime};
use geometa_core::strategy::StrategyKind;
use geometa_core::{ClientConfig, StrategyClient};
use geometa_net::cli::{
    die, flag_value, has_flag, parse_or_die, positive_or_die, reject_unknown, strategy_flag,
};
use geometa_net::loadgen::{run_stream, LoadMode, LoadOptions};
use geometa_net::{loopback_topology, transport_for, TcpClientTransport, TcpConfig, TcpLayer};
use geometa_sim::time::SimDuration;
use geometa_sim::topology::SiteId;
use geometa_workflow::apps::buzzflow::buzzflow_with_total_ops;
use geometa_workflow::apps::montage::montage_with_total_ops;
use geometa_workflow::apps::ops::{synthetic_streams, workflow_streams, OpStream};
use geometa_workflow::apps::synthetic::SyntheticSpec;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Every flag `main` reads; anything else is refused.
const KNOWN: &[&str] = &[
    "--quick",
    "--connect",
    "--sites",
    "--strategy",
    "--workload",
    "--mode",
    "--rate",
    "--threads",
    "--ops",
    "--seed",
    "--reactors",
];

/// Fraction of measured closed-loop throughput used as the default
/// open-loop arrival rate under `--mode both`: near saturation, but with
/// enough headroom that the open loop measures queueing under load
/// rather than unbounded backlog growth.
const DEFAULT_OPEN_RATE_FRACTION: f64 = 0.8;

/// Untimed per-stream warmup resolves before each measured run (dials
/// connections, fills the call-slot slab and scratch buffers).
const WARMUP_OPS: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown(&args, KNOWN);
    let quick = has_flag(&args, "--quick");
    let strategy = strategy_flag(&args, StrategyKind::DhtLocalReplica);
    let workload = flag_value(&args, "--workload").unwrap_or_else(|| "all".into());
    if !matches!(
        workload.as_str(),
        "all" | "synthetic" | "montage" | "buzzflow"
    ) {
        die(&format!(
            "--workload takes all|synthetic|montage|buzzflow, got '{workload}'"
        ));
    }
    let nodes = flag_value(&args, "--threads")
        .map(|v| positive_or_die(&v, "--threads takes a positive integer"))
        .unwrap_or(32);
    let ops_per_node = flag_value(&args, "--ops")
        .map(|v| positive_or_die(&v, "--ops takes a positive integer"))
        .unwrap_or(if quick { 40 } else { 200 });
    let seed: u64 = flag_value(&args, "--seed")
        .map(|v| parse_or_die(&v, "--seed takes an integer"))
        .unwrap_or(0xF004);
    let mode = flag_value(&args, "--mode").unwrap_or_else(|| "both".into());
    if !matches!(mode.as_str(), "both" | "closed" | "open") {
        die("--mode takes both|closed|open");
    }
    let rate: Option<f64> = flag_value(&args, "--rate")
        .map(|v| parse_or_die(&v, "--rate takes an arrival rate in ops/s"));
    if mode == "open" && rate.is_none() {
        die("--mode open needs an explicit --rate (with --mode both it derives from the closed-loop run)");
    }
    let connect = flag_value(&args, "--connect");
    let n_sites = flag_value(&args, "--sites")
        .map(|v| positive_or_die(&v, "--sites takes a positive integer"))
        .unwrap_or(4);
    let reactors = flag_value(&args, "--reactors")
        .map(|v| positive_or_die(&v, "--reactors takes a positive integer"));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "geometa-load: strategy {}, workload {workload}, quick={quick}, {host_cores} host cores, {} threads",
        strategy.label(),
        nodes,
    );

    // The cluster: external (--connect) or self-spawned on ephemeral ports.
    let mut spawned: Option<ServiceRuntime<TcpLayer>> = None;
    let addrs: Vec<SocketAddr> = match &connect {
        Some(list) => list
            .split(',')
            .map(|a| {
                a.parse()
                    .unwrap_or_else(|e| die(&format!("--connect: bad address '{a}': {e}")))
            })
            .collect(),
        None => {
            let mut tcp = TcpConfig::default();
            if let Some(n) = reactors {
                tcp.reactors = n;
            }
            let rt = ServiceRuntime::start(
                RuntimeConfig {
                    topology: loopback_topology(n_sites),
                    kind: strategy,
                    shards: 16,
                    sync_interval: Duration::from_millis(5),
                    ..RuntimeConfig::default()
                },
                TcpLayer::new(tcp),
            );
            let mut pairs: Vec<_> = rt.layer().addrs().iter().map(|(s, a)| (*s, *a)).collect();
            pairs.sort_by_key(|(s, _)| *s);
            let addrs = pairs.into_iter().map(|(_, a)| a).collect();
            spawned = Some(rt);
            addrs
        }
    };
    let sites: Vec<SiteId> = (0..addrs.len() as u16).map(SiteId).collect();
    eprintln!(
        "{} sites ({})",
        sites.len(),
        if connect.is_some() {
            "external"
        } else {
            "spawned"
        },
    );

    // One shared pipelining transport + client-side controller; every
    // worker thread gets its own StrategyClient view.
    let transport = transport_for(&addrs, Duration::from_secs(10));
    let controller = Arc::new(ArchitectureController::with_kind(strategy, sites.clone()));
    let make_client = |site: SiteId, node: u32| -> StrategyClient<TcpClientTransport> {
        StrategyClient::new(
            Arc::clone(&transport),
            Arc::clone(&controller),
            ClientConfig { site, node },
        )
    };

    // Runs one mode, prints its line, returns the measured throughput.
    let run_mode = |name: &'static str, stream: &OpStream, load_mode: LoadMode| -> f64 {
        let opts = LoadOptions {
            mode: load_mode,
            // Per-(workload, mode) namespace: without it, the open-loop
            // pass of `--mode both` replays names the closed-loop pass
            // already published, every resolve hits the pre-propagated
            // entry, and `resolve_retries` is identically 0.
            key_namespace: format!("{name}/{}#", load_mode.label()),
            warmup_ops: WARMUP_OPS,
            ..LoadOptions::default()
        };
        let report = run_stream(make_client, stream, &opts)
            .unwrap_or_else(|e| panic!("workload {name} ({}) failed: {e}", load_mode.label()));
        eprintln!(
            "  {name:<10} {:<6} {:>8} ops  {:>10.0} ops/s  p50 {:>7.1}us  p90 {:>7.1}us  p99 {:>7.1}us  max {:>8.1}us  ({} retries)",
            report.mode.label(), report.total_ops, report.throughput, report.p50_us, report.p90_us, report.p99_us, report.max_us, report.retries
        );
        report.throughput
    };
    let run = |name: &'static str, stream: &OpStream| {
        let mut closed = None;
        if mode != "open" {
            closed = Some(run_mode(name, stream, LoadMode::Closed));
        }
        if mode != "closed" {
            let open_rate = rate.unwrap_or_else(|| {
                // `both` without --rate: pace the open loop just under
                // the saturation point the closed loop measured.
                (closed.unwrap_or(0.0) * DEFAULT_OPEN_RATE_FRACTION).max(1.0)
            });
            run_mode(name, stream, LoadMode::Open { rate: open_rate });
        }
    };

    if workload == "all" || workload == "synthetic" {
        let spec = SyntheticSpec {
            nodes,
            ops_per_node,
            compute_per_op: SimDuration::ZERO,
            seed,
        };
        let stream = synthetic_streams(&spec, &sites);
        run("synthetic", &stream);
    }
    if workload == "all" || workload == "montage" {
        let target = if quick { 2_000 } else { 16_000 };
        let w = montage_with_total_ops(target, 32, SimDuration::ZERO);
        let grid = node_grid_for(&sites, nodes);
        let placement = geometa_workflow::scheduler::schedule(
            &w,
            &grid,
            geometa_workflow::scheduler::SchedulerPolicy::LocalityAware,
        );
        let stream = workflow_streams(&w, &placement);
        run("montage", &stream);
    }
    if workload == "all" || workload == "buzzflow" {
        let target = if quick { 1_500 } else { 7_200 };
        let w = buzzflow_with_total_ops(target, 6, 8, SimDuration::ZERO);
        let grid = node_grid_for(&sites, nodes);
        let placement = geometa_workflow::scheduler::schedule(
            &w,
            &grid,
            geometa_workflow::scheduler::SchedulerPolicy::LocalityAware,
        );
        let stream = workflow_streams(&w, &placement);
        run("buzzflow", &stream);
    }

    drop(transport);
    if let Some(rt) = spawned {
        let joined = rt.shutdown();
        eprintln!("cluster shut down ({joined} threads joined)");
    }
}

/// The workflow node grid: `threads` workers spread evenly over sites.
fn node_grid_for(sites: &[SiteId], threads: usize) -> Vec<geometa_workflow::scheduler::NodeId> {
    geometa_workflow::scheduler::node_grid(sites, (threads / sites.len()).max(1) as u32)
}
