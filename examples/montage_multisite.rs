//! Run a Montage-shaped astronomy workflow on a loopback TCP cluster with
//! injected WAN latency, under two metadata strategies, and compare
//! makespans.
//!
//! Montage is the paper's "parallel, geo-distributed application": a split,
//! a wide band of parallel re-projection jobs, and a merge. Tasks discover
//! their inputs *through the metadata registry* and publish their outputs
//! back to it — the registry is the only coordination medium, exactly as in
//! file-based workflow engines.
//!
//! ```text
//! cargo run --release --example montage_multisite
//! ```

use geometa::core::client::{ClientConfig, StrategyClient};
use geometa::core::protocol::{RegistryRequest, RegistryResponse};
use geometa::core::runtime::{ConnectionLayer, RuntimeConfig, ServiceRuntime};
use geometa::core::strategy::StrategyKind;
use geometa::core::transport::RegistryTransport;
use geometa::core::FxHashMap;
use geometa::net::TcpLayer;
use geometa::sim::time::SimDuration;
use geometa::sim::topology::{SiteId, Topology};
use geometa::workflow::apps::montage::{montage, MontageConfig};
use geometa::workflow::engine::{EngineConfig, MetadataOps, WorkflowEngine};
use geometa::workflow::provenance::{provisioning_plan, ProvenanceIndex};
use geometa::workflow::scheduler::{node_grid, schedule, NodeId, SchedulerPolicy};
use std::sync::Arc;
use std::time::Duration;

/// WAN latencies are slept at 1/200 of the topology's: a 100 ms
/// round trip costs 500 us, well above a loopback call.
const LATENCY_SCALE: f64 = 0.005;

/// A site's view of the cluster through the WAN: sleeps the scaled
/// one-way flight time before and after every call. Casts are
/// fire-and-forget and pass straight through.
struct Wan<T> {
    inner: Arc<T>,
    from: SiteId,
    topology: Arc<Topology>,
}

impl<T: RegistryTransport> RegistryTransport for Wan<T> {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        let flight = self.topology.one_way_latency(self.from, target);
        let flight = Duration::from_secs_f64(flight.as_secs_f64() * LATENCY_SCALE);
        std::thread::sleep(flight);
        let resp = self.inner.call(target, req);
        std::thread::sleep(flight);
        resp
    }
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        self.inner.cast(target, req)
    }
    fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }
    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }
}

fn run_once(kind: StrategyKind) -> Duration {
    let cluster = ServiceRuntime::start(
        RuntimeConfig {
            kind,
            ..RuntimeConfig::default()
        },
        TcpLayer::ephemeral(),
    );

    let workflow = montage(MontageConfig {
        tiles: 16,
        files_per_task: 4,
        compute: SimDuration::from_millis(50),
        ..MontageConfig::default()
    });
    let sites: Vec<SiteId> = cluster.topology().site_ids().collect();
    let nodes = node_grid(&sites, 4); // 16 nodes over 4 sites
    let placement = schedule(&workflow, &nodes, SchedulerPolicy::LocalityAware);

    // One metadata client per execution node.
    let clients: FxHashMap<NodeId, Arc<dyn MetadataOps>> = nodes
        .iter()
        .map(|&n| {
            let wan = Wan {
                inner: cluster.layer().transport(cluster.core(), n.site),
                from: n.site,
                topology: Arc::clone(cluster.core().topology()),
            };
            let c: Arc<dyn MetadataOps> = Arc::new(StrategyClient::new(
                Arc::new(wan),
                Arc::clone(cluster.controller()),
                ClientConfig {
                    site: n.site,
                    node: n.index,
                },
            ));
            (n, c)
        })
        .collect();

    let report = WorkflowEngine::new(EngineConfig {
        compute_scale: LATENCY_SCALE, // compress task compute like the latencies
        max_resolve_attempts: 100_000,
        resolve_backoff: Duration::from_micros(300),
    })
    .run(&workflow, &placement, &clients)
    .expect("workflow completes");

    println!(
        "  {:<22} makespan {:>8.1?}   {} resolves  {} publishes  stall {:?}",
        kind.label(),
        report.makespan,
        report.resolve_calls,
        report.publish_calls,
        report.stall_time
    );
    cluster.shutdown();
    report.makespan
}

fn main() {
    let workflow = montage(MontageConfig {
        tiles: 16,
        files_per_task: 4,
        compute: SimDuration::from_millis(50),
        ..MontageConfig::default()
    });
    println!(
        "Montage workflow: {} tasks, {} files, {} metadata ops, width {}, critical path {}",
        workflow.len(),
        workflow.total_files(),
        workflow.total_metadata_ops(),
        workflow.max_width(),
        workflow.critical_path()
    );

    // Provenance: which transfers would a prefetcher schedule?
    let sites: Vec<SiteId> = Topology::azure_4dc().site_ids().collect();
    let nodes = node_grid(&sites, 4);
    let placement = schedule(&workflow, &nodes, SchedulerPolicy::LocalityAware);
    let plan = provisioning_plan(&workflow, &placement);
    let idx = ProvenanceIndex::build(&workflow);
    println!(
        "locality-aware placement co-locates {:.0}% of dependency edges; {} cross-site transfers ({} KiB) remain",
        placement.colocated_edge_fraction(&workflow) * 100.0,
        plan.len(),
        geometa::workflow::provenance::plan_bytes(&plan) / 1024
    );
    if let Some((hot, readers)) = idx.shared_files().first() {
        println!("hottest shared file: {hot} ({readers} readers)\n");
    }

    println!("Executing on a loopback TCP cluster (WAN latencies compressed 200x):");
    let centralized = run_once(StrategyKind::Centralized);
    let dht = run_once(StrategyKind::DhtLocalReplica);
    let gain = 1.0 - dht.as_secs_f64() / centralized.as_secs_f64();
    println!(
        "\ndecentralized (local-replica) vs centralized: {:+.0}% makespan",
        -gain * 100.0
    );
}
