//! A real multi-threaded deployment of the metadata middleware.
//!
//! Where `geometa-experiments` *simulates* the paper's testbed in virtual
//! time, this module actually runs it: one service thread per site's
//! registry instance, clients on arbitrary threads, WAN latency injected by
//! sleeping (scaled down so tests finish quickly), asynchronous propagation
//! through a delay line, and — for the replicated strategy — a background
//! synchronization agent thread.
//!
//! All of the generic machinery (registry ownership, dispatch, thread
//! tracking, sync-agent driving, failure injection, graceful shutdown)
//! lives in [`crate::runtime::ServiceRuntime`]; this module only supplies
//! the *connection layer* — in-process channels plus a latency sleep. The
//! framed-TCP deployment (`geometa-net`) plugs a socket layer into the
//! same runtime; nothing else changes.
//!
//! ```
//! use geometa_core::live::{LiveCluster, LiveConfig};
//! use geometa_core::strategy::StrategyKind;
//! use geometa_sim::topology::{SiteId, Topology};
//!
//! let cluster = LiveCluster::start(LiveConfig {
//!     topology: Topology::azure_4dc(),
//!     kind: StrategyKind::DhtLocalReplica,
//!     latency_scale: 0.001, // 1000x compressed WAN latencies
//!     ..LiveConfig::default()
//! });
//! let client = cluster.client(SiteId(0), 0);
//! client.publish("quick.dat", 4096).unwrap();
//! let entry = client.resolve("quick.dat").unwrap();
//! assert_eq!(entry.size, 4096);
//! cluster.shutdown();
//! ```

use crate::client::StrategyClient;
use crate::controller::ArchitectureController;
use crate::protocol::{RegistryRequest, RegistryResponse};
use crate::registry::RegistryInstance;
use crate::runtime::{ConnectionLayer, RuntimeConfig, ServiceCore, ServiceRuntime, Spawner};
use crate::strategy::StrategyKind;
use crate::transport::RegistryTransport;
use crate::MetaError;
use geometa_sim::topology::{SiteId, Topology};
use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

pub use crate::runtime::DelayLine;

/// Configuration of a live cluster.
#[derive(Clone)]
pub struct LiveConfig {
    /// Site layout and latency matrix.
    pub topology: Topology,
    /// Which of the four strategies to run.
    pub kind: StrategyKind,
    /// Multiplier applied to topology latencies before sleeping. 1.0 =
    /// realistic; tests use small values to compress time.
    pub latency_scale: f64,
    /// Shards per registry cache.
    pub shards: usize,
    /// Real-time interval between sync-agent cycles (replicated strategy).
    pub sync_interval: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            topology: Topology::azure_4dc(),
            kind: StrategyKind::DhtLocalReplica,
            latency_scale: 0.001,
            shards: 16,
            sync_interval: Duration::from_millis(5),
        }
    }
}

enum ServiceMsg {
    Request {
        req: RegistryRequest,
        reply: SyncSender<RegistryResponse>,
    },
    Cast {
        req: RegistryRequest,
    },
    Shutdown,
}

/// The channel connection layer: one service thread per site draining a
/// channel, clients sleeping the (scaled) WAN latency around each send.
pub struct ChannelLayer {
    scale: f64,
    senders: HashMap<SiteId, Sender<ServiceMsg>>,
}

impl ChannelLayer {
    /// A channel layer sleeping `topology latency × scale` per flight.
    pub fn new(scale: f64) -> ChannelLayer {
        ChannelLayer {
            scale,
            senders: HashMap::new(),
        }
    }
}

impl ConnectionLayer for ChannelLayer {
    type Transport = LiveTransport;

    fn start(&mut self, core: &Arc<ServiceCore>, spawner: &mut Spawner) {
        for site in core.topology().site_ids() {
            let (tx, rx) = channel();
            self.senders.insert(site, tx);
            let core = Arc::clone(core);
            spawner.spawn(format!("registry-{site}"), move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ServiceMsg::Request { req, reply } => {
                            let _ = reply.send(core.serve(site, req));
                        }
                        ServiceMsg::Cast { req } => {
                            let _ = core.serve(site, req);
                        }
                        ServiceMsg::Shutdown => break,
                    }
                }
            });
        }
    }

    fn transport(&self, core: &Arc<ServiceCore>, site: SiteId) -> Arc<LiveTransport> {
        Arc::new(LiveTransport {
            site,
            senders: self.senders.clone(),
            core: Arc::clone(core),
            scale: self.scale,
        })
    }

    fn unblock(&self) {
        // geometa-lint: allow(unordered-iter) shutdown broadcast: every sender gets the message, delivery order is irrelevant
        for tx in self.senders.values() {
            let _ = tx.send(ServiceMsg::Shutdown);
        }
    }
}

/// Per-client transport: channels + injected latency.
pub struct LiveTransport {
    site: SiteId,
    senders: HashMap<SiteId, Sender<ServiceMsg>>,
    core: Arc<ServiceCore>,
    scale: f64,
}

impl LiveTransport {
    fn one_way(&self, to: SiteId) -> Duration {
        let micros = self
            .core
            .topology()
            .one_way_latency(self.site, to)
            .as_micros();
        Duration::from_nanos((micros as f64 * 1_000.0 * self.scale) as u64)
    }
}

impl RegistryTransport for LiveTransport {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        let Some(sender) = self.senders.get(&target) else {
            return RegistryResponse::Error {
                error: MetaError::Unavailable,
            };
        };
        let lat = self.one_way(target);
        std::thread::sleep(lat); // request flight
        let (reply_tx, reply_rx) = sync_channel(1);
        if sender
            .send(ServiceMsg::Request {
                req,
                reply: reply_tx,
            })
            .is_err()
        {
            return RegistryResponse::Error {
                error: MetaError::Unavailable,
            };
        }
        let resp = match reply_rx.recv() {
            Ok(r) => r,
            Err(_) => {
                return RegistryResponse::Error {
                    error: MetaError::Unavailable,
                }
            }
        };
        std::thread::sleep(lat); // response flight
        resp
    }

    /// Fire-and-forget: the send is deferred onto the delay line for the
    /// flight latency, so the caller never blocks on the target.
    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let Some(sender) = self.senders.get(&target) else {
            return;
        };
        let sender = sender.clone();
        let lat = self.one_way(target);
        self.core.delay_line().schedule(
            lat,
            Box::new(move || {
                let _ = sender.send(ServiceMsg::Cast { req });
            }),
        );
    }

    fn now_micros(&self) -> u64 {
        self.core.now_micros()
    }

    fn sites(&self) -> Vec<SiteId> {
        let mut s: Vec<SiteId> = self.senders.keys().copied().collect();
        s.sort();
        s
    }
}

/// A running live deployment: the service runtime behind a channel layer.
pub struct LiveCluster {
    runtime: ServiceRuntime<ChannelLayer>,
}

impl LiveCluster {
    /// Start service threads for every site and, if needed, the sync agent.
    pub fn start(config: LiveConfig) -> LiveCluster {
        LiveCluster {
            runtime: ServiceRuntime::start(
                RuntimeConfig {
                    topology: config.topology,
                    kind: config.kind,
                    shards: config.shards,
                    sync_interval: config.sync_interval,
                    // Channel deployments stay deterministic: an
                    // in-memory WAL with identical append semantics.
                    ..RuntimeConfig::default()
                },
                ChannelLayer::new(config.latency_scale),
            ),
        }
    }

    /// Create a client for a node at `site`.
    pub fn client(&self, site: SiteId, node: u32) -> StrategyClient<LiveTransport> {
        self.runtime.client(site, node)
    }

    /// The strategy controller (for runtime switching).
    pub fn controller(&self) -> &Arc<ArchitectureController> {
        self.runtime.controller()
    }

    /// Direct handle to a site's registry (diagnostics/tests).
    pub fn registry(&self, site: SiteId) -> Option<&Arc<RegistryInstance>> {
        self.runtime.registry(site)
    }

    /// Fault injection: kill `site`'s primary cache mid-traffic (the live
    /// analog of the simulator's site-crash fault). The service thread
    /// keeps running; the next operation against the instance drives the
    /// HaCache primary→replica promotion, exactly as in the DES chaos
    /// scenarios. Returns whether the site hosts a registry.
    pub fn inject_registry_failure(&self, site: SiteId) -> bool {
        self.runtime.inject_registry_failure(site)
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        self.runtime.topology()
    }

    /// Stop all threads and drain. Idempotent (also runs on drop).
    pub fn shutdown(self) {
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(kind: StrategyKind) -> LiveConfig {
        LiveConfig {
            topology: Topology::azure_4dc(),
            kind,
            latency_scale: 0.0005, // 2000x compression: 100 ms RTT -> 50 us
            shards: 8,
            sync_interval: Duration::from_millis(2),
        }
    }

    #[test]
    fn centralized_end_to_end() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::Centralized));
        let w = cluster.client(SiteId(1), 0);
        let r = cluster.client(SiteId(3), 0);
        for i in 0..50 {
            w.publish(&format!("f{i}"), 10).unwrap();
        }
        for i in 0..50 {
            assert!(r.resolve(&format!("f{i}")).is_ok());
        }
        cluster.shutdown();
    }

    #[test]
    fn dht_local_replica_end_to_end_with_lazy_propagation() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::DhtLocalReplica));
        let w = cluster.client(SiteId(0), 0);
        for i in 0..50 {
            w.publish(&format!("g{i}"), 10).unwrap();
        }
        // Local replica is immediately visible.
        let local = cluster.client(SiteId(0), 1);
        for i in 0..50 {
            assert!(local.resolve(&format!("g{i}")).is_ok());
        }
        // Remote readers may need the lazy push to land.
        let remote = cluster.client(SiteId(2), 0);
        for i in 0..50 {
            let res = remote.resolve_with_retry(&format!("g{i}"), 50, |_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            assert!(res.is_ok(), "g{i} never became visible remotely");
        }
        cluster.shutdown();
    }

    #[test]
    fn replicated_sync_agent_propagates() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::Replicated));
        let w = cluster.client(SiteId(1), 0);
        for i in 0..20 {
            w.publish(&format!("r{i}"), 10).unwrap();
        }
        let r = cluster.client(SiteId(3), 0);
        for i in 0..20 {
            let res = r.resolve_with_retry(&format!("r{i}"), 200, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            assert!(res.is_ok(), "r{i} never synced");
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_many_sites() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::DhtNonReplicated));
        std::thread::scope(|s| {
            for site in 0..4u16 {
                let cluster = &cluster;
                s.spawn(move || {
                    let c = cluster.client(SiteId(site), 0);
                    for i in 0..25 {
                        c.publish(&format!("s{site}-f{i}"), 1).unwrap();
                    }
                    for i in 0..25 {
                        c.resolve(&format!("s{site}-f{i}")).unwrap();
                    }
                });
            }
        });
        let total: usize = (0..4)
            .map(|s| cluster.registry(SiteId(s)).unwrap().len())
            .sum();
        assert_eq!(total, 100, "DHT partitioning stores each entry once");
        cluster.shutdown();
    }

    #[test]
    fn injected_registry_failure_promotes_without_losing_acked_writes() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::DhtNonReplicated));
        let w = cluster.client(SiteId(0), 0);
        for i in 0..40 {
            w.publish(&format!("pre{i}"), 1).unwrap();
        }
        // Kill every registry's primary mid-run (worst case).
        for s in 0..4u16 {
            assert!(cluster.inject_registry_failure(SiteId(s)));
        }
        assert!(!cluster.inject_registry_failure(SiteId(9)), "unknown site");
        // Every acked write still resolves (promotion served it), and new
        // writes keep flowing through the promoted stores.
        for i in 0..40 {
            assert!(
                w.resolve(&format!("pre{i}")).is_ok(),
                "pre{i} lost to the injected failure"
            );
        }
        for i in 0..40 {
            w.publish(&format!("post{i}"), 1).unwrap();
            assert!(w.resolve(&format!("post{i}")).is_ok());
        }
        cluster.shutdown();
    }

    #[test]
    fn shutdown_is_clean_and_idempotent_via_drop() {
        let cluster = LiveCluster::start(fast_config(StrategyKind::Replicated));
        let c = cluster.client(SiteId(0), 0);
        c.publish("x", 1).unwrap();
        drop(cluster); // Drop path must join all threads without hanging.
    }
}
