//! The strategy-driven metadata client.
//!
//! A [`StrategyClient`] is the piece a workflow node embeds: it takes the
//! active strategy from the [`ArchitectureController`], turns each
//! operation into a plan, and executes the plan over a
//! [`RegistryTransport`]. It implements the paper's operation semantics:
//!
//! * **publish** — write to the completion site, then fire lazy
//!   propagation to the replicas;
//! * **resolve** — probe the plan's sites in order (the two-step
//!   hierarchical read of §IV-D falls out of the DR plan);
//! * **resolve with retry** — under the replicated strategy a read may
//!   legitimately miss until the sync agent propagates the entry; the
//!   caller supplies the waiting policy.
//!
//! The semantics live in the [`PublishOp`] and [`ResolveOp`] machines,
//! which the simulator's client actors drive too; this client sends what
//! they say over `transport.call` and `cast`, re-plans after a
//! membership change and counts [`OpStats`].

use crate::controller::ArchitectureController;
use crate::entry::{FileLocation, RegistryEntry};
use crate::metrics::OpStats;
use crate::op::{Outcome, PublishOp, ResolveOp, Step};
use crate::protocol::{RegistryRequest, RegistryResponse};
use crate::transport::RegistryTransport;
use crate::MetaError;
use geometa_sim::topology::SiteId;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Identity and tuning of one client.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Datacenter the client's node runs in.
    pub site: SiteId,
    /// Node index within the site (recorded in file locations).
    pub node: u32,
}

/// A metadata client bound to a transport and a strategy controller.
pub struct StrategyClient<T: RegistryTransport> {
    transport: Arc<T>,
    controller: Arc<ArchitectureController>,
    config: ClientConfig,
    stats: OpStats,
}

impl<T: RegistryTransport> StrategyClient<T> {
    /// Create a client for the node described by `config`.
    pub fn new(
        transport: Arc<T>,
        controller: Arc<ArchitectureController>,
        config: ClientConfig,
    ) -> StrategyClient<T> {
        StrategyClient {
            transport,
            controller,
            config,
            stats: OpStats::default(),
        }
    }

    /// Operation statistics.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Run `op`, refreshing the membership plan and retrying when the
    /// cluster rejects it with [`MetaError::WrongEpoch`]. The refresh
    /// asks the transport for the current `(epoch, members)` and rebuilds
    /// the active strategy over them; transports without membership
    /// epochs (in-process, channels) can't refresh, so the error
    /// propagates. Bounded: a cluster reconfiguring faster than the
    /// client can chase eventually surfaces the rejection.
    fn with_epoch_refresh<R>(
        &self,
        mut op: impl FnMut(&Self) -> Result<R, MetaError>,
    ) -> Result<R, MetaError> {
        const EPOCH_CHASES: usize = 3;
        let mut chased = 0;
        loop {
            match op(self) {
                Err(e @ MetaError::WrongEpoch { .. }) if chased < EPOCH_CHASES => {
                    let Some((_, members)) = self.transport.refresh_membership() else {
                        return Err(e);
                    };
                    self.controller.switch_kind(self.controller.kind(), members);
                    self.stats.epoch_refreshes.fetch_add(1, Ordering::Relaxed);
                    chased += 1;
                }
                other => return other,
            }
        }
    }

    /// Publish a file's metadata. Returns when the completion site has
    /// acknowledged; replicas are updated lazily.
    pub fn publish(&self, name: &str, size: u64) -> Result<(), MetaError> {
        let entry = RegistryEntry::new(
            name,
            size,
            FileLocation {
                site: self.config.site,
                node: self.config.node,
            },
            self.transport.now_micros(),
        );
        self.with_epoch_refresh(|c| c.publish_once(&entry))
    }

    /// Drive one [`PublishOp`] over the transport.
    fn publish_once(&self, entry: &RegistryEntry) -> Result<(), MetaError> {
        // One intern serves placement.
        let plan = self
            .controller
            .strategy()
            .write_plan_key(&entry.cache_key(), self.config.site);
        let mut op = PublishOp::new(self.config.site);
        let mut step = op.start(plan);
        loop {
            step = match step {
                Step::Call(site) => {
                    let put = RegistryRequest::Put {
                        entry: entry.clone(),
                    };
                    op.on_reply(&self.transport.call(site, put))
                }
                Step::Cast(site) => {
                    let push = RegistryRequest::Absorb {
                        entries: vec![entry.clone()],
                    };
                    self.transport.cast(site, push);
                    self.stats.async_pushes.fetch_add(1, Ordering::Relaxed);
                    op.pushed()
                }
                Step::Done(Outcome::Written { local }) => {
                    let writes = if local {
                        &self.stats.local_writes
                    } else {
                        &self.stats.remote_writes
                    };
                    writes.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Step::Done(Outcome::Error(e)) => return Err(e),
                Step::Wait(_) | Step::Done(_) => unreachable!("a publish neither waits nor reads"),
            };
        }
    }

    /// Resolve a file's metadata, probing per the active strategy's plan.
    ///
    /// An `Unavailable` probe (site down, circuit breaker open) fails
    /// over to the plan's next probe instead of aborting the read — under
    /// the replicating strategies another site can still answer. Only
    /// when every probe misses or fails does the read error.
    pub fn resolve(&self, name: &str) -> Result<RegistryEntry, MetaError> {
        self.resolve_with_retry(name, 1, |_| {})
    }

    /// [`Self::resolve`] with up to `max_attempts` attempts, waiting via
    /// `wait(attempt)` between them.
    ///
    /// Under eventual consistency a read can race propagation; the paper's
    /// replicated strategy relies on the sync agent, so readers of
    /// not-yet-synced entries must retry. `wait` receives the attempt index
    /// (0-based) and blocks as the caller sees fit. Only a miss is
    /// retried; the last attempt's miss returns [`MetaError::NotFound`].
    pub fn resolve_with_retry(
        &self,
        name: &str,
        max_attempts: usize,
        mut wait: impl FnMut(usize),
    ) -> Result<RegistryEntry, MetaError> {
        // One intern serves placement and every probe of every attempt.
        let key = geometa_cache::Key::new(name);
        let mut op = ResolveOp::new(self.config.site, max_attempts);
        loop {
            match self.with_epoch_refresh(|c| c.resolve_attempt(&key, &mut op))? {
                ControlFlow::Break(entry) => return Ok(entry),
                ControlFlow::Continue(attempt) => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    wait(attempt);
                }
            }
        }
    }

    /// Drive one attempt of `op` over the current plan: the entry, or the
    /// index of the attempt that missed everywhere and may be retried.
    fn resolve_attempt(
        &self,
        key: &geometa_cache::Key,
        op: &mut ResolveOp,
    ) -> Result<ControlFlow<RegistryEntry, usize>, MetaError> {
        let mut step = op.start(
            self.controller
                .strategy()
                .read_plan_key(key, self.config.site),
        );
        let end = loop {
            step = match step {
                Step::Call(site) => {
                    let resp = self
                        .transport
                        .call(site, RegistryRequest::Get { key: key.clone() });
                    let next = op.on_reply(&resp);
                    if let (Step::Done(Outcome::Hit { local }), RegistryResponse::Found { entry }) =
                        (&next, resp)
                    {
                        let reads = if *local {
                            &self.stats.local_read_hits
                        } else {
                            &self.stats.remote_reads
                        };
                        reads.fetch_add(1, Ordering::Relaxed);
                        break Ok(ControlFlow::Break(entry));
                    }
                    next
                }
                Step::Wait(attempt) => break Ok(ControlFlow::Continue(attempt)),
                Step::Done(Outcome::Miss) => break Err(MetaError::NotFound),
                Step::Done(Outcome::Error(e)) => break Err(e),
                Step::Cast(_) | Step::Done(_) => unreachable!("a resolve neither casts nor writes"),
            };
        };
        // An attempt that missed everywhere is a read miss, retried or not.
        if matches!(end, Ok(ControlFlow::Continue(_)) | Err(MetaError::NotFound)) {
            self.stats.read_misses.fetch_add(1, Ordering::Relaxed);
        }
        if op.failovers() > 0 {
            let n = op.failovers().into();
            self.stats.failovers.fetch_add(n, Ordering::Relaxed);
        }
        end
    }

    /// Remove a file's metadata from every site the write plan touches.
    pub fn unpublish(&self, name: &str) -> Result<(), MetaError> {
        self.with_epoch_refresh(|c| c.unpublish_once(name))
    }

    fn unpublish_once(&self, name: &str) -> Result<(), MetaError> {
        let strategy = self.controller.strategy();
        let key = geometa_cache::Key::new(name);
        let plan = strategy.write_plan_key(&key, self.config.site);
        for target in plan.all_targets() {
            match self
                .transport
                .call(target, RegistryRequest::Remove { key: key.clone() })
            {
                RegistryResponse::Ack => {}
                RegistryResponse::Error {
                    error: MetaError::NotFound,
                } => {}
                RegistryResponse::Error { error } => return Err(error),
                other => return Err(MetaError::Codec(format!("unexpected response {other:?}"))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use crate::transport::InProcessTransport;

    fn setup(kind: StrategyKind) -> (Arc<InProcessTransport>, Arc<ArchitectureController>) {
        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let transport = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(kind, sites));
        (transport, controller)
    }

    fn client(
        t: &Arc<InProcessTransport>,
        c: &Arc<ArchitectureController>,
        site: u16,
    ) -> StrategyClient<InProcessTransport> {
        StrategyClient::new(
            Arc::clone(t),
            Arc::clone(c),
            ClientConfig {
                site: SiteId(site),
                node: 0,
            },
        )
    }

    #[test]
    fn centralized_publish_resolve_across_sites() {
        let (t, c) = setup(StrategyKind::Centralized);
        let writer = client(&t, &c, 2);
        let reader = client(&t, &c, 3);
        writer.publish("f", 100).unwrap();
        let e = reader.resolve("f").unwrap();
        assert_eq!(e.name, "f");
        assert!(e.available_at(SiteId(2)));
        // Everything lives at site 0 (the home).
        assert_eq!(t.registry(SiteId(0)).unwrap().len(), 1);
        assert_eq!(t.registry(SiteId(2)).unwrap().len(), 0);
    }

    #[test]
    fn dht_nonreplicated_partitions_entries() {
        let (t, c) = setup(StrategyKind::DhtNonReplicated);
        let w = client(&t, &c, 0);
        for i in 0..100 {
            w.publish(&format!("f{i}"), 1).unwrap();
        }
        let total: usize = (0..4).map(|s| t.registry(SiteId(s)).unwrap().len()).sum();
        assert_eq!(total, 100, "each entry lives at exactly one site");
        // No site holds everything.
        for s in 0..4 {
            assert!(t.registry(SiteId(s)).unwrap().len() < 100);
        }
        let r = client(&t, &c, 3);
        for i in 0..100 {
            assert!(r.resolve(&format!("f{i}")).is_ok());
        }
    }

    #[test]
    fn dht_local_replica_keeps_local_copy() {
        let (t, c) = setup(StrategyKind::DhtLocalReplica);
        let w = client(&t, &c, 1);
        for i in 0..100 {
            w.publish(&format!("g{i}"), 1).unwrap();
        }
        // Local site has every entry (its replica); owners have theirs.
        assert_eq!(t.registry(SiteId(1)).unwrap().len(), 100);
        // A same-site reader resolves all of them locally.
        let r = client(&t, &c, 1);
        for i in 0..100 {
            r.resolve(&format!("g{i}")).unwrap();
        }
        let snap = r.stats().snapshot();
        assert_eq!(snap.local_read_hits, 100);
        assert_eq!(snap.remote_reads, 0);
    }

    #[test]
    fn dht_local_replica_remote_reader_follows_hash() {
        let (t, c) = setup(StrategyKind::DhtLocalReplica);
        let w = client(&t, &c, 1);
        w.publish("lonely", 1).unwrap();
        // A reader in another site must still find it via the hash owner
        // (unless the owner IS the reader's site — then it's local).
        let r = client(&t, &c, 2);
        let e = r.resolve("lonely").unwrap();
        assert!(e.available_at(SiteId(1)));
    }

    #[test]
    fn replicated_reads_are_local_and_miss_before_sync() {
        let (t, c) = setup(StrategyKind::Replicated);
        let w = client(&t, &c, 0);
        w.publish("f", 1).unwrap();
        // Before any sync cycle, a remote reader misses (eventual
        // consistency window).
        let r = client(&t, &c, 3);
        assert_eq!(r.resolve("f"), Err(MetaError::NotFound));
        // Simulate the sync agent pushing the delta.
        let delta = t.registry(SiteId(0)).unwrap().delta_since(0);
        t.registry(SiteId(3)).unwrap().absorb_batch(&delta).unwrap();
        assert!(r.resolve("f").is_ok());
    }

    #[test]
    fn resolve_with_retry_waits_until_visible() {
        let (t, c) = setup(StrategyKind::Replicated);
        let w = client(&t, &c, 0);
        w.publish("slow", 1).unwrap();
        let r = client(&t, &c, 2);
        let mut waits = 0;
        let res = r.resolve_with_retry("slow", 5, |_attempt| {
            waits += 1;
            if waits == 2 {
                // Propagation arrives during the second wait.
                let delta = t.registry(SiteId(0)).unwrap().delta_since(0);
                t.registry(SiteId(2)).unwrap().absorb_batch(&delta).unwrap();
            }
        });
        assert!(res.is_ok());
        assert_eq!(waits, 2);
        assert_eq!(r.stats().snapshot().retries, 2);
    }

    #[test]
    fn resolve_with_retry_gives_up() {
        let (t, c) = setup(StrategyKind::Replicated);
        let r = client(&t, &c, 2);
        let res = r.resolve_with_retry("ghost", 3, |_| {});
        assert_eq!(res, Err(MetaError::NotFound));
        assert_eq!(r.stats().snapshot().retries, 2);
    }

    #[test]
    fn unpublish_removes_everywhere_the_plan_wrote() {
        let (t, c) = setup(StrategyKind::DhtLocalReplica);
        let w = client(&t, &c, 1);
        w.publish("doomed", 1).unwrap();
        w.unpublish("doomed").unwrap();
        for s in 0..4 {
            assert_eq!(
                t.registry(SiteId(s)).unwrap().len(),
                0,
                "site {s} still has it"
            );
        }
    }

    #[test]
    fn stats_distinguish_local_and_remote_writes() {
        let (t, c) = setup(StrategyKind::Centralized);
        let local = client(&t, &c, 0); // same site as the home registry
        let remote = client(&t, &c, 2);
        local.publish("a", 1).unwrap();
        remote.publish("b", 1).unwrap();
        assert_eq!(local.stats().snapshot().local_writes, 1);
        assert_eq!(remote.stats().snapshot().remote_writes, 1);
    }

    #[test]
    fn resolve_fails_over_past_an_unavailable_probe() {
        use crate::controller::RING_VNODES;
        use crate::hash::{ConsistentRing, SitePlacer};

        /// Wraps the in-process transport; one site answers `Unavailable`.
        struct FlakySite {
            inner: Arc<InProcessTransport>,
            down: SiteId,
        }
        impl RegistryTransport for FlakySite {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                if target == self.down {
                    return RegistryResponse::Error {
                        error: MetaError::Unavailable,
                    };
                }
                self.inner.call(target, req)
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

        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let inner = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtLocalReplica,
            sites.clone(),
        ));
        // A name whose hash owner is NOT the reader's site, so the DR
        // read plan is [local, owner] with distinct sites.
        let ring = ConsistentRing::new(sites, RING_VNODES);
        let reader_site = SiteId(2);
        let name = (0..)
            .map(|i| format!("fo{i}"))
            .find(|n| ring.owner(n) != reader_site)
            .unwrap();
        let writer = StrategyClient::new(
            Arc::clone(&inner),
            Arc::clone(&controller),
            ClientConfig {
                site: ring.owner(&name),
                node: 0,
            },
        );
        writer.publish(&name, 1).unwrap();
        // The reader's local probe is down; the read must fail over to
        // the owner probe instead of erroring out.
        let reader = StrategyClient::new(
            Arc::new(FlakySite {
                inner,
                down: reader_site,
            }),
            controller,
            ClientConfig {
                site: reader_site,
                node: 0,
            },
        );
        let e = reader.resolve(&name).unwrap();
        assert_eq!(&*e.name, name.as_str());
        assert_eq!(reader.stats().snapshot().failovers, 1);
        // A name that exists nowhere now reports Unavailable (a down
        // probe means "not found" can't be trusted), not NotFound.
        assert_eq!(reader.resolve("ghost"), Err(MetaError::Unavailable));
    }

    #[test]
    fn wrong_epoch_refreshes_the_plan_and_retries() {
        use std::sync::atomic::{AtomicBool, Ordering};

        /// Rejects everything with `WrongEpoch` until the client asks for
        /// the current membership, then serves normally.
        struct EpochGate {
            inner: Arc<InProcessTransport>,
            refreshed: AtomicBool,
        }
        impl RegistryTransport for EpochGate {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                if !self.refreshed.load(Ordering::Acquire) {
                    return RegistryResponse::Error {
                        error: MetaError::WrongEpoch { epoch: 1 },
                    };
                }
                self.inner.call(target, req)
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
            fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
                self.refreshed.store(true, Ordering::Release);
                Some((1, (0..3).map(SiteId).collect()))
            }
        }

        let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
        let inner = Arc::new(InProcessTransport::new(&sites, 8));
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::DhtNonReplicated,
            sites,
        ));
        let client = StrategyClient::new(
            Arc::new(EpochGate {
                inner,
                refreshed: AtomicBool::new(false),
            }),
            Arc::clone(&controller),
            ClientConfig {
                site: SiteId(0),
                node: 0,
            },
        );
        client.publish("fresh", 1).unwrap();
        assert_eq!(client.stats().snapshot().epoch_refreshes, 1);
        // The refresh rebuilt the strategy over the server's member list.
        assert_eq!(controller.history().len(), 2);
        assert_eq!(
            controller.strategy().kind(),
            StrategyKind::DhtNonReplicated,
            "refresh keeps the strategy kind"
        );
    }

    #[test]
    fn wrong_epoch_without_refresh_support_propagates() {
        struct AlwaysStale;
        impl RegistryTransport for AlwaysStale {
            fn call(&self, _target: SiteId, _req: RegistryRequest) -> RegistryResponse {
                RegistryResponse::Error {
                    error: MetaError::WrongEpoch { epoch: 7 },
                }
            }
            fn cast(&self, _target: SiteId, _req: RegistryRequest) {}
            fn now_micros(&self) -> u64 {
                0
            }
            fn sites(&self) -> Vec<SiteId> {
                vec![SiteId(0)]
            }
        }
        let controller = Arc::new(ArchitectureController::with_kind(
            StrategyKind::Centralized,
            vec![SiteId(0)],
        ));
        let client = StrategyClient::new(
            Arc::new(AlwaysStale),
            controller,
            ClientConfig {
                site: SiteId(0),
                node: 0,
            },
        );
        assert_eq!(
            client.publish("f", 1),
            Err(MetaError::WrongEpoch { epoch: 7 })
        );
    }

    #[test]
    fn strategy_switch_mid_stream_changes_routing() {
        let (t, c) = setup(StrategyKind::Centralized);
        let w = client(&t, &c, 2);
        w.publish("before", 1).unwrap();
        assert_eq!(t.registry(SiteId(0)).unwrap().len(), 1);
        c.switch_kind(StrategyKind::DhtLocalReplica, (0..4).map(SiteId).collect());
        w.publish("after", 1).unwrap();
        // "after" committed at the writer's local site.
        assert!(t.registry(SiteId(2)).unwrap().get("after").is_ok());
    }
}
