//! The transport-generic service runtime.
//!
//! Every real deployment of the registry — TCP sockets (`geometa-net`),
//! no sockets at all ([`InlineLayer`]), or any future backend (UDS, real
//! WAN) — needs the same machinery: registry instances per site, a
//! serving dispatch, tracked service threads, sync-agent driving for the
//! replicated strategy, failure injection, and graceful shutdown. This
//! module owns all of it once; a deployment only supplies a
//! [`ConnectionLayer`] — the piece that moves
//! `RegistryRequest`/`RegistryResponse` bytes between a client and a
//! site's server.
//!
//! Layering:
//!
//! ```text
//! StrategyClient<L::Transport>            (plans → RPCs)
//!         │ call / cast
//! L::Transport: RegistryTransport         (connection layer, client side)
//!         │ framed TCP / nothing (inline) / …
//! ConnectionLayer serving loops           (connection layer, server side)
//!         │ ServiceCore::serve
//! RegistryInstance::serve                 (one instance per site; shared by
//!                                          sim, inline and net deployments)
//! ```
//!
//! The DES binding (`geometa_experiments::simbind`) intentionally stays
//! outside: virtual time cannot run on real threads. Everything below the
//! transport — `RegistryInstance`, the strategies, `SyncAgentState` — is
//! the exact code the simulator drives, which is what makes inline/net
//! runs comparable to simulated ones.

use crate::client::{ClientConfig, StrategyClient};
use crate::controller::{ArchitectureController, RING_VNODES};
use crate::entry::RegistryEntry;
use crate::hash::{ConsistentRing, SitePlacer};
use crate::protocol::{ReconfigureOp, RegistryRequest, RegistryResponse, SiteStatus};
use crate::rebalance::plan_rebalance;
use crate::registry::RegistryInstance;
use crate::strategy::StrategyKind;
use crate::sync_agent::SyncAgentState;
use crate::transport::RegistryTransport;
use crate::wal::{log_acked_writes, FileWal, FsyncPolicy, MemWal, TornTail, WalError, WalSink};
use crate::MetaError;
use geometa_cache::FxHashMap;
use geometa_sim::rng::SplitMix64;
use geometa_sim::topology::{SiteId, Topology};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which write-ahead log backs each site's registry.
#[derive(Clone, Debug)]
pub enum WalConfig {
    /// No logging: writes live only in memory (pre-WAL behaviour).
    Disabled,
    /// In-memory log: identical append/replay semantics without I/O —
    /// the deterministic default.
    Memory,
    /// File-backed log under `data_dir/site-<n>/` with the given fsync
    /// policy. Existing state is recovered (snapshot + clean log tail
    /// replayed into the registries) before serving starts.
    File {
        /// Root directory; one subdirectory per site.
        data_dir: PathBuf,
        /// When appended records become durable.
        fsync: FsyncPolicy,
    },
}

/// Configuration shared by every runtime-backed deployment.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Site layout and latency matrix.
    pub topology: Topology,
    /// Which of the four strategies to run.
    pub kind: StrategyKind,
    /// Shards per registry cache.
    pub shards: usize,
    /// Real-time interval between sync-agent cycles (replicated strategy).
    pub sync_interval: Duration,
    /// Write-ahead logging behind every registry.
    pub wal: WalConfig,
    /// Floor on the appends between snapshot + log-truncation cycles. A
    /// site snapshots once its log is at least this long *and* at least
    /// as long as its last snapshot (`wal::log_acked_writes`), so a
    /// snapshot's cost is spread over as many records as it has entries
    /// and recovery reads one snapshot plus a tail no longer than it.
    pub snapshot_every: u64,
    /// Initial member sites (placement targets). `None` means every
    /// topology site. A subset leaves the excluded sites' registries and
    /// serving loops running but out of the placement plan — they join
    /// later through [`ServiceCore::serve`]-level `Reconfigure`.
    pub members: Option<Vec<SiteId>>,
    /// Pause between rebalance transfer chunks, throttling background
    /// migration against foreground traffic.
    pub rebalance_throttle: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            topology: Topology::azure_4dc(),
            kind: StrategyKind::DhtLocalReplica,
            shards: 16,
            sync_interval: Duration::from_millis(5),
            wal: WalConfig::Memory,
            snapshot_every: 4096,
            members: None,
            rebalance_throttle: Duration::from_micros(500),
        }
    }
}

/// What one site's restart recovered from its WAL.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// The site that recovered.
    pub site: SiteId,
    /// Entries restored from the snapshot.
    pub snapshot_entries: usize,
    /// Log records replayed on top of the snapshot.
    pub replayed: usize,
    /// A torn log tail that was truncated during recovery, if any.
    pub torn: Option<TornTail>,
}

/// Sync-agent health counters.
#[derive(Debug, Default)]
pub(crate) struct SyncAgentStats {
    /// Delta pulls that returned an error (the site backs off).
    pub pull_failures: AtomicU64,
    /// Absorb pushes that were not acked (watermark rolled back).
    pub push_failures: AtomicU64,
    /// Cycles where a backed-off site was skipped.
    pub backoff_skips: AtomicU64,
}

/// Point-in-time copy of [`SyncAgentStats`].
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SyncAgentStatsSnapshot {
    /// See [`SyncAgentStats::pull_failures`].
    pub pull_failures: u64,
    /// See [`SyncAgentStats::push_failures`].
    pub push_failures: u64,
    /// See [`SyncAgentStats::backoff_skips`].
    pub backoff_skips: u64,
}

impl SyncAgentStats {
    /// Snapshot the counters.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> SyncAgentStatsSnapshot {
        SyncAgentStatsSnapshot {
            pull_failures: self.pull_failures.load(Ordering::Relaxed),
            push_failures: self.push_failures.load(Ordering::Relaxed),
            backoff_skips: self.backoff_skips.load(Ordering::Relaxed),
        }
    }
}

/// Everything a connection layer serves from: the registry instances, the
/// strategy controller, the logical clock and the shutdown flag. Shared
/// (via `Arc`) between the runtime, the layer's serving threads, and
/// client transports.
pub struct ServiceCore {
    topology: Arc<Topology>,
    registries: FxHashMap<SiteId, Arc<RegistryInstance>>,
    wals: FxHashMap<SiteId, Arc<dyn WalSink>>,
    snapshot_every: u64,
    recovery: Vec<RecoveryReport>,
    controller: Arc<ArchitectureController>,
    sync_stats: Arc<SyncAgentStats>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    membership: Mutex<MembershipState>,
    conn_counts: FxHashMap<SiteId, AtomicU32>,
    rebalance_throttle: Duration,
    background: Mutex<Vec<JoinHandle<()>>>,
    me: Weak<ServiceCore>,
}

/// Caller-owned scratch for [`ServiceCore::serve_batch_into`]: the
/// batch's pending-WAL write run. The server reactor keeps one per
/// connection — cleared between batches, never shrunk — so batching
/// itself allocates nothing at steady state.
#[derive(Default)]
pub struct BatchScratch {
    /// Acked writes awaiting the batched WAL append.
    writes: Vec<RegistryRequest>,
    /// `out` index of each pending write's ack (demoted to
    /// `Unavailable` if the batch append fails).
    write_slots: Vec<usize>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.writes.clear();
        self.write_slots.clear();
    }
}

/// Versioned member set plus rebalance bookkeeping, guarded by one lock.
struct MembershipState {
    /// Bumped on every applied join/leave; clients carrying an older
    /// epoch are rejected with [`MetaError::WrongEpoch`] by the net layer.
    epoch: u64,
    /// Current placement targets, sorted by id.
    members: Vec<SiteId>,
    /// A reconfigure transfer is in flight (concurrent ones are refused).
    rebalancing: bool,
    /// Entries moved by the most recently completed reconfigure.
    last_moved: u64,
}

impl ServiceCore {
    fn new(config: &RuntimeConfig) -> Result<Arc<ServiceCore>, WalError> {
        let topology = Arc::new(config.topology.clone());
        let sites: Vec<SiteId> = topology.site_ids().collect();
        let registries: FxHashMap<SiteId, Arc<RegistryInstance>> = sites
            .iter()
            .map(|&s| (s, Arc::new(RegistryInstance::new(s, config.shards))))
            .collect();
        let mut wals: FxHashMap<SiteId, Arc<dyn WalSink>> = FxHashMap::default();
        let mut recovery = Vec::new();
        for &site in &sites {
            match &config.wal {
                WalConfig::Disabled => {}
                WalConfig::Memory => {
                    wals.insert(site, Arc::new(MemWal::new()));
                }
                WalConfig::File { data_dir, fsync } => {
                    let dir = data_dir.join(format!("site-{}", site.0));
                    let (wal, rec) = FileWal::open(&dir, *fsync)?;
                    if !rec.is_empty() || rec.torn.is_some() {
                        rec.replay_into(&registries[&site]);
                        recovery.push(RecoveryReport {
                            site,
                            snapshot_entries: rec.entries.len(),
                            replayed: rec.tail.len(),
                            torn: rec.torn,
                        });
                    }
                    wals.insert(site, Arc::new(wal));
                }
            }
        }
        let mut members = match &config.members {
            None => sites.clone(),
            Some(m) => {
                assert!(
                    m.iter().all(|s| registries.contains_key(s)),
                    "initial members must be topology sites"
                );
                m.clone()
            }
        };
        members.sort();
        members.dedup();
        assert!(!members.is_empty(), "need at least one member site");
        let conn_counts = sites.iter().map(|&s| (s, AtomicU32::new(0))).collect();
        let controller = Arc::new(ArchitectureController::with_kind(
            config.kind,
            members.clone(),
        ));
        Ok(Arc::new_cyclic(|me| ServiceCore {
            topology,
            registries,
            wals,
            snapshot_every: config.snapshot_every.max(1),
            recovery,
            controller,
            sync_stats: Arc::new(SyncAgentStats::default()),
            epoch: Instant::now(),
            shutdown: Arc::new(AtomicBool::new(false)),
            membership: Mutex::new(MembershipState {
                epoch: 0,
                members,
                rebalancing: false,
                last_moved: 0,
            }),
            conn_counts,
            rebalance_throttle: config.rebalance_throttle,
            background: Mutex::new(Vec::new()),
            me: me.clone(),
        }))
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The strategy controller (runtime switching).
    #[cfg(test)]
    pub(crate) fn controller(&self) -> &Arc<ArchitectureController> {
        &self.controller
    }

    /// Monotonic logical clock in microseconds since runtime start.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Reusable scratch for [`ServiceCore::serve_batch_into`]: the
    /// pending-WAL write run lives here between batches, cleared but
    /// never shrunk, so steady-state batching is alloc-free.
    pub fn new_batch_scratch(&self) -> BatchScratch {
        BatchScratch::default()
    }

    /// Whether shutdown has begun (serving loops poll this).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Direct handle to a site's registry (diagnostics/tests).
    pub fn registry(&self, site: SiteId) -> Option<&Arc<RegistryInstance>> {
        self.registries.get(&site)
    }

    /// Apply one request to `site`'s registry `r` — the one per-request
    /// dispatch behind [`Self::serve`] and [`Self::serve_batch_into`].
    /// Ops requests are answered by the runtime itself (membership and
    /// WALs live here, not in the registry); registry semantics live in
    /// [`RegistryInstance::serve`]. Inlined so neither caller pays a
    /// second call and request move on the way there.
    #[inline]
    fn apply(
        &self,
        site: SiteId,
        r: &RegistryInstance,
        req: RegistryRequest,
        now: u64,
    ) -> RegistryResponse {
        match req {
            RegistryRequest::Status => self.status_response(site),
            RegistryRequest::Reconfigure { op, site: target } => self.start_reconfigure(op, target),
            req => r.serve(req, now),
        }
    }

    /// Serve one request against `site`'s registry: a batch of one that
    /// needs no scratch and allocates nothing of its own.
    ///
    /// Successful writes are appended to the site's WAL *before the ack
    /// is returned*: with a file sink the append blocks until the record
    /// is durable per its [`FsyncPolicy`], so an acked write survives a
    /// process kill. A WAL append failure converts the ack into
    /// `Unavailable` — the write may exist in memory, but the durability
    /// contract ("acked ⇒ recoverable") is never weakened silently.
    pub fn serve(&self, site: SiteId, req: RegistryRequest) -> RegistryResponse {
        let unavailable = RegistryResponse::Error {
            error: MetaError::Unavailable,
        };
        let Some(r) = self.registries.get(&site) else {
            return unavailable;
        };
        let wal = self.wals.get(&site).filter(|_| req.is_write());
        let logged = wal.map(|_| req.clone());
        let now = self.now_micros();
        let resp = self.apply(site, r, req, now);
        if let (Some(wal), Some(req), RegistryResponse::Ack) = (wal, logged, &resp) {
            let writes = std::slice::from_ref(&req);
            if log_acked_writes(&**wal, writes, now, self.snapshot_every, r).is_err() {
                return unavailable;
            }
        }
        resp
    }

    /// Serve a batch, draining `reqs` and appending one response per
    /// request to `out` (request order). The caller owns every buffer —
    /// the server reactor keeps `reqs`, `out` and `scratch` per
    /// connection, so a steady-state batch performs no allocation for
    /// the batching itself.
    ///
    /// Requests are applied one by one in arrival order, so a request
    /// sees every earlier one in the batch — the order a session's casts
    /// and its next call were sent in. (The server reactor serves a
    /// pass's called `Get`s through [`Self::serve_gets`] *after* this
    /// batch, for the same reason.)
    ///
    /// Acked writes are appended to the WAL as **one batch** (one lock,
    /// one contiguous seq range, one group-commit wait) after serving;
    /// responses only leave this function after that append returns, so
    /// the acked ⇒ durable contract is unchanged. If the batch append
    /// fails, every acked write in the batch is converted to
    /// `Unavailable` — conservative for records that did reach the log,
    /// but never the reverse.
    pub fn serve_batch_into(
        &self,
        site: SiteId,
        reqs: &mut Vec<RegistryRequest>,
        out: &mut Vec<RegistryResponse>,
        scratch: &mut BatchScratch,
    ) {
        let Some(r) = self.registries.get(&site) else {
            for _ in reqs.drain(..) {
                out.push(RegistryResponse::Error {
                    error: MetaError::Unavailable,
                });
            }
            return;
        };
        let wal = self.wals.get(&site);
        let now = self.now_micros();
        scratch.clear();
        for req in reqs.drain(..) {
            let logged = wal.filter(|_| req.is_write()).map(|_| req.clone());
            let resp = self.apply(site, r, req, now);
            if let (Some(req), RegistryResponse::Ack) = (logged, &resp) {
                scratch.write_slots.push(out.len());
                scratch.writes.push(req);
            }
            out.push(resp);
        }
        if let Some(wal) = wal.filter(|_| !scratch.writes.is_empty()) {
            if log_acked_writes(&**wal, &scratch.writes, now, self.snapshot_every, r).is_err() {
                for &slot in &scratch.write_slots {
                    out[slot] = RegistryResponse::Error {
                        error: MetaError::Unavailable,
                    };
                }
            }
        }
        scratch.clear();
    }

    /// Serve a run of reads addressed by *borrowed* key text — the one
    /// batched read path, the reactor's zero-copy one: keys are `&str`
    /// views into the connection's read buffer and no
    /// [`geometa_cache::Key`] is ever interned. Appends one response per
    /// key, in order. A single key probes the store directly (no
    /// allocation on a miss); two or more share shard locks through the
    /// grouped batch read.
    pub fn serve_gets(&self, site: SiteId, keys: &[&str], out: &mut Vec<RegistryResponse>) {
        let Some(r) = self.registries.get(&site) else {
            for _ in keys {
                out.push(RegistryResponse::Error {
                    error: MetaError::Unavailable,
                });
            }
            return;
        };
        let found = |read| match read {
            Ok(entry) => RegistryResponse::Found { entry },
            Err(error) => RegistryResponse::Error { error },
        };
        match keys {
            [] => {}
            [key] => out.push(found(r.get(key))),
            _ => out.extend(r.multi_get(keys).into_iter().map(found)),
        }
    }

    /// The site's write-ahead log, when the deployment configured one.
    pub fn wal(&self, site: SiteId) -> Option<&Arc<dyn WalSink>> {
        self.wals.get(&site)
    }

    /// What each site recovered from disk at startup (empty for fresh
    /// starts and non-file WALs).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Fault injection: kill `site`'s primary cache mid-traffic. The
    /// serving loops keep running; the next operation drives the HaCache
    /// primary→replica promotion. Returns whether the site hosts a
    /// registry.
    pub(crate) fn fail_primary(&self, site: SiteId) -> bool {
        match self.registries.get(&site) {
            Some(r) => {
                r.fail_primary();
                true
            }
            None => false,
        }
    }

    /// Current membership `(epoch, members)`.
    pub(crate) fn membership(&self) -> (u64, Vec<SiteId>) {
        let m = self.membership.lock();
        (m.epoch, m.members.clone())
    }

    /// Current membership epoch (what net frames are checked against).
    pub fn membership_epoch(&self) -> u64 {
        self.membership.lock().epoch
    }

    /// Connection accounting: the net layer's reactor reports every
    /// accepted connection here so `Status` can surface it.
    pub fn conn_opened(&self, site: SiteId) {
        if let Some(c) = self.conn_counts.get(&site) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// See [`Self::conn_opened`].
    pub fn conn_closed(&self, site: SiteId) {
        if let Some(c) = self.conn_counts.get(&site) {
            c.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Answer a `Status` request for `site`.
    #[cold]
    fn status_response(&self, site: SiteId) -> RegistryResponse {
        let (epoch, members, rebalancing, last_moved) = {
            let m = self.membership.lock();
            (m.epoch, m.members.clone(), m.rebalancing, m.last_moved)
        };
        RegistryResponse::Status {
            status: SiteStatus {
                site,
                epoch,
                members,
                wal_seq: self.wals.get(&site).map_or(0, |w| w.next_seq()),
                entries: self.registries.get(&site).map_or(0, |r| r.len() as u64),
                conns: self
                    .conn_counts
                    .get(&site)
                    .map_or(0, |c| c.load(Ordering::Relaxed)),
                rebalancing,
                last_moved,
            },
        }
    }

    /// Validate and launch a membership change. `Ack` means *accepted*:
    /// the transfer runs on a background thread (joined at shutdown);
    /// callers poll `Status` for the epoch flip. A second `Reconfigure`
    /// while one is in flight is refused with `Contention`; an invalid
    /// target (unknown site, join of a member, leave of a non-member or
    /// of the last member) with `Unavailable`.
    #[cold]
    fn start_reconfigure(&self, op: ReconfigureOp, target: SiteId) -> RegistryResponse {
        let refuse = |error| RegistryResponse::Error { error };
        let new_members = {
            let mut m = self.membership.lock();
            if m.rebalancing {
                return refuse(MetaError::Contention);
            }
            let next = match op {
                ReconfigureOp::Join => {
                    if !self.registries.contains_key(&target) || m.members.contains(&target) {
                        return refuse(MetaError::Unavailable);
                    }
                    let mut n = m.members.clone();
                    n.push(target);
                    n.sort();
                    n
                }
                ReconfigureOp::Leave | ReconfigureOp::Drain => {
                    if !m.members.contains(&target) || m.members.len() <= 1 {
                        return refuse(MetaError::Unavailable);
                    }
                    m.members.iter().copied().filter(|&s| s != target).collect()
                }
            };
            m.rebalancing = true;
            next
        };
        let Some(core) = self.me.upgrade() else {
            // Only reachable while the core is being torn down.
            self.membership.lock().rebalancing = false;
            return refuse(MetaError::Unavailable);
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "tracked through ServiceCore::background; ServiceRuntime::shutdown joins these after the serving threads"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("reconfigure-{}", target.0))
            .spawn(move || core.run_reconfigure(op, new_members))
            .expect("spawn reconfigure thread");
        self.background.lock().push(handle);
        RegistryResponse::Ack
    }

    /// Drive one membership change end to end (background thread).
    ///
    /// Two-pass transfer: pass 1 copies every entry whose owner changes
    /// to its new site while the *old* epoch keeps serving writes; then
    /// the epoch, member list and strategy flip atomically (stale clients
    /// start bouncing with [`MetaError::WrongEpoch`]); pass 2 re-plans
    /// and moves the stragglers written to old owners during pass 1.
    /// `Drain` is pass 1 without the flip — a copy-ahead warm-up that
    /// makes the later `Leave` near-instant.
    fn run_reconfigure(&self, op: ReconfigureOp, new_members: Vec<SiteId>) {
        let old_members = self.membership.lock().members.clone();
        let kind = self.controller.kind();
        let before = rebalance_placer(kind, &old_members);
        let after = rebalance_placer(kind, &new_members);
        let mut moved = self.transfer(&*before, &*after);
        if op != ReconfigureOp::Drain {
            {
                let mut m = self.membership.lock();
                m.epoch += 1;
                m.members = new_members.clone();
            }
            self.controller.switch_kind(kind, new_members);
            moved += self.transfer(&*before, &*after);
        }
        let mut m = self.membership.lock();
        m.last_moved = moved;
        m.rebalancing = false;
    }

    /// Copy every entry whose owner changed between two placements to its
    /// new site, through [`Self::serve`] so the target's WAL covers the
    /// migrated entries. Chunked like the sync agent's pushes and paused
    /// between chunks so foreground traffic keeps its shard locks.
    /// Returns the number of entries successfully moved; a failed chunk
    /// is skipped (the next pass or a re-issued reconfigure re-plans it —
    /// absorb is idempotent).
    fn transfer(&self, before: &dyn SitePlacer, after: &dyn SitePlacer) -> u64 {
        // The planner sees the old copies pass 1 left in place (absorb
        // never deletes), so re-planning would re-copy the whole set.
        // Skipping entries the target already holds at least as new keeps
        // pass 2 down to the stragglers — and keeps the total movement at
        // the placement bound, which the elasticity tests assert.
        let moves = plan_rebalance(before, after, &self.registries);
        let mut by_target: BTreeMap<SiteId, Vec<RegistryEntry>> = BTreeMap::new();
        for m in moves {
            let delivered = self
                .registries
                .get(&m.to)
                .and_then(|r| r.get(&m.entry.name).ok())
                .is_some_and(|held| held.created_at >= m.entry.created_at);
            if !delivered {
                by_target.entry(m.to).or_default().push(m.entry);
            }
        }
        let mut moved = 0u64;
        for (to, entries) in by_target {
            for chunk in entries.chunks(SYNC_PUSH_CHUNK) {
                if self.is_shutdown() {
                    return moved;
                }
                let resp = self.serve(
                    to,
                    RegistryRequest::Absorb {
                        entries: chunk.to_vec(),
                    },
                );
                if resp.into_ack().is_ok() {
                    moved += chunk.len() as u64;
                }
                std::thread::sleep(self.rebalance_throttle);
            }
        }
        moved
    }
}

/// The placement a membership change re-plans against, per strategy kind:
/// the DHT strategies place by consistent ring (same vnode count as
/// [`build_strategy`](crate::controller::build_strategy), so the planner
/// agrees with what clients will compute); centralized and replicated
/// keep every authoritative copy at the first member.
fn rebalance_placer(kind: StrategyKind, members: &[SiteId]) -> Box<dyn SitePlacer> {
    match kind {
        StrategyKind::Centralized | StrategyKind::Replicated => Box::new(HomePlacer {
            home: members[0],
            members: members.to_vec(),
        }),
        StrategyKind::DhtNonReplicated | StrategyKind::DhtLocalReplica => {
            Box::new(ConsistentRing::new(members.to_vec(), RING_VNODES))
        }
    }
}

/// Everything lives at one home site — the centralized/replicated
/// authoritative placement, shaped as a [`SitePlacer`] so the rebalance
/// planner can diff it.
struct HomePlacer {
    home: SiteId,
    members: Vec<SiteId>,
}

impl SitePlacer for HomePlacer {
    fn owner(&self, _key: &str) -> SiteId {
        self.home
    }

    fn sites(&self) -> Vec<SiteId> {
        self.members.clone()
    }
}

/// Tracked thread spawning: every thread a layer starts is joined by
/// [`ServiceRuntime::shutdown`], which is what makes the no-leaked-threads
/// guarantee checkable.
pub struct Spawner {
    threads: Vec<JoinHandle<()>>,
}

impl Spawner {
    /// Spawn a named service thread owned by the runtime.
    #[expect(
        clippy::disallowed_methods,
        reason = "Spawner is the tracking mechanism: every handle lands in self.threads and ServiceRuntime::shutdown joins them all"
    )]
    pub fn spawn(&mut self, name: impl Into<String>, f: impl FnOnce() + Send + 'static) {
        self.threads.push(
            std::thread::Builder::new()
                .name(name.into())
                .spawn(f)
                .expect("spawn service thread"),
        );
    }
}

/// The piece a deployment supplies: how request/response bytes move
/// between a client and a site's server. Implementations: framed TCP
/// (`geometa_net::TcpLayer`), nothing at all ([`InlineLayer`]).
pub trait ConnectionLayer: Send {
    /// The client-side transport this layer hands to [`StrategyClient`]s.
    type Transport: RegistryTransport + 'static;

    /// Start the serving side for every site in `core`'s topology. All
    /// threads must go through `spawner` so shutdown can join them.
    fn start(&mut self, core: &Arc<ServiceCore>, spawner: &mut Spawner);

    /// A client transport viewed from `site`. Returned as `Arc` so layers
    /// whose transports are location-independent (TCP: routing is per
    /// target, and its pipelined connections are worth sharing) can hand
    /// every client a clone of one shared instance.
    fn transport(&self, core: &Arc<ServiceCore>, site: SiteId) -> Arc<Self::Transport>;

    /// Called once at shutdown, after the core's shutdown flag is set:
    /// unblock any serving threads parked in a blocking wait (socket
    /// `accept`, a poll) so they can observe the flag and exit.
    fn unblock(&self);
}

/// A [`ConnectionLayer`] without a connection: its transport runs
/// [`ServiceCore::serve`] on the caller's thread for `call` and `cast`
/// alike. No sockets, no codec, no service threads — the one socket-less
/// deployment, with the full core (WAL, membership, sync agent) behind it.
pub struct InlineLayer;

/// The client side of [`InlineLayer`].
pub struct InlineTransport {
    core: Arc<ServiceCore>,
}

impl RegistryTransport for InlineTransport {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        self.core.serve(target, req)
    }

    fn cast(&self, target: SiteId, req: RegistryRequest) {
        let _ = self.core.serve(target, req);
    }

    fn now_micros(&self) -> u64 {
        self.core.now_micros()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.core.topology().site_ids().collect()
    }
}

impl ConnectionLayer for InlineLayer {
    type Transport = InlineTransport;

    fn start(&mut self, _core: &Arc<ServiceCore>, _spawner: &mut Spawner) {}

    fn transport(&self, core: &Arc<ServiceCore>, _site: SiteId) -> Arc<InlineTransport> {
        Arc::new(InlineTransport {
            core: Arc::clone(core),
        })
    }

    fn unblock(&self) {}
}

/// A running deployment: the [`ServiceCore`], the connection layer, and
/// every service thread (serving loops, sync agent).
pub struct ServiceRuntime<L: ConnectionLayer> {
    core: Arc<ServiceCore>,
    layer: L,
    threads: Vec<JoinHandle<()>>,
    sync_interval: Duration,
}

impl<L: ConnectionLayer> ServiceRuntime<L> {
    /// Boot registries for every site, start the layer's serving side
    /// and — for the replicated strategy — the sync agent (driven over the
    /// layer's own transport, so propagation pays the same latency
    /// clients do).
    ///
    /// Panics when a file-backed WAL cannot be opened or recovered; the
    /// operator binaries use [`ServiceRuntime::try_start`] for a clean
    /// error instead.
    pub fn start(config: RuntimeConfig, layer: L) -> ServiceRuntime<L> {
        match Self::try_start(config, layer) {
            Ok(rt) => rt,
            Err(e) => panic!("runtime start: {e}"),
        }
    }

    /// [`ServiceRuntime::start`], surfacing WAL open/recovery failures.
    pub fn try_start(config: RuntimeConfig, mut layer: L) -> Result<ServiceRuntime<L>, WalError> {
        let core = ServiceCore::new(&config)?;
        let mut spawner = Spawner {
            threads: Vec::new(),
        };
        layer.start(&core, &mut spawner);
        let mut runtime = ServiceRuntime {
            core,
            layer,
            threads: spawner.threads,
            sync_interval: config.sync_interval,
        };
        if config.kind == StrategyKind::Replicated {
            runtime.spawn_sync_agent();
        }
        Ok(runtime)
    }

    fn spawn_sync_agent(&mut self) {
        // The agent replicates across the *boot-time* members. Elastic
        // joins under the replicated strategy get metadata through the
        // rebalance transfer; continuous agent coverage of late joiners
        // is future work (the agent's site list is fixed at spawn).
        let (_, sites) = self.core.membership();
        let agent_site = sites[0];
        let transport = self.layer.transport(&self.core, agent_site);
        let shutdown = Arc::clone(&self.core.shutdown);
        let stats = Arc::clone(&self.core.sync_stats);
        let interval = self.sync_interval;
        let mut spawner = Spawner {
            threads: std::mem::take(&mut self.threads),
        };
        spawner.spawn("sync-agent", move || {
            drive_sync_agent(&*transport, &sites, interval, &shutdown, &stats)
        });
        self.threads = spawner.threads;
    }

    /// The shared service core.
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The connection layer (e.g. to read bound socket addresses).
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// Create a client for a node at `site`.
    pub fn client(&self, site: SiteId, node: u32) -> StrategyClient<L::Transport> {
        StrategyClient::new(
            self.layer.transport(&self.core, site),
            Arc::clone(&self.core.controller),
            ClientConfig { site, node },
        )
    }

    /// The strategy controller (for runtime switching).
    pub fn controller(&self) -> &Arc<ArchitectureController> {
        &self.core.controller
    }

    /// Direct handle to a site's registry (diagnostics/tests).
    pub fn registry(&self, site: SiteId) -> Option<&Arc<RegistryInstance>> {
        self.core.registry(site)
    }

    /// Fault injection; see [`ServiceCore::fail_primary`].
    pub fn inject_registry_failure(&self, site: SiteId) -> bool {
        self.core.fail_primary(site)
    }

    /// The deployment's topology.
    pub fn topology(&self) -> &Topology {
        &self.core.topology
    }

    /// Stop and join every service thread. Idempotent; returns the number
    /// of threads joined (0 on a repeated call).
    pub fn shutdown(mut self) -> usize {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> usize {
        if self.core.shutdown.swap(true, Ordering::AcqRel) {
            return 0;
        }
        self.layer.unblock();
        let joined = self.threads.len();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Reconfigure transfers abort at the next chunk (they poll the
        // shutdown flag) — join them before the WALs close underneath.
        for t in self.core.background.lock().drain(..) {
            let _ = t.join();
        }
        // After every serving thread is gone: flush and stop the WALs
        // (site order, for a deterministic close sequence).
        for site in self.core.topology.site_ids() {
            if let Some(wal) = self.core.wals.get(&site) {
                wal.close();
            }
        }
        joined
    }
}

impl<L: ConnectionLayer> Drop for ServiceRuntime<L> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Entries per Absorb push issued by the sync agent. A recovering site
/// can face an arbitrarily large re-pulled window (rollback keeps the
/// window open while writes accumulate); pushing it as one message
/// would eventually exceed a network transport's frame/entry caps and
/// livelock replication. Bounded chunks (~a few hundred KB each) always
/// fit, and a mid-window failure just re-pulls — absorb is idempotent.
pub(crate) const SYNC_PUSH_CHUNK: usize = 4096;

/// Longest a failing site is skipped, in cycles (base backoff doubles
/// per consecutive failure up to this cap; jitter can add up to one
/// more base on top).
pub(crate) const SYNC_BACKOFF_CAP_CYCLES: u64 = 32;

/// Per-site pull backoff: consecutive failures double the number of
/// cycles the site is skipped (capped), plus deterministic seeded jitter
/// so multiple agents never re-probe a recovering site in lockstep.
struct PullBackoff {
    failures: u32,
    skip: u64,
    rng: SplitMix64,
}

impl PullBackoff {
    fn new(seed: u64, site: SiteId) -> PullBackoff {
        PullBackoff {
            failures: 0,
            skip: 0,
            rng: SplitMix64::new(seed).split(site.0 as u64),
        }
    }

    /// Returns true when the site should be skipped this cycle.
    fn should_skip(&mut self) -> bool {
        if self.skip > 0 {
            self.skip -= 1;
            return true;
        }
        false
    }

    fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        let base = (1u64 << (self.failures - 1).min(63)).min(SYNC_BACKOFF_CAP_CYCLES);
        // Skip [base, 2*base) cycles: exponential with full-base jitter.
        self.skip = base + self.rng.range_u64(base);
    }

    fn record_success(&mut self) {
        self.failures = 0;
        self.skip = 0;
    }
}

/// The generic sync-agent loop: poll every site for its delta through
/// `transport`, integrate, and push to the others — the inline and net
/// deployments run the exact same driver over their own transports.
///
/// Delivery is *acked*: pushes go through blocking `call` (the agent is
/// a background thread; the paper's agent is sequential anyway), because
/// a fire-and-forget `cast` may legitimately be dropped by a network
/// transport (bounded output buffer, unreachable peer) and the agent is the
/// replicated strategy's durability mechanism — it must not advance past
/// entries that never arrived. Failures roll the source watermark back
/// so the window is re-pulled and re-pushed next cycle (absorb is
/// idempotent, so double delivery is harmless).
///
/// A failed pull leaves the watermark untouched and puts the site on
/// capped exponential backoff with seeded jitter (a dead site is not
/// hammered every cycle; a recovering one is re-probed within a bounded,
/// de-synchronized number of cycles). Health counters land in `stats`.
pub(crate) fn drive_sync_agent<T: RegistryTransport>(
    transport: &T,
    sites: &[SiteId],
    interval: Duration,
    shutdown: &AtomicBool,
    stats: &SyncAgentStats,
) {
    let mut state = SyncAgentState::new(sites.to_vec());
    let mut backoff: Vec<PullBackoff> = sites
        .iter()
        .map(|&s| PullBackoff::new(0x5EED_A6E7, s))
        .collect();
    while !shutdown.load(Ordering::Acquire) {
        for (idx, &site) in sites.iter().enumerate() {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            if backoff[idx].should_skip() {
                stats.backoff_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let prev_watermark = state.watermark(site);
            let pull_time = transport.now_micros();
            let resp = transport.call(
                site,
                RegistryRequest::DeltaPull {
                    since: prev_watermark,
                },
            );
            let delta = match resp {
                RegistryResponse::Delta { entries } => {
                    backoff[idx].record_success();
                    entries
                }
                _ => {
                    // Pull failed: keep the watermark, back the site off.
                    stats.pull_failures.fetch_add(1, Ordering::Relaxed);
                    backoff[idx].record_failure();
                    continue;
                }
            };
            // Back the watermark off by 1us so same-tick writes are
            // re-pulled (absorb is idempotent).
            let pushes = state.integrate(site, delta, pull_time.saturating_sub(1));
            'pushes: for push in pushes {
                for chunk in push.entries.chunks(SYNC_PUSH_CHUNK) {
                    let resp = transport.call(
                        push.target,
                        RegistryRequest::Absorb {
                            entries: chunk.to_vec(),
                        },
                    );
                    if resp.into_ack().is_err() {
                        stats.push_failures.fetch_add(1, Ordering::Relaxed);
                        state.rollback_watermark(site, prev_watermark);
                        break 'pushes; // re-pull this window next cycle
                    }
                }
            }
        }
        state.cycle_done();
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileLocation;

    fn put_all(core: &Arc<ServiceCore>, ring: &ConsistentRing, n: usize) {
        for i in 0..n {
            let name = format!("f{i}");
            let owner = ring.owner(&name);
            let entry = RegistryEntry::new(
                &name,
                1,
                FileLocation {
                    site: owner,
                    node: 0,
                },
                i as u64 + 1,
            );
            core.serve(owner, RegistryRequest::Put { entry })
                .into_ack()
                .unwrap();
        }
    }

    /// Block until no transfer is in flight and the epoch reads `epoch`.
    fn wait_settled(core: &Arc<ServiceCore>, epoch: u64) {
        for _ in 0..5000 {
            {
                let m = core.membership.lock();
                if !m.rebalancing && m.epoch == epoch {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("reconfigure did not settle at epoch {epoch}");
    }

    fn elastic_config(members: &[u16]) -> RuntimeConfig {
        RuntimeConfig {
            kind: StrategyKind::DhtNonReplicated,
            members: Some(members.iter().map(|&s| SiteId(s)).collect()),
            rebalance_throttle: Duration::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn a_socket_less_runtime_owns_no_thread() {
        let rt = ServiceRuntime::start(
            RuntimeConfig {
                kind: StrategyKind::DhtLocalReplica,
                ..RuntimeConfig::default()
            },
            InlineLayer,
        );
        let client = rt.client(SiteId(1), 0);
        client.publish("inline.dat", 7).unwrap();
        assert_eq!(
            rt.client(SiteId(3), 0).resolve("inline.dat").unwrap().size,
            7
        );
        assert_eq!(rt.shutdown(), 0, "no layer threads, no agent, no worker");
    }

    #[test]
    fn join_rebalances_bounded_and_bumps_epoch() {
        let core = ServiceCore::new(&elastic_config(&[0, 1, 2])).unwrap();
        let old_ring = ConsistentRing::new((0..3).map(SiteId).collect(), RING_VNODES);
        let n = 1_000;
        put_all(&core, &old_ring, n);
        core.serve(
            SiteId(0),
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Join,
                site: SiteId(3),
            },
        )
        .into_ack()
        .unwrap();
        wait_settled(&core, 1);
        let (epoch, members) = core.membership();
        assert_eq!(epoch, 1);
        assert_eq!(members, (0..4).map(SiteId).collect::<Vec<_>>());
        // Every key is resolvable at its new owner, and only ~1/n of the
        // keys moved (the consistent-ring bound, with slack).
        let new_ring = ConsistentRing::new(members, RING_VNODES);
        for i in 0..n {
            let name = format!("f{i}");
            let owner = new_ring.owner(&name);
            assert!(
                core.registry(owner).unwrap().get(&name).is_ok(),
                "{name} missing at post-join owner {owner}"
            );
        }
        let moved = core.membership.lock().last_moved;
        assert!(moved > 0, "a join must pull keys to the new site");
        let frac = moved as f64 / n as f64;
        assert!(frac < 0.45, "join moved {frac} of the keys (bound ~0.25)");
        match core.serve(SiteId(3), RegistryRequest::Status) {
            RegistryResponse::Status { status } => {
                assert_eq!(status.epoch, 1);
                assert_eq!(status.members.len(), 4);
                assert!(!status.rebalancing);
                assert_eq!(status.last_moved, moved);
            }
            other => panic!("expected status, got {other:?}"),
        }
        for t in core.background.lock().drain(..) {
            t.join().unwrap();
        }
    }

    #[test]
    fn drain_copies_ahead_then_leave_flips() {
        let core = ServiceCore::new(&elastic_config(&[0, 1, 2, 3])).unwrap();
        let ring = ConsistentRing::new((0..4).map(SiteId).collect(), RING_VNODES);
        let n = 600;
        put_all(&core, &ring, n);
        // Drain: keys copied to their post-leave owners, nothing flips.
        core.serve(
            SiteId(0),
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Drain,
                site: SiteId(2),
            },
        )
        .into_ack()
        .unwrap();
        wait_settled(&core, 0);
        let (epoch, members) = core.membership();
        assert_eq!(epoch, 0, "drain must not bump the epoch");
        assert_eq!(members.len(), 4, "drain must not change membership");
        let drained = core.membership.lock().last_moved;
        assert!(drained > 0, "drain copies the departing site's keys");
        // Leave: epoch flips; every key lives at a surviving owner. The
        // second transfer re-plans, so the drain made it near-empty.
        core.serve(
            SiteId(0),
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Leave,
                site: SiteId(2),
            },
        )
        .into_ack()
        .unwrap();
        wait_settled(&core, 1);
        let (epoch, members) = core.membership();
        assert_eq!(epoch, 1);
        assert_eq!(members, vec![SiteId(0), SiteId(1), SiteId(3)]);
        let shrunk = ConsistentRing::new(members, RING_VNODES);
        for i in 0..n {
            let name = format!("f{i}");
            let owner = shrunk.owner(&name);
            assert_ne!(owner, SiteId(2));
            assert!(
                core.registry(owner).unwrap().get(&name).is_ok(),
                "{name} missing at post-leave owner {owner}"
            );
        }
        assert!(
            !core
                .controller()
                .strategy()
                .read_plan("f0", SiteId(0))
                .probes
                .is_empty(),
            "controller still serves plans after the switch"
        );
        for t in core.background.lock().drain(..) {
            t.join().unwrap();
        }
    }

    #[test]
    fn reconfigure_validates_targets() {
        let core = ServiceCore::new(&elastic_config(&[0, 1])).unwrap();
        let refuse =
            |op, site| match core.serve(SiteId(0), RegistryRequest::Reconfigure { op, site }) {
                RegistryResponse::Error { error } => error,
                other => panic!("expected refusal, got {other:?}"),
            };
        // Join of a current member / of a site outside the topology.
        assert_eq!(
            refuse(ReconfigureOp::Join, SiteId(1)),
            MetaError::Unavailable
        );
        assert_eq!(
            refuse(ReconfigureOp::Join, SiteId(9)),
            MetaError::Unavailable
        );
        // Leave/drain of a non-member.
        assert_eq!(
            refuse(ReconfigureOp::Leave, SiteId(3)),
            MetaError::Unavailable
        );
        assert_eq!(
            refuse(ReconfigureOp::Drain, SiteId(3)),
            MetaError::Unavailable
        );
        // A transfer in flight refuses concurrent reconfigures.
        core.membership.lock().rebalancing = true;
        assert_eq!(
            refuse(ReconfigureOp::Join, SiteId(2)),
            MetaError::Contention
        );
        core.membership.lock().rebalancing = false;
        // The last member cannot leave.
        let solo = ServiceCore::new(&elastic_config(&[0])).unwrap();
        match solo.serve(
            SiteId(0),
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Leave,
                site: SiteId(0),
            },
        ) {
            RegistryResponse::Error { error } => assert_eq!(error, MetaError::Unavailable),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn centralized_leave_rehomes_everything() {
        let mut config = elastic_config(&[0, 1, 2]);
        config.kind = StrategyKind::Centralized;
        let core = ServiceCore::new(&config).unwrap();
        for i in 0..50 {
            let name = format!("c{i}");
            let entry = RegistryEntry::new(
                &name,
                1,
                FileLocation {
                    site: SiteId(0),
                    node: 0,
                },
                i + 1,
            );
            core.serve(SiteId(0), RegistryRequest::Put { entry })
                .into_ack()
                .unwrap();
        }
        // Site 0 is the home; its leave must move every entry to the new
        // home (the next member in id order).
        core.serve(
            SiteId(1),
            RegistryRequest::Reconfigure {
                op: ReconfigureOp::Leave,
                site: SiteId(0),
            },
        )
        .into_ack()
        .unwrap();
        wait_settled(&core, 1);
        let (_, members) = core.membership();
        assert_eq!(members, vec![SiteId(1), SiteId(2)]);
        for i in 0..50 {
            let name = format!("c{i}");
            assert!(
                core.registry(SiteId(1)).unwrap().get(&name).is_ok(),
                "{name} missing at the new home"
            );
        }
        for t in core.background.lock().drain(..) {
            t.join().unwrap();
        }
    }

    #[test]
    fn failed_pull_keeps_the_watermark() {
        // A transport whose DeltaPull to site 1 always errors: the agent
        // must keep polling it with `since == 0` rather than advancing
        // past updates it never saw.
        struct Flaky {
            pulls: std::sync::Mutex<Vec<(SiteId, u64)>>,
        }
        impl RegistryTransport for Flaky {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                if let RegistryRequest::DeltaPull { since } = req {
                    self.pulls.lock().unwrap().push((target, since));
                }
                if target == SiteId(1) {
                    RegistryResponse::Error {
                        error: MetaError::Unavailable,
                    }
                } else {
                    RegistryResponse::Delta {
                        entries: Vec::new(),
                    }
                }
            }
            fn cast(&self, _target: SiteId, _req: RegistryRequest) {}
            fn now_micros(&self) -> u64 {
                42
            }
            fn sites(&self) -> Vec<SiteId> {
                vec![SiteId(0), SiteId(1)]
            }
        }
        let transport = Flaky {
            pulls: std::sync::Mutex::new(Vec::new()),
        };
        let shutdown = AtomicBool::new(false);
        let stats = SyncAgentStats::default();
        let sites = [SiteId(0), SiteId(1)];
        // Run enough cycles that site 1 is re-probed at least once
        // through its backoff; a watcher thread flips the flag.
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(80));
                shutdown.store(true, Ordering::Release);
            });
            drive_sync_agent(
                &transport,
                &sites,
                Duration::from_millis(2),
                &shutdown,
                &stats,
            );
        });
        let snap = stats.snapshot();
        assert!(snap.pull_failures >= 2, "failures counted: {snap:?}");
        assert!(snap.backoff_skips >= 1, "failing site backed off: {snap:?}");
        let pulls = transport.pulls.lock().unwrap();
        let site1: Vec<u64> = pulls
            .iter()
            .filter(|(s, _)| *s == SiteId(1))
            .map(|(_, since)| *since)
            .collect();
        assert!(site1.len() >= 2, "agent ran at least two cycles");
        assert!(
            site1.iter().all(|&w| w == 0),
            "failed pulls must not advance the watermark: {site1:?}"
        );
        let site0: Vec<u64> = pulls
            .iter()
            .filter(|(s, _)| *s == SiteId(0))
            .map(|(_, since)| *since)
            .collect();
        assert!(
            site0.iter().skip(1).all(|&w| w == 41),
            "successful pulls advance to pull_time-1: {site0:?}"
        );
    }

    #[test]
    fn failed_push_rolls_the_watermark_back() {
        use crate::entry::{FileLocation, RegistryEntry};
        // Site 0 always has a delta; pushes to site 1 always fail. The
        // agent must keep re-pulling site 0 from 0 (rollback), not
        // advance past entries site 1 never received.
        struct PushBlackhole {
            pulls: std::sync::Mutex<Vec<u64>>,
        }
        impl RegistryTransport for PushBlackhole {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                match req {
                    RegistryRequest::DeltaPull { since } => {
                        if target == SiteId(0) {
                            self.pulls.lock().unwrap().push(since);
                            RegistryResponse::Delta {
                                entries: vec![RegistryEntry::new(
                                    "f",
                                    1,
                                    FileLocation {
                                        site: SiteId(0),
                                        node: 0,
                                    },
                                    5,
                                )],
                            }
                        } else {
                            RegistryResponse::Delta {
                                entries: Vec::new(),
                            }
                        }
                    }
                    RegistryRequest::Absorb { .. } => RegistryResponse::Error {
                        error: MetaError::Unavailable,
                    },
                    _ => RegistryResponse::Ack,
                }
            }
            fn cast(&self, _target: SiteId, _req: RegistryRequest) {}
            fn now_micros(&self) -> u64 {
                42
            }
            fn sites(&self) -> Vec<SiteId> {
                vec![SiteId(0), SiteId(1)]
            }
        }
        let transport = PushBlackhole {
            pulls: std::sync::Mutex::new(Vec::new()),
        };
        let shutdown = AtomicBool::new(false);
        let stats = SyncAgentStats::default();
        let sites = [SiteId(0), SiteId(1)];
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(30));
                shutdown.store(true, Ordering::Release);
            });
            drive_sync_agent(
                &transport,
                &sites,
                Duration::from_millis(5),
                &shutdown,
                &stats,
            );
        });
        let pulls = transport.pulls.lock().unwrap();
        assert!(pulls.len() >= 2, "agent ran at least two cycles");
        assert!(
            pulls.iter().all(|&w| w == 0),
            "undelivered pushes must roll the watermark back for a re-pull: {pulls:?}"
        );
        assert!(stats.snapshot().push_failures >= 2, "push failures counted");
    }

    #[test]
    fn pull_backoff_is_capped_exponential_with_jitter() {
        let mut b = PullBackoff::new(0x5EED_A6E7, SiteId(3));
        let mut prev_base = 0u64;
        for failure in 1..=12u32 {
            b.record_failure();
            let base = (1u64 << (failure - 1).min(63)).min(SYNC_BACKOFF_CAP_CYCLES);
            assert!(
                b.skip >= base && b.skip < 2 * base,
                "failure {failure}: skip {} outside [{base}, {})",
                b.skip,
                2 * base
            );
            assert!(base >= prev_base, "backoff never shrinks under failures");
            assert!(base <= SYNC_BACKOFF_CAP_CYCLES, "backoff capped");
            prev_base = base;
        }
        // Every skipped cycle decrements; success resets instantly.
        let skip = b.skip;
        assert!(b.should_skip());
        assert_eq!(b.skip, skip - 1);
        b.record_success();
        assert!(!b.should_skip());
        // Determinism: same seed + site → identical jitter sequence.
        let mut c = PullBackoff::new(0x5EED_A6E7, SiteId(3));
        let mut d = PullBackoff::new(0x5EED_A6E7, SiteId(3));
        for _ in 0..8 {
            c.record_failure();
            d.record_failure();
            assert_eq!(c.skip, d.skip);
        }
        // ...and different sites de-synchronize.
        let mut e = PullBackoff::new(0x5EED_A6E7, SiteId(0));
        let mut f = PullBackoff::new(0x5EED_A6E7, SiteId(1));
        let seqs: Vec<(u64, u64)> = (0..8)
            .map(|_| {
                e.record_failure();
                f.record_failure();
                (e.skip, f.skip)
            })
            .collect();
        assert!(
            seqs.iter().any(|(a, b)| a != b),
            "sites must not back off in lockstep: {seqs:?}"
        );
    }

    #[test]
    fn oversized_windows_push_in_bounded_chunks() {
        use crate::entry::{FileLocation, RegistryEntry};
        // A re-pulled window larger than one frame can carry must go out
        // as several bounded Absorbs, not one undeliverable message.
        let n_entries = SYNC_PUSH_CHUNK * 2 + 17;
        struct BigDelta {
            served: std::sync::atomic::AtomicBool,
            n: usize,
            absorb_sizes: std::sync::Mutex<Vec<usize>>,
        }
        impl RegistryTransport for BigDelta {
            fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
                match req {
                    RegistryRequest::DeltaPull { .. } => {
                        if target == SiteId(0) && !self.served.swap(true, Ordering::AcqRel) {
                            RegistryResponse::Delta {
                                entries: (0..self.n)
                                    .map(|i| {
                                        RegistryEntry::new(
                                            format!("f{i}"),
                                            1,
                                            FileLocation {
                                                site: SiteId(0),
                                                node: 0,
                                            },
                                            5,
                                        )
                                    })
                                    .collect(),
                            }
                        } else {
                            RegistryResponse::Delta {
                                entries: Vec::new(),
                            }
                        }
                    }
                    RegistryRequest::Absorb { entries } => {
                        self.absorb_sizes.lock().unwrap().push(entries.len());
                        RegistryResponse::Ack
                    }
                    _ => RegistryResponse::Ack,
                }
            }
            fn cast(&self, _target: SiteId, _req: RegistryRequest) {}
            fn now_micros(&self) -> u64 {
                42
            }
            fn sites(&self) -> Vec<SiteId> {
                vec![SiteId(0), SiteId(1)]
            }
        }
        let transport = BigDelta {
            served: std::sync::atomic::AtomicBool::new(false),
            n: n_entries,
            absorb_sizes: std::sync::Mutex::new(Vec::new()),
        };
        let shutdown = AtomicBool::new(false);
        let stats = SyncAgentStats::default();
        let sites = [SiteId(0), SiteId(1)];
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                shutdown.store(true, Ordering::Release);
            });
            drive_sync_agent(
                &transport,
                &sites,
                Duration::from_millis(5),
                &shutdown,
                &stats,
            );
        });
        let sizes = transport.absorb_sizes.lock().unwrap();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            n_entries,
            "window delivered whole"
        );
        assert!(
            sizes.iter().all(|&s| s <= SYNC_PUSH_CHUNK),
            "every push bounded: {sizes:?}"
        );
        assert!(sizes.len() >= 3, "window split into chunks: {sizes:?}");
    }
}
