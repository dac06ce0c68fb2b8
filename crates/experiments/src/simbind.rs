//! Binding the metadata middleware into the discrete-event simulator.
//!
//! The registry actors wrap **real** [`RegistryInstance`]s — the same code
//! the service runs — behind a FIFO service queue, so
//! merge semantics, OCC and delta queries in the simulation are the
//! genuine article, while timing (WAN latency, service time, congestion)
//! is modeled.
//!
//! Three kinds of actors:
//! * [`RegistryActor`] — one per registry site; serves requests after
//!   queueing + congestion-inflated service time;
//! * [`SyntheticClientActor`] — a §VI-B benchmark node (writer or reader);
//! * [`WorkflowNodeActor`] — an execution node running its share of a
//!   workflow DAG, resolving inputs through the registry (with polling
//!   retries) and publishing outputs;
//!
//! plus [`SyncAgentActor`], the replicated strategy's synchronization
//! agent driven by the transport-agnostic [`SyncAgentState`].
//!
//! The two client actors drive the op machines the service's
//! `StrategyClient` drives ([`PublishOp`], [`ResolveOp`]), so the paper's
//! operation semantics are the same code in both. What a client does on
//! a timeout, a crash, a retry budget or a hard error stays in its actor.

use crate::calibration::Calibration;
use geometa_core::controller::build_strategy;
use geometa_core::entry::{FileLocation, RegistryEntry};
use geometa_core::lazy::LazyBatcher;
use geometa_core::op::{Outcome, PublishOp, ResolveOp, Step};
use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::registry::RegistryInstance;
use geometa_core::strategy::{MetadataStrategy, StrategyKind};
use geometa_core::sync_agent::{SyncAgentState, SyncPush};
use geometa_core::wal::{log_acked_writes, MemWal};
use geometa_core::FxHashMap;
use geometa_sim::oracle::SharedOpLog;
use geometa_sim::prelude::*;
use geometa_sim::server::ServiceTime;
use geometa_workflow::apps::synthetic::{Role, SyntheticSpec};
use geometa_workflow::dag::Workflow;
use geometa_workflow::scheduler::Placement;
use std::sync::Arc;

/// Marker op-id for fire-and-forget requests (no response expected).
pub(crate) const CAST_OP: u64 = u64::MAX;

const TAG_NEXT_OP: u64 = 1;
const TAG_RETRY: u64 = 2;
const TAG_AGENT_CYCLE: u64 = 3;
const TAG_COMPUTE: u64 = 4;
const TAG_AGENT_PROCESS: u64 = 5;
const TAG_OP_TIMEOUT: u64 = 6;
const TAG_LAZY_FLUSH: u64 = 7;

/// A client's line to the registries, shared by every actor that calls
/// them: one call in flight at a time under a fresh op id, and — in chaos
/// mode only, so healthy event streams stay byte-identical — a timeout
/// armed while it is unanswered. `clear` *cancels* the queued timer —
/// crucially also from `on_fault(Crashed)` handlers: the engine only
/// drops timers that fire while the site is down, so a pre-crash timer
/// that outlives the outage would otherwise fire spuriously after
/// restart and orphan the recovery path's fresh timer.
struct RegistryLink {
    registries: Arc<FxHashMap<SiteId, ActorId>>,
    /// Op id of the call in flight; a reply carrying any other is stale.
    seq: u64,
    /// The in-flight timeout (chaos mode only).
    timeout: Option<SimDuration>,
    timer: Option<TimerId>,
}

impl RegistryLink {
    fn new(registries: &Arc<FxHashMap<SiteId, ActorId>>, cfg: &SimConfig) -> RegistryLink {
        RegistryLink {
            registries: Arc::clone(registries),
            seq: 0,
            timeout: cfg.chaos_mode().then_some(cfg.cal.op_timeout),
            timer: None,
        }
    }

    /// Send `req` as an op machine's `step` says: a call under a fresh op
    /// id, (re-)arming the timeout; a cast fire-and-forget.
    fn send(&mut self, ctx: &mut Ctx<Msg>, step: &Step, req: RegistryRequest) {
        let (site, op) = match *step {
            Step::Call(site) => {
                self.seq += 1;
                (site, self.seq)
            }
            Step::Cast(site) => (site, CAST_OP),
            Step::Wait(_) | Step::Done(_) => unreachable!("only calls and casts send"),
        };
        let size = req.wire_size();
        ctx.send(self.registries[&site], Msg::Req { op, req }, size);
        if let (Step::Call(_), Some(after)) = (step, self.timeout) {
            self.clear(ctx);
            self.timer = Some(ctx.set_timer(after, TAG_OP_TIMEOUT));
        }
    }

    /// Whether `op` answers the call in flight. Accepting consumes the op
    /// id (a chaos-duplicated reply must not complete anything twice) and
    /// cancels the timeout.
    fn accept(&mut self, ctx: &mut Ctx<Msg>, op: u64) -> bool {
        if op != self.seq {
            return false;
        }
        self.seq += 1;
        self.clear(ctx);
        true
    }

    /// Cancel the pending timeout (going idle, crash).
    fn clear(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// The timeout fired; its handle is spent.
    fn fired(&mut self) {
        self.timer = None;
    }
}

/// Messages exchanged in the simulated deployment.
#[derive(Clone, Debug)]
pub(crate) enum Msg {
    /// Client/agent → registry.
    Req {
        /// Correlation id ([`CAST_OP`] = no response wanted).
        op: u64,
        /// The request.
        req: RegistryRequest,
    },
    /// Registry → requester.
    Resp {
        /// Correlation id of the request.
        op: u64,
        /// The response.
        resp: RegistryResponse,
    },
}

/// Simulation-wide configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Strategy under test.
    pub kind: StrategyKind,
    /// Site layout.
    pub topology: Topology,
    /// Master seed.
    pub seed: u64,
    /// Testbed constants.
    pub cal: Calibration,
    /// Override for the centralized strategy's home site (defaults to the
    /// first site). Fig. 1 moves the registry between distance classes.
    pub centralized_home: Option<SiteId>,
    /// Deterministic fault plan. A non-empty schedule flips the binding
    /// into *chaos mode*: clients arm per-request timeouts and recover
    /// from crash notices. Empty (the default) leaves every event stream
    /// byte-identical to pre-fault-injection builds.
    pub faults: FaultSchedule,
    /// When set, actors record acked writes and lazy-propagation
    /// accounting for the invariant oracle.
    pub op_log: Option<SharedOpLog>,
    /// Route synthetic writers' lazy pushes through a real
    /// [`LazyBatcher`] `(max_batch, max_age)` instead of eager per-entry
    /// casts, exercising flush-on-crash semantics. `None` (the default)
    /// keeps the eager path.
    pub lazy_batch: Option<(usize, SimDuration)>,
    /// Kill-and-recover mode: registry actors append every acked write
    /// to an in-memory [`MemWal`] (the DES stand-in for the file-backed
    /// log), a crash wipes the instance — full process-kill amnesia, not
    /// just a cache-primary failover — and the restart path replays
    /// snapshot + tail before the site serves again. `false` (the
    /// default) keeps the legacy crash semantics and event streams
    /// byte-identical.
    pub wal: bool,
}

impl SimConfig {
    /// Standard config: Azure 4-DC topology, default calibration.
    pub fn new(kind: StrategyKind, seed: u64) -> SimConfig {
        SimConfig {
            kind,
            topology: Topology::azure_4dc(),
            seed,
            cal: Calibration::default(),
            centralized_home: None,
            faults: FaultSchedule::new(),
            op_log: None,
            lazy_batch: None,
            wal: false,
        }
    }

    /// True when a fault schedule is installed (clients run their
    /// chaos-mode recovery machinery).
    pub(crate) fn chaos_mode(&self) -> bool {
        !self.faults.is_empty()
    }
}

/// Which site a synthetic-benchmark node runs in: writer/reader pairs are
/// dealt round-robin across sites, so each site gets an even mix of both
/// roles ("32 nodes evenly distributed in our datacenters").
pub(crate) fn site_of_node(node: usize, n_sites: usize) -> SiteId {
    SiteId(((node / 2) % n_sites) as u16)
}

// ---------------------------------------------------------------------
// Registry actor
// ---------------------------------------------------------------------

/// Floor on the records the simulated WAL piles up past the last
/// snapshot before it snapshots + truncates (exercises the truncation
/// path inside the DES). Above the floor the live runtime's rule applies,
/// through the same `log_acked_writes`: the log must also be as long as
/// the last snapshot.
const SIM_SNAPSHOT_EVERY: u64 = 32;

/// One site's registry service inside the simulation.
pub(crate) struct RegistryActor {
    instance: Arc<RegistryInstance>,
    queue: ServiceQueue,
    cal: Calibration,
    /// Kill-and-recover mode: the site's simulated write-ahead log. Acked
    /// writes are appended before the response leaves; a crash wipes the
    /// instance and the restart replays snapshot + tail out of here.
    wal: Option<Arc<MemWal>>,
}

impl RegistryActor {
    fn new(
        instance: Arc<RegistryInstance>,
        cal: Calibration,
        seed: u64,
        wal: Option<Arc<MemWal>>,
    ) -> RegistryActor {
        RegistryActor {
            instance,
            queue: ServiceQueue::new(ServiceTime::Exponential(cal.registry_service), seed),
            cal,
            wal,
        }
    }
}

impl Actor<Msg> for RegistryActor {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
        let Msg::Req { op, req } = env.msg else {
            return;
        };
        let now = ctx.now();
        // Batched absorbs are cheap per entry; everything else is one unit.
        let weight = match &req {
            RegistryRequest::Absorb { entries } => {
                (entries.len() as f64 * self.cal.absorb_weight).max(self.cal.absorb_weight)
            }
            _ => 1.0,
        };
        // Congestion: service inflates with the backlog (the paper's
        // "near-exponential" overload behaviour of the shared instance).
        let base = self.queue.base_service_time().as_micros().max(1) as f64;
        let outstanding =
            (self.queue.backlog(now).as_micros() as f64 / base).min(self.cal.congestion_cap);
        let factor = weight * (1.0 + self.cal.congestion_alpha * outstanding);
        let done = self.queue.admit_scaled(now, factor);
        // Serve against the real registry, stamped with the completion time.
        let logged = match &self.wal {
            Some(_) if req.is_write() => Some(req.clone()),
            _ => None,
        };
        let resp = self.instance.serve(req, done.as_micros());
        // WAL the write before its ack can leave the site, mirroring the
        // live runtime's durable-ack ordering: anything a client may
        // observe as acknowledged is on the (simulated) log.
        if let (Some(wal), Some(req), RegistryResponse::Ack) = (&self.wal, logged, &resp) {
            log_acked_writes(
                &**wal,
                std::slice::from_ref(&req),
                done.as_micros(),
                SIM_SNAPSHOT_EVERY,
                &self.instance,
            )
            .expect("MemWal append cannot fail");
        }
        ctx.metrics().incr("registry_ops", 1);
        if op != CAST_OP {
            let size = resp.wire_size();
            ctx.send_delayed(env.from, Msg::Resp { op, resp }, size, done - now);
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<Msg>, notice: FaultNotice) {
        match notice {
            FaultNotice::Crashed => {
                if self.wal.is_some() {
                    // Kill-and-recover tier: the whole process dies.
                    // Every in-memory entry — primary *and* replica — is
                    // gone; only the WAL (modelling the on-disk log)
                    // survives the outage.
                    let lost = self.instance.wipe();
                    ctx.metrics().incr("registry_kills", 1);
                    ctx.metrics().incr("registry_entries_lost", lost as u64);
                } else {
                    // The crash takes the primary cache process down with
                    // it; the HA replica survives. The first request after
                    // restart hits `Unavailable` and drives the real
                    // HaCache primary→replica promotion.
                    self.instance.fail_primary();
                }
                ctx.metrics().incr("registry_crashes", 1);
            }
            FaultNotice::Restarted => {
                if let Some(wal) = &self.wal {
                    // Recovery: the same snapshot-then-tail replay a
                    // restarted live site runs.
                    let rec = wal.recovery();
                    rec.replay_into(&self.instance);
                    ctx.metrics().incr(
                        "registry_replayed",
                        (rec.entries.len() + rec.tail.len()) as u64,
                    );
                }
                ctx.metrics().incr("registry_restarts", 1);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Synthetic benchmark client
// ---------------------------------------------------------------------

enum ClientPhase {
    Idle,
    Write {
        entry: RegistryEntry,
        op: PublishOp,
    },
    Read {
        /// Interned once per operation; every probe/retry clones the handle.
        key: geometa_core::Key,
        op: ResolveOp,
    },
}

/// A §VI-B benchmark node: a writer posting consecutive entries or a
/// reader fetching random ones, in a closed loop with per-op overhead.
///
/// In chaos mode (a fault schedule is installed) the client additionally
/// arms a timeout per in-flight request and re-sends on expiry (puts are
/// merge-idempotent, so a re-send after a lost ack is safe), survives
/// crashes of its own site by restarting its closed loop, and can route
/// lazy propagation through a real [`LazyBatcher`] whose unflushed tail
/// is retried — never silently dropped — after a crash.
pub(crate) struct SyntheticClientActor {
    spec: SyntheticSpec,
    node: usize,
    site: SiteId,
    role: Role,
    strategy: Arc<dyn MetadataStrategy>,
    link: RegistryLink,
    cal: Calibration,
    ops_done: usize,
    phase: ClientPhase,
    key_rng: geometa_sim::rng::SplitMix64,
    finished: bool,
    op_log: Option<SharedOpLog>,
    batcher: Option<LazyBatcher>,
    lazy_max_age: SimDuration,
    lazy_flush_timer: Option<TimerId>,
}

impl SyntheticClientActor {
    fn begin_op(&mut self, ctx: &mut Ctx<Msg>) {
        if self.ops_done >= self.spec.ops_per_node {
            if self.finished {
                return; // a post-completion restart must not double-count
            }
            self.finished = true;
            self.drain_batcher(ctx);
            let now = ctx.now();
            ctx.metrics().incr("clients_done", 1);
            ctx.metrics().complete("node_done", now);
            ctx.metrics()
                .complete(&format!("node_done_site{}", self.site.0), now);
            return;
        }
        match self.role {
            Role::Writer => {
                let key = self.spec.writer_key(self.node, self.ops_done);
                let entry = RegistryEntry::new(
                    &key,
                    0, // empty files, like the paper's benchmark
                    FileLocation {
                        site: self.site,
                        node: self.node as u32,
                    },
                    ctx.now().as_micros(),
                );
                let mut op = PublishOp::new(self.site);
                let step = op.start(self.strategy.write_plan(&key, self.site));
                let put = RegistryRequest::Put {
                    entry: entry.clone(),
                };
                self.link.send(ctx, &step, put);
                self.phase = ClientPhase::Write { entry, op };
            }
            Role::Reader => {
                let key = geometa_core::Key::from(self.spec.reader_key(
                    self.node,
                    self.ops_done,
                    &mut self.key_rng,
                ));
                // The retry budget counts retries; the machine, attempts.
                let mut op = ResolveOp::new(self.site, self.cal.max_read_retries + 1);
                let step = op.start(self.strategy.read_plan_key(&key, self.site));
                let get = RegistryRequest::Get { key: key.clone() };
                self.link.send(ctx, &step, get);
                self.phase = ClientPhase::Read { key, op };
            }
        }
    }

    /// Re-send the op in flight from its start: after a timeout, after a
    /// restart, or (for a read) after its retry backoff. A read probes its
    /// plan from the first site again.
    fn resend(&mut self, ctx: &mut Ctx<Msg>) {
        match &mut self.phase {
            ClientPhase::Write { entry, op } => {
                let put = RegistryRequest::Put {
                    entry: entry.clone(),
                };
                self.link.send(ctx, &op.current(), put);
            }
            ClientPhase::Read { key, op } => {
                let get = RegistryRequest::Get { key: key.clone() };
                self.link.send(ctx, &op.restart(), get);
            }
            ClientPhase::Idle => {}
        }
    }

    /// Push `entry` lazily to `target`: into the batcher when one is
    /// configured, as an eager per-entry cast otherwise.
    fn push_lazily(&mut self, ctx: &mut Ctx<Msg>, target: SiteId, entry: &RegistryEntry) {
        let Some(batcher) = &mut self.batcher else {
            let push = RegistryRequest::Absorb {
                entries: vec![entry.clone()],
            };
            self.link.send(ctx, &Step::Cast(target), push);
            ctx.metrics().incr("async_pushes", 1);
            return;
        };
        if let Some(log) = &self.op_log {
            log.lock().record_lazy_enqueued(1);
        }
        if let Some(batch) = batcher.enqueue(target, entry.clone(), ctx.now()) {
            self.ship_batch(ctx, batch);
        }
    }

    /// Ship one ready batch of lazy updates (counted for the oracle).
    fn ship_batch(&mut self, ctx: &mut Ctx<Msg>, batch: geometa_core::lazy::ReadyBatch) {
        if let Some(log) = &self.op_log {
            log.lock().record_lazy_flushed(batch.entries.len() as u64);
        }
        ctx.metrics().incr("async_pushes", 1);
        let push = RegistryRequest::Absorb {
            entries: batch.entries,
        };
        self.link.send(ctx, &Step::Cast(batch.target), push);
    }

    /// Flush everything the batcher holds (completion drain or
    /// crash-recovery retry).
    fn drain_batcher(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some(t) = self.lazy_flush_timer.take() {
            ctx.cancel_timer(t);
        }
        let Some(batcher) = &mut self.batcher else {
            return;
        };
        for batch in batcher.flush_all() {
            self.ship_batch(ctx, batch);
        }
    }

    fn ensure_lazy_flush_timer(&mut self, ctx: &mut Ctx<Msg>) {
        let pending = self.batcher.as_ref().is_some_and(|b| b.pending() > 0);
        if pending && self.lazy_flush_timer.is_none() {
            self.lazy_flush_timer = Some(ctx.set_timer(self.lazy_max_age, TAG_LAZY_FLUSH));
        }
    }

    fn complete_op(&mut self, ctx: &mut Ctx<Msg>, missed: bool) {
        let now = ctx.now();
        ctx.metrics().complete("ops", now);
        if missed {
            ctx.metrics().incr("read_miss", 1);
        }
        self.ops_done += 1;
        self.phase = ClientPhase::Idle;
        // Closed loop: client-side overhead (±10% jitter so nodes don't
        // march in lockstep) plus any modeled computation.
        let jitter = 1.0 + ctx.rng().jitter(0.1);
        let pause = self.cal.client_overhead.mul_f64(jitter) + self.spec.compute_per_op;
        ctx.set_timer(pause, TAG_NEXT_OP);
    }
}

impl Actor<Msg> for SyntheticClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        // Staggered start within one overhead period.
        let stagger = self.cal.client_overhead.mul_f64(ctx.rng().uniform_f64())
            + SimDuration::from_micros(ctx.rng().range_u64(1_000));
        ctx.set_timer(stagger, TAG_NEXT_OP);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _id: TimerId, tag: u64) {
        match tag {
            TAG_NEXT_OP => self.begin_op(ctx),
            TAG_RETRY => {
                if let ClientPhase::Read { .. } = self.phase {
                    self.resend(ctx);
                }
            }
            TAG_OP_TIMEOUT => {
                // The request went unanswered (lost request, lost response
                // or crashed registry): re-send it under a fresh op id, so
                // a late original response is ignored.
                self.link.fired();
                ctx.metrics().incr("op_timeouts", 1);
                self.resend(ctx);
            }
            TAG_LAZY_FLUSH => {
                self.lazy_flush_timer = None;
                let now = ctx.now();
                if let Some(batcher) = &mut self.batcher {
                    for batch in batcher.poll_expired(now) {
                        self.ship_batch(ctx, batch);
                    }
                }
                self.ensure_lazy_flush_timer(ctx);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<Msg>, notice: FaultNotice) {
        match notice {
            FaultNotice::Crashed => {
                // Every pending lazy entry is *reported*: the restart path
                // below retries them, and the oracle asserts none vanish.
                let pending = self.batcher.as_ref().map_or(0, |b| b.pending() as u64);
                if pending > 0 {
                    if let Some(log) = &self.op_log {
                        log.lock().record_lazy_pending_at_crash(pending);
                    }
                    ctx.metrics().incr("lazy_pending_at_crash", pending);
                }
                // Cancel outstanding timers: the engine only drops timers
                // that fire *during* the outage, so one armed pre-crash
                // could outlive the window and fire spuriously after the
                // restart path armed its own.
                self.link.clear(ctx);
                if let Some(t) = self.lazy_flush_timer.take() {
                    ctx.cancel_timer(t);
                }
            }
            FaultNotice::Restarted => {
                if self.finished {
                    return;
                }
                ctx.metrics().incr("client_restarts", 1);
                // Retry the batched-but-unflushed lazy pushes: the entries
                // are durable in the local registry, so the recovered node
                // re-ships them rather than dropping them.
                if self.batcher.as_ref().is_some_and(|b| b.pending() > 0) {
                    ctx.metrics().incr("lazy_retried_after_crash", 1);
                    self.drain_batcher(ctx);
                }
                match &self.phase {
                    // Mid-flight op: re-send it under a fresh op id.
                    ClientPhase::Write { .. } | ClientPhase::Read { .. } => self.resend(ctx),
                    // Between ops: the next-op timer was lost; re-arm it.
                    ClientPhase::Idle => {
                        let pause = self.cal.client_overhead;
                        ctx.set_timer(pause, TAG_NEXT_OP);
                    }
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
        let Msg::Resp { op, resp } = env.msg else {
            return;
        };
        if !self.link.accept(ctx, op) {
            return; // stale response from an abandoned probe
        }
        match std::mem::replace(&mut self.phase, ClientPhase::Idle) {
            ClientPhase::Write { entry, mut op } => {
                let mut step = op.on_reply(&resp);
                if !matches!(step, Step::Done(Outcome::Error(_))) {
                    // Write acknowledged: from here on losing it is a
                    // safety violation the oracle will catch.
                    if let Some(log) = &self.op_log {
                        log.lock().record_write_acked(
                            entry.name.as_str(),
                            op.sync_target(),
                            ctx.now(),
                        );
                    }
                }
                while let Step::Cast(target) = step {
                    self.push_lazily(ctx, target, &entry);
                    step = op.pushed();
                }
                self.ensure_lazy_flush_timer(ctx);
                self.complete_op(ctx, false);
            }
            ClientPhase::Read { key, mut op } => match op.on_reply(&resp) {
                Step::Done(Outcome::Hit { local }) => {
                    let reads = if local {
                        "local_read_hits"
                    } else {
                        "remote_reads"
                    };
                    ctx.metrics().incr(reads, 1);
                    self.complete_op(ctx, false);
                }
                step @ Step::Call(_) => {
                    let get = RegistryRequest::Get { key: key.clone() };
                    self.link.send(ctx, &step, get);
                    self.phase = ClientPhase::Read { key, op };
                }
                Step::Wait(_) => {
                    ctx.metrics().incr("read_retries", 1);
                    self.phase = ClientPhase::Read { key, op };
                    ctx.set_timer(self.cal.read_retry_backoff, TAG_RETRY);
                }
                // Out of retries, or a hard error: the read missed.
                Step::Done(_) | Step::Cast(_) => self.complete_op(ctx, true),
            },
            ClientPhase::Idle => {}
        }
    }
}

// ---------------------------------------------------------------------
// Sync agent actor (replicated strategy)
// ---------------------------------------------------------------------

/// The replicated strategy's synchronization agent: sequentially pulls
/// deltas from every instance and pushes them to the others, one push at a
/// time ("it sequentially queries the instances for updates and propagates
/// them to the rest of the set"). The serial pull→process→push cycle is
/// precisely why the single agent saturates under metadata-intensive load
/// (paper Fig. 7, >32 nodes).
pub(crate) struct SyncAgentActor {
    state: SyncAgentState,
    link: RegistryLink,
    order: Vec<SiteId>,
    idx: usize,
    cal: Calibration,
    n_clients: u64,
    pull_sent_at: SimTime,
    pending_pushes: Vec<SyncPush>,
    /// The push whose ack is outstanding (re-sent on timeout or restart).
    in_flight_push: Option<SyncPush>,
    awaiting_push_ack: bool,
    draining: bool,
}

impl SyncAgentActor {
    fn send_pull(&mut self, ctx: &mut Ctx<Msg>) {
        let site = self.order[self.idx];
        let since = self.state.watermark(site);
        self.pull_sent_at = ctx.now();
        let pull = RegistryRequest::DeltaPull { since };
        self.link.send(ctx, &Step::Call(site), pull);
    }

    fn send_push(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(push) = &self.in_flight_push else {
            return;
        };
        self.awaiting_push_ack = true;
        let absorb = RegistryRequest::Absorb {
            entries: push.entries.clone(),
        };
        self.link.send(ctx, &Step::Call(push.target), absorb);
    }

    /// Ship the next pending push synchronously, or move to the next site.
    fn next_push_or_advance(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some(push) = self.pending_pushes.pop() {
            self.in_flight_push = Some(push);
            self.send_push(ctx);
            return;
        }
        self.awaiting_push_ack = false;
        self.advance(ctx);
    }

    fn advance(&mut self, ctx: &mut Ctx<Msg>) {
        self.idx += 1;
        if self.idx < self.order.len() {
            self.send_pull(ctx);
            return;
        }
        self.state.cycle_done();
        ctx.metrics().incr("sync_cycles", 1);
        let all_done = ctx.metrics().counter("clients_done") >= self.n_clients;
        if all_done {
            if self.draining {
                self.link.clear(ctx);
                return; // final drain cycle finished; stop scheduling
            }
            self.draining = true;
        }
        let pause = if self.draining {
            SimDuration::ZERO
        } else {
            self.cal.agent_interval
        };
        self.idx = 0;
        self.link.clear(ctx);
        ctx.set_timer(pause, TAG_AGENT_CYCLE);
    }
}

impl Actor<Msg> for SyncAgentActor {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.send_pull(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _id: TimerId, tag: u64) {
        match tag {
            TAG_AGENT_CYCLE => self.send_pull(ctx),
            TAG_AGENT_PROCESS => {
                self.next_push_or_advance(ctx);
            }
            TAG_OP_TIMEOUT => {
                // The in-flight pull or push went unanswered (crashed or
                // partitioned registry). Re-send it; the sequence check
                // ignores a late original response.
                self.link.fired();
                ctx.metrics().incr("agent_timeouts", 1);
                if self.awaiting_push_ack {
                    self.send_push(ctx);
                } else {
                    self.send_pull(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<Msg>, notice: FaultNotice) {
        match notice {
            FaultNotice::Crashed => {
                // Cancel rather than forget: a pre-crash timer may outlive
                // the outage (see [`RegistryLink`]).
                self.link.clear(ctx);
            }
            FaultNotice::Restarted => {
                ctx.metrics().incr("agent_restarts", 1);
                // Resume where the crash interrupted: an unacked push is
                // retried (absorb is idempotent), otherwise re-issue the
                // pull for the current site. Watermarks and pending pushes
                // survive — [`SyncAgentState`] is the agent's durable state.
                if self.awaiting_push_ack && self.in_flight_push.is_some() {
                    self.send_push(ctx);
                } else {
                    self.awaiting_push_ack = false;
                    self.idx = self.idx.min(self.order.len() - 1);
                    self.send_pull(ctx);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
        let Msg::Resp { op, resp } = env.msg else {
            return;
        };
        if !self.link.accept(ctx, op) {
            return;
        }
        if self.awaiting_push_ack {
            // A push was acknowledged; ship the next one.
            self.in_flight_push = None;
            self.next_push_or_advance(ctx);
            return;
        }
        let entries = match resp {
            RegistryResponse::Delta { entries } => entries,
            _ => Vec::new(),
        };
        let n = entries.len();
        ctx.metrics().incr("sync_entries", n as u64);
        let site = self.order[self.idx];
        // Watermark: everything modified before the pull was sent is
        // definitely covered; back off 1 µs for same-tick writes (absorb
        // is idempotent, so overlap is harmless).
        let up_to = self.pull_sent_at.as_micros().saturating_sub(1);
        let pushes = self.state.integrate(site, entries, up_to);
        self.pending_pushes.extend(pushes);
        // Serial per-entry processing — the agent's scaling bottleneck.
        let cost = self.cal.agent_per_entry * (n as u64);
        ctx.set_timer(cost, TAG_AGENT_PROCESS);
    }
}

// ---------------------------------------------------------------------
// Workflow node actor
// ---------------------------------------------------------------------

struct NodeTask {
    inputs: Vec<String>,
    outputs: Vec<(String, u64)>,
    compute: SimDuration,
}

/// Where a node is in its current task. Each op phase also covers the
/// per-op pause before it.
enum WfPhase {
    /// Between tasks, or computing.
    Idle,
    /// Resolving input `.0` of the task.
    Resolving(usize),
    /// Publishing output `.0` of the task.
    Publishing(usize),
    /// Chaos mode only: output `.0`'s lazy pushes are shipped as
    /// *acknowledged* absorbs, re-sent on timeout, so a flaky link cannot
    /// silently strand a consumer polling for an input that will never
    /// arrive.
    Propagating(usize),
}

/// An execution node running its queue of workflow tasks: resolve inputs
/// (polling the registry until they appear), compute, publish outputs.
pub(crate) struct WorkflowNodeActor {
    tasks: Vec<NodeTask>,
    site: SiteId,
    node_idx: u32,
    strategy: Arc<dyn MetadataStrategy>,
    link: RegistryLink,
    cal: Calibration,
    cursor: usize,
    phase: WfPhase,
    read: ResolveOp,
    write: PublishOp,
    /// The output being published, from its put until its lazy pushes
    /// are out.
    output: Option<RegistryEntry>,
    finished: bool,
    op_log: Option<SharedOpLog>,
}

impl WorkflowNodeActor {
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        if self.cursor >= self.tasks.len() {
            if self.finished {
                return; // a post-completion restart must not double-count
            }
            self.finished = true;
            let now = ctx.now();
            ctx.metrics().incr("clients_done", 1);
            ctx.metrics().complete("node_done", now);
            return;
        }
        let task = &self.tasks[self.cursor];
        if task.inputs.is_empty() {
            ctx.set_timer(task.compute, TAG_COMPUTE);
        } else {
            self.start_resolve(ctx, 0);
        }
    }

    fn start_resolve(&mut self, ctx: &mut Ctx<Msg>, input_idx: usize) {
        self.phase = WfPhase::Resolving(input_idx);
        let key = &self.tasks[self.cursor].inputs[input_idx];
        let step = self.read.start(self.strategy.read_plan(key, self.site));
        self.send_read(ctx, input_idx, step);
    }

    fn send_read(&mut self, ctx: &mut Ctx<Msg>, input_idx: usize, step: Step) {
        let key = geometa_core::Key::new(&self.tasks[self.cursor].inputs[input_idx]);
        self.link.send(ctx, &step, RegistryRequest::Get { key });
    }

    fn start_publish(&mut self, ctx: &mut Ctx<Msg>, out_idx: usize) {
        let task = &self.tasks[self.cursor];
        if out_idx >= task.outputs.len() {
            // Task finished.
            self.cursor += 1;
            self.phase = WfPhase::Idle;
            ctx.metrics().incr("wf_tasks_done", 1);
            let pause = self.op_pause(ctx);
            ctx.set_timer(pause, TAG_NEXT_OP);
            return;
        }
        let (name, bytes) = &task.outputs[out_idx];
        let entry = RegistryEntry::new(
            name,
            *bytes,
            FileLocation {
                site: self.site,
                node: self.node_idx,
            },
            ctx.now().as_micros(),
        );
        self.phase = WfPhase::Publishing(out_idx);
        let step = self.write.start(self.strategy.write_plan(name, self.site));
        let put = RegistryRequest::Put {
            entry: entry.clone(),
        };
        self.link.send(ctx, &step, put);
        self.output = Some(entry);
    }

    /// Take output `out_idx`'s publish steps after its put: the lazy
    /// pushes (acknowledged ones in chaos mode), then the next output.
    fn propagate(&mut self, ctx: &mut Ctx<Msg>, out_idx: usize, mut step: Step) {
        while let Step::Cast(target) = step {
            let entry = self.output.as_ref().expect("an output is being published");
            let push = RegistryRequest::Absorb {
                entries: vec![entry.clone()],
            };
            if self.link.timeout.is_some() {
                self.phase = WfPhase::Propagating(out_idx);
                self.link.send(ctx, &Step::Call(target), push);
                return;
            }
            self.link.send(ctx, &step, push);
            step = self.write.pushed();
        }
        self.output = None;
        self.phase = WfPhase::Publishing(out_idx + 1);
        let pause = self.op_pause(ctx);
        ctx.set_timer(pause, TAG_NEXT_OP);
    }

    /// Re-send what is in flight: a fresh resolve or publish (a new
    /// entry) of the current input or output, or the pending push.
    fn resend(&mut self, ctx: &mut Ctx<Msg>) {
        match self.phase {
            WfPhase::Idle => {}
            WfPhase::Resolving(i) => self.start_resolve(ctx, i),
            WfPhase::Publishing(i) => self.start_publish(ctx, i),
            WfPhase::Propagating(i) => self.propagate(ctx, i, self.write.current()),
        }
    }

    fn op_pause(&self, ctx: &mut Ctx<Msg>) -> SimDuration {
        let jitter = 1.0 + ctx.rng().jitter(0.1);
        self.cal.client_overhead.mul_f64(jitter)
    }

    fn complete_meta_op(&mut self, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        ctx.metrics().complete("ops", now);
    }
}

impl Actor<Msg> for WorkflowNodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        let stagger = self.cal.client_overhead.mul_f64(ctx.rng().uniform_f64());
        ctx.set_timer(stagger, TAG_NEXT_OP);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _id: TimerId, tag: u64) {
        match tag {
            TAG_NEXT_OP => match self.phase {
                WfPhase::Idle => self.step(ctx),
                // Continue with the input or output after the per-op pause.
                WfPhase::Resolving(_) | WfPhase::Publishing(_) => self.resend(ctx),
                WfPhase::Propagating(_) => {}
            },
            TAG_RETRY => {
                if let WfPhase::Resolving(i) = self.phase {
                    let step = self.read.restart();
                    self.send_read(ctx, i, step);
                }
            }
            TAG_COMPUTE => self.start_publish(ctx, 0), // compute finished
            TAG_OP_TIMEOUT => {
                self.link.fired();
                ctx.metrics().incr("op_timeouts", 1);
                self.resend(ctx);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<Msg>, notice: FaultNotice) {
        match notice {
            FaultNotice::Crashed => {
                // Cancel rather than forget: a pre-crash timer may outlive
                // the outage (see [`RegistryLink`]).
                self.link.clear(ctx);
            }
            FaultNotice::Restarted => {
                if self.finished {
                    return;
                }
                ctx.metrics().incr("client_restarts", 1);
                // Resume the interrupted step. A lost compute timer
                // re-runs the task from its inputs — re-publication merges
                // idempotently.
                match self.phase {
                    WfPhase::Idle => {
                        ctx.set_timer(self.cal.client_overhead, TAG_NEXT_OP);
                    }
                    _ => self.resend(ctx),
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
        let Msg::Resp { op, resp } = env.msg else {
            return;
        };
        if !self.link.accept(ctx, op) {
            return;
        }
        match self.phase {
            WfPhase::Idle => {}
            WfPhase::Resolving(i) => match self.read.on_reply(&resp) {
                Step::Done(Outcome::Hit { .. }) => {
                    self.complete_meta_op(ctx);
                    let task = &self.tasks[self.cursor];
                    if i + 1 < task.inputs.len() {
                        // Pause, then resolve the next input.
                        self.phase = WfPhase::Resolving(i + 1);
                        let pause = self.op_pause(ctx);
                        ctx.set_timer(pause, TAG_NEXT_OP);
                    } else {
                        self.phase = WfPhase::Idle;
                        ctx.set_timer(task.compute, TAG_COMPUTE);
                    }
                }
                step @ Step::Call(_) => self.send_read(ctx, i, step),
                Step::Wait(_) => {
                    // Input not produced yet: poll again after backoff.
                    ctx.metrics().incr("wf_input_polls", 1);
                    ctx.set_timer(self.cal.read_retry_backoff, TAG_RETRY);
                }
                // A hard error (the budget is unbounded, so never a miss):
                // count it and poll again.
                Step::Done(_) | Step::Cast(_) => {
                    ctx.metrics().incr("wf_input_errors", 1);
                    ctx.set_timer(self.cal.read_retry_backoff, TAG_RETRY);
                }
            },
            WfPhase::Publishing(i) => {
                self.complete_meta_op(ctx);
                let step = self.write.on_reply(&resp);
                if let (Some(log), Some(entry)) = (&self.op_log, &self.output) {
                    if !matches!(step, Step::Done(Outcome::Error(_))) {
                        log.lock().record_write_acked(
                            entry.name.as_str(),
                            self.write.sync_target(),
                            ctx.now(),
                        );
                    }
                }
                self.propagate(ctx, i, step);
            }
            WfPhase::Propagating(i) => {
                let step = self.write.pushed();
                self.propagate(ctx, i, step);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

struct Deployment {
    engine: Engine<Msg>,
    registries: Arc<FxHashMap<SiteId, ActorId>>,
    instances: FxHashMap<SiteId, Arc<RegistryInstance>>,
    wals: FxHashMap<SiteId, Arc<MemWal>>,
    strategy: Arc<dyn MetadataStrategy>,
    sites: Vec<SiteId>,
}

fn deploy(cfg: &SimConfig) -> Deployment {
    let sites: Vec<SiteId> = cfg.topology.site_ids().collect();
    let strategy: Arc<dyn MetadataStrategy> = match (cfg.kind, cfg.centralized_home) {
        (StrategyKind::Centralized, Some(home)) => {
            Arc::new(geometa_core::strategy::Centralized::new(home))
        }
        _ => build_strategy(cfg.kind, sites.clone()),
    };
    let mut engine: Engine<Msg> = Engine::new(cfg.topology.clone(), cfg.seed);
    engine.set_faults(cfg.faults.clone());
    let mut registries = FxHashMap::default();
    let mut instances = FxHashMap::default();
    let mut wals = FxHashMap::default();
    for &site in &strategy.registry_sites() {
        let instance = Arc::new(RegistryInstance::new(site, cfg.cal.shards));
        let wal = cfg.wal.then(|| Arc::new(MemWal::new()));
        if let Some(w) = &wal {
            wals.insert(site, Arc::clone(w));
        }
        let actor = engine.add_actor(
            site,
            RegistryActor::new(
                Arc::clone(&instance),
                cfg.cal,
                cfg.seed ^ (site.0 as u64),
                wal,
            ),
        );
        registries.insert(site, actor);
        instances.insert(site, instance);
    }
    Deployment {
        engine,
        registries: Arc::new(registries),
        instances,
        wals,
        strategy,
        sites,
    }
}

fn add_sync_agent(dep: &mut Deployment, cfg: &SimConfig, n_clients: u64) {
    if cfg.kind != StrategyKind::Replicated {
        return;
    }
    let order: Vec<SiteId> = dep.strategy.registry_sites();
    let agent_site = order[0];
    dep.engine.add_actor(
        agent_site,
        SyncAgentActor {
            state: SyncAgentState::new(order.clone()),
            link: RegistryLink::new(&dep.registries, cfg),
            order,
            idx: 0,
            cal: cfg.cal,
            n_clients,
            pull_sent_at: SimTime::ZERO,
            pending_pushes: Vec::new(),
            in_flight_push: None,
            awaiting_push_ack: false,
            draining: false,
        },
    );
}

/// Results of one synthetic-benchmark run.
#[derive(Clone, Debug)]
pub struct SyntheticOutcome {
    /// Mean node completion time — Fig. 5's y-axis.
    pub avg_node_completion: SimDuration,
    /// Time when the last operation finished (run makespan).
    pub makespan: SimDuration,
    /// Aggregate throughput, ops/second — Fig. 7's y-axis.
    pub throughput: f64,
    /// Total client operations completed.
    pub total_ops: usize,
    /// (fraction completed, time) points — Fig. 6's curves.
    pub progress: Vec<(f64, SimDuration)>,
    /// Per-site mean node completion (site name, time) — the centrality
    /// analysis of §VI-B.
    pub per_site: Vec<(String, SimDuration)>,
    /// Reads that exhausted their retry budget.
    pub read_misses: u64,
    /// Reader retries (staleness pressure under eventual consistency).
    pub read_retries: u64,
    /// Messages that crossed datacenter boundaries.
    pub wan_messages: u64,
    /// Fraction of successful reads answered by the first, local probe.
    pub local_read_fraction: f64,
}

/// Post-run handles for invariant checkers: the *real* registry instances
/// that served the simulation, the strategy that placed the data, and the
/// fault layer's accounting.
pub struct SimArtifacts {
    /// Per-site registry instances (surviving state to audit).
    pub instances: FxHashMap<SiteId, Arc<RegistryInstance>>,
    /// Per-site simulated WALs (kill-and-recover mode only, empty
    /// otherwise): the oracle audits durability against these logs.
    pub wals: FxHashMap<SiteId, Arc<MemWal>>,
    /// The placement strategy the run used.
    pub strategy: Arc<dyn MetadataStrategy>,
    /// What the fault layer did (drops, duplications, crashes).
    pub fault_stats: geometa_sim::FaultStats,
    /// Virtual end time of the run.
    pub final_time: SimTime,
    /// Events dispatched.
    pub events_processed: u64,
}

/// Run the §VI-B synthetic benchmark under one strategy.
pub fn run_synthetic(spec: &SyntheticSpec, cfg: &SimConfig) -> SyntheticOutcome {
    run_synthetic_instrumented(spec, cfg).0
}

/// [`run_synthetic`], also returning the [`SimArtifacts`] the chaos
/// oracle audits.
pub(crate) fn run_synthetic_instrumented(
    spec: &SyntheticSpec,
    cfg: &SimConfig,
) -> (SyntheticOutcome, SimArtifacts) {
    let mut dep = deploy(cfg);
    let n_sites = dep.sites.len();
    add_sync_agent(&mut dep, cfg, spec.nodes as u64);
    for node in 0..spec.nodes {
        let site = site_of_node(node, n_sites);
        dep.engine.add_actor(
            site,
            SyntheticClientActor {
                spec: *spec,
                node,
                site,
                role: spec.role(node),
                strategy: Arc::clone(&dep.strategy),
                link: RegistryLink::new(&dep.registries, cfg),
                cal: cfg.cal,
                ops_done: 0,
                phase: ClientPhase::Idle,
                key_rng: spec.node_rng(node),
                finished: false,
                op_log: cfg.op_log.clone(),
                batcher: cfg.lazy_batch.map(|(n, age)| LazyBatcher::new(n, age)),
                lazy_max_age: cfg.lazy_batch.map_or(SimDuration::ZERO, |(_, age)| age),
                lazy_flush_timer: None,
            },
        );
    }
    dep.engine.set_event_limit(500_000_000);
    let report = dep.engine.run();
    assert!(
        !report.hit_event_limit,
        "synthetic run exceeded the event safety limit"
    );
    let outcome = collect_synthetic(&mut dep, cfg);
    let artifacts = SimArtifacts {
        instances: dep.instances,
        wals: dep.wals,
        strategy: dep.strategy,
        fault_stats: dep.engine.fault_stats(),
        final_time: dep.engine.now(),
        events_processed: report.events_processed,
    };
    (outcome, artifacts)
}

fn collect_synthetic(dep: &mut Deployment, cfg: &SimConfig) -> SyntheticOutcome {
    let wan_messages = dep.engine.network().wan_messages();
    let read_misses = dep.engine.metrics().counter("read_miss");
    let read_retries = dep.engine.metrics().counter("read_retries");
    let local_hits = dep.engine.metrics().counter("local_read_hits");
    let remote_reads = dep.engine.metrics().counter("remote_reads");
    let local_read_fraction = if local_hits + remote_reads > 0 {
        local_hits as f64 / (local_hits + remote_reads) as f64
    } else {
        0.0
    };
    let per_site: Vec<(String, SimDuration)> = cfg
        .topology
        .site_ids()
        .map(|s| {
            let name = cfg.topology.site(s).name.clone();
            let mean = dep
                .engine
                .metrics_mut()
                .completions_mut(&format!("node_done_site{}", s.0))
                .mean_time();
            (name, SimDuration::from_micros(mean.as_micros()))
        })
        .collect();
    let avg_node = dep
        .engine
        .metrics_mut()
        .completions_mut("node_done")
        .mean_time();
    let ops = dep.engine.metrics_mut().completions_mut("ops");
    let total_ops = ops.count();
    let makespan = ops.last();
    let throughput = ops.throughput();
    let progress: Vec<(f64, SimDuration)> = (1..=10)
        .map(|i| {
            let frac = i as f64 / 10.0;
            (
                frac,
                SimDuration::from_micros(ops.time_at_fraction(frac).as_micros()),
            )
        })
        .collect();
    SyntheticOutcome {
        avg_node_completion: SimDuration::from_micros(avg_node.as_micros()),
        makespan: SimDuration::from_micros(makespan.as_micros()),
        throughput,
        total_ops,
        progress,
        per_site,
        read_misses,
        read_retries,
        wan_messages,
        local_read_fraction,
    }
}

/// Results of one workflow run.
#[derive(Clone, Debug)]
pub struct WorkflowOutcome {
    /// End-to-end makespan (last node finished) — Fig. 10's y-axis.
    pub makespan: SimDuration,
    /// Metadata operations completed.
    pub total_ops: usize,
    /// Input polls that found the file not yet published (stall pressure).
    pub input_polls: u64,
    /// Messages that crossed datacenter boundaries.
    pub wan_messages: u64,
}

/// Execute a workflow DAG under one strategy: nodes resolve inputs through
/// the registry, compute, and publish outputs (§VI-D / Fig. 10).
pub fn run_workflow(
    workflow: &Workflow,
    placement: &Placement,
    cfg: &SimConfig,
) -> WorkflowOutcome {
    run_workflow_instrumented(workflow, placement, cfg).0
}

/// [`run_workflow`], also returning the [`SimArtifacts`] the chaos oracle
/// audits.
pub(crate) fn run_workflow_instrumented(
    workflow: &Workflow,
    placement: &Placement,
    cfg: &SimConfig,
) -> (WorkflowOutcome, SimArtifacts) {
    let mut dep = deploy(cfg);
    // External inputs pre-exist everywhere (the paper stages input data
    // before execution).
    for ext in workflow.external_inputs() {
        let entry = RegistryEntry::new(
            &ext,
            1024,
            FileLocation {
                site: dep.sites[0],
                node: 0,
            },
            0,
        );
        for inst in dep.instances.values() {
            inst.absorb(&entry).expect("preload cannot fail");
        }
    }
    // Build per-node task queues.
    let queues = placement.per_node_queues(workflow);
    let n_clients = queues.len() as u64;
    add_sync_agent(&mut dep, cfg, n_clients);
    for (node, queue) in &queues {
        let tasks: Vec<NodeTask> = queue
            .iter()
            .map(|&tid| {
                let t = workflow.task(tid);
                NodeTask {
                    inputs: t.inputs.clone(),
                    outputs: t.outputs.iter().map(|f| (f.name.clone(), f.size)).collect(),
                    compute: t.compute,
                }
            })
            .collect();
        dep.engine.add_actor(
            node.site,
            WorkflowNodeActor {
                tasks,
                site: node.site,
                node_idx: node.index,
                strategy: Arc::clone(&dep.strategy),
                link: RegistryLink::new(&dep.registries, cfg),
                cal: cfg.cal,
                cursor: 0,
                phase: WfPhase::Idle,
                // Inputs are polled until they appear: no retry budget.
                read: ResolveOp::new(node.site, usize::MAX),
                write: PublishOp::new(node.site),
                output: None,
                finished: false,
                op_log: cfg.op_log.clone(),
            },
        );
    }
    dep.engine.set_event_limit(500_000_000);
    let report = dep.engine.run();
    if report.hit_event_limit {
        panic!(
            "workflow run exceeded the event safety limit: now={} ops={} polls={} clients_done={} sync_cycles={}",
            dep.engine.now(),
            dep.engine.metrics().counter("registry_ops"),
            dep.engine.metrics().counter("wf_input_polls"),
            dep.engine.metrics().counter("clients_done"),
            dep.engine.metrics().counter("sync_cycles"),
        );
    }
    let input_polls = dep.engine.metrics().counter("wf_input_polls");
    let wan_messages = dep.engine.network().wan_messages();
    let makespan = dep.engine.metrics_mut().completions_mut("node_done").last();
    let total_ops = dep.engine.metrics_mut().completions_mut("ops").count();
    let outcome = WorkflowOutcome {
        makespan: SimDuration::from_micros(makespan.as_micros()),
        total_ops,
        input_polls,
        wan_messages,
    };
    let artifacts = SimArtifacts {
        instances: dep.instances,
        wals: dep.wals,
        strategy: dep.strategy,
        fault_stats: dep.engine.fault_stats(),
        final_time: dep.engine.now(),
        events_processed: report.events_processed,
    };
    (outcome, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geometa_workflow::patterns::{pipeline, PatternConfig};
    use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};

    fn cfg(kind: StrategyKind) -> SimConfig {
        SimConfig {
            cal: Calibration::test_fast(),
            ..SimConfig::new(kind, 42)
        }
    }

    #[test]
    fn synthetic_runs_all_strategies_to_completion() {
        let spec = SyntheticSpec::scaling(8, 30);
        for kind in StrategyKind::all() {
            let out = run_synthetic(&spec, &cfg(kind));
            assert_eq!(out.total_ops, 8 * 30, "{kind:?} lost operations");
            assert!(out.makespan > SimDuration::ZERO);
            assert!(out.throughput > 0.0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = SyntheticSpec::scaling(8, 20);
        let a = run_synthetic(&spec, &cfg(StrategyKind::DhtLocalReplica));
        let b = run_synthetic(&spec, &cfg(StrategyKind::DhtLocalReplica));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.wan_messages, b.wan_messages);
        assert_eq!(a.read_misses, b.read_misses);
    }

    #[test]
    fn dht_local_replica_reads_mostly_local() {
        // DR's two-step read: roughly 1/4 + 3/4·1/4 ≈ 44% of reads should
        // resolve at the first (local) probe, about twice DN's ~25%.
        let spec = SyntheticSpec::scaling(16, 100);
        let dr = run_synthetic(&spec, &cfg(StrategyKind::DhtLocalReplica));
        let dn = run_synthetic(&spec, &cfg(StrategyKind::DhtNonReplicated));
        assert!(
            dr.local_read_fraction > dn.local_read_fraction + 0.1,
            "DR {} vs DN {}",
            dr.local_read_fraction,
            dn.local_read_fraction
        );
    }

    #[test]
    fn replicated_eventually_serves_all_reads() {
        let spec = SyntheticSpec::scaling(8, 40);
        let out = run_synthetic(&spec, &cfg(StrategyKind::Replicated));
        assert_eq!(out.total_ops, 8 * 40);
        // Retries happen (eventual consistency) but reads succeed.
        assert_eq!(
            out.read_misses, 0,
            "sync agent should make all reads succeed"
        );
    }

    #[test]
    fn centralized_has_more_wan_traffic_than_dr() {
        let spec = SyntheticSpec::scaling(16, 50);
        let c = run_synthetic(&spec, &cfg(StrategyKind::Centralized));
        let dr = run_synthetic(&spec, &cfg(StrategyKind::DhtLocalReplica));
        // 3/4 of centralized ops cross the WAN; DR's sync path is local
        // with lazy single-message propagation.
        assert!(
            c.wan_messages > dr.wan_messages / 2,
            "c={} dr={}",
            c.wan_messages,
            dr.wan_messages
        );
    }

    #[test]
    fn workflow_pipeline_runs_under_all_strategies() {
        let w = pipeline(
            "p",
            6,
            PatternConfig {
                compute: SimDuration::from_millis(10),
                ..PatternConfig::default()
            },
        );
        let nodes = node_grid(&(0..4).map(SiteId).collect::<Vec<_>>(), 2);
        let placement = schedule(&w, &nodes, SchedulerPolicy::LocalityAware);
        for kind in StrategyKind::all() {
            let out = run_workflow(&w, &placement, &cfg(kind));
            assert_eq!(out.total_ops, w.total_metadata_ops(), "{kind:?}");
            assert!(out.makespan >= SimDuration::from_millis(60), "{kind:?}");
        }
    }

    #[test]
    fn workflow_cross_site_dependency_resolves_via_polling() {
        // Round-robin placement guarantees cross-site producer/consumer
        // pairs; DR must resolve them through lazy propagation + polling.
        let w = pipeline(
            "p",
            8,
            PatternConfig {
                compute: SimDuration::from_millis(5),
                ..PatternConfig::default()
            },
        );
        let nodes = node_grid(&(0..4).map(SiteId).collect::<Vec<_>>(), 2);
        let placement = schedule(&w, &nodes, SchedulerPolicy::RoundRobin);
        let out = run_workflow(&w, &placement, &cfg(StrategyKind::DhtLocalReplica));
        assert_eq!(out.total_ops, w.total_metadata_ops());
    }
}
