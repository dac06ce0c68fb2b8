//! The discrete-event simulation engine: actors, contexts, and the run loop.
//!
//! Actors are state machines placed at topology sites. The engine owns the
//! virtual clock and the event queue; actors interact with the world only
//! through [`Ctx`], which provides message sending (with modeled network
//! delay), timers, per-actor RNG streams and the metrics hub. Dispatch is
//! strictly ordered by `(time, scheduling sequence)`, so a seeded run is
//! fully reproducible.

use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultAction, FaultEvent, FaultNotice, FaultSchedule, FaultState, FaultStats};
use crate::metrics::MetricsHub;
use crate::network::NetworkModel;
use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};
use crate::topology::{SiteId, Topology};
use std::fmt;

/// Identifier of an actor within one engine. Dense indices from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Index for vector addressing.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Handle to a scheduled timer; lets the owner cancel it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// A delivered message with its provenance.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender actor.
    pub from: ActorId,
    /// Site the sender lives at.
    pub from_site: SiteId,
    /// Virtual instant the message was sent.
    pub sent_at: SimTime,
    /// Payload.
    pub msg: M,
}

/// Behaviour of a simulation participant.
///
/// `M` is the application's message type (usually an enum). Handlers get a
/// [`Ctx`] to act on the world.
pub trait Actor<M> {
    /// Called once, at time zero, when the engine starts (in actor-id
    /// order). Use it to kick off initial work.
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this actor is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<M>, env: Envelope<M>);

    /// Called when a timer set by this actor fires (unless cancelled).
    fn on_timer(&mut self, ctx: &mut Ctx<M>, id: TimerId, tag: u64) {
        let _ = (ctx, id, tag);
    }

    /// Called when this actor's site crashes or restarts under an active
    /// [`FaultSchedule`]. On [`FaultNotice::Crashed`] model the state loss
    /// (e.g. fail a primary cache); on [`FaultNotice::Restarted`] re-arm
    /// the timers that drive this actor — everything pending at crash time
    /// was dropped.
    fn on_fault(&mut self, ctx: &mut Ctx<M>, notice: FaultNotice) {
        let _ = (ctx, notice);
    }
}

/// Everything an actor may do to the world during one handler invocation.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    self_site: SiteId,
    queue: &'a mut EventQueue<M>,
    network: &'a mut NetworkModel,
    faults: &'a mut FaultState,
    sites: &'a [SiteId],
    metrics: &'a mut MetricsHub,
    rng: &'a mut SplitMix64,
    next_timer: &'a mut u64,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` (`size_bytes` on the wire) to `dst`; it will be delivered
    /// after the modeled network delay.
    ///
    /// Under an active [`FaultSchedule`] the message is subject to the
    /// fault layer at send time: a partitioned link or a link-chaos drop
    /// loses it (counted in [`FaultStats`]), duplication delivers two
    /// copies with independently drawn delays.
    pub fn send(&mut self, dst: ActorId, msg: M, size_bytes: u64)
    where
        M: Clone,
    {
        self.send_delayed(dst, msg, size_bytes, SimDuration::ZERO);
    }

    /// Send with an extra sender-side delay before the message enters the
    /// network (e.g. the service time of a request being answered).
    ///
    /// The payload is cloned **only** when the fault RNG actually
    /// scheduled a duplicate delivery; the common single-delivery path
    /// moves `msg` straight into the queue (one clone per *extra* copy —
    /// exactly [`FaultStats::duplicated`] clones over a whole run, zero in
    /// a healthy one).
    pub fn send_delayed(&mut self, dst: ActorId, msg: M, size_bytes: u64, extra: SimDuration)
    where
        M: Clone,
    {
        let dst_site = self.sites[dst.index()];
        let Some(copies) = self.faults.roll_link(self.self_site, dst_site) else {
            return; // partitioned or chaos-dropped; counted by the roll
        };
        // Duplicated copies take their own paths through the network
        // (independent jitter draws). They are pushed *before* the
        // original so sequence numbers — and therefore same-instant
        // tie-break order — stay byte-identical to earlier engines.
        for _ in 1..copies {
            self.push_delivery(dst, dst_site, msg.clone(), size_bytes, extra);
        }
        self.push_delivery(dst, dst_site, msg, size_bytes, extra);
    }

    /// Draw a network delay and enqueue one delivery (takes the payload by
    /// value; the caller decides whether a clone is ever made).
    fn push_delivery(
        &mut self,
        dst: ActorId,
        dst_site: SiteId,
        msg: M,
        size_bytes: u64,
        extra: SimDuration,
    ) {
        let net = self.network.delay(self.self_site, dst_site, size_bytes);
        let deliver_at = self.now + extra + net;
        self.queue.push(
            deliver_at,
            EventKind::Deliver {
                dst,
                env: Envelope {
                    from: self.self_id,
                    from_site: self.self_site,
                    sent_at: self.now,
                    msg,
                },
            },
        );
    }

    /// Arm a timer that fires after `delay` with an opaque `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.queue.push(
            self.now + delay,
            EventKind::Timer {
                actor: self.self_id,
                id,
                tag,
            },
        );
        id
    }

    /// Cancel a pending timer from inside a handler. Returns whether the
    /// timer was still pending (slot-addressed removal, O(log n)).
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel_timer(id)
    }

    /// Per-actor deterministic RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// The shared metrics hub.
    #[inline]
    pub fn metrics(&mut self) -> &mut MetricsHub {
        self.metrics
    }
}

/// Summary of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunReport {
    /// Events dispatched.
    pub events_processed: u64,
    /// Virtual time when the run ended.
    pub final_time: SimTime,
    /// Whether the run hit the event-count safety limit.
    pub hit_event_limit: bool,
}

/// The discrete-event simulation engine.
///
/// Generic over the application message type `M`.
pub struct Engine<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    sites: Vec<SiteId>,
    rngs: Vec<SplitMix64>,
    queue: EventQueue<M>,
    now: SimTime,
    network: NetworkModel,
    faults: FaultState,
    fault_events: Vec<FaultEvent>,
    fault_cursor: usize,
    metrics: MetricsHub,
    root_rng: SplitMix64,
    next_timer: u64,
    started: bool,
    event_limit: u64,
    events_processed: u64,
}

impl<M> Engine<M> {
    /// Create an engine over a topology. All randomness (jitter, actor
    /// streams) derives from `seed`.
    pub fn new(topology: Topology, seed: u64) -> Engine<M> {
        let num_sites = topology.num_sites();
        Engine {
            actors: Vec::new(),
            sites: Vec::new(),
            rngs: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            network: NetworkModel::new(topology, seed),
            faults: FaultState::new(num_sites, seed),
            fault_events: Vec::new(),
            fault_cursor: 0,
            metrics: MetricsHub::new(),
            root_rng: SplitMix64::new(seed),
            next_timer: 0,
            started: false,
            event_limit: u64::MAX,
            events_processed: 0,
        }
    }

    /// Place an actor at `site`; returns its id.
    pub fn add_actor(&mut self, site: SiteId, actor: impl Actor<M> + 'static) -> ActorId {
        assert!(
            site.index() < self.network.topology().num_sites(),
            "actor placed at unknown site {site}"
        );
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(Box::new(actor)));
        self.sites.push(site);
        self.rngs.push(self.root_rng.split(id.0 as u64 + 1));
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The metrics hub (read side; actors write via [`Ctx`]).
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Mutable metrics access between runs (e.g. to drain completions).
    pub fn metrics_mut(&mut self) -> &mut MetricsHub {
        &mut self.metrics
    }

    /// The network model (for traffic accounting).
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Cap the number of events processed (runaway-protection).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Install a fault schedule. Actions apply at their exact virtual
    /// instants, before any ordinary event scheduled at the same time.
    /// Installing an empty schedule leaves the engine byte-identical to a
    /// fault-free build.
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        assert!(
            self.fault_cursor == 0 && self.fault_events.is_empty(),
            "fault schedule can only be installed once"
        );
        self.fault_events = schedule.into_sorted();
    }

    /// What the fault layer did so far (drops, duplications, crashes).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Cancel a pending timer. The event is removed from the queue
    /// immediately (slot-addressed, O(log n)) — no tombstones accumulate.
    /// Returns whether the timer was still pending.
    #[cfg(test)]
    pub(crate) fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel_timer(id)
    }

    /// Run until the event queue drains or the event limit is hit.
    pub fn run(&mut self) -> RunReport {
        self.run_until(SimTime::MAX)
    }

    /// Run, but do not dispatch events scheduled after `deadline`.
    pub(crate) fn run_until(&mut self, deadline: SimTime) -> RunReport {
        self.start_if_needed();
        let mut report = RunReport::default();
        loop {
            if self.events_processed >= self.event_limit {
                report.hit_event_limit = true;
                break;
            }
            // Apply every fault action due before the next ordinary event
            // (ties go to the fault: at equal instants the world changes,
            // then the event sees the changed world).
            self.apply_due_faults(deadline);
            let Some(ev) = self.queue.pop_at_or_before(deadline) else {
                // After fault application nothing else can happen within
                // the deadline: remaining faults (if any) lie beyond it.
                break;
            };
            debug_assert!(ev.time >= self.now, "time must be monotone");
            self.now = ev.time;
            self.events_processed += 1;
            report.events_processed += 1;
            // Events addressed to a crashed site are dropped: deliveries
            // reach a dead process, timers belong to one. Both are counted
            // (never lost silently) and still bound by the event limit.
            let idx = match &ev.kind {
                EventKind::Deliver { dst, .. } => dst.index(),
                EventKind::Timer { actor, .. } => actor.index(),
            };
            if self.faults.site_down(self.sites[idx]) {
                match &ev.kind {
                    EventKind::Deliver { .. } => self.faults.count_crashed_delivery(),
                    EventKind::Timer { .. } => self.faults.count_lost_timer(),
                }
                continue;
            }
            self.dispatch(ev.kind);
        }
        report.final_time = self.now;
        report
    }

    /// Apply fault actions due at or before `deadline` and not after the
    /// next queued event. Crash/restart actions notify every actor at the
    /// affected site, which may schedule new events — the queue is
    /// re-inspected after every action.
    ///
    /// The plan is moved out of `self` for the duration of the loop so
    /// each action can be applied by reference while `notify_site_fault`
    /// takes `&mut self` — no per-action clone of partition site lists.
    /// Nothing reached from an actor handler can touch `fault_events`
    /// (actors only see [`Ctx`]), so the temporary empty vec is invisible.
    fn apply_due_faults(&mut self, deadline: SimTime) {
        if self.fault_cursor >= self.fault_events.len() {
            return;
        }
        let events = std::mem::take(&mut self.fault_events);
        while let Some(next) = events.get(self.fault_cursor) {
            let at = next.at;
            if at > deadline {
                break;
            }
            if let Some(t) = self.queue.peek_time() {
                if t < at {
                    break; // an ordinary event comes strictly first
                }
            }
            self.fault_cursor += 1;
            if at > self.now {
                self.now = at;
            }
            match &next.action {
                FaultAction::DegradeWan {
                    latency_mult,
                    bandwidth_div,
                } => self
                    .network
                    .set_wan_degradation(*latency_mult, *bandwidth_div),
                FaultAction::RestoreWan => self.network.clear_wan_degradation(),
                other => {
                    if let Some((site, notice)) = self.faults.apply(other) {
                        self.notify_site_fault(site, notice);
                    }
                }
            }
        }
        self.fault_events = events;
    }

    /// Deliver a crash/restart notice to every actor at `site`, in
    /// actor-id order (deterministic).
    fn notify_site_fault(&mut self, site: SiteId, notice: FaultNotice) {
        for idx in 0..self.actors.len() {
            if self.sites[idx] != site {
                continue;
            }
            let now = self.now;
            let Engine {
                actors,
                sites,
                rngs,
                queue,
                network,
                faults,
                metrics,
                next_timer,
                ..
            } = self;
            let Some(actor) = actors[idx].as_deref_mut() else {
                continue;
            };
            let mut ctx = Ctx {
                now,
                self_id: ActorId(idx as u32),
                self_site: sites[idx],
                queue,
                network,
                faults,
                sites,
                metrics,
                rng: &mut rngs[idx],
                next_timer,
            };
            actor.on_fault(&mut ctx, notice);
        }
    }

    /// Pending events (diagnostics).
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Pre-size the queue with mailbox room per actor so steady-state
        // scheduling doesn't regrow the heap buffer mid-run.
        self.queue.reserve((self.actors.len() * 8).max(64));
        for idx in 0..self.actors.len() {
            let id = ActorId(idx as u32);
            let mut actor = self.actors[idx].take().expect("actor present at start");
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                self_site: self.sites[idx],
                queue: &mut self.queue,
                network: &mut self.network,
                faults: &mut self.faults,
                sites: &self.sites,
                metrics: &mut self.metrics,
                rng: &mut self.rngs[idx],
                next_timer: &mut self.next_timer,
            };
            actor.on_start(&mut ctx);
            self.actors[idx] = Some(actor);
        }
    }

    /// Dispatch one event.
    ///
    /// Borrows the actor slot and the context fields disjointly (no
    /// take/put-back shuffle): `Ctx` never touches `actors`, so the
    /// mutable borrows cannot alias.
    fn dispatch(&mut self, kind: EventKind<M>) {
        let now = self.now;
        let Engine {
            actors,
            sites,
            rngs,
            queue,
            network,
            faults,
            metrics,
            next_timer,
            ..
        } = self;
        let (aid, idx) = match &kind {
            EventKind::Deliver { dst, .. } => (*dst, dst.index()),
            EventKind::Timer { actor, .. } => (*actor, actor.index()),
        };
        let Some(actor) = actors[idx].as_deref_mut() else {
            // Actor slot vacated (cannot happen via the public API, but
            // stay robust).
            return;
        };
        let mut ctx = Ctx {
            now,
            self_id: aid,
            self_site: sites[idx],
            queue,
            network,
            faults,
            sites,
            metrics,
            rng: &mut rngs[idx],
            next_timer,
        };
        match kind {
            EventKind::Deliver { env, .. } => actor.on_message(&mut ctx, env),
            EventKind::Timer { id, tag, .. } => actor.on_timer(&mut ctx, id, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: ActorId,
        rounds: u32,
        done_at: Option<SimTime>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            ctx.send(self.peer, Msg::Ping(self.rounds), 64);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
            if let Msg::Pong(n) = env.msg {
                ctx.metrics().incr("pongs", 1);
                if n == 0 {
                    self.done_at = Some(ctx.now());
                } else {
                    ctx.send(self.peer, Msg::Ping(n - 1), 64);
                }
            }
        }
    }

    struct Ponger;
    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
            if let Msg::Ping(n) = env.msg {
                ctx.send(env.from, Msg::Pong(n), 64);
            }
        }
    }

    fn no_jitter_topo() -> Topology {
        Topology::builder()
            .site("a", crate::topology::Region(0))
            .site("b", crate::topology::Region(1))
            .jitter(0.0)
            .build()
    }

    #[test]
    fn ping_pong_advances_time_by_rtts() {
        let topo = no_jitter_topo();
        let rtt = topo.rtt(SiteId(0), SiteId(1));
        let mut engine: Engine<Msg> = Engine::new(topo, 1);
        let ponger = engine.add_actor(SiteId(1), Ponger);
        engine.add_actor(
            SiteId(0),
            Pinger {
                peer: ponger,
                rounds: 4,
                done_at: None,
            },
        );
        engine.run();
        // 5 round trips (rounds 4..0 inclusive). Message size adds a small
        // transfer term on top of pure RTTs.
        assert!(engine.now() >= SimTime::ZERO + rtt * 5);
        assert_eq!(engine.metrics().counter("pongs"), 5);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        let build = |seed| {
            let mut e: Engine<Msg> = Engine::new(Topology::azure_4dc(), seed);
            let p = e.add_actor(SiteId(2), Ponger);
            e.add_actor(
                SiteId(0),
                Pinger {
                    peer: p,
                    rounds: 10,
                    done_at: None,
                },
            );
            e.run();
            (e.now(), e.metrics().counter("pongs"))
        };
        assert_eq!(build(77), build(77));
        assert_ne!(
            build(77).0,
            build(78).0,
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let topo = no_jitter_topo();
        let mut engine: Engine<Msg> = Engine::new(topo, 3);
        let ponger = engine.add_actor(SiteId(1), Ponger);
        engine.add_actor(
            SiteId(0),
            Pinger {
                peer: ponger,
                rounds: 1_000,
                done_at: None,
            },
        );
        let deadline = SimTime::ZERO + SimDuration::from_millis(500);
        engine.run_until(deadline);
        assert!(engine.now() <= deadline);
        assert!(engine.pending_events() > 0, "work should remain");
        // Resume and finish.
        engine.run();
        assert_eq!(engine.metrics().counter("pongs"), 1_001);
    }

    struct TimerActor {
        fired: Vec<u64>,
        cancel_me: Option<TimerId>,
    }
    impl Actor<()> for TimerActor {
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(20), 2);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<()>, _id: TimerId, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                // Arm and immediately remember a timer to cancel from
                // outside the actor.
                self.cancel_me = Some(ctx.set_timer(SimDuration::from_millis(100), 3));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<()>, _env: Envelope<()>) {}
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut engine: Engine<()> = Engine::new(Topology::single_site(), 5);
        let id = engine.add_actor(
            SiteId(0),
            TimerActor {
                fired: Vec::new(),
                cancel_me: None,
            },
        );
        // Run until tag-1 and tag-2 fired; then cancel tag-3.
        engine.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        // Reach into the actor is not possible from outside; instead verify
        // through behaviour: cancelling an unknown timer is harmless, and the
        // engine ends with no timer-3 dispatch if we cancel every plausible id.
        // (The cancellation API itself is exercised in cancel_specific test.)
        let _ = id;
        assert!(engine.pending_events() > 0);
    }

    struct CancelProbe;
    impl Actor<()> for CancelProbe {
        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            let _t1 = ctx.set_timer(SimDuration::from_millis(5), 10);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<()>, _id: TimerId, tag: u64) {
            ctx.metrics().incr(&format!("timer_{tag}"), 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<()>, _env: Envelope<()>) {}
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut engine: Engine<()> = Engine::new(Topology::single_site(), 5);
        engine.add_actor(SiteId(0), CancelProbe);
        // The probe arms TimerId(0) in on_start; cancel it before running.
        // start_if_needed happens inside run, so prime first with a zero-length run.
        engine.run_until(SimTime::ZERO);
        engine.cancel_timer(TimerId(0));
        engine.run();
        assert_eq!(engine.metrics().counter("timer_10"), 0);
    }

    #[test]
    fn event_limit_halts_runaway() {
        struct Looper;
        impl Actor<()> for Looper {
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<()>, _id: TimerId, _tag: u64) {
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<()>, _env: Envelope<()>) {}
        }
        let mut engine: Engine<()> = Engine::new(Topology::single_site(), 5);
        engine.add_actor(SiteId(0), Looper);
        engine.set_event_limit(1_000);
        let report = engine.run();
        assert!(report.hit_event_limit);
        assert_eq!(report.events_processed, 1_000);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn placing_actor_at_bad_site_panics() {
        let mut engine: Engine<()> = Engine::new(Topology::single_site(), 5);
        engine.add_actor(SiteId(9), CancelProbe);
    }

    // ---- fault injection ----

    /// Sends a ping to its peer every 10 ms, counts pongs, and re-arms its
    /// loop on restart.
    struct FaultyPinger {
        peer: ActorId,
    }
    impl Actor<Msg> for FaultyPinger {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _id: TimerId, _tag: u64) {
            ctx.send(self.peer, Msg::Ping(0), 64);
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
            if let Msg::Pong(_) = env.msg {
                ctx.metrics().incr("pongs", 1);
            }
        }
        fn on_fault(&mut self, ctx: &mut Ctx<Msg>, notice: FaultNotice) {
            if notice == FaultNotice::Restarted {
                ctx.metrics().incr("restarts_seen", 1);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
    }

    fn faulty_pair(seed: u64, schedule: FaultSchedule) -> Engine<Msg> {
        let mut engine: Engine<Msg> = Engine::new(no_jitter_topo(), seed);
        let ponger = engine.add_actor(SiteId(1), Ponger);
        engine.add_actor(SiteId(0), FaultyPinger { peer: ponger });
        engine.set_faults(schedule);
        engine
    }

    #[test]
    fn crashed_site_drops_messages_and_timers_then_recovers() {
        let mut schedule = FaultSchedule::new();
        // Crash the ponger's site for 300 ms out of a 1 s run.
        schedule.crash_window(
            SiteId(1),
            SimTime::ZERO + SimDuration::from_millis(300),
            SimTime::ZERO + SimDuration::from_millis(600),
        );
        let mut engine = faulty_pair(3, schedule);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let stats = engine.fault_stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(
            stats.dropped_crashed_dst >= 25,
            "pings during the outage must be dropped, got {stats:?}"
        );
        // Pongs stop during the outage and resume after: roughly 700 ms of
        // healthy pinging at 10 ms cadence.
        let pongs = engine.metrics().counter("pongs");
        assert!(
            (50..=70).contains(&pongs),
            "expected ~60 pongs around a 300 ms outage (and the ~120 ms RTT tail), got {pongs}"
        );
    }

    #[test]
    fn crashed_pinger_loses_its_timer_and_rearms_on_restart() {
        let mut schedule = FaultSchedule::new();
        // Crash the PINGER's own site: its driving timer is lost; without
        // the on_fault re-arm it would stay silent forever.
        schedule.crash_window(
            SiteId(0),
            SimTime::ZERO + SimDuration::from_millis(200),
            SimTime::ZERO + SimDuration::from_millis(500),
        );
        let mut engine = faulty_pair(4, schedule);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(engine.fault_stats().timers_lost >= 1);
        assert_eq!(engine.metrics().counter("restarts_seen"), 1);
        let pongs = engine.metrics().counter("pongs");
        assert!(
            pongs >= 40,
            "pinging must resume after restart, got {pongs}"
        );
    }

    #[test]
    fn partition_blocks_sends_until_heal() {
        let mut schedule = FaultSchedule::new();
        schedule.partition_window(
            vec![SiteId(0)],
            vec![SiteId(1)],
            true,
            SimTime::ZERO + SimDuration::from_millis(200),
            SimTime::ZERO + SimDuration::from_millis(700),
        );
        let mut engine = faulty_pair(5, schedule);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let stats = engine.fault_stats();
        assert!(
            stats.dropped_partition >= 45,
            "pings sent into the partition are dropped: {stats:?}"
        );
        assert_eq!(stats.dropped_crashed_dst, 0);
        let pongs = engine.metrics().counter("pongs");
        assert!(
            (25..=45).contains(&pongs),
            "~500 ms of the run is partitioned, got {pongs} pongs"
        );
    }

    #[test]
    fn link_chaos_duplicates_messages() {
        let mut schedule = FaultSchedule::new();
        schedule.link_chaos_window(
            SiteId(0),
            SiteId(1),
            0.0,
            1.0, // duplicate everything
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
        let mut engine = faulty_pair(6, schedule);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        // Every ping delivered twice → ~2 pongs per ping round.
        let pongs = engine.metrics().counter("pongs");
        let dup = engine.fault_stats().duplicated;
        assert!(dup >= 80, "duplications {dup}");
        assert!(pongs >= 160, "duplicated pings double the pongs: {pongs}");
    }

    #[test]
    fn wan_degradation_slows_cross_site_traffic() {
        let run = |schedule: FaultSchedule| {
            let mut engine = faulty_pair(7, schedule);
            engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            engine.metrics().counter("pongs")
        };
        let healthy = run(FaultSchedule::new());
        let mut degraded = FaultSchedule::new();
        degraded.wan_degradation_window(
            20.0,
            1,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
        let slow = run(degraded);
        // Pings are timer-driven so the count stays similar, but pongs in
        // flight take 20x longer; the last pings' pongs miss the deadline.
        assert!(
            slow < healthy,
            "degradation must delay replies: healthy={healthy} degraded={slow}"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut schedule = FaultSchedule::new();
            schedule.crash_window(
                SiteId(1),
                SimTime::ZERO + SimDuration::from_millis(100),
                SimTime::ZERO + SimDuration::from_millis(400),
            );
            schedule.link_chaos_window(
                SiteId(0),
                SiteId(1),
                0.3,
                0.2,
                SimTime::ZERO + SimDuration::from_millis(500),
                SimTime::ZERO + SimDuration::from_millis(900),
            );
            let mut engine = faulty_pair(seed, schedule);
            let report = engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            (
                report.events_processed,
                engine.metrics().counter("pongs"),
                engine.fault_stats(),
            )
        };
        assert_eq!(run(11), run(11), "same seed, same chaos, same run");
        assert_ne!(run(11).2, run(12).2, "chaos rolls must vary with seed");
    }

    /// A payload whose `Clone` impl counts invocations: proves the
    /// send path moves messages into the queue and clones only for
    /// fault-scheduled duplicate deliveries.
    #[derive(Debug)]
    struct Counted {
        n: u32,
        clones: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted {
                n: self.n,
                clones: std::sync::Arc::clone(&self.clones),
            }
        }
    }

    struct CountedPinger {
        peer: ActorId,
        clones: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl Actor<Counted> for CountedPinger {
        fn on_start(&mut self, ctx: &mut Ctx<Counted>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Counted>, _id: TimerId, _tag: u64) {
            ctx.send(
                self.peer,
                Counted {
                    n: 0,
                    clones: std::sync::Arc::clone(&self.clones),
                },
                64,
            );
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Counted>, env: Envelope<Counted>) {
            ctx.metrics().incr("received", u64::from(env.msg.n == 0));
        }
    }
    struct CountedEcho;
    impl Actor<Counted> for CountedEcho {
        fn on_message(&mut self, ctx: &mut Ctx<Counted>, env: Envelope<Counted>) {
            let mut msg = env.msg;
            msg.n += 1;
            ctx.send(env.from, msg, 64);
        }
    }

    fn counted_run(schedule: FaultSchedule) -> (u64, u64 /* clones, duplicated */) {
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut engine: Engine<Counted> = Engine::new(no_jitter_topo(), 9);
        let echo = engine.add_actor(SiteId(1), CountedEcho);
        engine.add_actor(
            SiteId(0),
            CountedPinger {
                peer: echo,
                clones: std::sync::Arc::clone(&clones),
            },
        );
        engine.set_faults(schedule);
        engine.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let dup = engine.fault_stats().duplicated;
        (clones.load(std::sync::atomic::Ordering::Relaxed), dup)
    }

    #[test]
    fn healthy_runs_never_clone_message_payloads() {
        let (clones, dup) = counted_run(FaultSchedule::new());
        assert_eq!(dup, 0);
        assert_eq!(
            clones, 0,
            "dispatch and send must move payloads, not clone them"
        );
    }

    #[test]
    fn duplication_clones_exactly_once_per_extra_copy() {
        let mut schedule = FaultSchedule::new();
        schedule.link_chaos_window(
            SiteId(0),
            SiteId(1),
            0.0,
            0.35, // duplicate ~a third of messages on one direction
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(2),
        );
        let (clones, dup) = counted_run(schedule);
        assert!(dup > 0, "chaos window must duplicate something");
        assert_eq!(
            clones, dup,
            "exactly one clone per fault-scheduled duplicate delivery"
        );
    }

    #[test]
    fn empty_schedule_is_identical_to_no_schedule() {
        let run = |with_schedule: bool| {
            let topo = Topology::azure_4dc();
            let mut e: Engine<Msg> = Engine::new(topo, 42);
            let p = e.add_actor(SiteId(2), Ponger);
            e.add_actor(
                SiteId(0),
                Pinger {
                    peer: p,
                    rounds: 20,
                    done_at: None,
                },
            );
            if with_schedule {
                e.set_faults(FaultSchedule::new());
            }
            let report = e.run();
            (report.events_processed, e.now())
        };
        assert_eq!(run(true), run(false));
    }
}
