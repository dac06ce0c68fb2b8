//! The paper's two client operations as pure state machines.
//!
//! * **publish** (§III-D, §VII-B) — write to the plan's completion site,
//!   then push the entry lazily to each replica;
//! * **resolve** (§IV-D) — probe the plan's sites in order (the
//!   decentralized-replicated strategy's two-step hierarchical read is
//!   the plan `[local, owner]`), failing over past an unavailable site,
//!   and retry while propagation lags.
//!
//! A machine sends nothing itself. It says which [`Step`] to take next,
//! and the driver feeds it the reply. The driver owns the request payload
//! (the entry or the interned key), so a step costs no allocation. The
//! same machines are driven by [`StrategyClient`](crate::StrategyClient)
//! over a blocking transport and by the simulator's client actors in
//! virtual time, the way [`SyncAgentState`](crate::sync_agent::SyncAgentState)
//! serves both the runtime and the DES. What differs between drivers —
//! how long to wait, what to do on a timeout or a hard error — stays in
//! the driver.

use crate::plan::{ReadPlan, WritePlan};
use crate::protocol::RegistryResponse;
use crate::MetaError;
use geometa_sim::topology::SiteId;

/// What the driver does next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send the op's request (the put, or the get) to the site and feed
    /// the reply to `on_reply`.
    Call(SiteId),
    /// Send the entry to the site as a lazy push, expecting no reply,
    /// then call [`PublishOp::pushed`].
    Cast(SiteId),
    /// Every probe of attempt `n` (0-based) missed: wait, then start the
    /// next attempt.
    Wait(usize),
    /// The op is over.
    Done(Outcome),
}

/// How an op ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The completion site acknowledged the write and every lazy push
    /// was sent. `local`: the completion site is the origin's own.
    Written {
        /// The write completed at the origin site.
        local: bool,
    },
    /// A probe found the entry. `local`: it was probe 0 and the origin's
    /// own site.
    Hit {
        /// Found by the first probe, at the origin site.
        local: bool,
    },
    /// Every probe of the last attempt answered `NotFound`.
    Miss,
    /// A reply the op cannot get past; for a resolve, also an attempt in
    /// which no probe found the entry and one was unavailable (a down
    /// site makes "not found" untrustworthy).
    Error(MetaError),
}

/// The reply was not one the op's request can produce.
#[cold]
fn unexpected(expected: &str, resp: &RegistryResponse) -> Step {
    Step::Done(Outcome::Error(MetaError::Codec(format!(
        "expected {expected}, got {resp:?}"
    ))))
}

/// One publish: the put to the plan's completion site, then one lazy push
/// per asynchronous target.
#[derive(Debug)]
pub struct PublishOp {
    origin: SiteId,
    plan: WritePlan,
    /// The completion site acknowledged the put.
    acked: bool,
    /// Lazy pushes sent since the ack.
    pushes: usize,
}

impl PublishOp {
    /// An idle publish for a client at `origin`.
    #[inline]
    pub fn new(origin: SiteId) -> PublishOp {
        PublishOp {
            origin,
            plan: WritePlan {
                sync_target: origin,
                async_targets: Vec::new(),
            },
            acked: false,
            pushes: 0,
        }
    }

    /// Begin publishing under `plan`: the put to its completion site.
    #[inline]
    pub fn start(&mut self, plan: WritePlan) -> Step {
        self.plan = plan;
        self.acked = false;
        self.pushes = 0;
        self.current()
    }

    /// The step in flight: the put until it is acknowledged, then the
    /// next lazy push, then done. A driver re-sends it after a timeout.
    #[inline]
    pub fn current(&self) -> Step {
        if !self.acked {
            return Step::Call(self.plan.sync_target);
        }
        match self.plan.async_targets.get(self.pushes) {
            Some(&site) => Step::Cast(site),
            None => Step::Done(Outcome::Written {
                local: self.plan.sync_target == self.origin,
            }),
        }
    }

    /// The completion site's reply to the put.
    #[inline]
    pub fn on_reply(&mut self, resp: &RegistryResponse) -> Step {
        match resp {
            RegistryResponse::Ack => {
                self.acked = true;
                self.current()
            }
            RegistryResponse::Error { error } => Step::Done(Outcome::Error(error.clone())),
            other => unexpected("Ack", other),
        }
    }

    /// The lazy push named by the last [`Step::Cast`] was sent.
    #[inline]
    pub fn pushed(&mut self) -> Step {
        self.pushes += 1;
        self.current()
    }

    /// The plan's completion site (where an acknowledged write lives).
    #[inline]
    pub fn sync_target(&self) -> SiteId {
        self.plan.sync_target
    }
}

/// One resolve: attempts of the plan's probes in order, up to a budget.
#[derive(Debug)]
pub struct ResolveOp {
    origin: SiteId,
    max_attempts: usize,
    plan: ReadPlan,
    probe: usize,
    attempt: usize,
    /// Probes of this attempt that answered `Unavailable`.
    failovers: u32,
}

impl ResolveOp {
    /// An idle resolve for a client at `origin`, allowed `max_attempts`
    /// attempts (at least one is always made).
    #[inline]
    pub fn new(origin: SiteId, max_attempts: usize) -> ResolveOp {
        ResolveOp {
            origin,
            max_attempts,
            plan: ReadPlan { probes: Vec::new() },
            probe: 0,
            attempt: 0,
            failovers: 0,
        }
    }

    /// Begin an attempt over `plan` at its first probe. Called once per
    /// op, and again after a [`Step::Wait`] by a driver that re-plans
    /// (the strategy may have changed during the wait).
    #[inline]
    pub fn start(&mut self, plan: ReadPlan) -> Step {
        self.plan = plan;
        self.restart()
    }

    /// Begin an attempt over the current plan at its first probe: after a
    /// [`Step::Wait`], or to re-send after a timeout. Does not count as
    /// an attempt of its own.
    #[inline]
    pub fn restart(&mut self) -> Step {
        self.probe = 0;
        self.failovers = 0;
        Step::Call(self.plan.probes[0])
    }

    /// The probed site's reply to the get.
    #[inline]
    pub fn on_reply(&mut self, resp: &RegistryResponse) -> Step {
        match resp {
            RegistryResponse::Found { .. } => Step::Done(Outcome::Hit {
                local: self.probe == 0 && self.plan.probes[0] == self.origin,
            }),
            RegistryResponse::Error {
                error: MetaError::NotFound,
            } => self.next_probe(),
            RegistryResponse::Error {
                error: MetaError::Unavailable,
            } => {
                // Failover: a later probe may hold a replica.
                self.failovers += 1;
                self.next_probe()
            }
            RegistryResponse::Error { error } => Step::Done(Outcome::Error(error.clone())),
            other => unexpected("Found or an error", other),
        }
    }

    /// Probes of the current attempt that answered `Unavailable`.
    #[inline]
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    fn next_probe(&mut self) -> Step {
        self.probe += 1;
        if let Some(&site) = self.plan.probes.get(self.probe) {
            return Step::Call(site);
        }
        if self.failovers > 0 {
            // A NotFound never downgrades an Unavailable: with a probe
            // down, "missing" can't be trusted, and waiting won't help.
            return Step::Done(Outcome::Error(MetaError::Unavailable));
        }
        if self.attempt + 1 < self.max_attempts {
            self.attempt += 1;
            return Step::Wait(self.attempt - 1);
        }
        Step::Done(Outcome::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{build_strategy, RING_VNODES};
    use crate::entry::{FileLocation, RegistryEntry};
    use crate::hash::{ConsistentRing, SitePlacer};
    use crate::strategy::StrategyKind;

    const OWNER: SiteId = SiteId(2);
    const ELSEWHERE: SiteId = SiteId(1);
    const HOME: SiteId = SiteId(0);

    fn found() -> RegistryResponse {
        RegistryResponse::Found {
            entry: RegistryEntry::new(
                "k",
                1,
                FileLocation {
                    site: HOME,
                    node: 0,
                },
                0,
            ),
        }
    }

    fn err(error: MetaError) -> RegistryResponse {
        RegistryResponse::Error { error }
    }

    /// A key whose ring owner is [`OWNER`].
    fn owned_key() -> String {
        let ring = ConsistentRing::new((0..4).map(SiteId).collect(), RING_VNODES);
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| ring.owner(k) == OWNER)
            .unwrap()
    }

    /// Drive a resolve the way the service does (re-plan after every
    /// wait), answering each call from `replies` in order; returns every
    /// step taken.
    fn resolve(
        kind: StrategyKind,
        origin: SiteId,
        max_attempts: usize,
        replies: &[RegistryResponse],
    ) -> Vec<Step> {
        let strategy = build_strategy(kind, (0..4).map(SiteId).collect());
        let key = owned_key();
        let mut op = ResolveOp::new(origin, max_attempts);
        let mut replies = replies.iter();
        let mut steps = vec![op.start(strategy.read_plan(&key, origin))];
        loop {
            let next = match steps.last().unwrap() {
                Step::Call(_) => op.on_reply(replies.next().expect("a reply per call")),
                Step::Wait(_) => op.start(strategy.read_plan(&key, origin)),
                Step::Cast(_) => unreachable!("a resolve never casts"),
                Step::Done(_) => break,
            };
            steps.push(next);
        }
        assert!(replies.next().is_none(), "every reply consumed");
        steps
    }

    fn publish(kind: StrategyKind, origin: SiteId, reply: RegistryResponse) -> Vec<Step> {
        let strategy = build_strategy(kind, (0..4).map(SiteId).collect());
        let mut op = PublishOp::new(origin);
        let mut steps = vec![op.start(strategy.write_plan(&owned_key(), origin))];
        let mut reply = Some(reply);
        loop {
            let next = match steps.last().unwrap() {
                Step::Call(_) => op.on_reply(&reply.take().expect("one call per publish")),
                Step::Cast(_) => op.pushed(),
                Step::Wait(_) => unreachable!("a publish never waits"),
                Step::Done(_) => break,
            };
            steps.push(next);
        }
        steps
    }

    use Outcome::*;
    use Step::*;
    use StrategyKind::*;

    /// Each strategy with the origin at the key's owner (for the
    /// centralized strategy, its home) and away from it, and the sites
    /// its read plan probes.
    fn rows() -> Vec<(StrategyKind, SiteId, Vec<SiteId>)> {
        vec![
            (Centralized, HOME, vec![HOME]),
            (Centralized, ELSEWHERE, vec![HOME]),
            (Replicated, OWNER, vec![OWNER]),
            (Replicated, ELSEWHERE, vec![ELSEWHERE]),
            (DhtNonReplicated, OWNER, vec![OWNER]),
            (DhtNonReplicated, ELSEWHERE, vec![OWNER]),
            (DhtLocalReplica, OWNER, vec![OWNER]),
            (DhtLocalReplica, ELSEWHERE, vec![ELSEWHERE, OWNER]),
        ]
    }

    #[test]
    fn found_at_probe_0_is_local_only_at_the_origin() {
        for (kind, origin, probes) in rows() {
            let local = probes[0] == origin;
            assert_eq!(
                resolve(kind, origin, 3, &[found()]),
                vec![Call(probes[0]), Done(Hit { local })],
                "{kind:?} from {origin:?}"
            );
        }
    }

    #[test]
    fn not_found_then_found_at_the_owner() {
        for (kind, origin, probes) in rows() {
            let steps = resolve(kind, origin, 3, &[err(MetaError::NotFound), found()]);
            let expected = match probes[..] {
                // Two-step read: the local miss falls through to the owner.
                [local, owner] => vec![Call(local), Call(owner), Done(Hit { local: false })],
                // One probe: the miss waits, then the retry finds it.
                [only] => vec![
                    Call(only),
                    Wait(0),
                    Call(only),
                    Done(Hit {
                        local: only == origin,
                    }),
                ],
                _ => unreachable!(),
            };
            assert_eq!(steps, expected, "{kind:?} from {origin:?}");
        }
    }

    #[test]
    fn unavailable_fails_over_to_the_next_probe() {
        for (kind, origin, probes) in rows() {
            let steps = resolve(
                kind,
                origin,
                3,
                &[err(MetaError::Unavailable), found()][..probes.len()],
            );
            let expected = match probes[..] {
                [local, owner] => vec![Call(local), Call(owner), Done(Hit { local: false })],
                // Nothing to fail over to, and no retry past a down site.
                [only] => vec![Call(only), Done(Error(MetaError::Unavailable))],
                _ => unreachable!(),
            };
            assert_eq!(steps, expected, "{kind:?} from {origin:?}");
        }
        // An unavailable probe outranks a later miss.
        let steps = resolve(
            DhtLocalReplica,
            ELSEWHERE,
            3,
            &[err(MetaError::Unavailable), err(MetaError::NotFound)],
        );
        assert_eq!(
            steps,
            vec![
                Call(ELSEWHERE),
                Call(OWNER),
                Done(Error(MetaError::Unavailable))
            ]
        );
    }

    #[test]
    fn every_probe_missing_waits_under_the_budget_and_misses_at_it() {
        for (kind, origin, probes) in rows() {
            let miss = err(MetaError::NotFound);
            let attempt: Vec<Step> = probes.iter().map(|&p| Call(p)).collect();
            let replies = vec![miss.clone(); probes.len()];
            // Budget 1: the only attempt misses.
            let mut expected = attempt.clone();
            expected.push(Done(Miss));
            assert_eq!(resolve(kind, origin, 1, &replies), expected, "{kind:?}");
            // Budget 2: wait once, then the last attempt misses.
            let replies2 = vec![miss; 2 * probes.len()];
            let mut expected = attempt.clone();
            expected.push(Wait(0));
            expected.extend(attempt.iter().cloned());
            expected.push(Done(Miss));
            assert_eq!(resolve(kind, origin, 2, &replies2), expected, "{kind:?}");
        }
    }

    #[test]
    fn a_hard_error_ends_the_resolve() {
        let steps = resolve(Centralized, HOME, 3, &[err(MetaError::Contention)]);
        assert_eq!(steps, vec![Call(HOME), Done(Error(MetaError::Contention))]);
        let steps = resolve(Centralized, HOME, 3, &[RegistryResponse::Ack]);
        assert!(matches!(steps[1], Done(Error(MetaError::Codec(_)))));
    }

    #[test]
    fn publish_writes_the_completion_site_then_pushes_lazily() {
        for (kind, origin, _) in rows() {
            let expected = match (kind, origin) {
                (Centralized, o) => vec![Call(HOME), Done(Written { local: o == HOME })],
                (Replicated, o) => vec![Call(o), Done(Written { local: true })],
                (DhtNonReplicated, o) => vec![Call(OWNER), Done(Written { local: o == OWNER })],
                // With a lazy target: the owner gets the entry after the
                // local write completes.
                (DhtLocalReplica, ELSEWHERE) => {
                    vec![Call(ELSEWHERE), Cast(OWNER), Done(Written { local: true })]
                }
                // Without one: "when h corresponds to the local site, the
                // metadata is not further replicated."
                (DhtLocalReplica, o) => vec![Call(o), Done(Written { local: true })],
            };
            assert_eq!(
                publish(kind, origin, RegistryResponse::Ack),
                expected,
                "{kind:?} from {origin:?}"
            );
        }
    }

    #[test]
    fn a_failed_put_pushes_nothing() {
        let steps = publish(DhtLocalReplica, ELSEWHERE, err(MetaError::Unavailable));
        assert_eq!(
            steps,
            vec![Call(ELSEWHERE), Done(Error(MetaError::Unavailable))]
        );
    }

    #[test]
    fn current_repeats_the_step_in_flight() {
        let strategy = build_strategy(DhtLocalReplica, (0..4).map(SiteId).collect());
        let mut op = PublishOp::new(ELSEWHERE);
        let first = op.start(strategy.write_plan(&owned_key(), ELSEWHERE));
        assert_eq!(op.current(), first);
        let push = op.on_reply(&RegistryResponse::Ack);
        assert_eq!(push, Cast(OWNER));
        assert_eq!(op.current(), push);
        assert_eq!(op.sync_target(), ELSEWHERE);
    }

    #[test]
    fn restart_reprobes_from_the_first_site_without_spending_an_attempt() {
        let strategy = build_strategy(DhtLocalReplica, (0..4).map(SiteId).collect());
        let mut op = ResolveOp::new(ELSEWHERE, 2);
        op.start(strategy.read_plan(&owned_key(), ELSEWHERE));
        assert_eq!(op.on_reply(&err(MetaError::NotFound)), Call(OWNER));
        // A timeout on the owner probe: start over at the local site.
        assert_eq!(op.restart(), Call(ELSEWHERE));
        assert_eq!(op.on_reply(&err(MetaError::NotFound)), Call(OWNER));
        assert_eq!(op.on_reply(&err(MetaError::NotFound)), Wait(0));
        assert_eq!(op.restart(), Call(ELSEWHERE));
        assert_eq!(op.on_reply(&err(MetaError::Unavailable)), Call(OWNER));
        assert_eq!(op.failovers(), 1);
        assert_eq!(op.on_reply(&found()), Done(Hit { local: false }));
    }
}
