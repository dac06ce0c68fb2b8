//! Deterministic fault injection for the DES engine.
//!
//! A [`FaultSchedule`] is a seeded, time-ordered list of fault actions —
//! site crashes and restarts, symmetric and asymmetric network partitions,
//! WAN latency/bandwidth degradation windows, and per-link message
//! drop/duplication — that the engine interleaves with ordinary event
//! dispatch at exact virtual instants. Because the schedule is data and
//! every probabilistic decision draws from a dedicated RNG stream, a run
//! with faults is exactly as reproducible as a healthy one: same seed,
//! same schedule, byte-identical outcome. This is the
//! FoundationDB-style simulation-testing posture: the scenario machine is
//! deterministic, so any failure is a replayable artifact.
//!
//! Semantics (documented here, enforced in `engine`/`network`):
//!
//! * **Crash** — actors at a crashed site stop executing: deliveries and
//!   timers addressed to them are dropped (counted, never silently).
//!   Messages already in flight *from* the site still arrive (they left
//!   before the crash). On crash and restart every actor at the site
//!   receives an [`FaultNotice`] so it can model state loss / re-arm its
//!   timers ([`crate::engine::Actor::on_fault`]).
//! * **Partition** — messages *sent* while an ordered site pair is blocked
//!   are dropped at send time; messages already in flight are delivered
//!   (they crossed before the cut). A symmetric partition blocks both
//!   directions, an asymmetric one only `a → b`.
//! * **Degradation** — a WAN window multiplies cross-site latency and
//!   divides bandwidth; the jitter RNG stream is drawn exactly as in a
//!   healthy run, so a schedule with an empty degradation window is
//!   byte-identical to no schedule at all.
//! * **Link chaos** — per ordered pair, each sent message is dropped with
//!   probability `drop` and duplicated with probability `duplicate`,
//!   decided by the fault RNG stream (actor streams are never perturbed).

use crate::rng::SplitMix64;
use crate::time::SimTime;
use crate::topology::SiteId;

/// What an actor is told when its site faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultNotice {
    /// The site just crashed. Delivered *before* the site goes dark so the
    /// actor can model the loss (e.g. a registry failing its primary
    /// cache). Handlers must not rely on being able to send — anything
    /// scheduled here may be dropped while the site is down.
    Crashed,
    /// The site came back. Timers pending at crash time were lost; re-arm
    /// whatever drives this actor's loop.
    Restarted,
}

/// One scheduled fault action.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// Take every actor at the site down.
    CrashSite(SiteId),
    /// Bring the site back (no-op if it is up).
    RestartSite(SiteId),
    /// Block traffic between the two groups: `a → b` always, `b → a` too
    /// when `symmetric`.
    Partition {
        /// One side of the cut.
        a: Vec<SiteId>,
        /// The other side.
        b: Vec<SiteId>,
        /// Whether both directions are blocked.
        symmetric: bool,
    },
    /// Unblock exactly the links a matching [`FaultAction::Partition`]
    /// blocked (window-scoped heal: other partitions stay up).
    HealLinks {
        /// One side of the healed cut.
        a: Vec<SiteId>,
        /// The other side.
        b: Vec<SiteId>,
        /// Whether both directions were blocked.
        symmetric: bool,
    },
    /// Clear every partition (all links unblocked). A global reset for
    /// hand-built schedules; [`FaultSchedule::partition_window`] pairs
    /// with [`FaultAction::HealLinks`] instead so overlapping windows
    /// compose correctly.
    HealPartition,
    /// Degrade every cross-site link: latency × `latency_mult`,
    /// bandwidth ÷ `bandwidth_div`.
    DegradeWan {
        /// Latency multiplier (≥ 1.0 for a degradation).
        latency_mult: f64,
        /// Bandwidth divisor (≥ 1).
        bandwidth_div: u64,
    },
    /// End the WAN degradation window.
    RestoreWan,
    /// Make one ordered link lossy: messages sent over it are dropped with
    /// probability `drop` and duplicated with probability `duplicate`.
    LinkChaos {
        /// Sender site.
        from: SiteId,
        /// Receiver site.
        to: SiteId,
        /// Per-message drop probability in `[0, 1]`.
        drop: f64,
        /// Per-message duplication probability in `[0, 1]`.
        duplicate: f64,
    },
    /// Restore one ordered link to lossless delivery.
    CalmLink {
        /// Sender site.
        from: SiteId,
        /// Receiver site.
        to: SiteId,
    },
}

/// A scheduled fault: `action` applies at virtual instant `at`, before any
/// ordinary event scheduled at the same instant.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// When the action applies.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A time-ordered fault plan. Build with the window helpers or push raw
/// [`FaultEvent`]s; the engine sorts by `(time, insertion order)` so the
/// plan is deterministic regardless of construction order.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (a healthy run).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when no faults are planned. The engine arms zero fault
    /// machinery in this case, keeping healthy runs byte-identical to
    /// builds that predate fault injection.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled actions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Push a raw action.
    pub(crate) fn push(&mut self, at: SimTime, action: FaultAction) -> &mut Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Crash `site` at `from`, restart it at `until`.
    pub fn crash_window(&mut self, site: SiteId, from: SimTime, until: SimTime) -> &mut Self {
        assert!(from <= until, "crash window must not be inverted");
        self.push(from, FaultAction::CrashSite(site));
        self.push(until, FaultAction::RestartSite(site));
        self
    }

    /// Kill `site`'s process at `from` and restart it at `until`. At the
    /// engine level this is exactly a [`Self::crash_window`] (messages
    /// dropped, timers lost, fault notices delivered); the *semantic*
    /// difference is owned by the actor's fault handlers — a kill models
    /// full process death, where every byte of in-memory state is gone
    /// and only a write-ahead log can bring it back, rather than a
    /// cache-primary failover with a surviving replica.
    pub fn kill_window(&mut self, site: SiteId, from: SimTime, until: SimTime) -> &mut Self {
        self.crash_window(site, from, until)
    }

    /// Partition `a` from `b` during `[from, until)`. The heal is
    /// window-scoped ([`FaultAction::HealLinks`]): overlapping partition
    /// windows on other links are unaffected.
    pub fn partition_window(
        &mut self,
        a: Vec<SiteId>,
        b: Vec<SiteId>,
        symmetric: bool,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from <= until, "partition window must not be inverted");
        self.push(
            from,
            FaultAction::Partition {
                a: a.clone(),
                b: b.clone(),
                symmetric,
            },
        );
        self.push(until, FaultAction::HealLinks { a, b, symmetric });
        self
    }

    /// Degrade the WAN during `[from, until)`.
    pub fn wan_degradation_window(
        &mut self,
        latency_mult: f64,
        bandwidth_div: u64,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from <= until, "degradation window must not be inverted");
        self.push(
            from,
            FaultAction::DegradeWan {
                latency_mult,
                bandwidth_div,
            },
        );
        self.push(until, FaultAction::RestoreWan);
        self
    }

    /// Make the ordered link `from_site → to_site` lossy during
    /// `[from, until)`.
    pub fn link_chaos_window(
        &mut self,
        from_site: SiteId,
        to_site: SiteId,
        drop: f64,
        duplicate: f64,
        from: SimTime,
        until: SimTime,
    ) -> &mut Self {
        assert!(from <= until, "chaos window must not be inverted");
        self.push(
            from,
            FaultAction::LinkChaos {
                from: from_site,
                to: to_site,
                drop,
                duplicate,
            },
        );
        self.push(
            until,
            FaultAction::CalmLink {
                from: from_site,
                to: to_site,
            },
        );
        self
    }

    /// Sort into dispatch order (stable: ties keep insertion order) and
    /// hand the events to the engine.
    pub(crate) fn into_sorted(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| e.at);
        self.events
    }

    /// Read-only view of the planned events (diagnostics, reports).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Counters for everything the fault layer did to a run. All drops are
/// counted — a message never disappears silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Site crashes applied.
    pub crashes: u64,
    /// Site restarts applied.
    pub restarts: u64,
    /// Messages dropped at send time because the link was partitioned.
    pub dropped_partition: u64,
    /// Messages dropped at delivery time because the destination site was
    /// down.
    pub dropped_crashed_dst: u64,
    /// Messages dropped by link-chaos probability.
    pub dropped_chaos: u64,
    /// Extra copies injected by link-chaos duplication.
    pub duplicated: u64,
    /// Timers lost because their actor's site was down when they fired.
    pub timers_lost: u64,
}

/// Live fault state consulted by the engine and [`crate::engine::Ctx`] on
/// every send/delivery while a schedule is active.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    num_sites: usize,
    site_down: Vec<bool>,
    /// Ordered-pair partition matrix (`from × to`).
    blocked: Vec<bool>,
    /// Ordered-pair (drop, duplicate) probabilities.
    chaos: Vec<(f64, f64)>,
    /// Fast check: any link currently lossy.
    any_chaos: bool,
    rng: SplitMix64,
    stats: FaultStats,
}

/// RNG stream index reserved for fault decisions ("fault" in ASCII).
const FAULT_RNG_STREAM: u64 = 0x0066_6175_6C74;

impl FaultState {
    /// Healthy state over `num_sites` sites; `seed` feeds drop/dup rolls.
    pub(crate) fn new(num_sites: usize, seed: u64) -> FaultState {
        FaultState {
            num_sites,
            site_down: vec![false; num_sites],
            blocked: vec![false; num_sites * num_sites],
            chaos: vec![(0.0, 0.0); num_sites * num_sites],
            any_chaos: false,
            rng: SplitMix64::new(seed).split(FAULT_RNG_STREAM),
            stats: FaultStats::default(),
        }
    }

    #[inline]
    fn link(&self, from: SiteId, to: SiteId) -> usize {
        from.index() * self.num_sites + to.index()
    }

    /// Is the site currently crashed?
    #[inline]
    pub(crate) fn site_down(&self, site: SiteId) -> bool {
        self.site_down[site.index()]
    }

    /// Is the ordered link currently partitioned?
    #[inline]
    pub(crate) fn link_blocked(&self, from: SiteId, to: SiteId) -> bool {
        self.blocked[self.link(from, to)]
    }

    /// Decide the fate of one message on `from → to`:
    /// `None` = dropped, `Some(copies)` = deliver that many copies (1
    /// normally, 2 when duplicated). Draws the fault RNG only when the
    /// link actually has chaos configured.
    pub(crate) fn roll_link(&mut self, from: SiteId, to: SiteId) -> Option<u32> {
        if self.link_blocked(from, to) {
            self.stats.dropped_partition += 1;
            return None;
        }
        if !self.any_chaos {
            return Some(1);
        }
        let (drop, dup) = self.chaos[self.link(from, to)];
        if drop > 0.0 && self.rng.chance(drop) {
            self.stats.dropped_chaos += 1;
            return None;
        }
        if dup > 0.0 && self.rng.chance(dup) {
            self.stats.duplicated += 1;
            return Some(2);
        }
        Some(1)
    }

    /// Record a delivery dropped because the destination site is down.
    pub(crate) fn count_crashed_delivery(&mut self) {
        self.stats.dropped_crashed_dst += 1;
    }

    /// Record a timer lost to a crashed site.
    pub(crate) fn count_lost_timer(&mut self) {
        self.stats.timers_lost += 1;
    }

    /// Apply a fault action to the topology-level state. Returns the sites
    /// whose actors must be notified (crash/restart), with the notice to
    /// deliver. Degradation actions are returned to the caller untouched —
    /// the engine forwards them to the network model, which owns latency
    /// math.
    pub(crate) fn apply(&mut self, action: &FaultAction) -> Option<(SiteId, FaultNotice)> {
        match action {
            FaultAction::CrashSite(site) => {
                if self.site_down[site.index()] {
                    return None; // already down
                }
                self.site_down[site.index()] = true;
                self.stats.crashes += 1;
                Some((*site, FaultNotice::Crashed))
            }
            FaultAction::RestartSite(site) => {
                if !self.site_down[site.index()] {
                    return None; // already up
                }
                self.site_down[site.index()] = false;
                self.stats.restarts += 1;
                Some((*site, FaultNotice::Restarted))
            }
            FaultAction::Partition { a, b, symmetric } => {
                self.set_links(a, b, *symmetric, true);
                None
            }
            FaultAction::HealLinks { a, b, symmetric } => {
                self.set_links(a, b, *symmetric, false);
                None
            }
            FaultAction::HealPartition => {
                self.blocked.iter_mut().for_each(|b| *b = false);
                None
            }
            FaultAction::LinkChaos {
                from,
                to,
                drop,
                duplicate,
            } => {
                assert!(
                    (0.0..=1.0).contains(drop) && (0.0..=1.0).contains(duplicate),
                    "chaos probabilities must be in [0, 1]"
                );
                let i = self.link(*from, *to);
                self.chaos[i] = (*drop, *duplicate);
                self.any_chaos = self.chaos.iter().any(|&(d, p)| d > 0.0 || p > 0.0);
                None
            }
            FaultAction::CalmLink { from, to } => {
                let i = self.link(*from, *to);
                self.chaos[i] = (0.0, 0.0);
                self.any_chaos = self.chaos.iter().any(|&(d, p)| d > 0.0 || p > 0.0);
                None
            }
            // Network-model territory; nothing to track here.
            FaultAction::DegradeWan { .. } | FaultAction::RestoreWan => None,
        }
    }

    fn set_links(&mut self, a: &[SiteId], b: &[SiteId], symmetric: bool, blocked: bool) {
        for &x in a {
            for &y in b {
                let i = self.link(x, y);
                self.blocked[i] = blocked;
                if symmetric {
                    let j = self.link(y, x);
                    self.blocked[j] = blocked;
                }
            }
        }
    }

    /// Everything the fault layer did so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_windows_expand_to_paired_actions() {
        let mut s = FaultSchedule::new();
        s.crash_window(SiteId(1), SimTime(100), SimTime(200));
        s.partition_window(
            vec![SiteId(0)],
            vec![SiteId(1)],
            true,
            SimTime(50),
            SimTime(150),
        );
        assert_eq!(s.len(), 4);
        let sorted = s.into_sorted();
        assert_eq!(sorted[0].at, SimTime(50));
        assert_eq!(sorted[3].at, SimTime(200));
    }

    #[test]
    fn crash_and_restart_flip_site_state_once() {
        let mut f = FaultState::new(4, 1);
        assert_eq!(
            f.apply(&FaultAction::CrashSite(SiteId(2))),
            Some((SiteId(2), FaultNotice::Crashed))
        );
        assert!(f.site_down(SiteId(2)));
        // Double crash is a no-op.
        assert_eq!(f.apply(&FaultAction::CrashSite(SiteId(2))), None);
        assert_eq!(
            f.apply(&FaultAction::RestartSite(SiteId(2))),
            Some((SiteId(2), FaultNotice::Restarted))
        );
        assert!(!f.site_down(SiteId(2)));
        assert_eq!(f.apply(&FaultAction::RestartSite(SiteId(2))), None);
        assert_eq!(f.stats().crashes, 1);
        assert_eq!(f.stats().restarts, 1);
    }

    #[test]
    fn symmetric_partition_blocks_both_directions() {
        let mut f = FaultState::new(4, 1);
        f.apply(&FaultAction::Partition {
            a: vec![SiteId(0), SiteId(1)],
            b: vec![SiteId(2), SiteId(3)],
            symmetric: true,
        });
        assert!(f.link_blocked(SiteId(0), SiteId(2)));
        assert!(f.link_blocked(SiteId(3), SiteId(1)));
        assert!(!f.link_blocked(SiteId(0), SiteId(1)), "same side untouched");
        f.apply(&FaultAction::HealPartition);
        assert!(!f.link_blocked(SiteId(0), SiteId(2)));
    }

    #[test]
    fn overlapping_partition_windows_heal_independently() {
        let mut f = FaultState::new(4, 1);
        f.apply(&FaultAction::Partition {
            a: vec![SiteId(0)],
            b: vec![SiteId(1)],
            symmetric: true,
        });
        f.apply(&FaultAction::Partition {
            a: vec![SiteId(2)],
            b: vec![SiteId(3)],
            symmetric: true,
        });
        // Healing the first cut must leave the second fully blocked.
        f.apply(&FaultAction::HealLinks {
            a: vec![SiteId(0)],
            b: vec![SiteId(1)],
            symmetric: true,
        });
        assert!(!f.link_blocked(SiteId(0), SiteId(1)));
        assert!(f.link_blocked(SiteId(2), SiteId(3)));
        assert!(f.link_blocked(SiteId(3), SiteId(2)));
        f.apply(&FaultAction::HealLinks {
            a: vec![SiteId(2)],
            b: vec![SiteId(3)],
            symmetric: true,
        });
        assert!(!f.link_blocked(SiteId(2), SiteId(3)));
    }

    #[test]
    fn asymmetric_partition_blocks_one_direction() {
        let mut f = FaultState::new(4, 1);
        f.apply(&FaultAction::Partition {
            a: vec![SiteId(0)],
            b: vec![SiteId(3)],
            symmetric: false,
        });
        assert!(f.link_blocked(SiteId(0), SiteId(3)));
        assert!(!f.link_blocked(SiteId(3), SiteId(0)));
        // Blocked sends are counted as partition drops.
        assert_eq!(f.roll_link(SiteId(0), SiteId(3)), None);
        assert_eq!(f.roll_link(SiteId(3), SiteId(0)), Some(1));
        assert_eq!(f.stats().dropped_partition, 1);
    }

    #[test]
    fn link_chaos_drops_and_duplicates_at_configured_rates() {
        let mut f = FaultState::new(2, 7);
        f.apply(&FaultAction::LinkChaos {
            from: SiteId(0),
            to: SiteId(1),
            drop: 0.3,
            duplicate: 0.2,
        });
        let n = 20_000;
        let mut dropped = 0u32;
        let mut dupped = 0u32;
        for _ in 0..n {
            match f.roll_link(SiteId(0), SiteId(1)) {
                None => dropped += 1,
                Some(2) => dupped += 1,
                Some(_) => {}
            }
        }
        let drop_rate = dropped as f64 / n as f64;
        // Duplication is rolled only on non-dropped messages: 0.7 * 0.2.
        let dup_rate = dupped as f64 / n as f64;
        assert!((drop_rate - 0.3).abs() < 0.02, "drop rate {drop_rate}");
        assert!((dup_rate - 0.14).abs() < 0.02, "dup rate {dup_rate}");
        // The untouched direction is lossless and draws no RNG.
        assert_eq!(f.roll_link(SiteId(1), SiteId(0)), Some(1));
        f.apply(&FaultAction::CalmLink {
            from: SiteId(0),
            to: SiteId(1),
        });
        for _ in 0..100 {
            assert_eq!(f.roll_link(SiteId(0), SiteId(1)), Some(1));
        }
    }

    #[test]
    fn chaos_rolls_are_deterministic_per_seed() {
        let run = |seed| {
            let mut f = FaultState::new(2, seed);
            f.apply(&FaultAction::LinkChaos {
                from: SiteId(0),
                to: SiteId(1),
                drop: 0.5,
                duplicate: 0.25,
            });
            (0..64)
                .map(|_| f.roll_link(SiteId(0), SiteId(1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "window must not be inverted")]
    fn inverted_window_panics() {
        FaultSchedule::new().crash_window(SiteId(0), SimTime(10), SimTime(5));
    }
}
