//! Network model: message delays and per-link accounting.
//!
//! A message from site A to site B experiences
//! `one-way latency(A,B) + size / bandwidth(A,B) ± jitter`.
//! Jitter is a uniform relative perturbation of the latency term drawn from
//! a deterministic RNG stream, so runs stay reproducible.
//!
//! Metadata messages are tiny (hundreds of bytes); the latency term
//! dominates, exactly as in the paper, whose Figure 1 experiment posts
//! empty files "to hinder other factors such as caching effects and disk
//! contention". Bandwidth matters only when this substrate is reused to
//! model bulk file movement.

use crate::rng::SplitMix64;
use crate::time::SimDuration;
use crate::topology::{SiteId, Topology};

/// Per-ordered-pair traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages delivered over this link.
    pub messages: u64,
    /// Payload bytes delivered over this link.
    pub bytes: u64,
}

/// Computes message delays over a [`Topology`] and accounts traffic.
///
/// Link statistics live in a flat `sites × sites` table so the per-message
/// accounting on the simulator's hottest path is two array indexings, not
/// a tree probe.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    topology: Topology,
    rng: SplitMix64,
    stats: Vec<LinkStats>,
    num_sites: usize,
    /// Active WAN degradation window: `(latency multiplier, bandwidth
    /// divisor)` applied to every cross-site pair. `None` (the healthy
    /// state) takes the exact pre-fault-injection code path, so seeded
    /// healthy runs stay byte-identical.
    wan_degradation: Option<(f64, u64)>,
}

impl NetworkModel {
    /// Build a network model over a topology. `seed` controls jitter.
    pub(crate) fn new(topology: Topology, seed: u64) -> NetworkModel {
        let num_sites = topology.num_sites();
        NetworkModel {
            topology,
            rng: SplitMix64::new(seed).split(NET_RNG_STREAM),
            stats: vec![LinkStats::default(); num_sites * num_sites],
            num_sites,
            wan_degradation: None,
        }
    }

    /// Start a WAN degradation window: cross-site latency is multiplied by
    /// `latency_mult` and bandwidth divided by `bandwidth_div` until
    /// [`Self::clear_wan_degradation`]. Local (same-site) links are
    /// unaffected. The jitter RNG stream is drawn exactly as in a healthy
    /// run, so runs diverge only in the delays themselves.
    pub(crate) fn set_wan_degradation(&mut self, latency_mult: f64, bandwidth_div: u64) {
        assert!(
            latency_mult >= 1.0 && bandwidth_div >= 1,
            "degradation must not speed the network up"
        );
        self.wan_degradation = Some((latency_mult, bandwidth_div));
    }

    /// End the WAN degradation window.
    pub(crate) fn clear_wan_degradation(&mut self) {
        self.wan_degradation = None;
    }

    #[inline]
    fn link_index(&self, from: SiteId, to: SiteId) -> usize {
        from.index() * self.num_sites + to.index()
    }

    /// The underlying topology.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Delay for a `size_bytes` message from `from` to `to`, including
    /// jitter; also records the traffic.
    pub(crate) fn delay(&mut self, from: SiteId, to: SiteId, size_bytes: u64) -> SimDuration {
        let base = self.topology.one_way_latency(from, to);
        let mut bw = self.topology.bandwidth(from, to);
        let (lat_mult, degraded) = match self.wan_degradation {
            Some((m, d)) if from != to => {
                bw = (bw / d).max(1);
                (m, true)
            }
            _ => (1.0, false),
        };
        let transfer = SimDuration::from_micros(
            size_bytes
                .saturating_mul(1_000_000)
                .checked_div(bw)
                .unwrap_or(0),
        );
        let jitter_frac = self.topology.jitter_frac();
        let mut jittered = if jitter_frac > 0.0 {
            let j = self.rng.jitter(jitter_frac);
            base.mul_f64((1.0 + j).max(0.0))
        } else {
            base
        };
        if degraded {
            jittered = jittered.mul_f64(lat_mult);
        }
        let entry = &mut self.stats[(from.index() * self.num_sites) + to.index()];
        entry.messages += 1;
        entry.bytes += size_bytes;
        jittered + transfer
    }

    /// Delay without jitter or accounting (for analytical estimates).
    #[cfg(test)]
    fn nominal_delay(&self, from: SiteId, to: SiteId, size_bytes: u64) -> SimDuration {
        let base = self.topology.one_way_latency(from, to);
        let bw = self.topology.bandwidth(from, to);
        let transfer = SimDuration::from_micros(
            size_bytes
                .saturating_mul(1_000_000)
                .checked_div(bw)
                .unwrap_or(0),
        );
        base + transfer
    }

    /// Stats for one ordered pair.
    pub fn link_stats(&self, from: SiteId, to: SiteId) -> LinkStats {
        self.stats[self.link_index(from, to)]
    }

    /// Total messages that crossed datacenter boundaries.
    pub fn wan_messages(&self) -> u64 {
        self.fold_wan(|s| s.messages)
    }

    fn fold_wan(&self, f: impl Fn(&LinkStats) -> u64) -> u64 {
        self.stats
            .iter()
            .enumerate()
            .filter(|(i, _)| i / self.num_sites != i % self.num_sites)
            .map(|(_, s)| f(s))
            .sum()
    }
}

/// RNG stream index reserved for network jitter ("network" in ASCII).
const NET_RNG_STREAM: u64 = 0x006E_6574_776F_726B;

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetworkModel {
        NetworkModel::new(Topology::azure_4dc(), 1)
    }

    #[test]
    fn local_faster_than_remote() {
        let m = model();
        let local = m.nominal_delay(SiteId(0), SiteId(0), 256);
        let remote = m.nominal_delay(SiteId(0), SiteId(3), 256);
        assert!(remote > local * 10);
    }

    #[test]
    fn size_increases_delay() {
        let m = model();
        let small = m.nominal_delay(SiteId(0), SiteId(2), 1_000);
        let large = m.nominal_delay(SiteId(0), SiteId(2), 100 * 1024 * 1024);
        assert!(large > small);
        // 100 MiB at 50 MiB/s ≈ 2 s of transfer time.
        assert!(large.as_secs_f64() > 1.5);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut m = model();
        let base = m.topology().one_way_latency(SiteId(0), SiteId(2));
        let frac = m.topology().jitter_frac();
        for _ in 0..1_000 {
            let d = m.delay(SiteId(0), SiteId(2), 0);
            let lo = base.mul_f64(1.0 - frac - 1e-9);
            let hi = base.mul_f64(1.0 + frac + 1e-9);
            assert!(d >= lo && d <= hi, "delay {d} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn delay_is_deterministic_per_seed() {
        let mut a = NetworkModel::new(Topology::azure_4dc(), 9);
        let mut b = NetworkModel::new(Topology::azure_4dc(), 9);
        for _ in 0..50 {
            assert_eq!(
                a.delay(SiteId(1), SiteId(2), 128),
                b.delay(SiteId(1), SiteId(2), 128)
            );
        }
    }

    #[test]
    fn accounting_tracks_wan_and_lan_separately() {
        let mut m = model();
        m.delay(SiteId(0), SiteId(0), 100); // LAN
        m.delay(SiteId(0), SiteId(1), 200); // WAN
        m.delay(SiteId(0), SiteId(1), 300); // WAN
        assert_eq!(m.link_stats(SiteId(0), SiteId(0)).messages, 1);
        assert_eq!(m.link_stats(SiteId(0), SiteId(1)).messages, 2);
        assert_eq!(m.wan_messages(), 2);
        assert_eq!(m.link_stats(SiteId(0), SiteId(1)).bytes, 500);
    }
}
