//! Multi-site cloud topology: regions, datacenters, and the latency
//! hierarchy between them.
//!
//! The paper (§IV) distinguishes three distance classes between an execution
//! node and a metadata registry instance:
//!
//! * **local** — same datacenter,
//! * **same-region** — different datacenters of one geographic region,
//! * **geo-distant** — datacenters in different regions.
//!
//! Its Figure 1 shows these differ by orders of magnitude (remote up to ~50x
//! a local operation). [`Topology`] captures a set of sites with a pairwise
//! one-way latency matrix and per-pair bandwidth; [`Topology::azure_4dc`]
//! reproduces the paper's testbed: North Europe, West Europe, East US and
//! South Central US, with East US the most *central* site and South Central
//! US the least (paper §VI-B, "impact of the geographical location").

use crate::time::SimDuration;
use std::fmt;

/// Identifier of a datacenter (site). Dense indices starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The site index as a usize (for vector indexing).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A geographic region (e.g. Europe, US). Sites in the same region are
/// "same-region"; across regions they are "geo-distant".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Region(pub u16);

/// Distance class between two sites, per the paper's terminology (§IV).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Distance {
    /// Same datacenter.
    Local,
    /// Different datacenters, same geographic region.
    SameRegion,
    /// Different geographic regions.
    GeoDistant,
}

/// Static description of one datacenter.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// Human-readable name, e.g. `"West Europe"`.
    pub name: String,
    /// Geographic region this site belongs to.
    pub region: Region,
}

/// Default one-way latency inside a datacenter (node ↔ co-located service).
/// 1 ms one-way ⇒ 2 ms RTT, matching the paper's observation that local
/// metadata operations take "negligible time in comparison with remote ones".
pub(crate) const DEFAULT_LOCAL_ONE_WAY: SimDuration = SimDuration::from_micros(1_000);
/// Default one-way latency between datacenters of the same region
/// (12.5 ms ⇒ 25 ms RTT).
pub(crate) const DEFAULT_SAME_REGION_ONE_WAY: SimDuration = SimDuration::from_micros(12_500);
/// Default one-way latency between geo-distant datacenters
/// (50 ms ⇒ 100 ms RTT — the paper's "up to 50x" a local op).
pub(crate) const DEFAULT_GEO_DISTANT_ONE_WAY: SimDuration = SimDuration::from_micros(50_000);

/// Default usable bandwidth per flow, bytes/second. Inter-datacenter WAN
/// paths are shared and far slower than intra-DC networks; 50 MB/s per flow
/// is a conservative public-cloud figure. Only matters for large payloads —
/// metadata messages are dominated by latency.
pub(crate) const DEFAULT_WAN_BANDWIDTH: u64 = 50 * 1024 * 1024;
/// Default intra-datacenter bandwidth per flow, bytes/second.
pub(crate) const DEFAULT_LAN_BANDWIDTH: u64 = 500 * 1024 * 1024;

/// A multi-site cloud topology: sites plus pairwise one-way latency and
/// bandwidth. Symmetric by construction through the builder API.
#[derive(Clone, Debug)]
pub struct Topology {
    sites: Vec<SiteSpec>,
    /// One-way latency, indexed `[from][to]`. Diagonal = local latency.
    latency: Vec<Vec<SimDuration>>,
    /// Bandwidth in bytes/second, indexed `[from][to]`.
    bandwidth: Vec<Vec<u64>>,
    /// Relative jitter spread applied to latency (e.g. 0.05 = ±5%).
    jitter_frac: f64,
}

impl Topology {
    /// Start building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder {
            sites: Vec::new(),
            overrides: Vec::new(),
            local_one_way: DEFAULT_LOCAL_ONE_WAY,
            same_region_one_way: DEFAULT_SAME_REGION_ONE_WAY,
            geo_distant_one_way: DEFAULT_GEO_DISTANT_ONE_WAY,
            lan_bandwidth: DEFAULT_LAN_BANDWIDTH,
            wan_bandwidth: DEFAULT_WAN_BANDWIDTH,
            jitter_frac: 0.05,
        }
    }

    /// The paper's testbed: four Azure datacenters, two per region.
    ///
    /// Pairwise latencies are chosen so that *East US* is the most central
    /// site (smallest average distance to the others) and *South Central US*
    /// the least central, matching the best/worst cases observed in the
    /// paper's Figure 6 discussion.
    pub fn azure_4dc() -> Topology {
        const EU: Region = Region(0);
        const US: Region = Region(1);
        Topology::builder()
            .site("West Europe", EU) // SiteId(0)
            .site("North Europe", EU) // SiteId(1)
            .site("East US", US) // SiteId(2)
            .site("South Central US", US) // SiteId(3)
            // One-way latencies (ms): East US sits closest to Europe of the
            // two US sites; South Central US is farthest from everyone.
            .link_ms(0, 1, 12) // WE  <-> NE   (same region)
            .link_ms(0, 2, 60) // WE  <-> EUS
            .link_ms(0, 3, 85) // WE  <-> SCUS
            .link_ms(1, 2, 58) // NE  <-> EUS
            .link_ms(1, 3, 83) // NE  <-> SCUS
            .link_ms(2, 3, 18) // EUS <-> SCUS (same region)
            .build()
    }

    /// A single-datacenter topology (a degenerate baseline for tests).
    #[cfg(test)]
    pub(crate) fn single_site() -> Topology {
        Topology::builder().site("Solo", Region(0)).build()
    }

    /// Number of sites.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Iterate over all site ids.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.sites.len() as u16).map(SiteId)
    }

    /// Site metadata.
    pub fn site(&self, id: SiteId) -> &SiteSpec {
        &self.sites[id.index()]
    }

    /// Look a site up by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.sites
            .iter()
            .position(|s| s.name == name)
            .map(|i| SiteId(i as u16))
    }

    /// One-way latency between two sites (diagonal = intra-site latency).
    #[inline]
    pub fn one_way_latency(&self, from: SiteId, to: SiteId) -> SimDuration {
        self.latency[from.index()][to.index()]
    }

    /// Round-trip latency between two sites.
    #[inline]
    pub fn rtt(&self, a: SiteId, b: SiteId) -> SimDuration {
        self.one_way_latency(a, b) + self.one_way_latency(b, a)
    }

    /// Bandwidth (bytes/second) between two sites.
    #[inline]
    pub(crate) fn bandwidth(&self, from: SiteId, to: SiteId) -> u64 {
        self.bandwidth[from.index()][to.index()]
    }

    /// Relative jitter spread applied to latencies.
    #[inline]
    pub(crate) fn jitter_frac(&self) -> f64 {
        self.jitter_frac
    }

    /// Distance class between two sites.
    pub fn distance(&self, a: SiteId, b: SiteId) -> Distance {
        if a == b {
            Distance::Local
        } else if self.sites[a.index()].region == self.sites[b.index()].region {
            Distance::SameRegion
        } else {
            Distance::GeoDistant
        }
    }

    /// A site's *centrality*: average one-way latency to every **other**
    /// site. Lower is more central. The paper observes that the best-
    /// performing nodes under decentralized strategies live in the most
    /// central datacenter.
    pub fn centrality(&self, site: SiteId) -> SimDuration {
        let others: Vec<_> = self.site_ids().filter(|&s| s != site).collect();
        if others.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = others
            .iter()
            .map(|&o| self.one_way_latency(site, o).as_micros())
            .sum();
        SimDuration::from_micros(total / others.len() as u64)
    }

    /// Sites ordered from most central to least central.
    pub fn sites_by_centrality(&self) -> Vec<SiteId> {
        let mut ids: Vec<SiteId> = self.site_ids().collect();
        ids.sort_by_key(|&s| self.centrality(s));
        ids
    }
}

/// Builder for [`Topology`].
pub struct TopologyBuilder {
    sites: Vec<SiteSpec>,
    overrides: Vec<(usize, usize, SimDuration)>,
    local_one_way: SimDuration,
    same_region_one_way: SimDuration,
    geo_distant_one_way: SimDuration,
    lan_bandwidth: u64,
    wan_bandwidth: u64,
    jitter_frac: f64,
}

impl TopologyBuilder {
    /// Add a site; returns the builder. Sites get dense ids in call order.
    pub fn site(mut self, name: &str, region: Region) -> Self {
        self.sites.push(SiteSpec {
            name: name.to_string(),
            region,
        });
        self
    }

    /// Set the default intra-site one-way latency.
    pub fn local_latency(mut self, one_way: SimDuration) -> Self {
        self.local_one_way = one_way;
        self
    }

    /// Set the default same-region one-way latency.
    pub fn same_region_latency(mut self, one_way: SimDuration) -> Self {
        self.same_region_one_way = one_way;
        self
    }

    /// Set the default geo-distant one-way latency.
    pub fn geo_distant_latency(mut self, one_way: SimDuration) -> Self {
        self.geo_distant_one_way = one_way;
        self
    }

    /// Override the one-way latency of one pair (applied symmetrically),
    /// in milliseconds.
    pub(crate) fn link_ms(self, a: u16, b: u16, one_way_ms: u64) -> Self {
        self.link(a, b, SimDuration::from_millis(one_way_ms))
    }

    /// Override the one-way latency of one pair (applied symmetrically).
    pub(crate) fn link(mut self, a: u16, b: u16, one_way: SimDuration) -> Self {
        self.overrides.push((a as usize, b as usize, one_way));
        self
    }

    /// Set the relative jitter spread (0.0 disables jitter).
    #[cfg(test)]
    pub(crate) fn jitter(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        self.jitter_frac = frac;
        self
    }

    /// Finalize. Panics if no sites were declared or an override references
    /// an unknown site.
    pub fn build(self) -> Topology {
        assert!(!self.sites.is_empty(), "topology needs at least one site");
        let n = self.sites.len();
        let mut latency = vec![vec![SimDuration::ZERO; n]; n];
        let mut bandwidth = vec![vec![self.wan_bandwidth; n]; n];
        for (i, row) in latency.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = if i == j {
                    self.local_one_way
                } else if self.sites[i].region == self.sites[j].region {
                    self.same_region_one_way
                } else {
                    self.geo_distant_one_way
                };
            }
            bandwidth[i][i] = self.lan_bandwidth;
        }
        for (a, b, d) in self.overrides {
            assert!(a < n && b < n, "link override references unknown site");
            latency[a][b] = d;
            latency[b][a] = d;
        }
        Topology {
            sites: self.sites,
            latency,
            bandwidth,
            jitter_frac: self.jitter_frac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_preset_has_four_sites_two_regions() {
        let t = Topology::azure_4dc();
        assert_eq!(t.num_sites(), 4);
        let regions: std::collections::BTreeSet<_> =
            t.site_ids().map(|s| t.site(s).region).collect();
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn distance_classes_follow_regions() {
        let t = Topology::azure_4dc();
        let we = t.site_by_name("West Europe").unwrap();
        let ne = t.site_by_name("North Europe").unwrap();
        let eus = t.site_by_name("East US").unwrap();
        assert_eq!(t.distance(we, we), Distance::Local);
        assert_eq!(t.distance(we, ne), Distance::SameRegion);
        assert_eq!(t.distance(we, eus), Distance::GeoDistant);
    }

    #[test]
    fn latency_hierarchy_is_orders_of_magnitude() {
        // Paper Fig. 1: local << same-region << geo-distant; remote up to
        // ~50x local.
        let t = Topology::azure_4dc();
        let we = t.site_by_name("West Europe").unwrap();
        let ne = t.site_by_name("North Europe").unwrap();
        let scus = t.site_by_name("South Central US").unwrap();
        let local = t.rtt(we, we).as_micros();
        let same_region = t.rtt(we, ne).as_micros();
        let distant = t.rtt(we, scus).as_micros();
        assert!(same_region >= 5 * local);
        assert!(distant >= 3 * same_region);
        assert!(
            distant >= 50 * local,
            "geo-distant {distant} vs local {local}"
        );
    }

    #[test]
    fn latency_matrix_is_symmetric() {
        let t = Topology::azure_4dc();
        for a in t.site_ids() {
            for b in t.site_ids() {
                assert_eq!(t.one_way_latency(a, b), t.one_way_latency(b, a));
            }
        }
    }

    #[test]
    fn east_us_is_most_central_south_central_least() {
        // Matches the paper's §VI-B observation.
        let t = Topology::azure_4dc();
        let order = t.sites_by_centrality();
        assert_eq!(t.site(order[0]).name, "East US");
        assert_eq!(t.site(*order.last().unwrap()).name, "South Central US");
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let t = Topology::builder()
            .site("a", Region(0))
            .site("b", Region(0))
            .site("c", Region(1))
            .link_ms(0, 2, 99)
            .build();
        assert_eq!(
            t.one_way_latency(SiteId(0), SiteId(1)),
            DEFAULT_SAME_REGION_ONE_WAY
        );
        assert_eq!(
            t.one_way_latency(SiteId(1), SiteId(2)),
            DEFAULT_GEO_DISTANT_ONE_WAY
        );
        assert_eq!(
            t.one_way_latency(SiteId(0), SiteId(2)),
            SimDuration::from_millis(99)
        );
        assert_eq!(
            t.one_way_latency(SiteId(2), SiteId(0)),
            SimDuration::from_millis(99)
        );
    }

    #[test]
    fn bandwidth_lan_beats_wan() {
        let t = Topology::azure_4dc();
        assert!(t.bandwidth(SiteId(0), SiteId(0)) > t.bandwidth(SiteId(0), SiteId(2)));
    }

    #[test]
    fn single_site_centrality_is_zero() {
        let t = Topology::single_site();
        assert_eq!(t.centrality(SiteId(0)), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_topology_panics() {
        let _ = Topology::builder().build();
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn bad_override_panics() {
        let _ = Topology::builder()
            .site("a", Region(0))
            .link_ms(0, 5, 10)
            .build();
    }
}
