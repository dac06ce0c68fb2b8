//! Figure 1 — cost of distance for metadata operations.
//!
//! "Average time for file-posting metadata operations performed from the
//! West Europe datacenter, when the metadata server is located within the
//! same datacenter, the same geographical region and a remote region."
//! One client in West Europe posts N ∈ {100, 500, 1000, 5000} entries to a
//! registry placed at each distance class. Expected shape: remote
//! operations take orders of magnitude longer than local ones.

use crate::calibration::Calibration;
use crate::simbind::{run_synthetic, SimConfig};
use crate::table::{secs, Table};
use geometa_core::strategy::StrategyKind;
use geometa_sim::time::SimDuration;
use geometa_sim::topology::{SiteId, Topology};
use geometa_workflow::apps::synthetic::SyntheticSpec;

/// One measured cell: N files posted to a registry at one distance class.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// Files posted.
    pub files: usize,
    /// Total time with the registry in the same datacenter.
    pub same_site: SimDuration,
    /// Total time with the registry in the same region (North Europe).
    pub same_region: SimDuration,
    /// Total time with the registry in a distant region (South Central US).
    pub distant_region: SimDuration,
}

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct Fig1Config {
    /// File counts to sweep (paper: 100, 500, 1000, 5000).
    pub file_counts: Vec<usize>,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Fig1Config {
            file_counts: vec![100, 500, 1_000, 5_000],
            seed: 1,
        }
    }
}

impl Fig1Config {
    /// Reduced sweep for tests/benches.
    pub(crate) fn quick() -> Fig1Config {
        Fig1Config {
            file_counts: vec![50, 200],
            seed: 1,
        }
    }
}

fn post_time(files: usize, home: SiteId, seed: u64) -> SimDuration {
    let spec = SyntheticSpec {
        nodes: 1, // node 0 is a writer at site 0 (West Europe)
        ops_per_node: files,
        compute_per_op: SimDuration::ZERO,
        seed,
    };
    let cfg = SimConfig {
        // Fig. 1 "isolates the metadata access times": no client overhead.
        cal: Calibration::isolated_ops(),
        centralized_home: Some(home),
        ..SimConfig::new(StrategyKind::Centralized, seed)
    };
    run_synthetic(&spec, &cfg).makespan
}

/// Run the experiment. Cells (file count × distance class) are
/// independent seeded simulations, so they fan out over the
/// [`Runner`](crate::runner::Runner) worker pool; results are keyed by
/// cell index, keeping the table byte-identical to a sequential run.
pub fn run(cfg: &Fig1Config) -> Vec<Fig1Row> {
    let topo = Topology::azure_4dc();
    let same_site = topo.site_by_name("West Europe").expect("preset site");
    let same_region = topo.site_by_name("North Europe").expect("preset site");
    let distant = topo.site_by_name("South Central US").expect("preset site");
    let homes = [same_site, same_region, distant];
    let cells: Vec<(usize, SiteId)> = cfg
        .file_counts
        .iter()
        .flat_map(|&files| homes.iter().map(move |&home| (files, home)))
        .collect();
    let times = crate::runner::Runner::from_env()
        .run(cells, |_, (files, home)| post_time(files, home, cfg.seed));
    cfg.file_counts
        .iter()
        .zip(times.chunks_exact(homes.len()))
        .map(|(&files, t)| Fig1Row {
            files,
            same_site: t[0],
            same_region: t[1],
            distant_region: t[2],
        })
        .collect()
}

/// Render paper-style output.
pub(crate) fn render(rows: &[Fig1Row]) -> Table {
    let mut t = Table::new(
        "Fig. 1 — time (s) to post N files from West Europe vs registry location",
        &["files", "same site", "same region", "distant region"],
    );
    for r in rows {
        t.row(vec![
            r.files.to_string(),
            secs(r.same_site),
            secs(r.same_region),
            secs(r.distant_region),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_hierarchy_holds() {
        let rows = run(&Fig1Config::quick());
        for r in &rows {
            assert!(
                r.same_region > r.same_site * 3,
                "same-region {} should dwarf local {}",
                r.same_region,
                r.same_site
            );
            assert!(
                r.distant_region > r.same_region * 2,
                "distant {} should dwarf same-region {}",
                r.distant_region,
                r.same_region
            );
            // The paper's headline: remote ops are orders of magnitude
            // (up to ~50x) slower than local ones.
            assert!(
                r.distant_region > r.same_site * 10,
                "distant {} vs local {}",
                r.distant_region,
                r.same_site
            );
        }
    }

    #[test]
    fn time_scales_with_file_count() {
        let rows = run(&Fig1Config::quick());
        assert!(rows[1].same_site > rows[0].same_site);
        assert!(rows[1].distant_region > rows[0].distant_region);
    }

    #[test]
    fn render_has_all_rows() {
        let rows = run(&Fig1Config::quick());
        let t = render(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
