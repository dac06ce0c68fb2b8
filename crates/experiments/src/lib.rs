//! # geometa-experiments — reproducing the paper's evaluation
//!
//! One module per figure/table of *Towards Multi-site Metadata Management
//! for Geographically Distributed Cloud Workflows* (CLUSTER 2015):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`]  | Fig. 1 — metadata op time vs registry distance |
//! | [`fig5`]  | Fig. 5 — node execution time vs ops/node, 4 strategies |
//! | [`fig6`]  | Fig. 6 — progress curves + the site-centrality analysis |
//! | [`fig7`]  | Fig. 7 — throughput vs node count |
//! | [`fig8`]  | Fig. 8 — fixed 32k-op batch completion vs node count |
//! | [`fig10`] | Fig. 10 — BuzzFlow/Montage makespans, Table I scenarios |
//! | [`scale`] | beyond-paper sweep: 10k–100k files per site |
//!
//! Experiment grids are matrices of independent cells; [`runner`] executes
//! them on a deterministic worker pool (`repro --jobs N` / `GEOMETA_JOBS`)
//! whose aggregated output is byte-identical to sequential order.
//! [`report`] assembles the full `repro` output as a string so tests can
//! byte-compare it across worker counts.
//!
//! [`simbind`] binds the real middleware (`geometa-core` registry
//! instances, strategies, sync-agent state machine) into the
//! discrete-event simulator — the *same* registry code that runs in the
//! live threaded cluster serves requests inside the simulation.
//! [`calibration`] holds the latency/service constants and their
//! rationale. The `repro` binary runs everything and prints paper-style
//! tables.

pub mod calibration;
pub mod chaos;
pub mod fig1;
pub mod fig10;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
pub mod report;
pub mod runner;
pub mod scale;
pub mod simbind;
pub mod table;

pub use calibration::Calibration;
pub use chaos::{ChaosApp, ChaosCell, ChaosFault, ChaosReport, ChaosSize, ChaosViolation};
pub use runner::Runner;
pub use simbind::{
    run_synthetic, run_workflow, SimArtifacts, SimConfig, SyntheticOutcome, WorkflowOutcome,
};
