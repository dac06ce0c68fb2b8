//! `sim_figures`: the paper's own experiment on the single-threaded DES.
//!
//! A repetition runs a fixed set of simulation *cells*: `scale::run_cell`
//! at 10 000 files per site under each of the four strategies (320 000
//! simulated operations) and the quick Fig. 10 Montage and BuzzFlow grid.
//! Every cell is a hermetic seeded simulation, so its virtual-time results
//! are compared with golden rows; what the benchmark measures is the host
//! time the cells take. `--seed` only shuffles the order the cells run in.
//!
//! The simulator has no per-operation caller to time, so the four latency
//! metrics are defined here as *host time per simulated operation* of
//! small single-purpose simulations: a workflow whose tasks only publish,
//! and one whose tasks only resolve staged inputs (README, "Latency on
//! sim_figures").

use crate::os::ProcSample;
use crate::trace::{self, Span};
use geometa_core::strategy::StrategyKind;
use geometa_experiments::fig10::{self, App, Fig10Config};
use geometa_experiments::scale::{self, ScaleConfig};
use geometa_experiments::simbind::{run_workflow, SimConfig};
use geometa_sim::rng::SplitMix64;
use geometa_sim::time::SimDuration;
use geometa_sim::topology::SiteId;
use geometa_workflow::scheduler::{node_grid, schedule, SchedulerPolicy};
use geometa_workflow::{Placement, Workflow, WorkflowFile};
use std::time::Instant;

/// Files per site of the four scale cells (the paper's Fig. 5 end point
/// is 320 000 operations; this is it under every strategy).
pub const FILES_PER_SITE: usize = 10_000;

/// Micro-simulations of each kind per repetition: the sample behind the
/// publish and resolve percentiles (13 samples lie beyond p90).
const MICRO_RUNS: usize = 128;
/// Simulated operations per micro-simulation.
const MICRO_OPS: usize = 1_024;

/// One cell of the workload.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// `scale::run_cell` at [`FILES_PER_SITE`].
    Scale(StrategyKind),
    /// `fig10::run_cell` of the quick configuration.
    Fig10(App, geometa_workflow::apps::Scenario, StrategyKind),
}

impl Cell {
    /// The cell's name in golden rows and spans.
    pub fn label(&self) -> String {
        match self {
            Cell::Scale(kind) => format!("scale/{FILES_PER_SITE}/{}", kind.label()),
            Cell::Fig10(app, scenario, kind) => {
                format!(
                    "fig10/{}/{}/{}",
                    app.label(),
                    scenario.label(),
                    kind.label()
                )
            }
        }
    }
}

/// What a cell computed; everything but `events` is virtual-time output.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// [`Cell::label`].
    pub label: String,
    /// Simulated metadata operations.
    pub ops: usize,
    /// Virtual makespan in microseconds.
    pub makespan_us: u64,
    /// Virtual operations per second, rounded (0 for workflow cells).
    pub virtual_ops_s: u64,
    /// DES events dispatched (0 for workflow cells, which do not expose it).
    pub events: u64,
}

impl CellResult {
    /// The golden-file line of this result.
    pub fn row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.label, self.ops, self.makespan_us, self.virtual_ops_s, self.events
        )
    }
}

/// The workload's cells in their canonical (golden-file) order.
pub fn cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = StrategyKind::all().into_iter().map(Cell::Scale).collect();
    let cfg = Fig10Config::quick();
    for app in App::all() {
        for &scenario in &cfg.scenarios {
            for kind in StrategyKind::all() {
                cells.push(Cell::Fig10(app, scenario, kind));
            }
        }
    }
    cells
}

/// Run one cell.
pub fn run_cell(cell: Cell) -> CellResult {
    match cell {
        Cell::Scale(kind) => {
            let row = scale::run_cell(&ScaleConfig::default(), FILES_PER_SITE, kind);
            CellResult {
                label: cell.label(),
                ops: row.total_ops,
                makespan_us: row.makespan.as_micros(),
                virtual_ops_s: row.throughput.round() as u64,
                events: row.events,
            }
        }
        Cell::Fig10(app, scenario, kind) => {
            let out = fig10::run_cell(app, scenario, kind, &Fig10Config::quick());
            CellResult {
                label: cell.label(),
                ops: out.total_ops,
                makespan_us: out.makespan.as_micros(),
                virtual_ops_s: 0,
                events: 0,
            }
        }
    }
}

/// A workflow on the 4-site, 2-nodes-per-site grid whose eight tasks each
/// either publish or resolve `MICRO_OPS / 8` files and do nothing else.
fn micro_workflow(publish: bool) -> (Workflow, Placement) {
    let mut b = Workflow::builder(if publish {
        "publish-only"
    } else {
        "resolve-only"
    });
    for task in 0..8 {
        let files = (0..MICRO_OPS / 8).map(|f| format!("micro/t{task}/f{f}.dat"));
        let (inputs, outputs) = if publish {
            (
                Vec::new(),
                files.map(|n| WorkflowFile::new(n, 1024)).collect(),
            )
        } else {
            // Inputs no task produces are external: staged at every site
            // before the run, so each resolve is answered by its first probe.
            (files.collect(), Vec::new())
        };
        b.task(format!("t{task}"), inputs, outputs, SimDuration::ZERO);
    }
    let w = b.build().expect("independent tasks form a DAG");
    let sites: Vec<SiteId> = (0..4).map(SiteId).collect();
    let placement = schedule(&w, &node_grid(&sites, 2), SchedulerPolicy::RoundRobin);
    (w, placement)
}

/// Host nanoseconds one micro-simulation takes.
fn micro_ns(w: &Workflow, placement: &Placement) -> Result<u64, String> {
    let cfg = SimConfig::new(StrategyKind::DhtLocalReplica, 7);
    let started = Instant::now();
    let out = run_workflow(w, placement, &cfg);
    let ns = started.elapsed().as_nanos() as u64;
    if out.total_ops != MICRO_OPS {
        return Err(format!(
            "{}: {} operations simulated, {MICRO_OPS} expected",
            w.name(),
            out.total_ops
        ));
    }
    Ok(ns)
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// DAG construction plus one untimed pass over every cell, seconds.
    pub setup_s: f64,
    /// Host seconds the timed pass over every cell took.
    pub wall_s: f64,
    /// Simulated operations of the timed pass.
    pub ops: u64,
    /// Cell results in canonical order.
    pub results: Vec<CellResult>,
    /// Host ns per publish-only micro-simulation, ascending.
    pub publish_ns: Vec<u64>,
    /// Host ns per resolve-only micro-simulation, ascending.
    pub resolve_ns: Vec<u64>,
    /// Process counters over the timed pass.
    pub os: ProcSample,
    /// Spans of a traced repetition, one per cell.
    pub spans: Vec<Span>,
}

/// Run one repetition; `seed` fixes the order the cells run in.
pub fn run_rep(seed: u64, cpu: usize, traced: bool) -> Result<Rep, String> {
    // One worker: the workload measures the simulator, not the host's
    // core count (`fig10::run_cell` runs inline either way).
    geometa_experiments::runner::set_global_jobs(1);
    let setup_started = Instant::now();
    let (publish_w, publish_p) = micro_workflow(true);
    let (resolve_w, resolve_p) = micro_workflow(false);
    let canonical = cells();
    let mut order: Vec<usize> = (0..canonical.len()).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    // Warm-up: the whole cell set once, untimed, so the timed pass starts
    // with the allocator and caches in the state a long `repro` run has.
    for &i in &order {
        run_cell(canonical[i]);
    }
    micro_ns(&publish_w, &publish_p)?;
    micro_ns(&resolve_w, &resolve_p)?;
    let mut rep = Rep {
        setup_s: setup_started.elapsed().as_secs_f64(),
        ..Rep::default()
    };

    let mut results: Vec<Option<CellResult>> = vec![None; canonical.len()];
    let before = ProcSample::take(cpu);
    for &i in &order {
        let started = Instant::now();
        let result = if traced {
            trace::in_op(canonical[i].label(), || run_cell(canonical[i]))
        } else {
            run_cell(canonical[i])
        };
        rep.wall_s += started.elapsed().as_secs_f64();
        rep.ops += result.ops as u64;
        results[i] = Some(result);
    }
    rep.os = ProcSample::take(cpu).since(&before);
    rep.results = results.into_iter().flatten().collect();
    if traced {
        rep.spans = trace::take_spans();
    }

    for _ in 0..MICRO_RUNS {
        rep.publish_ns.push(micro_ns(&publish_w, &publish_p)?);
        rep.resolve_ns.push(micro_ns(&resolve_w, &resolve_p)?);
    }
    rep.publish_ns.sort_unstable();
    rep.resolve_ns.sort_unstable();
    Ok(rep)
}

/// Host microseconds per simulated operation at percentile `p` of the
/// micro-simulation times `sorted_ns`.
pub fn micro_us_per_op(sorted_ns: &[u64], p: f64) -> f64 {
    crate::stats::percentile(sorted_ns, p) / 1e3 / MICRO_OPS as f64
}

/// Compare `results` with the golden rows (one [`CellResult::row`] per
/// line, canonical order). Returns the number of rows that differ.
pub fn mismatches(results: &[CellResult], golden: &str) -> usize {
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<String> = results.iter().map(CellResult::row).collect();
    let differing = got.iter().zip(&want).filter(|(g, w)| g != w).count();
    differing + got.len().abs_diff(want.len())
}

/// `report::generate` of the quick CSV figure set — what
/// `repro --quick --csv` prints; compared byte for byte with the golden
/// copy once per invocation.
pub fn quick_csv() -> String {
    geometa_experiments::runner::set_global_jobs(1);
    geometa_experiments::report::generate(&geometa_experiments::report::ReportOptions {
        quick: true,
        csv: true,
        figures: true,
        ..Default::default()
    })
}
