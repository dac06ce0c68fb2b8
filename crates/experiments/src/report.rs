//! Assembling the full `repro` output as a string.
//!
//! The `repro` binary used to build its report inline in `main`; the
//! driver lives here now so the determinism gate
//! (`tests/parallel_determinism.rs`) can generate the *entire* report —
//! every figure table, headline line and chaos-matrix row — under
//! different worker counts and assert the bytes are identical. Progress
//! chatter goes to stderr; only the returned string is the deterministic
//! artifact.

use crate::{chaos, fig1, fig10, fig5, fig6, fig7, fig8, scale, table};
use std::fmt::Write as _;

/// What to generate.
#[derive(Clone, Debug, Default)]
pub struct ReportOptions {
    /// Reduced sizes (seconds instead of minutes).
    pub quick: bool,
    /// CSV output instead of ASCII tables.
    pub csv: bool,
    /// Include the fault-injection matrix + invariant oracle.
    pub chaos: bool,
    /// Include the beyond-paper scale sweep.
    pub scale: bool,
    /// Include the figure set at all (`repro scale` alone turns it off).
    pub figures: bool,
    /// Figure subset (empty = all figures).
    pub sections: Vec<String>,
}

impl ReportOptions {
    fn want(&self, name: &str) -> bool {
        self.figures && (self.sections.is_empty() || self.sections.iter().any(|s| s == name))
    }

    fn emit(&self, out: &mut String, t: &table::Table) {
        if self.csv {
            out.push_str(&t.to_csv());
        } else {
            out.push_str(&t.render());
            out.push('\n');
        }
    }
}

/// Generate the report: regenerate every requested table/figure and
/// return the concatenated output. Byte-identical for every worker count
/// (the sweeps run on the index-keyed [`Runner`](crate::runner::Runner)
/// pool; see the determinism gate).
pub fn generate(opts: &ReportOptions) -> String {
    let mut out = String::new();
    if opts.want("fig1") {
        let cfg = if opts.quick {
            fig1::Fig1Config::quick()
        } else {
            fig1::Fig1Config::default()
        };
        eprintln!("[repro] fig1 ...");
        opts.emit(&mut out, &fig1::render(&fig1::run(&cfg)));
    }
    if opts.want("fig5") {
        let cfg = if opts.quick {
            fig5::Fig5Config::quick()
        } else {
            fig5::Fig5Config::default()
        };
        eprintln!("[repro] fig5 ...");
        let rows = fig5::run(&cfg);
        opts.emit(&mut out, &fig5::render(&rows));
        let _ = writeln!(
            out,
            "headline: best decentralized gain over centralized at the largest point = {:.0}%\n",
            fig5::headline_gain(&rows) * 100.0
        );
    }
    if opts.want("fig6") {
        let cfg = if opts.quick {
            fig6::Fig6Config::quick()
        } else {
            fig6::Fig6Config::default()
        };
        eprintln!("[repro] fig6 ...");
        let o = fig6::run(&cfg);
        opts.emit(&mut out, &fig6::render(&o));
        opts.emit(&mut out, &fig6::render_centrality(&o));
        let _ = writeln!(
            out,
            "headline: DR speedup over DN in the 20-70% band = {:.2}x\n",
            fig6::midband_speedup(&o)
        );
    }
    if opts.want("fig7") {
        let cfg = if opts.quick {
            fig7::Fig7Config::quick()
        } else {
            fig7::Fig7Config::default()
        };
        eprintln!("[repro] fig7 ...");
        opts.emit(&mut out, &fig7::render(&fig7::run(&cfg)));
    }
    if opts.want("fig8") {
        let cfg = if opts.quick {
            fig8::Fig8Config::quick()
        } else {
            fig8::Fig8Config::default()
        };
        eprintln!("[repro] fig8 ...");
        opts.emit(&mut out, &fig8::render(&fig8::run(&cfg)));
    }
    if opts.want("fig10") {
        let cfg = if opts.quick {
            fig10::Fig10Config::quick()
        } else {
            fig10::Fig10Config::default()
        };
        eprintln!("[repro] fig10 ...");
        let rows = fig10::run(&cfg);
        opts.emit(&mut out, &fig10::render(&rows));
        for r in rows.iter().filter(|r| {
            r.scenario == geometa_workflow::apps::synthetic::Scenario::MetadataIntensive
        }) {
            let _ = writeln!(
                out,
                "headline: {} MI decentralized gain = {:.0}%",
                r.app.label(),
                fig10::decentralized_gain(r) * 100.0
            );
        }
        out.push('\n');
    }
    if opts.chaos {
        eprintln!("[repro] chaos matrix ...");
        opts.emit(&mut out, &chaos_matrix_table(opts.quick));
    }
    if opts.scale {
        let cfg = if opts.quick {
            scale::ScaleConfig::quick()
        } else {
            scale::ScaleConfig::default()
        };
        eprintln!("[repro] scale sweep ...");
        opts.emit(&mut out, &scale::render(&scale::run(&cfg)));
    }
    out
}

/// Run the chaos scenario matrix and render one row per cell, fanning the
/// cells out over the worker pool (every cell is already a hermetic seeded
/// simulation; `check_cell` replays it and panics with the seed banner on
/// any violation, which the pool re-raises deterministically).
pub(crate) fn chaos_matrix_table(quick: bool) -> table::Table {
    let size = if quick {
        chaos::ChaosSize::smoke()
    } else {
        chaos::ChaosSize::matrix()
    };
    let seeds = chaos::chaos_seeds(if quick {
        &[3, 21]
    } else {
        &[1, 2, 3, 5, 8, 13, 21, 34]
    });
    let mut cells = chaos::synthetic_grid(&seeds);
    // The workflow spot rows print no moved% (the ring audit is a
    // synthetic-matrix concern).
    let n_synthetic = cells.len();
    cells.extend(chaos::spot_cells(seeds[0]));
    // The kill-and-recover durability tier rides its own rows at the end
    // of the table; the quick CSV figures never reach this function, so
    // their byte-identity is unaffected.
    cells.extend(chaos::kill_recover_grid(&seeds));
    let reports =
        crate::runner::Runner::from_env().run(cells, |_, cell| chaos::check_cell(cell, &size));
    let mut t = table::Table::new(
        "Chaos matrix — all four oracle invariants enforced per cell",
        &[
            "strategy",
            "fault",
            "app",
            "seed",
            "acked",
            "misses",
            "dropped",
            "dup",
            "crashes",
            "moved%",
            "fingerprint",
        ],
    );
    for (i, r) in reports.iter().enumerate() {
        let fs = r.fault_stats;
        let moved = if i < n_synthetic {
            r.moved_fraction
                .map_or("-".into(), |f| format!("{:.1}", f * 100.0))
        } else {
            "-".into()
        };
        t.row(vec![
            r.cell.kind.label().to_string(),
            r.cell.fault.label().to_string(),
            r.cell.app.label().to_string(),
            r.cell.seed.to_string(),
            r.acked_writes.to_string(),
            r.read_misses.to_string(),
            (fs.dropped_partition + fs.dropped_crashed_dst + fs.dropped_chaos).to_string(),
            fs.duplicated.to_string(),
            fs.crashes.to_string(),
            moved,
            format!("{:016x}", r.fingerprint),
        ]);
    }
    t
}
