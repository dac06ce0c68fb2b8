//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # run everything at full scale
//! repro fig1 fig7       # run a subset
//! repro --quick         # reduced sizes (seconds instead of minutes)
//! repro --csv fig5      # CSV output instead of ASCII tables
//! repro --chaos         # fault-injection matrix + invariant oracle
//! repro scale           # beyond-paper sweep: 10k-100k files per site
//! repro --jobs 8        # worker-pool width (default: GEOMETA_JOBS,
//!                       # then the host's available parallelism)
//! ```
//!
//! Output is byte-identical for every `--jobs` value: cells fan out to the
//! pool but results are keyed by cell index (see `geometa_experiments::
//! runner`). The report itself is assembled by `geometa_experiments::
//! report`, which tests byte-compare across worker counts.

use geometa_experiments::report::{generate, ReportOptions};
use geometa_experiments::runner;
use std::time::Instant;

/// The figure sections `report::generate` knows.
const FIGURES: [&str; 6] = ["fig1", "fig5", "fig6", "fig7", "fig8", "fig10"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Accept both `--jobs N` and `--jobs=N`.
    let jobs_spec = args
        .iter()
        .position(|a| a == "--jobs")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--jobs=").map(str::to_string))
        });
    if let Some(spec) = jobs_spec {
        let jobs = spec
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                eprintln!("--jobs needs a positive integer, got '{spec}'");
                std::process::exit(2);
            });
        runner::set_global_jobs(jobs);
    }
    let mut sections: Vec<String> = Vec::new();
    let mut scale = false;
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        match a.as_str() {
            "--jobs" => skip_next = true, // its value
            "--quick" | "--csv" | "--chaos" => {}
            "scale" => scale = true,
            s if FIGURES.contains(&s) => sections.push(a.clone()),
            s if s.starts_with("--jobs=") => {}
            s => {
                let what = if s.starts_with('-') {
                    "flag"
                } else {
                    "section"
                };
                eprintln!(
                    "unknown {what} '{s}' (sections: {} scale; flags: --quick --csv --chaos --jobs N)",
                    FIGURES.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    // `repro scale` alone runs only the sweep; `repro scale fig5` adds it
    // to a figure subset.
    let figures = !(scale && sections.is_empty());
    let opts = ReportOptions {
        quick: args.iter().any(|a| a == "--quick"),
        csv: args.iter().any(|a| a == "--csv"),
        // Chaos is opt-in: the figure set stays byte-stable across releases.
        chaos: args.iter().any(|a| a == "--chaos"),
        scale,
        figures,
        sections,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "operator progress display on stderr; the figure bytes on stdout are sim-time only"
    )]
    let t0 = Instant::now();
    print!("{}", generate(&opts));
    eprintln!(
        "[repro] done in {:.1}s (jobs={})",
        t0.elapsed().as_secs_f64(),
        runner::global_jobs()
    );
}
