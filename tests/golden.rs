//! The byte-identical claims on `repro`'s output, checked against
//! committed files: `repro --quick --csv` equals the figure golden the
//! benchmark also reads (`benchmark/golden/quick.csv`), and
//! `repro --chaos --quick --csv` is that file followed by the chaos-matrix
//! golden (`crates/experiments/golden/chaos_quick.csv`). A change that
//! moves one simulated byte of either fails here, in tier 1. When a change
//! means to move them, regenerate the files with `repro` and review the
//! diff like code.

use geometa::experiments::report::{generate, ReportOptions};

fn golden(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {full}: {e}"))
}

fn quick_csv(chaos: bool) -> String {
    generate(&ReportOptions {
        quick: true,
        csv: true,
        chaos,
        figures: true,
        ..ReportOptions::default()
    })
}

#[test]
fn repro_quick_csv_matches_the_goldens() {
    let figures = golden("benchmark/golden/quick.csv");
    assert_eq!(
        quick_csv(false),
        figures,
        "`repro --quick --csv` differs from benchmark/golden/quick.csv"
    );
    let chaos = figures + &golden("crates/experiments/golden/chaos_quick.csv");
    assert_eq!(
        quick_csv(true),
        chaos,
        "`repro --chaos --quick --csv` differs from benchmark/golden/quick.csv \
         followed by crates/experiments/golden/chaos_quick.csv"
    );
}
