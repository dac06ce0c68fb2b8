//! Fixture and live-tree coverage for geometa-lint.
//!
//! Each fixture under `tests/fixtures/` carries exactly one violation of
//! one rule (they are data, not code: the engine's walker skips
//! `fixtures/` directories, and they are fed here under pretend
//! repo-relative paths that put them in the right rule scope). The final
//! test runs the full engine over the live repository — the tree must
//! lint clean, with every waiver carrying a reason.

use geometa_check::engine::{self, LintReport};
use geometa_check::rules;
use std::path::Path;

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

/// Lint one fixture as if it lived at `pretend_path` in the repo.
fn lint_fixture(name: &str, pretend_path: &str) -> LintReport {
    let set = rules::rules_for(pretend_path)
        .unwrap_or_else(|| panic!("{pretend_path} must be in lint scope"));
    let mut report = LintReport::default();
    engine::lint_file(pretend_path, &fixture(name), set, &mut report);
    report
}

#[test]
fn each_fixture_trips_exactly_its_rule() {
    let cases = [
        ("wall_clock.rs", "crates/sim/src/fixture.rs", "wall-clock"),
        (
            "unseeded_rng.rs",
            "crates/sim/src/fixture.rs",
            "unseeded-rng",
        ),
        (
            "untracked_thread.rs",
            "crates/core/src/fixture.rs",
            "untracked-thread",
        ),
        (
            "unordered_iter.rs",
            "crates/core/src/fixture.rs",
            "unordered-iter",
        ),
        ("net_unwrap.rs", "crates/net/src/fixture.rs", "net-unwrap"),
        (
            "net_deadline.rs",
            "crates/net/src/fixture.rs",
            "net-deadline",
        ),
        (
            "durability.rs",
            "crates/core/src/wal_fixture.rs",
            "durability",
        ),
        ("hot_alloc.rs", "crates/core/src/fixture.rs", "hot-alloc"),
    ];
    for (file, path, rule) in cases {
        let report = lint_fixture(file, path);
        assert_eq!(
            report.violations.len(),
            1,
            "{file}: expected exactly one violation, got {:?}",
            report.violations
        );
        assert_eq!(report.violations[0].finding.rule, rule, "{file}");
    }
}

#[test]
fn waived_fixture_is_clean_and_inventoried() {
    let report = lint_fixture("waived.rs", "crates/sim/src/fixture.rs");
    assert!(report.clean(), "{:?}", report.violations);
    assert_eq!(report.waivers.len(), 1);
    assert_eq!(report.waivers[0].waiver.rules, vec!["wall-clock"]);
    assert_eq!(
        report.waivers[0].waiver.reason,
        "fixture: progress display only"
    );
}

#[test]
fn stripping_the_reason_turns_the_waiver_into_a_violation() {
    // The same fixture with the reason removed must fail twice over: the
    // waiver is malformed AND no longer suppresses the finding.
    let src = fixture("waived.rs").replace(" fixture: progress display only", "");
    let mut report = LintReport::default();
    let set = rules::rules_for("crates/sim/src/fixture.rs").unwrap();
    engine::lint_file("crates/sim/src/fixture.rs", &src, set, &mut report);
    assert!(!report.clean());
    let rules_hit: Vec<&str> = report.violations.iter().map(|v| v.finding.rule).collect();
    assert!(rules_hit.contains(&"malformed-waiver"), "{rules_hit:?}");
    assert!(rules_hit.contains(&"wall-clock"), "{rules_hit:?}");
}

/// The gate CI enforces: the live repository lints clean, and every
/// waiver in the tree carries a justification.
#[test]
fn live_repo_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = engine::run(&root).expect("lint walk succeeds");
    assert!(
        report.files_checked > 50,
        "walk found only {} files — wrong root?",
        report.files_checked
    );
    let rendered = engine::render_text(&report);
    assert!(report.clean(), "live tree has violations:\n{rendered}");
    for w in &report.waivers {
        assert!(
            !w.waiver.reason.is_empty(),
            "waiver without reason at {}:{}",
            w.path,
            w.waiver.line
        );
    }
}

/// The binary refuses an argument it does not know and says which one.
#[test]
fn unknown_argument_exits_2_naming_it() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_geometa-lint"))
        .arg("--frobnicate")
        .output()
        .expect("run geometa-lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'--frobnicate'"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
