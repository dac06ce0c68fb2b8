//! `repro` must refuse arguments it does not know instead of skipping
//! them: a mistyped figure used to print nothing and exit 0, a mistyped
//! `--quick` silently ran the full-size set.

use std::process::Command;

#[test]
fn unknown_sections_and_flags_exit_2_naming_the_offender() {
    for (args, offender) in [
        (&["fig99"][..], "fig99"),
        (&["--quik", "--csv"][..], "--quik"),
        (&["--quick", "fig1", "figs"][..], "figs"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not emit a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("'{offender}'")),
            "{args:?}: {stderr}"
        );
    }
}
