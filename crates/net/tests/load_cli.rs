//! `geometa-load` must refuse arguments it does not know instead of
//! skipping them (a mistyped `--reactor 4` used to run the default pool;
//! the removed `--out`/`--baseline`/`--nodes` must not come back as silent
//! no-ops), and a run must leave nothing behind: it used to overwrite
//! a committed snapshot in the working directory.

use std::process::Command;

fn load() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geometa-load"))
}

#[test]
fn unknown_flags_and_workloads_exit_2_naming_the_offender() {
    for (args, offender) in [
        (&["--quick", "--reactor", "4"][..], "--reactor"),
        (&["--out", "x.json"][..], "--out"),
        (&["--baseline=y.json"][..], "--baseline"),
        (&["--nodes", "8"][..], "--nodes"),
        (&["--quick", "--workload", "bogus"][..], "bogus"),
    ] {
        let out = load().args(args).output().expect("run geometa-load");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("'{offender}'")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_run_writes_no_file() {
    let cwd = std::env::temp_dir().join(format!("geometa-load-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create scratch working directory");
    let out = load()
        .args("--quick --workload synthetic --mode closed --reactors 1 --ops 5".split(' '))
        .current_dir(&cwd)
        .output()
        .expect("run geometa-load");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("list working directory")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&cwd).expect("remove scratch working directory");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(left.is_empty(), "geometa-load left {left:?} behind");
}
