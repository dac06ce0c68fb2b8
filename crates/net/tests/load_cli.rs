//! The operator binaries must refuse arguments they do not know instead of
//! skipping them (a mistyped `--reactor 4` used to run the default pool; a
//! mistyped `--wait-sec 0` used to wait the default 30 s; the removed
//! `--out`/`--baseline`/`--nodes` must not come back as silent no-ops),
//! and counts they cannot use (`--sites 0` used to panic, `--threads 0`
//! used to run nothing and exit 0), nor a value flag given no value (a
//! trailing `--data-dir` used to run on an in-memory WAL, and
//! `--data-dir --recover` made a directory named `--recover`). A load
//! run must leave nothing behind:
//! it used to overwrite a committed snapshot in the working directory.

use std::process::Command;

const LOAD: &str = env!("CARGO_BIN_EXE_geometa-load");
const ADMIN: &str = env!("CARGO_BIN_EXE_geometa-admin");
const SERVER: &str = env!("CARGO_BIN_EXE_geometa-server");

#[test]
fn bad_arguments_exit_2_naming_the_offender() {
    for (bin, args, offender) in [
        (LOAD, "--quick --reactor 4", "--reactor"),
        (LOAD, "--out x.json", "--out"),
        (LOAD, "--baseline=y.json", "--baseline"),
        (LOAD, "--nodes 8", "--nodes"),
        (LOAD, "--quick --workload bogus", "bogus"),
        (LOAD, "--sites 0", "0"),
        (LOAD, "--threads 0", "0"),
        (LOAD, "--ops 0", "0"),
        (LOAD, "--reactors 0", "0"),
        (SERVER, "--sites 0", "0"),
        (SERVER, "--shards 0", "0"),
        // A value flag with no value is refused, not skipped.
        (SERVER, "--data-dir", "--data-dir"),
        (SERVER, "--data-dir --recover", "--data-dir"),
        (SERVER, "--fsync", "--fsync"),
        (
            LOAD,
            "--quick --workload synthetic --mode closed --ops 1 --connect",
            "--connect",
        ),
        (LOAD, "--seed=", "--seed"),
        (
            ADMIN,
            "status --connect 127.0.0.1:1 --bogus 3 extra",
            "--bogus",
        ),
        (ADMIN, "status --connect 127.0.0.1:1 --site 1", "--site"),
        (
            ADMIN,
            "join --connect 127.0.0.1:1 --site 1 --wait-sec 0",
            "--wait-sec",
        ),
        (ADMIN, "leave --connect 127.0.0.1:1 --site 1 extra", "extra"),
    ] {
        let out = Command::new(bin)
            .args(args.split(' '))
            .output()
            .expect("run the binary");
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
    let out = Command::new(LOAD)
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
