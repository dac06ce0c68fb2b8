//! geometa-lint: lint the repository for determinism & concurrency
//! contract violations.
//!
//! ```text
//! geometa-lint [--root PATH] [--waivers] [--json PATH]
//! ```
//!
//! * `--root PATH` — repository root (default: ancestor of the current
//!   directory containing `Cargo.toml` with a `[workspace]` table, else
//!   the current directory).
//! * `--waivers` — print the waiver inventory after the report.
//! * `--json PATH` — additionally write the full report as JSON.
//!
//! Exits 0 when the tree is clean (every finding waived with a reason),
//! 1 when violations remain, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use geometa_check::engine;

fn usage() -> ! {
    eprintln!("usage: geometa-lint [--root PATH] [--waivers] [--json PATH]");
    std::process::exit(2);
}

fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("geometa-lint: cannot determine current directory: {e}");
        std::process::exit(2);
    });
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut print_waivers = false;
    let mut json_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--waivers" => print_waivers = true,
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--help" | "-h" => {
                println!("usage: geometa-lint [--root PATH] [--waivers] [--json PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("geometa-lint: unknown argument '{other}'");
                usage()
            }
        }
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let report = match engine::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("geometa-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    print!("{}", engine::render_text(&report));
    if print_waivers {
        print!("{}", engine::render_waiver_inventory(&report));
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, engine::render_json(&report)) {
            eprintln!("geometa-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
