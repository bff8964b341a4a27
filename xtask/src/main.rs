//! `cargo run -p xtask -- lint` — offline repo-invariant lint.
//!
//! Scans `crates/*/src` and `src/` (tests excluded) for the three repo
//! invariants documented in [`xtask`] (the library crate): `env-read`,
//! `serve-panic`, and `env-doc` (which also reads `tests/` to flag
//! env-table rows no file mentions any more). Prints one `path:line: [rule] message`
//! per violation and exits non-zero if any were found.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {}
        other => {
            eprintln!("usage: cargo run -p xtask -- lint");
            if let Some(cmd) = other {
                eprintln!("unknown command: {cmd}");
            }
            return ExitCode::from(2);
        }
    }

    // xtask/ sits one level below the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives inside the workspace")
        .to_path_buf();

    match xtask::lint_repo(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}
