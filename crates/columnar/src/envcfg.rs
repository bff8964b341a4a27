//! Central, cached accessors for every `RAVEN_*` environment variable.
//!
//! Reading the process environment takes a global lock (`std::env::var`
//! serializes against `set_var`), so hot paths must never read a knob per
//! call. Historically each crate cached its own knob in a local `OnceLock` —
//! and some call sites drifted into re-reading the environment raw (the
//! `cost.rs` / `pool.rs` double-read bugs PR 8 fixed). This module is the
//! single place the environment is consulted: every knob has exactly one
//! accessor, each backed by a `OnceLock` so the variable is read **once per
//! process** and every caller observes the same pin.
//!
//! The repo lint (`cargo run -p xtask -- lint`) enforces the convention
//! offline: any `std::env::var("RAVEN_*")` read in non-test code outside
//! this file fails CI, and every `RAVEN_*` variable referenced anywhere in
//! the sources must have a row in the facade crate's environment-variable
//! table (`src/lib.rs`). Adding a knob therefore means adding an accessor
//! here and documenting it there — the lint makes both mandatory.
//!
//! None of these selects between a fast path and its parity oracle: every
//! oracle is an explicit value the caller passes (a bare `Pipeline` to
//! `MlRuntime::run_batch`, `CompiledPipeline::per_operator`,
//! `ExecutionContext::selection_vectors`, the cost-based join flags,
//! `ServerConfig::sql_fusion`). The knobs here size the process, inject
//! faults or turn on verification; `force_verify` is the dynamic override
//! of `RAVEN_VERIFY` for tests.

use std::sync::OnceLock;

/// `true` when `name` is set to exactly `value`. Reads the environment only
/// on the first call per (accessor) call site — callers hold the result in
/// their own `OnceLock`.
fn env_is(name: &str, value: &str) -> bool {
    std::env::var(name).map(|v| v == value) == Ok(true)
}

/// `RAVEN_POOL_WORKERS=n` sizes the process-wide worker pool (positive
/// integer; anything else falls back to the machine's available
/// parallelism). Read once per process.
pub fn pool_workers() -> Option<usize> {
    static PIN: OnceLock<Option<usize>> = OnceLock::new();
    *PIN.get_or_init(|| {
        std::env::var("RAVEN_POOL_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|w| *w > 0)
    })
}

/// `RAVEN_VERIFY=strict` turns on rule-by-rule plan verification and
/// compiled-artifact checking in **release** builds (debug builds always
/// verify). Read once per process; `raven_relational::verify::force_verify`
/// is the dynamic override for tests.
pub fn verify_strict() -> bool {
    static PIN: OnceLock<bool> = OnceLock::new();
    *PIN.get_or_init(|| env_is("RAVEN_VERIFY", "strict"))
}

/// `RAVEN_FAULTS=schedule` installs a seeded deterministic fault schedule in
/// the process-wide failpoint registry (see `crate::failpoint` for the
/// grammar). Unset (the production default) leaves every failpoint compiled
/// down to a single cached-atomic check that injects nothing. Read once per
/// process.
pub fn faults() -> Option<&'static str> {
    static PIN: OnceLock<Option<String>> = OnceLock::new();
    PIN.get_or_init(|| std::env::var("RAVEN_FAULTS").ok())
        .as_deref()
}

/// `RAVEN_RETRY_MAX=n` bounds how many times the serving tier retries a
/// transiently-failed prepare/execute before surfacing the error (0 disables
/// retries). Default 2. Read once per process.
pub fn retry_max() -> u32 {
    static PIN: OnceLock<u32> = OnceLock::new();
    *PIN.get_or_init(|| {
        std::env::var("RAVEN_RETRY_MAX")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .unwrap_or(2)
    })
}

/// `RAVEN_REQUEST_DEADLINE_MS=n` gives every serving request a deadline of
/// `n` milliseconds from enqueue (positive integer); requests still queued
/// past it fail fast with `ServeError::Timeout`. Unset disables deadlines.
/// Read once per process.
pub fn request_deadline_ms() -> Option<u64> {
    static PIN: OnceLock<Option<u64>> = OnceLock::new();
    *PIN.get_or_init(|| {
        std::env::var("RAVEN_REQUEST_DEADLINE_MS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .filter(|ms| *ms > 0)
    })
}

/// `RAVEN_DATA_DIR=path` — the durable-catalog data directory fallback when
/// no explicit `data_dir` is configured. Deliberately **not** cached: it is
/// only consulted on the cold `open_durable` path (process startup), and
/// harnesses point successive opens at fresh directories.
pub fn data_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("RAVEN_DATA_DIR").map(std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each accessor is read-once: the cached value must stay consistent
    /// with the live environment across calls (the environment does not
    /// change mid-test-process).
    #[test]
    fn accessors_are_stable_and_match_environment() {
        assert_eq!(
            verify_strict(),
            std::env::var("RAVEN_VERIFY").map(|v| v == "strict") == Ok(true)
        );
        assert_eq!(
            pool_workers(),
            std::env::var("RAVEN_POOL_WORKERS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|w| *w > 0)
        );
        assert_eq!(faults(), std::env::var("RAVEN_FAULTS").ok().as_deref());
        assert_eq!(
            retry_max(),
            std::env::var("RAVEN_RETRY_MAX")
                .ok()
                .and_then(|s| s.parse::<u32>().ok())
                .unwrap_or(2)
        );
        assert_eq!(
            request_deadline_ms(),
            std::env::var("RAVEN_REQUEST_DEADLINE_MS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|ms| *ms > 0)
        );
        // data_dir is uncached by design (cold path only)
        assert_eq!(
            data_dir(),
            std::env::var_os("RAVEN_DATA_DIR").map(std::path::PathBuf::from)
        );
    }
}
