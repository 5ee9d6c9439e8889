//! Environment-tunable experiment configuration.
//!
//! Every consumer of the experiment stack — the `pp-sweep` orchestrator,
//! pp-bench's `exact_vs_sim`, CI smoke runs — honours the same three
//! knobs, resolved here so they cannot drift apart:
//!
//! * `PP_TRIALS` — trials per cell (default 100, the paper's count);
//! * `PP_SEED` — master seed (default 20180725, the paper's submission
//!   date);
//! * `PP_RESULTS_DIR` — where CSVs, logs, and the `pp-sweep` result
//!   store live (default `<workspace root>/results`).
//!
//! The simulation kernel is not among them: library code takes it as a
//! [`pp_engine::Kernel`] value, and only the `pp-sweep` and `pp-trace`
//! command lines read the `PP_KERNEL` knob.

use std::path::PathBuf;

/// Trials per data point; `PP_TRIALS` overrides the paper's 100.
pub fn trials() -> usize {
    std::env::var("PP_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// Master seed; `PP_SEED` overrides the default.
pub fn master_seed() -> u64 {
    std::env::var("PP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_180_725)
}

/// The results directory: `PP_RESULTS_DIR` if set, else `results/` under
/// the workspace root (resolved from this crate's compile-time location),
/// else `./results` as a last resort.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("PP_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("results")
}

/// Path of a named artifact inside [`results_dir`].
pub fn results_path(name: &str) -> PathBuf {
    results_dir().join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        // Only valid when the env vars are unset, which is the test default.
        if std::env::var("PP_TRIALS").is_err() {
            assert_eq!(trials(), 100);
        }
        if std::env::var("PP_SEED").is_err() {
            assert_eq!(master_seed(), 20_180_725);
        }
    }

    // One test covers both the default and the override so no two tests
    // race on the PP_RESULTS_DIR process environment.
    #[test]
    fn results_path_resolution_and_override() {
        if std::env::var_os("PP_RESULTS_DIR").is_none() {
            let p = results_path("x.csv");
            assert!(p.to_string_lossy().contains("results"));
            assert!(p.to_string_lossy().ends_with("x.csv"));

            std::env::set_var("PP_RESULTS_DIR", "/tmp/pp-override");
            let p = results_path("y.csv");
            std::env::remove_var("PP_RESULTS_DIR");
            assert_eq!(p, PathBuf::from("/tmp/pp-override/y.csv"));
        }
    }
}
