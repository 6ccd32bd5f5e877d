//! Experiment-regeneration harness for the TriCheck reproduction.
//!
//! One binary per paper artifact (see EXPERIMENTS.md for the index):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `tables` | Tables 1–3 (compiler mappings) and Figure 7 (µSpec matrix) |
//! | `fig1_arm_hazard` | §1 Figure 1 / §2 ARM load→load hazard and its fence fix |
//! | `fig2_sieve` | Figure 2 (sieve overhead, host-CPU substitution) |
//! | `listings` | Figures 8, 9, 10, 12, 14 (compiled litmus listings) |
//! | `fig15` | Figure 15 (full sweep: per-family charts + aggregate) |
//! | `sec6_counts` | §6.1 prose counts, paper-vs-measured |
//! | `headline` | the §1/§9 "144 forbidden outcomes" table |
//! | `sec7_compiler_study` | §7 leading- vs trailing-sync on the A9like µarch |
//!
//! Criterion benches (`cargo bench -p tricheck-bench`) cover what the
//! layered benchmark under `perfbench/` does not: the compiled kernel
//! against the test-only oracles and pruned against unpruned spaces
//! (`model_eval`), trace overhead, design ablations, relation algebra,
//! the §7 and sharded sweeps, and the sieve kernel. Per-layer costs
//! (enumeration, C11 verdicts, µarch judgements) and end-to-end sweep
//! times are perfbench's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Runs `f` under a metrics-collecting trace session and returns its
/// value with the drained [`tricheck_trace::TraceReport`].
///
/// The experiment binaries (`headline`, `fig15`, `sec7_compiler_study`)
/// report their timing through this instead of a hand-rolled
/// `Instant::now()` pair: the report's `render_text()` prints the same
/// wall clock *plus* the per-phase breakdown, so "where did the time
/// go" no longer needs a profiler.
pub fn timed_report<T>(f: impl FnOnce() -> T) -> (T, tricheck_trace::TraceReport) {
    tricheck_trace::start(tricheck_trace::TraceConfig::metrics());
    let value = f();
    (value, tricheck_trace::finish().report)
}

/// The paper's §6.1 reference counts, used by `sec6_counts` and the
/// integration suite to diff measured values against the publication.
pub mod paper {
    /// WRC bugs per nMCA model, Base riscv-curr (out of 243).
    pub const WRC_BASE_CURR_NMCA: usize = 108;
    /// RWC bugs per nMCA model, Base riscv-curr (out of 243).
    pub const RWC_BASE_CURR_NMCA: usize = 2;
    /// IRIW bugs per nMCA model, Base riscv-curr (out of 729).
    pub const IRIW_BASE_CURR_NMCA: usize = 4;
    /// CoRR bugs per read-reordering model, both ISAs riscv-curr (of 81).
    pub const CORR_CURR_RELAXED_RR: usize = 18;
    /// CO-RSDWI bugs per read-reordering model, riscv-curr (of 243).
    pub const CORSDWI_CURR_RELAXED_RR: usize = 54;
    /// WRC bugs on the shared-store-buffer models, Base+A riscv-curr.
    pub const WRC_BASEA_CURR_SHARED_BUFFER: usize = 96;
    /// WRC bugs on A9like, Base+A riscv-curr.
    pub const WRC_BASEA_CURR_A9LIKE: usize = 72;
    /// The headline: total forbidden-yet-observable outcomes on the
    /// A9like microarchitecture under Base+A riscv-curr, of 1,701 tests.
    pub const HEADLINE_A9LIKE_BASEA_CURR: usize = 144;
    /// Suite size.
    pub const SUITE_SIZE: usize = 1_701;
}

#[cfg(test)]
mod tests {
    use super::paper;

    #[test]
    fn headline_is_the_sum_of_its_parts() {
        // 144 = WRC 72 + CoRR 18 + CO-RSDWI 54 on A9like/Base+A/curr.
        assert_eq!(
            paper::HEADLINE_A9LIKE_BASEA_CURR,
            paper::WRC_BASEA_CURR_A9LIKE
                + paper::CORR_CURR_RELAXED_RR
                + paper::CORSDWI_CURR_RELAXED_RR
        );
    }
}
