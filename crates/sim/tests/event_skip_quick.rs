//! End-to-end equivalence of the event-driven SM loop on real registry
//! experiments (quick sample): rendered tables and structured results
//! must be byte-identical to the tick-by-tick reference loop.
//!
//! Run with `--ignored` (release): the tick-by-tick reference is too slow
//! for the debug suite.
//!
//! The options come from `RunOptions::from_env`, so `scripts/ci.sh` can
//! run this gate with a sliced L2 (`DUPLO_L2_SLICES`); the loop mode is
//! selected per run by value.

use duplo_sim::experiments::{RunOptions, find_experiment};

#[test]
#[ignore = "reference loop is slow in debug — run in release via scripts/ci.sh"]
fn quick_registry_experiments_match_reference_loop() {
    // Cached results would short-circuit the simulation entirely.
    let event_opts = RunOptions {
        sample_ctas: Some(2),
        no_cache: true,
        tick_reference: false,
        ..RunOptions::from_env().expect("valid DUPLO_* environment")
    };
    let reference_opts = RunOptions {
        tick_reference: true,
        ..event_opts.clone()
    };
    // A cheap cross-section: the shared-memory policy comparison (the
    // barrier/TLP-heavy shape the wakeup wheel accelerates most), the
    // Fig. 10 LHB hit-rate sweep, and the implicit-GEMM shared-path
    // extension (exercises `lhb_on_shared` end to end).
    for name in ["smem_policy", "fig10_hit_rate", "ext_implicit"] {
        let spec = find_experiment(name).expect("registered experiment");
        let event = (spec.run)(&event_opts);
        let reference = (spec.run)(&reference_opts);
        assert_eq!(
            event.rendered, reference.rendered,
            "{name}: rendered table diverged"
        );
        assert_eq!(
            event.result.to_json().to_pretty(),
            reference.result.to_json().to_pretty(),
            "{name}: structured result diverged"
        );
    }
}
