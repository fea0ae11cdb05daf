//! Full-registry equivalence gate for the event-driven SM loop, run in CI
//! release builds (`--ignored`): every registered experiment's rendered
//! table and structured result must be byte-identical between the
//! event-driven wakeup-wheel loop and the tick-by-tick reference.
//! The loop mode is selected per run by value (`tick_reference`).

use duplo_sim::experiments::{RunOptions, registry};

#[test]
#[ignore = "full registry x2 — run in release via scripts/ci.sh"]
fn full_registry_matches_reference_loop() {
    let event_opts = RunOptions {
        no_cache: true,
        ..RunOptions::quick()
    };
    let reference_opts = RunOptions {
        tick_reference: true,
        ..event_opts.clone()
    };
    for spec in registry() {
        let event = (spec.run)(&event_opts);
        let reference = (spec.run)(&reference_opts);
        assert_eq!(
            event.rendered, reference.rendered,
            "{}: rendered table diverged",
            spec.name
        );
        assert_eq!(
            event.result.to_json().to_pretty(),
            reference.result.to_json().to_pretty(),
            "{}: structured result diverged",
            spec.name
        );
    }
}
