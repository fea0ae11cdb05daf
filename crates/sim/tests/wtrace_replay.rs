//! Differential replay harness: for every registry experiment,
//! record → encode → decode → replay must reproduce the generator path's
//! `ExperimentResult` JSON and rendered table byte-for-byte.
//!
//! This is the correctness story for the wtrace format: if any opcode,
//! operand address, dependency tag, or descriptor field were lost or
//! mangled by the codec, the replayed simulation would diverge and the
//! byte diff would pin the first divergence. `scripts/ci.sh` runs this
//! suite at `DUPLO_THREADS=1` and `4` (read through
//! `RunOptions::from_env`), so the guarantee holds under the parallel
//! runner too.
//!
//! The replayed kernels carry a content digest that salts their run-cache
//! key (see `duplo_sim::cache`), so the replay pass genuinely re-simulates
//! from the decoded traces instead of being served the generator path's
//! cached results.

use duplo_sim::experiments::{ExperimentSpec, RunOptions, registry};
use duplo_sim::json::parse;
use duplo_sim::wtrace::{self, Recorder, ReplaySet, TraceKernel};
use duplo_testkit::diff;

/// Runs one spec three ways — generator reference, recording pass, replay
/// pass over the codec-round-tripped records — and asserts the replayed
/// `ExperimentResult` JSON and rendered table are byte-identical to the
/// reference.
fn assert_replay_matches(spec: &ExperimentSpec, opts: &RunOptions) {
    // Generator path: the reference output.
    let direct = (spec.run)(opts);

    // Record pass: capture every kernel the experiment runs.
    let records = record(spec, opts);

    // Round-trip through the codec exactly like the CLI does
    // (`trace record` writes pretty JSON; `--trace-in` parses and
    // decodes it), then replay.
    let text = wtrace::encode(&records).to_pretty();
    let doc = parse(&text).expect("recorded document must parse");
    let kernels: Vec<TraceKernel> = wtrace::decode(&doc)
        .expect("recorded document must decode")
        .into_iter()
        .map(TraceKernel::new)
        .collect();
    let set = ReplaySet::new(kernels);
    let replayed = (spec.run)(&RunOptions {
        replay: Some(set.clone()),
        ..opts.clone()
    });
    let substituted = set.substituted();

    if records.is_empty() {
        assert_eq!(
            substituted, 0,
            "{}: analytic experiment cannot substitute kernels",
            spec.name
        );
    } else {
        assert!(
            substituted > 0,
            "{}: replay must actually substitute recorded kernels",
            spec.name
        );
    }
    diff::assert_identical(
        &format!(
            "{}: ExperimentResult JSON (record->replay vs generator)",
            spec.name
        ),
        &direct.result.to_pretty(),
        &replayed.result.to_pretty(),
    );
    diff::assert_identical(
        &format!(
            "{}: rendered table (record->replay vs generator)",
            spec.name
        ),
        &direct.rendered,
        &replayed.rendered,
    );
}

/// Runs `spec` under a fresh recorder and returns what it captured.
fn record(spec: &ExperimentSpec, opts: &RunOptions) -> Vec<wtrace::KernelRecord> {
    let recorder = Recorder::default();
    let _ = (spec.run)(&RunOptions {
        record: Some(recorder.clone()),
        ..opts.clone()
    });
    recorder.records()
}

/// The shared options: one sampled CTA, on top of the environment's
/// thread count (and memory side) as `scripts/ci.sh` sets them.
fn sampled_options() -> RunOptions {
    RunOptions {
        sample_ctas: Some(1),
        ..RunOptions::from_env().expect("valid DUPLO_* environment")
    }
}

/// Fast smoke subset for the plain (debug) `cargo test` run: one analytic
/// experiment, one GEMM sweep, one workspace-carrying sweep, and the two
/// adversarial workloads. The full-registry sweep below is release-only.
#[test]
fn record_then_replay_reproduces_representative_experiments() {
    let opts = sampled_options();
    for name in [
        "fig02_speedup",
        "smem_policy",
        "wl_batched_gemm",
        "wl_attention",
        "wl_membound",
    ] {
        let spec = duplo_sim::experiments::find_experiment(name).unwrap();
        assert_replay_matches(spec, &opts);
    }
}

/// The acceptance gate: record → replay is byte-exact for EVERY registry
/// experiment. Three full registry passes are far too slow for the debug
/// profile on small CI boxes, so this test is `#[ignore]`d by default and
/// `scripts/ci.sh` runs it in release at `DUPLO_THREADS=1` and `4`:
///
/// ```sh
/// cargo test --release -p duplo-sim --test wtrace_replay -- --ignored
/// ```
#[test]
#[ignore = "full-registry sweep; run in release via scripts/ci.sh"]
fn record_then_replay_reproduces_every_registry_experiment() {
    let opts = sampled_options();
    for spec in registry() {
        assert_replay_matches(spec, &opts);
    }
}

#[test]
fn simulating_experiments_record_at_least_one_kernel() {
    // Guard against the harness silently testing nothing: the flagship
    // simulated experiments must produce records (analytic ones — Fig. 2,
    // Fig. 3, tables — legitimately record zero).
    let opts = sampled_options();
    for name in ["smem_policy", "wl_attention", "wl_membound"] {
        let spec = duplo_sim::experiments::find_experiment(name).unwrap();
        let records = record(spec, &opts);
        assert!(
            !records.is_empty(),
            "{name}: a simulated experiment must record its kernels"
        );
        for rec in &records {
            assert!(
                !rec.ctas.is_empty(),
                "{name}: recorded kernel {} has no CTAs",
                rec.name
            );
        }
    }
}
