//! Sampled end-to-end checks of the paper's qualitative claims ("shape"
//! checks — who wins and in which direction, not absolute numbers).
//! Heavier sweeps live in the experiment binaries.

use duplo_conv::{ids, layers};
use duplo_core::LhbConfig;
use duplo_sim::experiments::{RunOptions, size_configs, sweep_layers};
use duplo_sim::{GpuConfig, layer_run};

fn opts() -> RunOptions {
    RunOptions {
        sample_ctas: Some(3),
        ..RunOptions::default()
    }
}

/// §V-B: Duplo improves performance on duplication-heavy layers, and the
/// improvement grows (weakly) with LHB size up to the oracle.
#[test]
fn lhb_size_monotonicity_on_unit_stride_layers() {
    let picks = vec![layers::resnet()[1].clone(), layers::yolo()[2].clone()];
    for sweep in sweep_layers(&picks, &size_configs(), &opts()) {
        let oracle = sweep.improvement(4);
        let big = sweep.improvement(3);
        let small = sweep.improvement(0);
        assert!(oracle > 0.05, "{}: oracle {:.3}", sweep.layer, oracle);
        assert!(
            big >= small - 0.02,
            "{}: 2048 {big:.3} vs 256 {small:.3}",
            sweep.layer
        );
        // The oracle pins more physical registers (entries never conflict
        // away), so a large finite LHB can edge it out by a few points.
        assert!(
            oracle >= big - 0.06,
            "{}: oracle {oracle:.3} vs 2048 {big:.3}",
            sweep.layer
        );
    }
}

/// §V-C: the hit rate can never exceed the duplication census ceiling, and
/// no duplication exists across batch images.
#[test]
fn hit_rates_bounded_by_census() {
    let layer = layers::resnet()[1].clone();
    let census = ids::census(&layer.lowered(), 16);
    let sweeps = sweep_layers(&[layer], &size_configs(), &opts());
    for i in 0..sweeps[0].runs.len() {
        let hr = sweeps[0].hit_rate(i);
        assert!(
            hr <= census.max_hit_rate() + 0.02,
            "config {i}: hit rate {hr:.3} exceeds ceiling {:.3}",
            census.max_hit_rate()
        );
    }
}

/// §V-D: Duplo reduces DRAM traffic and shifts service share into the LHB.
#[test]
fn dram_traffic_reduction() {
    let gpu = opts().apply(GpuConfig::titan_v());
    let p = layers::yolo()[2].lowered();
    let base = layer_run(&p, None, &gpu, &RunOptions::default());
    let duplo = layer_run(
        &p,
        Some(LhbConfig::paper_default()),
        &gpu,
        &RunOptions::default(),
    );
    assert!(
        duplo.stats.mem.dram_bytes < base.stats.mem.dram_bytes,
        "duplo DRAM {} !< baseline {}",
        duplo.stats.mem.dram_bytes,
        base.stats.mem.dram_bytes
    );
    assert!(duplo.stats.services.lhb > 0);
}

/// §V-F: growing the batch with a fixed LHB does not increase the
/// improvement for layers whose workspace already exceeds LHB coverage.
#[test]
fn large_batches_do_not_help_fixed_lhb() {
    let layer = &layers::yolo()[2];
    let gpu = opts().apply(GpuConfig::titan_v());
    let lhb = LhbConfig::paper_default();
    let imp = |batch: usize| {
        let p = layer.with_batch(batch).lowered();
        let b = layer_run(&p, None, &gpu, &RunOptions::default());
        let d = layer_run(&p, Some(lhb), &gpu, &RunOptions::default());
        b.cycles / d.cycles - 1.0
    };
    let i8 = imp(8);
    let i32 = imp(32);
    assert!(
        i32 <= i8 + 0.08,
        "batch 32 ({i32:.3}) should not outgain batch 8 ({i8:.3}) materially"
    );
}

/// §IV-D: the compiler-only tag alternative needs tens of gigabytes.
#[test]
fn compiler_only_tag_storage_is_enormous() {
    // YOLO C2: ~6.8M tensor-core loads x 32-bit tags.
    let p = layers::yolo()[1].lowered();
    let (m, _, k) = p.gemm_dims();
    let loads = (m as u64) * (k as u64).div_ceil(16);
    let tag_bytes = loads * 4;
    assert!(
        tag_bytes > 4 << 30 || loads > 1_000_000,
        "tag storage must be impractical: {tag_bytes} bytes"
    );
}

/// Determinism: the whole pipeline is reproducible bit-for-bit.
#[test]
fn experiment_runs_are_deterministic() {
    let gpu = opts().apply(GpuConfig::titan_v());
    let p = layers::resnet()[1].lowered();
    let a = layer_run(
        &p,
        Some(LhbConfig::paper_default()),
        &gpu,
        &RunOptions::default(),
    );
    let b = layer_run(
        &p,
        Some(LhbConfig::paper_default()),
        &gpu,
        &RunOptions::default(),
    );
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.lhb.hits, b.stats.lhb.hits);
    assert_eq!(a.stats.mem.dram_bytes, b.stats.mem.dram_bytes);
}
