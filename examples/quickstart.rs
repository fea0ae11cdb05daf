//! Quickstart: lower a convolution, check it against the direct reference,
//! and simulate it on the Table III GPU with and without Duplo.
//!
//! Run with `cargo run --release --example quickstart`.

use duplo_conv::{ConvParams, direct, gemm, ids};
use duplo_core::LhbConfig;
use duplo_sim::{GpuConfig, RunOptions, layer_run};
use duplo_tensor::{Nhwc, Tensor4, approx_eq};
use duplo_testkit::Rng;

fn main() {
    // A small convolutional layer: 8 images of 28x28x32, 32 3x3 filters.
    let params =
        ConvParams::new(Nhwc::new(8, 28, 28, 32), 32, 3, 3, 1, 1).expect("valid convolution");
    println!("layer: {params}");

    // Functional check: GEMM-based convolution equals direct convolution.
    let mut rng = Rng::seed_from_u64(42);
    let mut input = Tensor4::zeros(params.input);
    input.fill_random(&mut rng);
    let mut filters = Tensor4::zeros(params.filter_shape());
    filters.fill_random(&mut rng);
    let reference = direct::convolve(&params, &input, &filters);
    let lowered = gemm::convolve(&params, &input, &filters);
    assert!(approx_eq(reference.as_slice(), lowered.as_slice(), 1e-3));
    println!("GEMM-based convolution matches the direct reference");

    // How much duplication does lowering create?
    let census = ids::census(&params, 16);
    println!(
        "workspace duplication: {:.1}% of elements are duplicates; \
         max LHB hit rate {:.1}%",
        census.element_dup_ratio() * 100.0,
        census.max_hit_rate() * 100.0
    );

    // Timing: baseline tensor-core GEMM vs Duplo with the paper's LHB.
    let gpu = GpuConfig::titan_v();
    let baseline = layer_run(&params, None, &gpu, &RunOptions::default());
    let duplo = layer_run(
        &params,
        Some(LhbConfig::paper_default()),
        &gpu,
        &RunOptions::default(),
    );
    println!(
        "baseline: {:.0} cycles | duplo: {:.0} cycles | improvement {:+.1}%",
        baseline.cycles,
        duplo.cycles,
        (baseline.cycles / duplo.cycles - 1.0) * 100.0
    );
    println!(
        "LHB hit rate {:.1}%, eliminated {} of {} tensor-core load rows",
        duplo.stats.lhb.hit_rate() * 100.0,
        duplo.stats.eliminated_loads,
        duplo.stats.row_loads
    );
}
