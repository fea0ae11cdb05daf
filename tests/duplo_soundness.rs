//! The reproduction's most important end-to-end check: every register
//! renaming the *timing simulator* performs must be value-correct.
//!
//! We run a real convolutional layer's lowered GEMM through the full SM
//! pipeline with the rename log enabled. Each log entry pairs the address a
//! physical row was filled from with the address a later (eliminated) load
//! wanted. Materializing the actual workspace values, the 16-element
//! segments at both addresses must be identical — otherwise Duplo would
//! have corrupted the computation.

use duplo_conv::{ConvParams, lowering};
use duplo_core::LhbConfig;
use duplo_isa::Kernel as _;
use duplo_kernels::{A_BASE, GemmTcKernel, SmemPolicy};
use duplo_sim::GpuConfig;
use duplo_sm::run_kernel_mode;
use duplo_tensor::{Nhwc, Tensor4};
use duplo_testkit::Rng;

fn segment_values(
    params: &ConvParams,
    input: &Tensor4,
    k_pad: usize,
    addr: u64,
) -> Option<Vec<f32>> {
    let row_len = params.gemm_dims().2;
    let idx = ((addr - A_BASE) / 2) as usize;
    let (row, col) = (idx / k_pad, idx % k_pad);
    let mut out = Vec::with_capacity(16);
    for off in 0..16 {
        let c = col + off;
        if c >= row_len {
            return None; // tile padding — never renamed, but be safe
        }
        out.push(lowering::workspace_value(params, input, row, c));
    }
    Some(out)
}

fn check_layer(params: ConvParams, lhb: LhbConfig) -> (usize, u64) {
    let kernel = GemmTcKernel::from_conv(&params, SmemPolicy::COnly);
    let (_, _, k_pad) = kernel.padded_dims();
    let mut cfg = GpuConfig::titan_v().sm;
    cfg.lhb = Some(lhb);
    cfg.rename_log_cap = 100_000;
    let ctas: Vec<usize> = (0..kernel.num_ctas().min(6)).collect();
    let stats = run_kernel_mode(&kernel, &ctas, cfg, false);

    let mut rng = Rng::seed_from_u64(1234);
    let mut input = Tensor4::zeros(params.input);
    input.fill_random(&mut rng);

    let mut checked = 0;
    for &(src, dst) in &stats.rename_pairs {
        let a = segment_values(&params, &input, k_pad, src);
        let b = segment_values(&params, &input, k_pad, dst);
        assert!(a.is_some() && b.is_some(), "rename touched tile padding");
        assert_eq!(a, b, "renamed segment differs: {src:#x} vs {dst:#x}");
        checked += 1;
    }
    (checked, stats.eliminated_loads)
}

#[test]
fn renames_are_value_correct_unit_stride() {
    let p = ConvParams::new(Nhwc::new(1, 16, 16, 16), 16, 3, 3, 1, 1).unwrap();
    let (checked, eliminated) = check_layer(p, LhbConfig::paper_default());
    assert!(
        eliminated > 100,
        "expected substantial elimination, got {eliminated}"
    );
    assert!(
        checked as u64 == eliminated,
        "every elimination must be logged and checked"
    );
}

#[test]
fn renames_are_value_correct_strided_padded() {
    let p = ConvParams::new(Nhwc::new(2, 16, 16, 16), 32, 5, 5, 2, 2).unwrap();
    let (checked, _) = check_layer(p, LhbConfig::paper_default());
    // Strided 5x5 still produces some duplicates; all must check out.
    assert!(checked > 0 || p.stride > 1, "soundness check exercised");
}

#[test]
fn renames_are_value_correct_oracle_and_assoc() {
    let p = ConvParams::new(Nhwc::new(1, 16, 16, 16), 16, 3, 3, 1, 1).unwrap();
    for lhb in [LhbConfig::oracle(), LhbConfig::set_associative(512, 4)] {
        let (checked, eliminated) = check_layer(p, lhb);
        assert_eq!(checked as u64, eliminated);
    }
}

#[test]
fn renames_are_value_correct_on_resnet_c2_sample() {
    // A slice of the real ResNet C2 layer.
    let p = ConvParams::new(Nhwc::new(8, 56, 56, 64), 64, 3, 3, 1, 1).unwrap();
    let (checked, eliminated) = check_layer(p, LhbConfig::paper_default());
    assert!(eliminated > 1000, "got {eliminated}");
    assert_eq!(checked as u64, eliminated);
}
