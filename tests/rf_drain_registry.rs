//! Leak regression on the *real* registry kernels: run the paper's GEMM
//! and implicit-GEMM generators through the full SM under an artificially
//! small physical register file, forcing the `force_retire` pressure path
//! on both the global and the shared-memory (implicit-GEMM, §V-D) Duplo
//! routes, and assert the register file drains to exactly zero rows.
//!
//! The old shared-path bug dropped the row re-allocated after
//! `force_retire` (refcount 1, released by nobody), so `rf_final_rows`
//! ended nonzero whenever the shared path saw pressure — this test would
//! have caught it.
//!
//! Sizing: a single CTA with `commit_delay` longer than the kernel, so no
//! load retires naturally and the LHB's pinned history alone pushes
//! occupancy to its capacity-bounded plateau; the cap sits just below that
//! plateau (pressure guaranteed) but far above the warps' live binding
//! demand (the irreclaimable floor), so `force_retire` can always reclaim
//! history rows and the run cannot deadlock.

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, ImplicitGemmKernel, SmemPolicy};
use duplo_sim::GpuConfig;
use duplo_sm::run_kernel_mode;
use duplo_tensor::Nhwc;

/// A ResNet-C2-like layer: K = 576 gives each warp a long k-loop, so the
/// LHB-pinned load history dwarfs the live binding demand.
fn layer() -> ConvParams {
    ConvParams::new(Nhwc::new(1, 56, 56, 64), 64, 3, 3, 1, 1).unwrap()
}

/// Runs one CTA of `kernel` under a `rows`-row register file with
/// effectively infinite commit delay and checks the pressure path ran
/// (the file filled to the cap) and still drained to zero.
fn pressured_run<K: Kernel>(kernel: &K, rows: u32, shared: bool) {
    let mut cfg = GpuConfig::titan_v().sm;
    cfg.regfile_bytes = rows as usize * 32;
    cfg.commit_delay = 1 << 20;
    cfg.lhb = Some(LhbConfig::paper_default());
    cfg.lhb_on_shared = shared;
    let stats = run_kernel_mode(kernel, &[0], cfg, false);
    assert_eq!(
        stats.rf_peak_rows,
        rows,
        "{}: register file must fill so the pressure path runs",
        kernel.name()
    );
    assert_eq!(
        stats.rf_final_rows,
        0,
        "{}: physical rows leaked under pressure",
        kernel.name()
    );
}

/// Explicit GEMM (paper baseline, C-only staging): tensor loads stream
/// from global, so pressure exercises the global Duplo route. The
/// unpressured single-CTA plateau is 1023 rows; 960 forces pressure.
#[test]
fn gemm_tc_kernel_drains_under_rf_pressure() {
    let kernel = GemmTcKernel::from_conv(&layer(), SmemPolicy::COnly);
    pressured_run(&kernel, 960, false);
}

/// Implicit GEMM with `lhb_on_shared`: every tensor load hits shared
/// memory with workspace identity, so pressure exercises exactly the
/// `process_tensor_row_shared` path the leak lived on. The unpressured
/// plateau is 925 rows; 850 forces pressure.
#[test]
fn implicit_gemm_shared_path_drains_under_rf_pressure() {
    let kernel = ImplicitGemmKernel::from_conv(&layer());
    pressured_run(&kernel, 850, true);
}

/// Unpressured control: with the full Titan V file the same kernels never
/// fill the RF and trivially drain — pinning that the pressure runs above
/// really took a different path.
#[test]
fn registry_kernels_drain_without_pressure() {
    for (kernel, shared) in [
        (
            Box::new(GemmTcKernel::from_conv(&layer(), SmemPolicy::COnly)) as Box<dyn Kernel>,
            false,
        ),
        (
            Box::new(ImplicitGemmKernel::from_conv(&layer())) as Box<dyn Kernel>,
            true,
        ),
    ] {
        let mut cfg = GpuConfig::titan_v().sm;
        cfg.lhb = Some(LhbConfig::paper_default());
        cfg.lhb_on_shared = shared;
        let ctas: Vec<usize> = (0..kernel.num_ctas().min(2)).collect();
        let stats = run_kernel_mode(kernel.as_ref(), &ctas, cfg.clone(), false);
        assert!(stats.rf_peak_rows < cfg.regfile_rows(), "{}", kernel.name());
        assert_eq!(stats.rf_final_rows, 0, "{}", kernel.name());
    }
}
