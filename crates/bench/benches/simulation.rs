//! End-to-end simulation benchmarks — one per simulated table/figure of the
//! paper: per-layer runs (Fig. 9/10/11), associativity (Fig. 12), batch
//! scaling (Fig. 13), network-level (Fig. 14), energy (§V-H), and the
//! shared-memory policy study (§II-C). Heavy CTA sampling keeps each
//! iteration small; the experiment *binaries* produce the full figures.
//!
//! Runs on the `duplo_testkit::bench` harness (`harness = false`); tune the
//! iteration count with `DUPLO_BENCH_ITERS`.

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_isa::Kernel as _;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::{GpuConfig, GpuSim, RunOptions, layer_run};
use duplo_tensor::Nhwc;
use duplo_testkit::bench::Bench;
use std::hint::black_box;

fn small_layer() -> ConvParams {
    ConvParams::new(Nhwc::new(1, 28, 28, 32), 32, 3, 3, 1, 1).unwrap()
}

fn gpu(sample: usize) -> GpuConfig {
    GpuConfig::titan_v().with_sample(sample)
}

fn bench_fig09_fig10() {
    let p = small_layer();
    let g = Bench::group("fig09_fig10_layer_sim");
    g.bench("baseline", || {
        black_box(layer_run(&p, None, &gpu(2), &RunOptions::default()).cycles);
    });
    for lhb in [
        LhbConfig::direct_mapped(256),
        LhbConfig::direct_mapped(1024),
        LhbConfig::oracle(),
    ] {
        g.bench(&lhb.label(), || {
            black_box(layer_run(&p, Some(lhb), &gpu(2), &RunOptions::default()).cycles);
        });
    }
}

fn bench_fig11() {
    let p = small_layer();
    let g = Bench::group("fig11");
    g.bench("service_breakdown", || {
        let r = layer_run(
            &p,
            Some(LhbConfig::paper_default()),
            &gpu(2),
            &RunOptions::default(),
        );
        black_box((r.stats.services.lhb, r.stats.mem.dram_bytes));
    });
}

fn bench_fig12() {
    let p = small_layer();
    let g = Bench::group("fig12_associativity_sim");
    for ways in [1usize, 8] {
        g.bench(&format!("{ways}_way"), || {
            black_box(
                layer_run(
                    &p,
                    Some(LhbConfig::set_associative(1024, ways)),
                    &gpu(2),
                    &RunOptions::default(),
                )
                .cycles,
            );
        });
    }
}

fn bench_fig13() {
    let g = Bench::group("fig13_batch_sim");
    for batch in [1usize, 4] {
        let p = ConvParams::new(Nhwc::new(batch, 28, 28, 32), 32, 3, 3, 1, 1).unwrap();
        g.bench(&format!("batch_{batch}"), || {
            black_box(
                layer_run(
                    &p,
                    Some(LhbConfig::paper_default()),
                    &gpu(2),
                    &RunOptions::default(),
                )
                .cycles,
            );
        });
    }
}

fn bench_fig14() {
    // One forward+backward layer pair, heavily sampled.
    let p = small_layer();
    let g = Bench::group("fig14");
    g.bench("fwd_plus_dw", || {
        let fwd = layer_run(
            &p,
            Some(LhbConfig::paper_default()),
            &gpu(1),
            &RunOptions::default(),
        )
        .cycles;
        let (m, n, k) = p.gemm_dims();
        let dw = GemmTcKernel::new(k, n, m, SmemPolicy::COnly);
        let dwc = GpuSim::new(gpu(1)).run(&dw).cycles;
        black_box(fwd + dwc);
    });
}

fn bench_energy() {
    let p = small_layer();
    let run = layer_run(
        &p,
        Some(LhbConfig::paper_default()),
        &gpu(2),
        &RunOptions::default(),
    );
    let g = Bench::group("sec5h");
    g.bench("energy_report", || {
        black_box(run.energy().total_nj());
    });
}

fn bench_smem() {
    let g = Bench::group("sec2c_smem_policies");
    for policy in [SmemPolicy::AllAbc, SmemPolicy::COnly] {
        let kern = GemmTcKernel::new(512, 128, 256, policy);
        g.bench(policy.label(), || {
            black_box(GpuSim::new(gpu(2)).run(&kern).cycles);
        });
        let _ = kern.shared_mem_per_cta();
    }
}

fn main() {
    bench_fig09_fig10();
    bench_fig11();
    bench_fig12();
    bench_fig13();
    bench_fig14();
    bench_energy();
    bench_smem();
}
