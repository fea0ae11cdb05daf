//! End-to-end ResNet inference on the simulated GPU: per-layer and total
//! execution time, baseline vs Duplo (the Fig. 14 inference story).
//!
//! Run with `cargo run --release --example resnet_inference`.

use duplo_conv::layers;
use duplo_core::LhbConfig;
use duplo_sim::{GpuConfig, RunOptions, layer_run};

fn main() {
    let gpu = GpuConfig::titan_v();
    let lhb = LhbConfig::paper_default();
    let mut total = (0.0f64, 0.0f64);
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>9}",
        "layer", "baseline", "duplo", "improvement", "hit rate"
    );
    for layer in layers::resnet() {
        let p = layer.lowered();
        let base = layer_run(&p, None, &gpu, &RunOptions::default());
        let duplo = layer_run(&p, Some(lhb), &gpu, &RunOptions::default());
        total.0 += base.cycles;
        total.1 += duplo.cycles;
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>+11.1}% {:>8.1}%",
            layer.name,
            base.cycles,
            duplo.cycles,
            (base.cycles / duplo.cycles - 1.0) * 100.0,
            duplo.stats.lhb.hit_rate() * 100.0
        );
    }
    println!(
        "{:<10} {:>12.0} {:>12.0} {:>+11.1}%   (execution-time reduction {:.1}%)",
        "total",
        total.0,
        total.1,
        (total.0 / total.1 - 1.0) * 100.0,
        (1.0 - total.1 / total.0) * 100.0
    );
    let ms = |cycles: f64| cycles / (gpu.clock_mhz as f64 * 1e3);
    println!(
        "at {} MHz: baseline {:.2} ms, duplo {:.2} ms",
        gpu.clock_mhz,
        ms(total.0),
        ms(total.1)
    );
}
