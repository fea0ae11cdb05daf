//! Sweeps LHB sizes and associativities on one layer — a miniature of the
//! paper's Fig. 9/10/12 on a single workload.
//!
//! Run with `cargo run --release --example lhb_sweep [--layer N]`.

use duplo_conv::layers;
use duplo_core::LhbConfig;
use duplo_sim::{GpuConfig, RunOptions, layer_run};

fn main() {
    let idx: usize = std::env::args()
        .skip_while(|a| a != "--layer")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1); // default: ResNet C2
    let all = layers::all_layers();
    let layer = &all[idx.min(all.len() - 1)];
    let p = layer.lowered();
    println!("layer {} ({p})", layer.qualified_name());

    let gpu = GpuConfig::titan_v();
    let baseline = layer_run(&p, None, &gpu, &RunOptions::default());
    println!("baseline: {:.0} cycles", baseline.cycles);

    let configs = [
        LhbConfig::direct_mapped(256),
        LhbConfig::direct_mapped(512),
        LhbConfig::direct_mapped(1024),
        LhbConfig::set_associative(1024, 4),
        LhbConfig::direct_mapped(2048),
        LhbConfig::oracle(),
    ];
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>10}",
        "LHB", "cycles", "improvement", "hit rate", "conflicts"
    );
    for cfg in configs {
        let r = layer_run(&p, Some(cfg), &gpu, &RunOptions::default());
        println!(
            "{:<18} {:>10.0} {:>+11.1}% {:>9.1}% {:>10}",
            cfg.label(),
            r.cycles,
            (baseline.cycles / r.cycles - 1.0) * 100.0,
            r.stats.lhb.hit_rate() * 100.0,
            r.stats.lhb.conflict_evictions
        );
    }
}
