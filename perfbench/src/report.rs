//! Metric names, units and the result line.

use std::collections::BTreeMap;

use duplo_sim::json::Json;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("submits_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Layers
/// are named after the program's crates and modules.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("kernels.instrs", "count"),
    ("kernels.gen_ms", "ms"),
    ("kernels.self_ms", "ms"),
    ("core.lhb_probes", "count"),
    ("core.lhb_hits", "count"),
    ("core.lhb_hit_rate", "ratio"),
    ("core.duplo_gain_dm1024", "ratio"),
    ("core.probe_ns", "ns"),
    ("core.self_ms", "ms"),
    ("sm.cycles", "cycles"),
    ("sm.issued", "count"),
    ("sm.ticks_walked", "cycles"),
    ("sm.cycles_skipped", "cycles"),
    ("sm.skip_frac", "ratio"),
    ("sm.host_ns_per_cycle", "ns"),
    ("sm.host_ns_per_tick", "ns"),
    ("sm.self_ms", "ms"),
    ("mem.l1_accesses", "count"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_accesses", "count"),
    ("mem.dram_bytes", "bytes"),
    ("mem.mshr_merges", "count"),
    ("mem.load_ns", "ns"),
    ("mem.self_ms", "ms"),
    ("noc.xbar_delay_cycles", "cycles"),
    ("noc.slice_imbalance", "ratio"),
    ("noc.route_ns", "ns"),
    ("noc.self_ms", "ms"),
    ("gpu.runs", "count"),
    ("gpu.run_ms_p50", "ms"),
    ("gpu.run_ms_max", "ms"),
    ("gpu.fold_ms", "ms"),
    ("gpu.self_ms", "ms"),
    ("runner.busy_frac", "ratio"),
    ("runner.self_ms", "ms"),
    ("cache.hits.memory", "count"),
    ("cache.hits.disk", "count"),
    ("cache.hits.flight", "count"),
    ("cache.misses", "count"),
    ("cache.disk_bytes", "bytes"),
    ("cache.key_us", "us"),
    ("cache.codec_us", "us"),
    ("cache.self_ms", "ms"),
    ("codec.body_mb", "MB"),
    ("codec.parse_ms_per_mb", "ms/MB"),
    ("codec.wtrace_decode_ms_per_mb", "ms/MB"),
    ("codec.digest_ms_per_mb", "ms/MB"),
    ("codec.self_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.workers_busy_frac", "ratio"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p90_ms", "ms"),
    ("serve.warm_share", "ratio"),
    ("serve.self_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The layers of the self-time table, in stack order.
pub const LAYERS: [&str; 10] = [
    "kernels", "core", "sm", "mem", "noc", "gpu", "runner", "cache", "codec", "serve",
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The final result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric of `names`, in order. Every name must have a
/// finite value in `values`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Json::obj();
    for &(name, unit) in names {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics = metrics.field(
            name,
            Json::obj().field("value", v).field("unit", unit).build(),
        );
    }
    Ok(Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics.build())
        .build()
        .to_canonical())
}
