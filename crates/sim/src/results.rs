//! Machine-readable experiment results.
//!
//! Every experiment driver populates an [`ExperimentResult`] alongside its
//! rendered [`crate::report::Table`]: the table is for humans and
//! EXPERIMENTS.md, the result is for scripts (regression dashboards, paper
//! plots, CI gates). Serialization goes through [`crate::json`], so output
//! is deterministic: insertion-ordered keys, shortest round-trip floats,
//! and no volatile fields unless explicitly stamped (wall-clock and worker
//! count live under an optional `host` block precisely so that JSON files
//! are byte-identical across `DUPLO_THREADS` settings when it is omitted).

use crate::experiments::RunOptions;
use crate::gpu::GpuRunResult;
use crate::json::Json;

/// Version stamped into every file; bump when the schema changes shape.
///
/// v2: [`run_metrics`] gained `mshr.peak_occupancy` and
/// `queues.{l2_port,dram}.peak_delay` (high-water marks of the simulated
/// memory system), and trace documents ([`crate::trace`]) stamp this
/// version too.
pub const SCHEMA_VERSION: u64 = 2;

/// One experiment's structured result.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Stable machine name (`fig09_lhb_size`, `sec5h_energy`, ...).
    pub name: String,
    /// Human title (matches the rendered table's title spirit).
    pub title: String,
    /// Configuration the experiment ran under (sampling factors etc.).
    pub config: Json,
    /// Per-layer (or per-variant) metric rows.
    pub rows: Vec<Json>,
    /// Headline aggregates (gmeans, totals).
    pub summary: Json,
    /// Wall-clock seconds, if stamped (volatile; omitted in stable mode).
    pub wall_clock_s: Option<f64>,
    /// Worker-thread count, if stamped (volatile; omitted in stable mode).
    pub workers: Option<usize>,
    /// Run-cache hits during this experiment, if stamped (volatile;
    /// omitted in stable mode — see [`crate::cache`]).
    pub cache_hits: Option<u64>,
    /// Run-cache misses during this experiment, if stamped (volatile).
    pub cache_misses: Option<u64>,
    /// Run-cache disk bytes moved during this experiment, if stamped
    /// (volatile).
    pub cache_bytes: Option<u64>,
}

impl ExperimentResult {
    /// Creates a result with no host block.
    pub fn new(
        name: &str,
        title: &str,
        config: Json,
        rows: Vec<Json>,
        summary: Json,
    ) -> ExperimentResult {
        ExperimentResult {
            name: name.to_string(),
            title: title.to_string(),
            config,
            rows,
            summary,
            wall_clock_s: None,
            workers: None,
            cache_hits: None,
            cache_misses: None,
            cache_bytes: None,
        }
    }

    /// Whether any volatile host-block field is stamped.
    fn has_host(&self) -> bool {
        self.wall_clock_s.is_some()
            || self.workers.is_some()
            || self.cache_hits.is_some()
            || self.cache_misses.is_some()
            || self.cache_bytes.is_some()
    }

    /// The full JSON document.
    pub fn to_json(&self) -> Json {
        let mut b = Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("experiment", self.name.as_str())
            .field("title", self.title.as_str())
            .field("config", self.config.clone())
            .field("rows", Json::Arr(self.rows.clone()))
            .field("summary", self.summary.clone());
        if self.has_host() {
            b = b.field(
                "host",
                Json::obj()
                    .field_opt("wall_clock_s", self.wall_clock_s)
                    .field_opt("workers", self.workers)
                    .field_opt("cache_hits", self.cache_hits)
                    .field_opt("cache_misses", self.cache_misses)
                    .field_opt("cache_bytes", self.cache_bytes)
                    .build(),
            );
        }
        b.build()
    }

    /// Pretty-printed JSON document.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Writes the document to `path` (creating parent directories).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_pretty())
    }
}

/// Serializes the experiment options every driver records in `config`.
pub fn opts_json(opts: &RunOptions) -> Json {
    Json::obj().field("sample_ctas", opts.sample_ctas).build()
}

/// The per-run stall-attribution / metrics block exported for every
/// simulated [`GpuRunResult`]: cycles, issue mix, Fig. 11 service levels,
/// the scheduler stall breakdown (which satisfies
/// `issued.total + stalls.sched_total == cycles * schedulers` per SM),
/// MSHR behaviour, bandwidth-queue delays, LHB and cache counters.
pub fn run_metrics(r: &GpuRunResult) -> Json {
    let s = &r.stats;
    let mean = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    Json::obj()
        .field("cycles", r.cycles)
        .field("sampled_fraction", r.sampled_fraction)
        .field("ctas_simulated", r.ctas_simulated)
        .field(
            "issued",
            Json::obj()
                .field("mma", s.issued_mma)
                .field("tensor_loads", s.issued_tensor_loads)
                .field("other", s.issued_other)
                .field("total", s.issued_total())
                .build(),
        )
        .field(
            "row_segments",
            Json::obj()
                .field("loads", s.row_loads)
                .field("eliminated", s.eliminated_loads)
                .field("elimination_rate", s.elimination_rate())
                .build(),
        )
        .field(
            "services",
            Json::obj()
                .field("lhb", s.services.lhb)
                .field("l1", s.services.l1)
                .field("l2", s.services.l2)
                .field("dram", s.services.dram)
                .field("shared", s.services.shared)
                .build(),
        )
        .field(
            "stalls",
            Json::obj()
                .field("empty", s.stalls.empty)
                .field("data_dependency", s.stalls.data_dependency)
                .field("ldst_full", s.stalls.ldst_full)
                .field("tensor_busy", s.stalls.tensor_busy)
                .field("barrier", s.stalls.barrier)
                .field("sched_total", s.stalls.total())
                .field("ldst_pipe", s.ldst_pipe_stalls)
                .build(),
        )
        .field(
            "mshr",
            Json::obj()
                .field("merges", s.mem.mshr_merges)
                .field("stalls", s.mem.mshr_stalls)
                .field("peak_occupancy", s.mem.mshr_peak_occupancy)
                .build(),
        )
        .field(
            "queues",
            Json::obj()
                .field(
                    "l2_port",
                    Json::obj()
                        .field("requests", s.mem.l2_port_requests)
                        .field("delay_cycles", s.mem.l2_queue_delay)
                        .field(
                            "mean_delay",
                            mean(s.mem.l2_queue_delay, s.mem.l2_port_requests),
                        )
                        .field("peak_delay", s.mem.l2_peak_queue_delay)
                        .build(),
                )
                .field(
                    "dram",
                    Json::obj()
                        .field("requests", s.mem.dram_requests)
                        .field("delay_cycles", s.mem.dram_queue_delay)
                        .field(
                            "mean_delay",
                            mean(s.mem.dram_queue_delay, s.mem.dram_requests),
                        )
                        .field("peak_delay", s.mem.dram_peak_queue_delay)
                        .build(),
                )
                .build(),
        )
        .field(
            "lhb",
            Json::obj()
                .field("hits", s.lhb.hits)
                .field("misses", s.lhb.misses)
                .field("hit_rate", s.lhb.hit_rate())
                .field("conflict_evictions", s.lhb.conflict_evictions)
                .field("retire_releases", s.lhb.retire_releases)
                .field("store_invalidations", s.lhb.store_invalidations)
                .build(),
        )
        .field(
            "cache",
            Json::obj()
                .field("l1_hits", s.mem.l1_hits)
                .field("l1_misses", s.mem.l1_misses)
                .field("l2_accesses", s.mem.l2_accesses)
                .field("l2_hits", s.mem.l2_hits)
                .build(),
        )
        .field(
            "dram",
            Json::obj()
                .field("accesses", s.mem.dram_accesses)
                .field("load_bytes", s.mem.dram_bytes)
                .field("store_bytes", s.mem.store_bytes)
                .build(),
        )
        .build()
}

/// Builds the `BENCH_duplo.json` roll-up of headline metrics from a batch
/// of per-experiment results. Pure over its inputs, so the roll-up is as
/// deterministic as the results themselves; experiments absent from the
/// batch simply contribute no key.
pub fn rollup(results: &[&ExperimentResult]) -> Json {
    let find = |name: &str| results.iter().find(|r| r.name == name);
    let summary_val = |name: &str, key: &str| -> Option<f64> {
        find(name)
            .and_then(|r| r.summary.get(key))
            .and_then(Json::as_f64)
    };
    let mut total_cycles = 0.0f64;
    let mut have_cycles = false;
    for r in results {
        if let Some(c) = r.summary.get("total_cycles").and_then(Json::as_f64) {
            total_cycles += c;
            have_cycles = true;
        }
    }
    Json::obj()
        .field("schema_version", SCHEMA_VERSION)
        .field("benchmark", "duplo")
        .field(
            "experiments",
            results
                .iter()
                .map(|r| Json::from(r.name.as_str()))
                .collect::<Vec<_>>(),
        )
        .field_opt(
            "gmean_speedup_lhb1024",
            summary_val("fig09_lhb_size", "gmean_speedup_lhb1024"),
        )
        .field_opt(
            "mean_hit_rate_lhb1024",
            summary_val("fig10_hit_rate", "mean_hit_rate_lhb1024"),
        )
        .field_opt(
            "mean_dram_traffic_delta",
            summary_val("fig11_mem_breakdown", "mean_dram_delta"),
        )
        .field_opt(
            "mean_energy_saving",
            summary_val("sec5h_energy", "mean_saving"),
        )
        .field_opt(
            "total_simulated_cycles",
            have_cycles.then_some(total_cycles),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn result_document_has_stable_shape() {
        let r = ExperimentResult::new(
            "demo",
            "Demo experiment",
            Json::obj().field("sample_ctas", 2u64).build(),
            vec![
                Json::obj()
                    .field("layer", "C1")
                    .field("speedup", 1.5)
                    .build(),
            ],
            Json::obj().field("gmean", 1.5).build(),
        );
        let doc = r.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("demo"));
        assert_eq!(
            doc.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        // No host block unless stamped; adding one changes only `host`.
        assert!(doc.get("host").is_none());
        let mut stamped = r.clone();
        stamped.wall_clock_s = Some(1.25);
        stamped.workers = Some(4);
        let host = stamped.to_json();
        assert_eq!(
            host.get("host")
                .and_then(|h| h.get("workers"))
                .and_then(Json::as_u64),
            Some(4)
        );
        // Round-trips through the in-tree parser.
        assert_eq!(parse(&stamped.to_pretty()).unwrap(), host);
    }

    #[test]
    fn rollup_collects_headline_metrics() {
        let fig09 = ExperimentResult::new(
            "fig09_lhb_size",
            "t",
            Json::Obj(vec![]),
            vec![],
            Json::obj()
                .field("gmean_speedup_lhb1024", 1.3)
                .field("total_cycles", 1000.0)
                .build(),
        );
        let fig10 = ExperimentResult::new(
            "fig10_hit_rate",
            "t",
            Json::Obj(vec![]),
            vec![],
            Json::obj().field("mean_hit_rate_lhb1024", 0.62).build(),
        );
        let r = rollup(&[&fig09, &fig10]);
        assert_eq!(
            r.get("gmean_speedup_lhb1024").and_then(Json::as_f64),
            Some(1.3)
        );
        assert_eq!(
            r.get("mean_hit_rate_lhb1024").and_then(Json::as_f64),
            Some(0.62)
        );
        assert_eq!(
            r.get("total_simulated_cycles").and_then(Json::as_f64),
            Some(1000.0)
        );
        // Absent experiments contribute no key at all.
        assert!(r.get("mean_energy_saving").is_none());
        assert_eq!(
            r.get("experiments")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn run_metrics_block_is_internally_consistent() {
        use crate::{GpuConfig, RunOptions, layer_run};
        use duplo_core::LhbConfig;
        use duplo_tensor::Nhwc;
        let p = duplo_conv::ConvParams::new(Nhwc::new(1, 16, 16, 16), 16, 3, 3, 1, 1).unwrap();
        let cfg = GpuConfig::titan_v().with_sample(2);
        let run = layer_run(
            &p,
            Some(LhbConfig::paper_default()),
            &cfg,
            &RunOptions::default(),
        );
        let m = run_metrics(&run);
        let get_u = |path: [&str; 2]| {
            m.get(path[0])
                .and_then(|o| o.get(path[1]))
                .and_then(Json::as_u64)
                .unwrap()
        };
        // The exported issue/stall split accounts for every scheduler slot.
        let issued = get_u(["issued", "total"]);
        let stalls = get_u(["stalls", "sched_total"]);
        assert_eq!(
            issued + stalls,
            run.stats.cycles * 4, // titan_v: 4 schedulers, 1 simulated SM
            "issue + stall slots must cover all cycles"
        );
        assert_eq!(
            get_u(["issued", "mma"])
                + get_u(["issued", "tensor_loads"])
                + get_u(["issued", "other"]),
            issued
        );
        assert!(m.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(get_u(["lhb", "hits"]) > 0, "duplo run must hit the LHB");
    }

    #[test]
    fn run_metrics_exports_memory_high_water_marks() {
        use crate::{GpuConfig, RunOptions, layer_run};
        use duplo_tensor::Nhwc;
        let p = duplo_conv::ConvParams::new(Nhwc::new(1, 16, 16, 16), 16, 3, 3, 1, 1).unwrap();
        let run = layer_run(
            &p,
            None,
            &GpuConfig::titan_v().with_sample(2),
            &RunOptions::default(),
        );
        let m = run_metrics(&run);
        // The exported marks are the folded stats verbatim.
        assert_eq!(
            m.get("mshr")
                .and_then(|o| o.get("peak_occupancy"))
                .and_then(Json::as_u64),
            Some(run.stats.mem.mshr_peak_occupancy)
        );
        let peak = |q: &str| {
            m.get("queues")
                .and_then(|o| o.get(q))
                .and_then(|o| o.get("peak_delay"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let mean = |q: &str| {
            m.get("queues")
                .and_then(|o| o.get(q))
                .and_then(|o| o.get("mean_delay"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        // A high-water mark can never undercut the mean it bounds.
        assert!(peak("l2_port") >= mean("l2_port"));
        assert!(peak("dram") >= mean("dram"));
        assert!(
            run.stats.mem.mshr_peak_occupancy > 0,
            "a real run must occupy the MSHR at some point"
        );
    }
}
