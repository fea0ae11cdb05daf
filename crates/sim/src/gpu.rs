//! Whole-GPU simulation via representative SMs.
//!
//! The Table III machine has 80 SMs sharing an L2 and DRAM. GEMM CTAs are
//! homogeneous, so we simulate `sms_simulated` representative SMs, each
//! executing its round-robin share of the CTA grid against a `1/total_sms`
//! slice of L2 capacity and DRAM bandwidth, and take the slowest simulated
//! SM's cycle count as the kernel time. A `sample_ctas` knob simulates only
//! a prefix of each SM's share and scales time linearly — the sampling
//! factor is recorded in the result and reported by every experiment.

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_energy::{EnergyCounts, EnergyModel, EnergyReport};
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sm::{SmConfig, SmStats, SmTraceData, run_kernel_traced_mode};

use crate::metrics;
use crate::options::RunOptions;

/// Registry metrics for the whole-GPU layer. Run and cycle counts are
/// pure functions of the requested work (stable); the phase wall-time
/// histograms measure the host and are volatile. The `duplo_sm_*` gauges
/// mirror [`duplo_sm::loop_profile`] — refreshed once per run, never per
/// tick, so profiling the SM loop costs nothing on the hot path.
struct GpuMetrics {
    runs: metrics::Counter,
    kernel_cycles: metrics::Counter,
    simulate_us: metrics::Histogram,
    fold_us: metrics::Histogram,
    sm_cycles: metrics::Gauge,
    sm_skips: metrics::Gauge,
    sm_skipped_cycles: metrics::Gauge,
    sm_ticks_walked: metrics::Gauge,
    sm_runs: metrics::Gauge,
}

/// Wall-time bucket bounds in microseconds: 100µs .. 10s.
const PHASE_US_BOUNDS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

fn gm() -> &'static GpuMetrics {
    static GM: std::sync::OnceLock<GpuMetrics> = std::sync::OnceLock::new();
    GM.get_or_init(|| GpuMetrics {
        runs: metrics::counter(
            "duplo_gpu_runs_total",
            "Whole-GPU kernel runs (cache hits included)",
        ),
        kernel_cycles: metrics::counter(
            "duplo_gpu_kernel_cycles_total",
            "Estimated kernel cycles summed over all runs",
        ),
        simulate_us: metrics::histogram(
            &metrics::labeled("duplo_gpu_phase_us", &[("phase", "simulate")]),
            "Wall-clock per whole-GPU phase, microseconds",
            &PHASE_US_BOUNDS,
        ),
        fold_us: metrics::histogram(
            &metrics::labeled("duplo_gpu_phase_us", &[("phase", "fold")]),
            "Wall-clock per whole-GPU phase, microseconds",
            &PHASE_US_BOUNDS,
        ),
        sm_cycles: metrics::gauge(
            "duplo_sm_cycles",
            "Simulated SM cycles, process total (duplo_sm::loop_profile)",
        ),
        sm_skips: metrics::gauge(
            "duplo_sm_event_skips",
            "Event-wheel fast-forwards taken, process total",
        ),
        sm_skipped_cycles: metrics::gauge(
            "duplo_sm_skipped_cycles",
            "Cycles covered by event-wheel fast-forwards, process total",
        ),
        sm_ticks_walked: metrics::gauge(
            "duplo_sm_ticks_walked",
            "Cycles walked tick by tick, process total",
        ),
        sm_runs: metrics::gauge("duplo_sm_runs", "run_kernel invocations, process total"),
    })
}

/// Refreshes the `duplo_sm_*` gauges from the SM crate's loop profile
/// (coarse sampling: once per whole-GPU run).
fn refresh_sm_gauges(m: &GpuMetrics) {
    let p = duplo_sm::loop_profile();
    m.sm_cycles.set(p.cycles as i64);
    m.sm_skips.set(p.skips_taken as i64);
    m.sm_skipped_cycles.set(p.cycles_skipped as i64);
    m.sm_ticks_walked.set(p.ticks_walked as i64);
    m.sm_runs.set(p.runs as i64);
}

/// Whole-GPU configuration.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Physical SM count (Table III: 80).
    pub total_sms: usize,
    /// Representative SMs actually simulated.
    pub sms_simulated: usize,
    /// Core clock in MHz (Table III: 1200).
    pub clock_mhz: u64,
    /// Per-SM configuration (hierarchy slice included).
    pub sm: SmConfig,
    /// If set, simulate at most this many CTAs per simulated SM and scale
    /// time linearly (`None` = simulate the full share).
    pub sample_ctas: Option<usize>,
}

impl GpuConfig {
    /// The Table III NVIDIA Titan V-like baseline GPU (flat L2; the
    /// sliced memory side is selected by [`RunOptions::apply`]).
    pub fn titan_v() -> GpuConfig {
        let total_sms = 80;
        GpuConfig {
            total_sms,
            sms_simulated: 1,
            clock_mhz: 1200,
            sm: SmConfig::titan_v(total_sms),
            sample_ctas: None,
        }
    }

    /// Enables the Duplo detection unit with `lhb`.
    pub fn with_duplo(mut self, lhb: LhbConfig) -> GpuConfig {
        self.sm.lhb = Some(lhb);
        self
    }

    /// Limits per-SM CTA count (experiment-runtime knob).
    pub fn with_sample(mut self, ctas: usize) -> GpuConfig {
        self.sample_ctas = Some(ctas);
        self
    }
}

/// Result of a whole-GPU kernel run.
#[derive(Clone, Debug)]
pub struct GpuRunResult {
    /// Estimated kernel cycles (slowest representative SM, scaled for
    /// sampling).
    pub cycles: f64,
    /// Aggregated statistics over the simulated SMs (unscaled).
    pub stats: SmStats,
    /// Fraction of each SM's CTA share actually simulated.
    pub sampled_fraction: f64,
    /// CTAs simulated in total.
    pub ctas_simulated: usize,
}

impl GpuRunResult {
    /// Kernel time in milliseconds at the configured clock.
    pub fn time_ms(&self, clock_mhz: u64) -> f64 {
        self.cycles / (clock_mhz as f64 * 1e3)
    }

    /// Extracts energy event counts for the energy model (per simulated
    /// share; comparisons are relative so scaling cancels).
    pub fn energy_counts(&self) -> EnergyCounts {
        let s = &self.stats;
        let lhb_probes = s.lhb.hits + s.lhb.misses;
        EnergyCounts {
            lhb_events: lhb_probes + s.lhb.misses, // probes + allocations
            // Row fills for load misses (LHB hits rename instead of
            // filling a row), plus per-MMA fragment traffic: 2 operand
            // reads + accumulator read + write = 4 fragments, each a
            // 16-row-slot 16x16 tile.
            rf_rows: (s.row_loads - s.eliminated_loads) + 4 * 16 * s.issued_mma,
            l1_accesses: s.mem.l1_hits + s.mem.l1_misses + s.octet_dup_l1 + s.services.lhb,
            l2_accesses: s.mem.l2_accesses,
            dram_bytes: s.mem.dram_bytes + s.mem.store_bytes,
        }
    }

    /// Energy report under the default model.
    pub fn energy(&self) -> EnergyReport {
        EnergyReport::from_counts(&EnergyModel::default(), &self.energy_counts())
    }
}

/// The whole-GPU simulator.
pub struct GpuSim {
    config: GpuConfig,
    opts: RunOptions,
}

impl GpuSim {
    /// Creates a simulator with default run options
    /// ([`RunOptions::default`]).
    pub fn new(config: GpuConfig) -> GpuSim {
        GpuSim::with_options(config, RunOptions::default())
    }

    /// Creates a simulator with explicit [`RunOptions`]: the thread cap,
    /// cache controls, loop mode, trace sink and wtrace record/replay
    /// travel by value with this instance, so concurrent simulators (a
    /// `duplo serve` worker pool) can run under different settings in one
    /// process. Only the execution knobs are read here —
    /// configuration-shaping options ([`RunOptions::apply`]) must already
    /// be on `config`.
    pub fn with_options(config: GpuConfig, opts: RunOptions) -> GpuSim {
        GpuSim { config, opts }
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The run options.
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// Runs `kernel` on the simulated GPU.
    ///
    /// Runs are memoized through the content-addressed
    /// [`crate::cache`] — a repeat of an identical (configuration, kernel)
    /// point is served from cache (byte-identical to a fresh simulation)
    /// instead of re-simulated. Set [`RunOptions::no_cache`] to force the
    /// simulator to actually run.
    ///
    /// Each representative SM's run is independent, so the SMs fan out
    /// over [`crate::runner::par_map_opt`]; per-SM results are folded in
    /// `sm_id` order, so the outcome is identical at any thread count.
    ///
    /// A kernel with no CTAs (every share empty) reports
    /// `sampled_fraction: 0.0` — nothing ran, and the `cycles: 0.0`
    /// estimate covers none of the grid.
    ///
    /// Under [`RunOptions::replay`], the generated kernel is swapped for
    /// its recorded trace before simulation; under [`RunOptions::record`],
    /// the kernel is captured first — ahead of the cache lookup, so
    /// recording works even when every run is a cache hit. Under
    /// [`RunOptions::trace_sink`], each run is recorded into the sink: a
    /// simulated run with its per-SM timelines, a cache-served one
    /// (including a single-flight follower) as a timeline-less
    /// `cache_hit` record.
    pub fn run(&self, kernel: &dyn Kernel) -> GpuRunResult {
        let replayed = self
            .opts
            .replay
            .as_ref()
            .and_then(|set| set.substitute(&self.config, kernel));
        let kernel: &dyn Kernel = match &replayed {
            Some(k) => k.as_ref(),
            None => {
                if let Some(rec) = &self.opts.record {
                    rec.observe(&self.config, kernel);
                }
                kernel
            }
        };
        let mut simulated = false;
        let result =
            crate::cache::run_cached_ctl(&self.opts.cache_ctl(), &self.config, kernel, || {
                simulated = true;
                self.simulate(kernel)
            });
        if let (Some(sink), false) = (&self.opts.trace_sink, simulated) {
            crate::log::debug(
                "trace",
                format_args!("{}: cache hit, no timeline recorded", kernel.name()),
            );
            sink.record_run(crate::trace::RunRecord {
                kernel: kernel.name().to_string(),
                key: crate::digest::hex(crate::cache::run_key(&self.config, kernel)),
                cache_hit: true,
                cycles: result.cycles,
                ctas_simulated: result.ctas_simulated,
                interval: sink.options().interval,
                samples: Vec::new(),
                cta_spans: Vec::new(),
                dropped_samples: 0,
                dropped_spans: 0,
            });
        }
        let m = gm();
        m.runs.inc();
        m.kernel_cycles.add(result.cycles as u64);
        refresh_sm_gauges(m);
        if let Some(p) = &self.opts.progress {
            p.add_cycles(result.cycles as u64);
        }
        result
    }

    /// The simulation itself, with no memoization (see [`crate::cache`]).
    /// With a trace sink, each SM also records its timeline and the
    /// aggregated [`crate::trace::RunRecord`] goes to the sink; the result
    /// is byte-identical either way (one shared fold).
    fn simulate(&self, kernel: &dyn Kernel) -> GpuRunResult {
        let cfg = &self.config;
        let spec = self.opts.trace_sink.as_ref().map(|s| s.options().spec());
        let n_ctas = kernel.num_ctas();
        let sm_ids: Vec<usize> = (0..cfg.sms_simulated).collect();
        let simulate_start = std::time::Instant::now();
        let per_sm = crate::runner::par_map_opt(&self.opts, &sm_ids, |&sm_id| {
            // Round-robin CTA assignment, matching real rasterization.
            let share: Vec<usize> = (sm_id..n_ctas).step_by(cfg.total_sms).collect();
            if share.is_empty() {
                return None;
            }
            let take = cfg.sample_ctas.unwrap_or(share.len()).min(share.len());
            let (stats, trace) = run_kernel_traced_mode(
                kernel,
                &share[..take],
                cfg.sm.clone(),
                self.opts.tick_reference,
                spec,
            );
            Some((share.len(), take, stats, trace))
        });
        gm().simulate_us
            .observe(simulate_start.elapsed().as_micros() as u64);
        // Split stats from timelines, preserving `sm_id` order so both the
        // stat fold and the sample aggregation are thread-count invariant.
        let mut parts = Vec::with_capacity(per_sm.len());
        let mut traces: Vec<(u64, SmTraceData)> = Vec::new();
        for (sm_id, slot) in per_sm.into_iter().enumerate() {
            parts.push(slot.map(|(share_len, take, stats, trace)| {
                traces.extend(trace.map(|t| (sm_id as u64, t)));
                (share_len, take, stats)
            }));
        }
        let fold_start = std::time::Instant::now();
        let result = fold_per_sm(parts);
        gm().fold_us
            .observe(fold_start.elapsed().as_micros() as u64);
        if let (Some(sink), Some(spec)) = (&self.opts.trace_sink, spec) {
            let refs: Vec<&SmTraceData> = traces.iter().map(|(_, t)| t).collect();
            let (samples, dropped_samples) = crate::trace::aggregate_samples(&refs, spec.interval);
            let mut cta_spans = Vec::new();
            let mut dropped_spans = 0u64;
            for (sm, t) in &traces {
                dropped_spans += t.dropped_spans;
                cta_spans.extend(t.cta_spans.iter().map(|&span| (*sm, span)));
            }
            crate::log::debug(
                "trace",
                format_args!(
                    "{}: {} samples, {} cta spans ({} SMs)",
                    kernel.name(),
                    samples.len(),
                    cta_spans.len(),
                    traces.len()
                ),
            );
            sink.record_run(crate::trace::RunRecord {
                kernel: kernel.name().to_string(),
                key: crate::digest::hex(crate::cache::run_key(cfg, kernel)),
                cache_hit: false,
                cycles: result.cycles,
                ctas_simulated: result.ctas_simulated,
                interval: spec.interval,
                samples,
                cta_spans,
                dropped_samples,
                dropped_spans,
            });
        }
        result
    }
}

/// Folds per-SM `(share_len, take, stats)` outcomes — in `sm_id` order —
/// into a whole-GPU result. Shared by the traced and untraced paths so
/// tracing cannot perturb results.
///
/// With the sliced memory side enabled, the fold is also where cross-SM
/// slice contention is combined: each SM prices its own `1/total_sms`
/// share of every slice's port and DRAM bandwidth during simulation, and
/// the per-slice counters are folded element-wise here in fixed `sm_id`
/// order (the deterministic SM→slice arbitration order). The result is
/// order-stable at any thread count, gpucachesim-style.
fn fold_per_sm(per_sm: Vec<Option<(usize, usize, SmStats)>>) -> GpuRunResult {
    let mut worst_cycles = 0.0f64;
    let mut agg = SmStats::default();
    let mut ctas_simulated = 0usize;
    let mut sampled_fraction = 1.0f64;
    let mut any_ran = false;
    for (share_len, take, stats) in per_sm.into_iter().flatten() {
        any_ran = true;
        let scale = share_len as f64 / take as f64;
        sampled_fraction = (take as f64 / share_len as f64).min(sampled_fraction);
        worst_cycles = worst_cycles.max(stats.cycles as f64 * scale);
        ctas_simulated += take;
        accumulate(&mut agg, &stats);
    }
    if !any_ran {
        sampled_fraction = 0.0;
    }
    GpuRunResult {
        cycles: worst_cycles,
        stats: agg,
        sampled_fraction,
        ctas_simulated,
    }
}

fn accumulate(agg: &mut SmStats, s: &SmStats) {
    agg.cycles = agg.cycles.max(s.cycles);
    agg.issued_mma += s.issued_mma;
    agg.issued_tensor_loads += s.issued_tensor_loads;
    agg.row_loads += s.row_loads;
    agg.eliminated_loads += s.eliminated_loads;
    agg.issued_other += s.issued_other;
    agg.services.lhb += s.services.lhb;
    agg.services.l1 += s.services.l1;
    agg.services.l2 += s.services.l2;
    agg.services.dram += s.services.dram;
    agg.services.shared += s.services.shared;
    agg.octet_dup_l1 += s.octet_dup_l1;
    agg.stalls.empty += s.stalls.empty;
    agg.stalls.data_dependency += s.stalls.data_dependency;
    agg.stalls.ldst_full += s.stalls.ldst_full;
    agg.stalls.tensor_busy += s.stalls.tensor_busy;
    agg.stalls.barrier += s.stalls.barrier;
    agg.ldst_pipe_stalls += s.ldst_pipe_stalls;
    agg.rf_peak_rows = agg.rf_peak_rows.max(s.rf_peak_rows);
    agg.rf_final_rows += s.rf_final_rows;
    agg.detect.workspace_loads += s.detect.workspace_loads;
    agg.detect.non_workspace_loads += s.detect.non_workspace_loads;
    agg.detect.boundary_bypasses += s.detect.boundary_bypasses;
    agg.detect.eliminated += s.detect.eliminated;
    agg.lhb.hits += s.lhb.hits;
    agg.lhb.misses += s.lhb.misses;
    agg.lhb.conflict_evictions += s.lhb.conflict_evictions;
    agg.lhb.retire_releases += s.lhb.retire_releases;
    agg.lhb.store_invalidations += s.lhb.store_invalidations;
    agg.mem.l1_hits += s.mem.l1_hits;
    agg.mem.l1_misses += s.mem.l1_misses;
    agg.mem.mshr_merges += s.mem.mshr_merges;
    agg.mem.mshr_stalls += s.mem.mshr_stalls;
    agg.mem.l2_accesses += s.mem.l2_accesses;
    agg.mem.l2_hits += s.mem.l2_hits;
    agg.mem.dram_accesses += s.mem.dram_accesses;
    agg.mem.dram_bytes += s.mem.dram_bytes;
    agg.mem.stores += s.mem.stores;
    agg.mem.store_bytes += s.mem.store_bytes;
    agg.mem.l2_port_requests += s.mem.l2_port_requests;
    agg.mem.l2_queue_delay += s.mem.l2_queue_delay;
    agg.mem.dram_requests += s.mem.dram_requests;
    agg.mem.dram_queue_delay += s.mem.dram_queue_delay;
    // High-water marks: the worst simulated SM, not a sum.
    agg.mem.mshr_peak_occupancy = agg.mem.mshr_peak_occupancy.max(s.mem.mshr_peak_occupancy);
    agg.mem.l2_peak_queue_delay = agg.mem.l2_peak_queue_delay.max(s.mem.l2_peak_queue_delay);
    agg.mem.dram_peak_queue_delay = agg
        .mem
        .dram_peak_queue_delay
        .max(s.mem.dram_peak_queue_delay);
    agg.rename_pairs.extend_from_slice(&s.rename_pairs);
    // Per-slice counters fold element-wise (sums for totals, max for
    // peaks) in the fixed sm_id order the caller iterates in.
    if agg.slices.len() < s.slices.len() {
        agg.slices.resize(s.slices.len(), Default::default());
    }
    for (a, b) in agg.slices.iter_mut().zip(&s.slices) {
        a.accesses += b.accesses;
        a.l2_hits += b.l2_hits;
        a.dram_accesses += b.dram_accesses;
        a.stores += b.stores;
        a.port_requests += b.port_requests;
        a.port_queue_delay += b.port_queue_delay;
        a.port_peak_queue_delay = a.port_peak_queue_delay.max(b.port_peak_queue_delay);
        a.dram_queue_delay += b.dram_queue_delay;
        a.noc_req_delay += b.noc_req_delay;
        a.noc_resp_delay += b.noc_resp_delay;
        a.mshr_peak = a.mshr_peak.max(b.mshr_peak);
    }
    agg.ctas_run += s.ctas_run;
}

/// Simulates the lowered GEMM of one convolutional layer (the paper's §V
/// per-layer experiments): baseline when `lhb` is `None`, Duplo otherwise,
/// under the execution knobs of `opts`.
pub fn layer_run(
    params: &ConvParams,
    lhb: Option<LhbConfig>,
    config: &GpuConfig,
    opts: &RunOptions,
) -> GpuRunResult {
    let kernel = GemmTcKernel::from_conv(params, SmemPolicy::COnly);
    let mut cfg = config.clone();
    cfg.sm.lhb = lhb;
    GpuSim::with_options(cfg, opts.clone()).run(&kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duplo_tensor::Nhwc;

    fn small_conv() -> ConvParams {
        ConvParams::new(Nhwc::new(1, 16, 16, 16), 16, 3, 3, 1, 1).unwrap()
    }

    #[test]
    fn duplo_improves_a_duplication_heavy_layer() {
        let cfg = GpuConfig::titan_v();
        let opts = RunOptions::default();
        let base = layer_run(&small_conv(), None, &cfg, &opts);
        let duplo = layer_run(&small_conv(), Some(LhbConfig::paper_default()), &cfg, &opts);
        assert!(duplo.stats.eliminated_loads > 0, "expected eliminations");
        assert!(
            duplo.cycles < base.cycles,
            "duplo {} !< baseline {}",
            duplo.cycles,
            base.cycles
        );
    }

    #[test]
    fn sampling_reports_fraction_and_scales() {
        // 8x56x56 rows -> 392 CTAs -> ~5 CTAs per SM share; sample 2.
        let p = ConvParams::new(Nhwc::new(8, 56, 56, 16), 16, 3, 3, 1, 1).unwrap();
        let opts = RunOptions::default();
        let full = layer_run(&p, None, &GpuConfig::titan_v(), &opts);
        let sampled = layer_run(&p, None, &GpuConfig::titan_v().with_sample(2), &opts);
        assert_eq!(full.sampled_fraction, 1.0);
        assert!(sampled.sampled_fraction < 1.0);
        // The scaled estimate should be within 2x of the full run.
        let ratio = sampled.cycles / full.cycles;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn rf_rows_counts_fills_and_mma_fragments() {
        // Pin the energy accounting: RF rows = load fills (probed rows
        // minus renamed ones) + 4 fragments/MMA x 16 row slots/fragment.
        let mut stats = SmStats::default();
        stats.row_loads = 100;
        stats.eliminated_loads = 30;
        stats.issued_mma = 7;
        let r = GpuRunResult {
            cycles: 0.0,
            stats,
            sampled_fraction: 1.0,
            ctas_simulated: 0,
        };
        assert_eq!(r.energy_counts().rf_rows, (100 - 30) + 4 * 16 * 7);
    }

    /// A grid with zero CTAs (nothing to run on any SM).
    struct EmptyKernel;

    impl duplo_isa::Kernel for EmptyKernel {
        fn name(&self) -> &str {
            "empty"
        }
        fn num_ctas(&self) -> usize {
            0
        }
        fn cta(&self, idx: usize) -> duplo_isa::CtaTrace {
            panic!("empty kernel has no CTA {idx}");
        }
        fn shared_mem_per_cta(&self) -> u32 {
            0
        }
        fn regs_per_warp(&self) -> u32 {
            1
        }
    }

    #[test]
    fn zero_cta_kernel_reports_nothing_sampled() {
        let r = GpuSim::new(GpuConfig::titan_v()).run(&EmptyKernel);
        assert_eq!(r.sampled_fraction, 0.0, "no share ran: nothing sampled");
        assert_eq!(r.cycles, 0.0);
        assert_eq!(r.ctas_simulated, 0);
        assert_eq!(r.stats.ctas_run, 0);
    }

    #[test]
    fn multi_sm_run_is_thread_count_invariant() {
        // 392 CTAs over 80 SMs: 5 simulated SMs get distinct shares; the
        // fold over per-SM results must not depend on completion order.
        // Bypass the run cache: serving the second run from memory would
        // make the comparison vacuous.
        let p = ConvParams::new(Nhwc::new(8, 56, 56, 16), 16, 3, 3, 1, 1).unwrap();
        let mut cfg = GpuConfig::titan_v().with_sample(2);
        cfg.sms_simulated = 5;
        cfg.sm.lhb = Some(LhbConfig::paper_default());
        let kernel = GemmTcKernel::from_conv(&p, SmemPolicy::COnly);
        let run = |threads| {
            let opts = RunOptions {
                threads: Some(threads),
                no_cache: true,
                ..RunOptions::default()
            };
            GpuSim::with_options(cfg.clone(), opts).run(&kernel)
        };
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn energy_counts_nonzero_after_run() {
        let r = layer_run(
            &small_conv(),
            Some(LhbConfig::paper_default()),
            &GpuConfig::titan_v(),
            &RunOptions::default(),
        );
        let c = r.energy_counts();
        assert!(c.dram_bytes > 0);
        assert!(c.lhb_events > 0);
        assert!(r.energy().total_nj() > 0.0);
    }
}
