//! Integration gates for the tracing subsystem (`duplo_sim::trace`):
//!
//! * exported Chrome trace documents are byte-identical at any thread
//!   count (the CI trace gate re-checks this across *processes* via
//!   `DUPLO_THREADS`),
//! * the aggregated timeline is consistent with the end-of-run
//!   `run_metrics` totals — summing per-window deltas telescopes to
//!   exactly the folded stats,
//! * every capped buffer reports drops instead of silently truncating,
//! * tracing does not perturb simulation results, and cache hits are
//!   recorded as timeline-less records.
//!
//! Each run records into the sink its own options carry, so the tests
//! run in parallel without leaking records into each other.

use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::cache::CacheTally;
use duplo_sim::json::Json;
use duplo_sim::trace::{TraceOptions, TraceSink};
use duplo_sim::{GpuConfig, GpuSim, RunOptions};
use duplo_tensor::Nhwc;

/// A 392-CTA layer over 5 simulated SMs: distinct per-SM shares, so both
/// the stat fold and the sample aggregation have real cross-SM work.
fn kernel_and_cfg() -> (GemmTcKernel, GpuConfig) {
    let p = ConvParams::new(Nhwc::new(8, 56, 56, 16), 16, 3, 3, 1, 1).unwrap();
    let mut cfg = GpuConfig::titan_v().with_sample(2);
    cfg.sms_simulated = 5;
    cfg.sm.lhb = Some(LhbConfig::paper_default());
    (GemmTcKernel::from_conv(&p, SmemPolicy::COnly), cfg)
}

/// Uncached run options at `threads`, recording into `sink` when given.
fn options(threads: usize, sink: Option<&TraceSink>) -> RunOptions {
    RunOptions {
        threads: Some(threads),
        no_cache: true,
        trace_sink: sink.cloned(),
        ..RunOptions::default()
    }
}

fn traced_export(threads: usize, interval: u64) -> String {
    let sink = TraceSink::new(TraceOptions {
        interval,
        ..TraceOptions::default()
    });
    let (kernel, cfg) = kernel_and_cfg();
    GpuSim::with_options(cfg, options(threads, Some(&sink))).run(&kernel);
    sink.finish().to_chrome_json().to_pretty()
}

#[test]
fn trace_export_identical_at_one_and_many_threads() {
    let serial = traced_export(1, 256);
    let parallel = traced_export(4, 256);
    assert_eq!(
        serial, parallel,
        "trace documents must be byte-identical regardless of thread count"
    );
}

#[test]
fn interval_deltas_sum_to_run_metrics_totals() {
    let sink = TraceSink::new(TraceOptions {
        interval: 128,
        ..TraceOptions::default()
    });
    let (kernel, cfg) = kernel_and_cfg();
    let result = GpuSim::with_options(cfg, options(2, Some(&sink))).run(&kernel);
    let data = sink.finish();
    assert_eq!(data.runs.len(), 1);
    let run = &data.runs[0];
    assert_eq!(run.dropped_samples, 0, "caps must not truncate this run");
    assert!(run.samples.len() > 2, "expected several sample windows");

    // Sum the per-window deltas the way a timeline consumer would; with
    // cumulative samples this telescopes to the final snapshot, which
    // must equal the folded run stats that run_metrics exports.
    let mut prev = duplo_sim::trace::SmSample::default();
    let mut issued = 0u64;
    let mut sched_stalls = 0u64;
    let mut serv_l1 = 0u64;
    let mut serv_dram = 0u64;
    let mut lhb_hits = 0u64;
    let mut l1_misses = 0u64;
    for s in &run.samples {
        issued += (s.issued_mma - prev.issued_mma)
            + (s.issued_tensor_loads - prev.issued_tensor_loads)
            + (s.issued_other - prev.issued_other);
        sched_stalls += (s.stall_empty - prev.stall_empty)
            + (s.stall_data_dependency - prev.stall_data_dependency)
            + (s.stall_ldst_full - prev.stall_ldst_full)
            + (s.stall_tensor_busy - prev.stall_tensor_busy)
            + (s.stall_barrier - prev.stall_barrier);
        serv_l1 += s.serv_l1 - prev.serv_l1;
        serv_dram += s.serv_dram - prev.serv_dram;
        lhb_hits += s.lhb_hits - prev.lhb_hits;
        l1_misses += s.l1_misses - prev.l1_misses;
        prev = *s;
    }
    let m = duplo_sim::results::run_metrics(&result);
    let get_u = |path: [&str; 2]| {
        m.get(path[0])
            .and_then(|o| o.get(path[1]))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(issued, get_u(["issued", "total"]));
    assert_eq!(sched_stalls, get_u(["stalls", "sched_total"]));
    assert_eq!(serv_l1, get_u(["services", "l1"]));
    assert_eq!(serv_dram, get_u(["services", "dram"]));
    assert_eq!(lhb_hits, get_u(["lhb", "hits"]));
    assert_eq!(l1_misses, get_u(["cache", "l1_misses"]));
    assert!(lhb_hits > 0, "duplo run must hit the LHB");
    // High-water marks fold with max, and the final sample carries them.
    let last = run.samples.last().unwrap();
    assert_eq!(last.mshr_peak, get_u(["mshr", "peak_occupancy"]));
}

#[test]
fn capped_buffers_report_drops() {
    let sink = TraceSink::new(TraceOptions {
        interval: 64,
        sample_cap: 2,
        span_cap: 1,
        run_cap: 1,
        ..TraceOptions::default()
    });
    let (kernel, cfg) = kernel_and_cfg();
    let sim = GpuSim::with_options(cfg, options(1, Some(&sink)));
    sim.run(&kernel);
    sim.run(&kernel); // over run_cap: counted, not kept
    let data = sink.finish();
    assert_eq!(data.runs.len(), 1);
    assert_eq!(data.dropped_runs, 1);
    let run = &data.runs[0];
    assert!(run.dropped_samples > 0, "sample_cap=2 must overflow");
    assert!(
        run.dropped_spans > 0,
        "span_cap=1 with 2 CTAs must overflow"
    );
    // The final (cap-exempt) sample still closes the timeline.
    assert!(run.samples.last().unwrap().cycle > 0);
    let doc = data.to_chrome_json();
    let dropped = doc.get("dropped").unwrap();
    let dget = |k: &str| dropped.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(dget("runs"), 1);
    assert!(dget("samples") > 0);
    assert!(dget("cta_spans") > 0);
}

#[test]
fn tracing_does_not_perturb_results() {
    let (kernel, cfg) = kernel_and_cfg();
    let plain = GpuSim::with_options(cfg.clone(), options(2, None)).run(&kernel);
    let sink = TraceSink::new(TraceOptions::default());
    let traced = GpuSim::with_options(cfg, options(2, Some(&sink))).run(&kernel);
    assert_eq!(sink.finish().runs.len(), 1);
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "the traced path must produce the identical result"
    );
}

#[test]
fn cache_hits_are_recorded_without_timeline() {
    // Memory tier only: the second run must be served from cache and
    // still appear in the trace as a timeline-less record.
    let sink = TraceSink::new(TraceOptions::default());
    let (kernel, mut cfg) = kernel_and_cfg();
    cfg.clock_mhz = 1_000_001; // a key no other test in this process touches
    let opts = RunOptions {
        no_cache: false,
        ..options(1, Some(&sink))
    };
    let sim = GpuSim::with_options(cfg, opts);
    let first = sim.run(&kernel);
    let second = sim.run(&kernel);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    let data = sink.finish();
    assert_eq!(data.runs.len(), 2);
    let hits: Vec<_> = data.runs.iter().filter(|r| r.cache_hit).collect();
    let misses: Vec<_> = data.runs.iter().filter(|r| !r.cache_hit).collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(misses.len(), 1);
    assert!(hits[0].samples.is_empty(), "cache hits carry no timeline");
    assert!(!misses[0].samples.is_empty());
    assert_eq!(hits[0].cycles, misses[0].cycles);
}

/// Concurrent identical traced runs share one simulation: the single-flight
/// follower (or a later memory hit) is recorded as a timeline-less
/// `cache_hit` record in its own sink.
#[test]
fn concurrent_traced_runs_simulate_once() {
    let (kernel, mut cfg) = kernel_and_cfg();
    cfg.clock_mhz = 1_000_002; // a key no other test in this process touches
    let sinks = [
        TraceSink::new(TraceOptions::default()),
        TraceSink::new(TraceOptions::default()),
    ];
    let tallies = [CacheTally::default(), CacheTally::default()];
    std::thread::scope(|scope| {
        for (sink, tally) in sinks.iter().zip(&tallies) {
            let opts = RunOptions {
                threads: Some(1),
                cache_tally: Some(tally.clone()),
                trace_sink: Some(sink.clone()),
                ..RunOptions::default()
            };
            let (cfg, kernel) = (&cfg, &kernel);
            scope.spawn(move || GpuSim::with_options(cfg.clone(), opts).run(kernel));
        }
    });
    let misses: u64 = tallies.iter().map(|t| t.get().misses).sum();
    let hits: u64 = tallies.iter().map(|t| t.get().hits).sum();
    assert_eq!((misses, hits), (1, 1), "one simulation, one ride");
    let mut records: Vec<_> = sinks.iter().flat_map(|s| s.finish().runs).collect();
    records.sort_by_key(|r| r.cache_hit);
    assert_eq!(records.len(), 2);
    assert!(!records[0].cache_hit && !records[0].samples.is_empty());
    assert!(records[1].cache_hit && records[1].samples.is_empty());
    assert_eq!(records[0].key, records[1].key);
}
