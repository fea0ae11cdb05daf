//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`:
//! runs one workload and prints, as its last line, one JSON object with
//! the run's correctness, operation counts and metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use duplo_isa::validate_cta;
use duplo_sim::{GpuConfig, cache, digest, json, wtrace};
use duplo_testkit::Rng;
use perfbench::args::{self, Args, Workload};
use perfbench::gen::{self, Lhb, SimOp, SubmitKind};
use perfbench::registry::{Registry, bucket_quantile};
use perfbench::replay;
use perfbench::report::{self, END_TO_END, LAYERS, PER_LAYER};
use perfbench::serve_mix::{self, FirstBodies, Inputs};
use perfbench::simwork::{self, SimCounts, THREADS};
use perfbench::spans::Spans;
use perfbench::stats::{gmean, mean, median, percentile, ratio};

/// Set-up time one round of set-ups takes at least: a short set-up is
/// repeated within a round, so every workload gets enough samples.
const SETUP_ROUND_S: f64 = 0.1;

/// One round of set-ups: `set_up` is repeated until the round has taken
/// [`SETUP_ROUND_S`], and each repetition's time is a sample. A round runs
/// once before the timed phase and again before every pass, so the samples
/// span the run as the pass times do; `setup_s` is their median. Returns
/// the last repetition's output.
fn setup_round<T>(times: &mut Vec<f64>, mut set_up: impl FnMut() -> T) -> T {
    let mut spent = 0.0;
    loop {
        let t = Instant::now();
        let out = set_up();
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        spent += secs;
        if spent >= SETUP_ROUND_S {
            return out;
        }
    }
}

/// Operations a run completes at least, so the 90th percentile has ten
/// samples beyond it.
const MIN_OPS: usize = 100;

/// Where runs leave their span files and scratch cache directories,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Everything one run reports.
#[derive(Default)]
struct RunReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl RunReport {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn line(&mut self, s: String) {
        self.lines.push(s);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let spans = Spans::new(args.trace);
    let result = match args.workload {
        Workload::ConvSweep | Workload::MemStream => sim_workload(&args, &spans),
        Workload::ServeMix => serve_workload(&args, &spans),
    };
    let mut rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        self_time_table(&spans, &mut rep);
        let path = Path::new(OUT_DIR).join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json().to_canonical()))
        {
            Ok(()) => rep.line(format!("spans written to {}", path.display())),
            Err(e) => rep.line(format!("spans not written: {e}")),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        if let Some(v) = rep.values.get(name) {
            rep.lines.push(format!("{name:<32} {v:>14.4} {unit}"));
        }
    }
    for l in &rep.lines {
        println!("{l}");
    }
    match report::result_line(rep.correct, rep.attempted, rep.failed, names, &rep.values) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// conv_sweep and mem_stream
// ---------------------------------------------------------------------------

fn build_ops(w: Workload, seed: u64) -> Vec<SimOp> {
    match w {
        Workload::ConvSweep => gen::conv_ops(&gen::conv_plan(seed)),
        _ => gen::stream_ops(&gen::stream_plan(seed)),
    }
}

/// Seeded subset of `n` op indices (`k` of them).
fn seeded_subset(seed: u64, salt: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ salt);
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Set-up of a simulator workload: generates the ops, then materializes
/// and validates every sampled CTA they will simulate. Returns the ops,
/// each op's instruction count and the CTAs that fail validation (with
/// their op's index).
fn sim_setup(args: &Args) -> (Vec<SimOp>, Vec<u64>, Vec<(usize, String)>) {
    let ops = build_ops(args.workload, args.seed);
    let mut op_instrs = Vec::new();
    let mut invalid = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let mut n = 0;
        for c in op.simulated_ctas() {
            let cta = op.kernel.cta(c);
            if let Err(e) = validate_cta(&cta) {
                invalid.push((i, format!("{} CTA {c}: {e}", op.label)));
            }
            n += replay::instr_count(std::slice::from_ref(&cta));
        }
        op_instrs.push(n);
    }
    (ops, op_instrs, invalid)
}

fn sim_workload(args: &Args, spans: &Spans) -> Result<RunReport, String> {
    let mut rep = RunReport::default();
    let mut setup = Vec::new();
    let (ops, op_instrs, invalid) = setup_round(&mut setup, || sim_setup(args));
    let instrs: u64 = op_instrs.iter().sum();
    // Largest ops first, by instruction count.
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(op_instrs[i]));
    rep.line(format!(
        "{}: {} ops per pass, {} threads, seed {}",
        args.workload.name(),
        ops.len(),
        THREADS,
        args.seed
    ));
    if args.workload == Workload::MemStream {
        let fp: Vec<f64> = gen::stream_plan(args.seed)
            .iter()
            .map(gen::stream_footprint)
            .collect();
        rep.line(format!(
            "footprint / per-SM L2 share: {:.2}..{:.2} (mean {:.2})",
            fp.iter().copied().fold(f64::INFINITY, f64::min),
            fp.iter().copied().fold(0.0, f64::max),
            fp.iter().sum::<f64>() / fp.len() as f64
        ));
    }

    let timed = simwork::timed_phase(args.seconds, MIN_OPS, ops.len(), spans, |no, sp| {
        setup_round(&mut setup, || sim_setup(args));
        Ok::<_, String>(simwork::run_pass(&ops, &order, THREADS, sp, no))
    })?;
    let counts = SimCounts::of_pass(&timed.plain[0], &timed.first.0, &timed.first.1);

    // Checks, outside the timed window: invariants and cross-pass identity
    // for every outcome, the reference loop for a seeded subset.
    let reference = seeded_subset(args.seed, 0x0EF, ops.len(), 3);
    let passes: Vec<&[simwork::Outcome]> = timed
        .plain
        .iter()
        .chain(&timed.traced)
        .map(|p| p.outcomes.as_slice())
        .collect();
    let invalid_ops: Vec<usize> = invalid.iter().map(|&(i, _)| i).collect();
    let (failed, msgs) = perfbench::check::check_sim(&ops, &passes, &reference, &invalid_ops);
    for m in msgs.iter().chain(invalid.iter().map(|(_, m)| m)) {
        rep.line(format!("CHECK FAILED: {m}"));
    }
    rep.attempted = (timed.passes() * ops.len()) as u64;
    rep.failed = failed;
    rep.correct = failed == 0;
    rep.line(format!(
        "checks: {} runs checked for invariants and cross-pass identity, ops {:?} against the reference loop",
        rep.attempted, reference
    ));

    let walls: Vec<f64> = timed.plain.iter().map(|p| p.wall_s).collect();
    let lat: Vec<f64> = timed
        .plain
        .iter()
        .flat_map(|p| &p.outcomes)
        .map(|o| o.secs * 1e3)
        .collect();
    let wall = end_to_end(
        &mut rep,
        &setup,
        &timed,
        &walls,
        &lat,
        counts.cycles,
        ops.len(),
    )?;

    let first = &timed.plain[0];
    let gain = if args.workload == Workload::ConvSweep {
        paper_reference(&gen::conv_plan(args.seed), first, &mut rep)
    } else {
        0.0
    };
    if !args.trace {
        return Ok(rep);
    }

    // Per-layer metrics.
    set_counts(&mut rep, &counts);
    rep.set("kernels.instrs", instrs as f64);
    rep.set("core.duplo_gain_dm1024", gain);
    let traces = replay::gen_traces(&ops, spans);
    rep.set("kernels.gen_ms", spans.total_ms("kernels"));
    rep.set(
        "core.probe_ns",
        replay::core_replay(&ops, &traces, spans).ns_per_call(),
    );
    rep.set(
        "mem.load_ns",
        replay::mem_replay(&ops, &traces, spans).ns_per_call(),
    );
    rep.set(
        "noc.route_ns",
        replay::noc_replay(&ops, &traces, spans).ns_per_call(),
    );
    sm_replay(
        &mut rep,
        &ops,
        &seeded_subset(args.seed, 0x5AA, ops.len(), 4),
        spans,
    );

    let runs_ms = spans.durations_ms("gpu");
    rep.set(
        "gpu.run_ms_p50",
        percentile(&runs_ms, 0.5).map_or(0.0, |p| p.value),
    );
    rep.set(
        "gpu.run_ms_max",
        runs_ms.iter().copied().fold(0.0, f64::max),
    );
    let fold = r#"duplo_gpu_phase_us{phase="fold"}"#;
    rep.set(
        "gpu.fold_ms",
        (timed.after.value(fold) - timed.before.value(fold)) / 1e3 / timed.passes() as f64,
    );
    let traced_wall: f64 = timed.traced.iter().map(|p| p.wall_s).sum();
    rep.set(
        "runner.busy_frac",
        ratio(
            runs_ms.iter().sum::<f64>(),
            THREADS as f64 * traced_wall * 1e3,
        ),
    );
    set_cache_deltas(&mut rep, &timed.before, &timed.after);
    for name in [
        "cache.key_us",
        "cache.codec_us",
        "codec.body_mb",
        "codec.parse_ms_per_mb",
        "codec.wtrace_decode_ms_per_mb",
        "codec.digest_ms_per_mb",
        "serve.requests",
        "serve.errors",
        "serve.server_p50_ms",
        "serve.queue_depth_max",
        "serve.workers_busy_frac",
        "serve.cold_p50_ms",
        "serve.warm_p50_ms",
        "serve.warm_p90_ms",
        "serve.warm_share",
    ] {
        rep.set(name, 0.0);
    }
    let traced_walls: Vec<f64> = timed.traced.iter().map(|p| p.wall_s).collect();
    tracing_overhead(&mut rep, wall, mean(&traced_walls));
    Ok(rep)
}

/// Sets the end-to-end metrics from the untraced passes and returns the
/// mean pass wall time. Every pass does the same work, so pass times and
/// rates are per mean pass: a shared host's speed shifts between stretches
/// of seconds to minutes, and the mean, like the latencies that `lat_ms`
/// pools from every op (or send) of those passes, weighs each stretch by
/// its length where a median would take whichever one lasted longest. The
/// resident-set peak is the median pass's.
fn end_to_end<P>(
    rep: &mut RunReport,
    setup: &[f64],
    timed: &simwork::Timed<P>,
    walls: &[f64],
    lat_ms: &[f64],
    cycles_per_pass: u64,
    ops_per_pass: usize,
) -> Result<f64, String> {
    let wall = mean(walls);
    let p50 = percentile(lat_ms, 0.5).ok_or("too few ops for a median")?;
    let p90 = percentile(lat_ms, 0.9).ok_or("too few ops for a 90th percentile")?;
    rep.line(format!(
        "timed: {} passes in {:.2} s; pass wall mean {:.3} s; op latency p50 {:.2} ms, p90 {:.2} ms (n={})",
        timed.passes(),
        timed.elapsed_s,
        wall,
        p50.value,
        p90.value,
        p50.n
    ));
    rep.set("setup_s", median(setup));
    rep.set("wall_s", wall);
    rep.set("sim_mcycles_per_s", cycles_per_pass as f64 / wall / 1e6);
    rep.set("submits_per_s", ops_per_pass as f64 / wall);
    rep.set("op_p50_ms", p50.value);
    rep.set("op_p90_ms", p90.value);
    rep.set("peak_rss_mb", median(&timed.plain_rss_mb));
    Ok(wall)
}

/// Prints Duplo's gain and LHB hit rate on the fixed grid beside the
/// paper's figures; returns the gain.
fn paper_reference(points: &[gen::ConvPoint], pass: &simwork::Pass, rep: &mut RunReport) -> f64 {
    let mut speedups = Vec::new();
    let (mut hits, mut probes) = (0u64, 0u64);
    for (i, p) in points.iter().enumerate() {
        if p.lhb != Lhb::Direct(1024) || p.batch.is_some() {
            continue;
        }
        let base = points
            .iter()
            .position(|b| b.layer == p.layer && b.batch.is_none() && b.lhb == Lhb::Baseline);
        let (Some(d), Some(b)) = (
            pass.outcomes[i].result.as_ref(),
            base.and_then(|b| pass.outcomes[b].result.as_ref()),
        ) else {
            continue;
        };
        speedups.push(b.cycles / d.cycles);
        hits += d.stats.lhb.hits;
        probes += d.stats.lhb.hits + d.stats.lhb.misses;
    }
    let gain = gmean(&speedups).map_or(0.0, |g| g - 1.0);
    let hit_rate = ratio(hits as f64, probes as f64);
    rep.line(format!(
        "Duplo, 1024-entry direct-mapped LHB, gmean over {} Table I layers: gain {:.1}% (paper: 22.1%, Fig. 9), LHB hit rate {:.1}% (paper: ~76%, Fig. 10)",
        speedups.len(),
        gain * 100.0,
        hit_rate * 100.0
    ));
    rep.line(
        "  the paper's figures come from its GPGPU-sim model of a Titan V, not from hardware: \
         this compares two models. Modelled caches start empty for every kernel; \
         sample_ctas = 2."
            .to_string(),
    );
    gain
}

fn set_counts(rep: &mut RunReport, c: &SimCounts) {
    rep.set("gpu.runs", c.runs as f64);
    rep.set("core.lhb_probes", c.lhb_probes as f64);
    rep.set("core.lhb_hits", c.lhb_hits as f64);
    rep.set(
        "core.lhb_hit_rate",
        ratio(c.lhb_hits as f64, c.lhb_probes as f64),
    );
    rep.set("sm.cycles", c.cycles as f64);
    rep.set("sm.issued", c.issued as f64);
    rep.set("sm.ticks_walked", c.ticks_walked as f64);
    rep.set("sm.cycles_skipped", c.cycles_skipped as f64);
    rep.set(
        "sm.skip_frac",
        ratio(c.cycles_skipped as f64, c.cycles as f64),
    );
    rep.set("mem.l1_accesses", c.l1_accesses as f64);
    rep.set(
        "mem.l1_hit_rate",
        ratio(c.l1_hits as f64, c.l1_accesses as f64),
    );
    rep.set("mem.l2_accesses", c.l2_accesses as f64);
    rep.set("mem.dram_bytes", c.dram_bytes as f64);
    rep.set("mem.mshr_merges", c.mshr_merges as f64);
    rep.set("noc.xbar_delay_cycles", c.xbar_delay_cycles);
    rep.set(
        "noc.slice_imbalance",
        ratio(c.slice_max as f64, c.slice_mean),
    );
}

/// Run-cache counter increments between two snapshots.
fn set_cache_deltas(rep: &mut RunReport, before: &Registry, after: &Registry) {
    let d = |name: &str| after.value(name) - before.value(name);
    rep.set(
        "cache.hits.memory",
        d(r#"duplo_cache_hits_total{tier="memory"}"#),
    );
    rep.set(
        "cache.hits.disk",
        d(r#"duplo_cache_hits_total{tier="disk"}"#),
    );
    rep.set(
        "cache.hits.flight",
        d(r#"duplo_cache_hits_total{tier="flight"}"#),
    );
    rep.set("cache.misses", d("duplo_cache_misses_total"));
    rep.set(
        "cache.disk_bytes",
        d(r#"duplo_cache_disk_bytes_total{dir="read"}"#)
            + d(r#"duplo_cache_disk_bytes_total{dir="write"}"#),
    );
}

/// The SM model alone on `pick`: host time per simulated cycle and per
/// cycle walked tick by tick.
fn sm_replay(rep: &mut RunReport, ops: &[SimOp], pick: &[usize], spans: &Spans) {
    let before = duplo_sm::loop_profile();
    let t = replay::sm_replay(ops, pick, spans);
    let ticks = duplo_sm::loop_profile().ticks_walked - before.ticks_walked;
    rep.set("sm.host_ns_per_cycle", t.ns_per_call());
    rep.set("sm.host_ns_per_tick", ratio(t.ns, ticks as f64));
}

fn tracing_overhead(rep: &mut RunReport, plain: f64, traced: f64) {
    let overhead = ratio(traced, plain) - 1.0;
    rep.line(format!(
        "tracing overhead: traced pass {traced:.3} s vs untraced {plain:.3} s ({:+.1}%)",
        overhead * 100.0
    ));
    rep.set("trace.overhead_frac", overhead);
}

fn self_time_table(spans: &Spans, rep: &mut RunReport) {
    let times = spans.self_times();
    rep.line(format!(
        "{:<8} {:>8} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    ));
    for layer in LAYERS {
        let t = times.get(layer).copied().unwrap_or_default();
        rep.line(format!(
            "{layer:<8} {:>8} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        ));
        let name: &'static str = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix(".self_ms") == Some(layer))
            .expect("every layer has a self_ms metric");
        rep.set(name, t.self_ms);
    }
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

fn serve_workload(args: &Args, spans: &Spans) -> Result<RunReport, String> {
    let mut rep = RunReport::default();
    let mut setup = Vec::new();
    let inputs = setup_round(&mut setup, || serve_mix::inputs(args.seed));
    let mut nondeterministic = false;
    let sends_per_pass = inputs.plan.sequence.len();
    let cold_per_pass = inputs.plan.submissions.len();
    let mb: Vec<f64> = inputs
        .plan
        .submissions
        .iter()
        .zip(&inputs.bodies)
        .filter(|(s, _)| matches!(s, SubmitKind::Wtrace { .. }))
        .map(|(_, b)| b.len() as f64 / 1e6)
        .collect();
    rep.line(format!(
        "serve_mix: {} clients (closed loop), {} daemon workers, {} sends per pass: {} cold, {} warm ({:.0}% warm); wtrace bodies {:.2}..{:.2} MB",
        gen::CLIENTS,
        serve_mix::WORKERS,
        sends_per_pass,
        cold_per_pass,
        sends_per_pass - cold_per_pass,
        100.0 * (sends_per_pass - cold_per_pass) as f64 / sends_per_pass as f64,
        mb.iter().copied().fold(f64::INFINITY, f64::min),
        mb.iter().copied().fold(0.0, f64::max),
    ));

    let cache_root = PathBuf::from(OUT_DIR).join(format!("serve-cache-{}", std::process::id()));
    let first: FirstBodies = Mutex::new(Default::default());
    let errors = Mutex::new(Vec::new());
    let timed = simwork::timed_phase(args.seconds, MIN_OPS, sends_per_pass, spans, |no, sp| {
        nondeterministic |= setup_round(&mut setup, || serve_mix::inputs(args.seed)) != inputs;
        serve_mix::run_pass(&inputs, &cache_root, no, sp, &first, &errors)
            .map_err(|e| format!("serve pass {no}: {e}"))
    })?;
    let (plain, traced) = (&timed.plain, &timed.traced);
    // The cache directories are per pass and already gone; drop the root.
    let _ = std::fs::remove_dir(&cache_root);

    // Checks: every reply was a 200 equal to the first cold body (done per
    // send); a seeded wtrace and a seeded by-name submission must also
    // equal the in-process result.
    let all: Vec<&serve_mix::Send> = plain.iter().chain(traced).flat_map(|p| &p.sends).collect();
    let mut failed = all.iter().filter(|s| !s.ok).count() as u64;
    let first = first.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x1A9);
    let subs = &inputs.plan.submissions;
    let pick: Vec<usize> = [true, false]
        .iter()
        .filter_map(|&w| {
            let of_kind: Vec<usize> = (0..subs.len())
                .filter(|&i| matches!(subs[i], SubmitKind::Wtrace { .. }) == w)
                .collect();
            (!of_kind.is_empty()).then(|| of_kind[rng.gen_index(of_kind.len())])
        })
        .collect();
    let mut msgs = errors.into_inner().unwrap_or_else(|e| e.into_inner());
    for &i in &pick {
        let verdict = serve_mix::in_process_body(&subs[i], &inputs.bodies[i]).and_then(|want| {
            let got = first.get(&i).ok_or("never served")?;
            perfbench::check::same_body(&want, got)
        });
        if let Err(e) = verdict {
            msgs.push(format!("submission {i} vs in-process result: {e}"));
            failed += all.iter().filter(|s| s.sub == i && s.ok).count() as u64;
        }
    }
    msgs.truncate(20);
    for m in &msgs {
        rep.line(format!("CHECK FAILED: {m}"));
    }
    if nondeterministic {
        // Inputs that differ between set-ups make every send suspect.
        rep.line("CHECK FAILED: the same seed generated different inputs".to_string());
        failed = all.len() as u64;
    }
    rep.attempted = all.len() as u64;
    rep.failed = failed;
    rep.correct = failed == 0;
    rep.line(format!(
        "checks: {} replies against the first cold body, submissions {pick:?} against the in-process result",
        all.len()
    ));

    let class = |cold: bool| -> Vec<f64> {
        all.iter()
            .filter(|s| s.cold == cold)
            .map(|s| s.secs * 1e3)
            .collect()
    };
    let (cold, warm) = (class(true), class(false));
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let lat: Vec<f64> = plain
        .iter()
        .flat_map(|p| &p.sends)
        .map(|s| s.secs * 1e3)
        .collect();
    let (b0, a0) = &timed.first;
    let pass_cycles = a0.loop_profile.cycles - b0.loop_profile.cycles;
    let wall = end_to_end(
        &mut rep,
        &setup,
        &timed,
        &walls,
        &lat,
        pass_cycles,
        sends_per_pass,
    )?;
    if !args.trace {
        return Ok(rep);
    }

    // Per-layer metrics. Simulated counts come from the first pass: the
    // SM-loop profile, and the statistics in the cold wtrace replies.
    let mut counts = SimCounts::default();
    counts.add_deltas(b0, a0);
    let mut results = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        if !matches!(sub, SubmitKind::Wtrace { .. }) {
            continue;
        }
        let doc = first
            .get(&i)
            .map(|b| serve_mix::parse_body(b))
            .transpose()?;
        for k in doc
            .as_ref()
            .and_then(|d| d.get("kernels"))
            .and_then(json::Json::as_arr)
            .unwrap_or(&[])
        {
            let r = k
                .get("result")
                .and_then(cache::result_from_json)
                .ok_or("served result does not decode")?;
            counts.add_stats(&r.stats);
            results.push(k.get("result").cloned().expect("checked above"));
        }
    }
    set_counts(&mut rep, &counts);
    set_cache_deltas(&mut rep, b0, a0);
    let requests = |r: &Registry, errors_only: bool| {
        r.sum("duplo_serve_requests_total", |n| {
            !errors_only || !n.contains(r#"status="200""#)
        })
    };
    rep.set("serve.requests", requests(a0, false) - requests(b0, false));
    rep.set("serve.errors", requests(a0, true) - requests(b0, true));
    rep.set(
        "serve.server_p50_ms",
        bucket_quantile(
            &timed
                .after
                .bucket_delta(&timed.before, "duplo_serve_latency_us"),
            0.5,
        ) / 1e3,
    );
    rep.set(
        "serve.queue_depth_max",
        traced.iter().map(|p| p.queue_depth_max).fold(0.0, f64::max),
    );
    rep.set(
        "serve.workers_busy_frac",
        traced.iter().map(|p| p.workers_busy_frac).sum::<f64>() / traced.len() as f64,
    );
    rep.set(
        "serve.cold_p50_ms",
        percentile(&cold, 0.5).map_or(0.0, |p| p.value),
    );
    rep.set(
        "serve.warm_p50_ms",
        percentile(&warm, 0.5).map_or(0.0, |p| p.value),
    );
    rep.set(
        "serve.warm_p90_ms",
        percentile(&warm, 0.9).map_or(0.0, |p| p.value),
    );
    rep.set("serve.warm_share", warm.len() as f64 / all.len() as f64);

    // Replays over the decoded wtrace bodies and the served results.
    let ops = codec_replay(&mut rep, &inputs, spans)?;
    cache_replay(&mut rep, &ops, &results, spans);
    let traces = replay::gen_traces(&ops, spans);
    let instrs: u64 = traces.iter().map(|t| replay::instr_count(&t.ctas)).sum();
    rep.set("kernels.instrs", instrs as f64);
    rep.set("kernels.gen_ms", spans.total_ms("kernels"));
    rep.set(
        "core.probe_ns",
        replay::core_replay(&ops, &traces, spans).ns_per_call(),
    );
    rep.set(
        "mem.load_ns",
        replay::mem_replay(&ops, &traces, spans).ns_per_call(),
    );
    rep.set(
        "noc.route_ns",
        replay::noc_replay(&ops, &traces, spans).ns_per_call(),
    );
    sm_replay(
        &mut rep,
        &ops,
        &seeded_subset(args.seed, 0x5AA, ops.len(), 2),
        spans,
    );
    rep.set("core.duplo_gain_dm1024", 0.0);
    for name in [
        "gpu.run_ms_p50",
        "gpu.run_ms_max",
        "gpu.fold_ms",
        "runner.busy_frac",
    ] {
        rep.set(name, 0.0);
    }
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    tracing_overhead(&mut rep, wall, mean(&traced_walls));
    Ok(rep)
}

/// `json::parse`, `wtrace::decode` and `digest::digest_json` over every
/// distinct request body, each inside a `codec` span; returns the decoded
/// wtrace kernels as ops on the daemon's configuration.
fn codec_replay(rep: &mut RunReport, inputs: &Inputs, spans: &Spans) -> Result<Vec<SimOp>, String> {
    let cfg = serve_mix::server_defaults(None).apply(GpuConfig::titan_v());
    let sends: Vec<usize> = (0..inputs.bodies.len())
        .map(|i| inputs.plan.sequence.iter().filter(|&&s| s == i).count())
        .collect();
    let total_sends: usize = sends.iter().sum();
    let sent_mb: f64 = inputs
        .bodies
        .iter()
        .zip(&sends)
        .map(|(b, &n)| b.len() as f64 * n as f64 / 1e6)
        .sum();
    rep.set("codec.body_mb", sent_mb / total_sends as f64);
    let (mut parse_ms, mut decode_ms, mut digest_ms) = (0.0, 0.0, 0.0);
    let (mut all_mb, mut wtrace_mb) = (0.0, 0.0);
    let mut ops = Vec::new();
    for (i, body) in inputs.bodies.iter().enumerate() {
        let mb = body.len() as f64 / 1e6;
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let doc = {
            let _span = spans.enter("codec", i as u64, None);
            json::parse(text)?
        };
        parse_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        {
            let _span = spans.enter("codec", i as u64, None);
            std::hint::black_box(digest::digest_json(&doc));
        }
        digest_ms += t.elapsed().as_secs_f64() * 1e3;
        all_mb += mb;
        if let Some(w) = doc.get("wtrace") {
            let t = Instant::now();
            let records = {
                let _span = spans.enter("codec", i as u64, None);
                wtrace::decode(w).map_err(|e| e.to_string())?
            };
            decode_ms += t.elapsed().as_secs_f64() * 1e3;
            wtrace_mb += mb;
            for record in records {
                ops.push(SimOp {
                    label: record.name.clone(),
                    cfg: cfg.clone(),
                    kernel: Box::new(wtrace::TraceKernel::new(record)),
                });
            }
        }
    }
    rep.set("codec.parse_ms_per_mb", ratio(parse_ms, all_mb));
    rep.set("codec.wtrace_decode_ms_per_mb", ratio(decode_ms, wtrace_mb));
    rep.set("codec.digest_ms_per_mb", ratio(digest_ms, all_mb));
    Ok(ops)
}

/// `cache::run_key` over the decoded kernels and the result codec
/// (`result_from_json` then `result_to_json`) over the served results,
/// inside `cache` spans.
fn cache_replay(rep: &mut RunReport, ops: &[SimOp], results: &[json::Json], spans: &Spans) {
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let _span = spans.enter("cache", i as u64, None);
        std::hint::black_box(cache::run_key(&op.cfg, op.kernel.as_ref()));
    }
    rep.set(
        "cache.key_us",
        ratio(t.elapsed().as_secs_f64() * 1e6, ops.len() as f64),
    );
    let t = Instant::now();
    for (i, r) in results.iter().enumerate() {
        let _span = spans.enter("cache", i as u64, None);
        if let Some(decoded) = cache::result_from_json(r) {
            std::hint::black_box(cache::result_to_json(&decoded));
        }
    }
    rep.set(
        "cache.codec_us",
        ratio(t.elapsed().as_secs_f64() * 1e6, results.len() as f64),
    );
}
