//! The two simulator workloads (`conv_sweep`, `mem_stream`): a list of
//! [`SimOp`]s fanned out over [`duplo_sim::runner`] at a fixed thread
//! count, pass after pass, until the timed phase is over.

use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use duplo_sim::{GpuRunResult, GpuSim, runner};
use duplo_sm::SmStats;

use crate::gen::{SimOp, sim_options};
use crate::registry::Registry;
use crate::spans::Spans;
use crate::stats::rss_mb;

/// Worker threads the simulator workloads fan out over.
pub const THREADS: usize = 2;

/// One simulation's outcome.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Host seconds spent in `GpuSim::run`.
    pub secs: f64,
    /// The result, or `None` if the run panicked.
    pub result: Option<GpuRunResult>,
}

/// One pass over every op.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// Outcomes in op order.
    pub outcomes: Vec<Outcome>,
}

/// Runs every op once on `threads` workers, taking them in `order` (the
/// costliest first keeps the pass's tail short); outcomes come back in op
/// order. With recording `spans`, each run gets a `gpu` span under the
/// pass's `runner` span.
pub fn run_pass(
    ops: &[SimOp],
    order: &[usize],
    threads: usize,
    spans: &Spans,
    pass_no: u64,
) -> Pass {
    let opts = sim_options();
    let t0 = Instant::now();
    let pool = spans.enter("runner", pass_no, None);
    let parent = pool.id();
    let ran = runner::par_map_opt(Some(threads), order, |&i| {
        let op = &ops[i];
        let _span = spans.enter("gpu", pass_no << 32 | i as u64, parent);
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            GpuSim::with_options(op.cfg.clone(), opts.clone()).run(op.kernel.as_ref())
        }))
        .ok();
        Outcome {
            secs: t.elapsed().as_secs_f64(),
            result,
        }
    });
    drop(pool);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; ops.len()];
    for (&i, o) in order.iter().zip(ran) {
        outcomes[i] = Some(o);
    }
    Pass {
        wall_s,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("order covers every op once"))
            .collect(),
    }
}

/// Deterministic simulated counts of one pass: sums over the ops'
/// [`SmStats`] plus the SM-loop profile and registry deltas across it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounts {
    /// `GpuSim::run` calls (`duplo_gpu_runs_total`).
    pub runs: u64,
    /// LHB probes (hits + misses).
    pub lhb_probes: u64,
    /// LHB hits.
    pub lhb_hits: u64,
    /// Simulated SM cycles (`loop_profile().cycles`).
    pub cycles: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Cycles walked tick by tick.
    pub ticks_walked: u64,
    /// Cycles covered by event-wheel fast-forwards.
    pub cycles_skipped: u64,
    /// L1 accesses (hits + misses).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// Bytes fetched from DRAM.
    pub dram_bytes: u64,
    /// MSHR merges.
    pub mshr_merges: u64,
    /// Request + response crossbar queueing delay, cycles.
    pub xbar_delay_cycles: f64,
    /// Σ over sliced runs of the busiest slice's accesses.
    pub slice_max: u64,
    /// Σ over sliced runs of the mean slice accesses.
    pub slice_mean: f64,
}

impl SimCounts {
    /// Adds one run's statistics.
    pub fn add_stats(&mut self, s: &SmStats) {
        self.lhb_probes += s.lhb.hits + s.lhb.misses;
        self.lhb_hits += s.lhb.hits;
        self.issued += s.issued_total();
        self.l1_accesses += s.mem.l1_hits + s.mem.l1_misses;
        self.l1_hits += s.mem.l1_hits;
        self.l2_accesses += s.mem.l2_accesses;
        self.dram_bytes += s.mem.dram_bytes;
        self.mshr_merges += s.mem.mshr_merges;
        if !s.slices.is_empty() {
            let accesses: Vec<u64> = s.slices.iter().map(|x| x.accesses).collect();
            self.slice_max += accesses.iter().copied().max().unwrap_or(0);
            self.slice_mean += accesses.iter().sum::<u64>() as f64 / accesses.len() as f64;
            self.xbar_delay_cycles += s
                .slices
                .iter()
                .map(|x| x.noc_req_delay + x.noc_resp_delay)
                .sum::<f64>();
        }
    }

    /// Adds the SM-loop profile and `GpuSim::run` count between two
    /// registry snapshots.
    pub fn add_deltas(&mut self, before: &Registry, after: &Registry) {
        let d = |name: &str| (after.value(name) - before.value(name)).max(0.0) as u64;
        self.runs += d("duplo_gpu_runs_total");
        self.cycles += after.loop_profile.cycles - before.loop_profile.cycles;
        self.ticks_walked += after.loop_profile.ticks_walked - before.loop_profile.ticks_walked;
        self.cycles_skipped +=
            after.loop_profile.cycles_skipped - before.loop_profile.cycles_skipped;
    }

    /// Counts of one pass.
    pub fn of_pass(pass: &Pass, before: &Registry, after: &Registry) -> SimCounts {
        let mut c = SimCounts::default();
        for r in pass.outcomes.iter().filter_map(|o| o.result.as_ref()) {
            c.add_stats(&r.stats);
        }
        c.add_deltas(before, after);
        c
    }
}

/// The timed phase of a workload: passes of identical work.
pub struct Timed<P> {
    /// Untraced passes.
    pub plain: Vec<P>,
    /// Traced passes (traced runs only; they alternate with plain ones).
    pub traced: Vec<P>,
    /// Host seconds of the whole phase.
    pub elapsed_s: f64,
    /// Peak resident set of each untraced pass, in MiB.
    pub plain_rss_mb: Vec<f64>,
    /// Registry snapshots around the first pass.
    pub first: (Registry, Registry),
    /// Registry snapshots around the phase.
    pub before: Registry,
    /// See `before`.
    pub after: Registry,
}

impl<P> Timed<P> {
    /// Passes run.
    pub fn passes(&self) -> usize {
        self.plain.len() + self.traced.len()
    }
}

/// Runs `pass(pass_no, spans)` until `seconds` have passed and untraced
/// passes have completed at least `min_ops` operations (`ops_per_pass` a
/// pass). With
/// recording `spans`, every second pass is traced (the first is always
/// plain) and at least one is.
pub fn timed_phase<P, E>(
    seconds: f64,
    min_ops: usize,
    ops_per_pass: usize,
    spans: &Spans,
    mut pass: impl FnMut(u64, &Spans) -> Result<P, E>,
) -> Result<Timed<P>, E> {
    let off = Spans::new(false);
    let before = Registry::snapshot();
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut plain_rss_mb = Vec::new();
    let mut first = None;
    loop {
        let pass_no = plain.len() + traced.len();
        let trace_this = spans.on() && pass_no % 2 == 1;
        let b = Registry::snapshot();
        let (p, rss) =
            with_peak_rss(|| pass(pass_no as u64, if trace_this { spans } else { &off }));
        let p = p?;
        if first.is_none() {
            first = Some((b, Registry::snapshot()));
        }
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
            plain_rss_mb.push(rss);
        }
        if t0.elapsed().as_secs_f64() >= seconds
            && plain.len() * ops_per_pass >= min_ops
            && (!spans.on() || !traced.is_empty())
        {
            break;
        }
    }
    Ok(Timed {
        elapsed_s: t0.elapsed().as_secs_f64(),
        plain_rss_mb,
        first: first.expect("at least one pass"),
        plain,
        traced,
        before,
        after: Registry::snapshot(),
    })
}

/// Interval between two resident-set samples.
const RSS_EVERY: Duration = Duration::from_millis(5);

/// Runs `f` while a thread samples the resident set; returns `f`'s output
/// and the largest sample in MiB. Unlike the process's high-water mark,
/// this is a peak of one pass, so a median over passes can be taken.
fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_EVERY);
                peak = peak.max(rss_mb());
            }
            peak
        });
        let out = {
            // Stops the sampler also when `f` panics, so the scope can end.
            let _stop = StopOnDrop(&stop);
            f()
        };
        let peak = sampler.join().expect("resident-set sampler panicked");
        (out, peak.max(rss_mb()))
    })
}

/// Sets its flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
