//! Support library for the Duplo experiment binaries and benches.
//!
//! `duplo run` (and `all_experiments`) accept:
//!
//! * `--sample <N>` — simulate at most `N` CTAs per representative SM and
//!   scale time linearly (the default for the heaviest sweeps),
//! * `--full` — simulate every CTA of each SM's share,
//! * `--json <path>` — additionally write the experiment's structured
//!   result (see `duplo_sim::results`) to `path`,
//! * `--cache-dir <dir>` — persist the run cache there (overrides the
//!   `DUPLO_CACHE_DIR` environment variable; see `duplo_sim::cache`),
//! * `--no-cache` — disable run-cache lookups and stores entirely,
//! * `--trace <path>` — write a Chrome trace-event (Perfetto-loadable)
//!   timeline of every simulated run to `path` (`--trace-interval <N>`
//!   tunes the sampling cadence, `--trace-full` adds volatile host-side
//!   spans; `DUPLO_TRACE` / `DUPLO_TRACE_INTERVAL` / `DUPLO_TRACE_FULL`
//!   are the environment equivalents — see `duplo_sim::trace`),
//! * `--trace-in <file>` — replay a recorded wtrace file (see
//!   `duplo_sim::wtrace`): every generated kernel is swapped for its
//!   recorded instruction stream before simulation. Record such files
//!   with `duplo trace record`.
//!
//! All stderr chatter (banners, wall-clock, cache counters, the `run all`
//! heartbeat) goes through `duplo_sim::log`: `DUPLO_LOG=off` silences it
//! entirely, `debug`/`trace` add detail. Error reporting (bad arguments)
//! stays unconditional.
//!
//! `all_experiments` and `duplo run` also accept `--json-dir <dir>` (or
//! the `DUPLO_JSON_DIR` environment variable) and write one file per
//! experiment plus a `BENCH_duplo.json` roll-up.
//!
//! `duplo run <name>` resolves the experiment in the shared registry
//! (`duplo_sim::experiments::registry`) and runs it under the common
//! protocol ([`run_spec`]): optional sampling banner, timed run, rendered
//! table on stdout.
//!
//! This crate is the process boundary: it resolves one [`RunOptions`]
//! from the command line and environment ([`parse_cli`]), then turns the
//! `--trace`, `--trace-in` and `trace record` requests into the by-value
//! sink, replay set and recorder the simulator reads ([`with_trace`],
//! [`with_replay`], [`record_to_file`]).
//!
//! JSON files normally carry a `host` block (wall-clock seconds, worker
//! threads, the run's own run-cache hit/miss/byte counts). Setting
//! `DUPLO_JSON_STABLE` omits it, making the files byte-identical across
//! machines, thread counts, and cache states — the CI determinism and
//! cache gates diff two such runs.

use std::path::Path;

use duplo_sim::RunOptions;
use duplo_sim::cache::{CacheStats, CacheTally};
use duplo_sim::experiments::{
    ExperimentOutput, ExperimentSpec, find_experiment, registry, suggest_experiment,
};
use duplo_sim::json::Json;
use duplo_sim::log;
use duplo_sim::results::{ExperimentResult, rollup};
use duplo_sim::trace;
use duplo_sim::wtrace;

/// Usage summary printed (with a nonzero exit) on bad arguments.
pub const USAGE: &str = "options:\n  --sample <N>      simulate at most N CTAs per representative SM (N >= 1)\n  --full            simulate every CTA of each SM's share\n  --json <path>     write the structured result to <path>\n  --json-dir <dir>  write per-experiment JSON files under <dir>\n  --cache-dir <dir> persist the run cache under <dir> (overrides DUPLO_CACHE_DIR)\n  --no-cache        disable the run cache\n  --trace <path>    write a Chrome trace-event timeline to <path> (DUPLO_TRACE)\n  --trace-interval <N>  cycles between trace samples (default 1024; DUPLO_TRACE_INTERVAL)\n  --trace-full      also record volatile host-side spans (DUPLO_TRACE_FULL)\n  --trace-in <file> replay a recorded wtrace file instead of the generators\n                    (record one with `duplo trace record`)\n\nenvironment:\n  DUPLO_LOG=off|info|debug|trace   stderr verbosity (default info)";

/// Parses the shared experiment command line. Pure — no process exit, no
/// global state — so argument handling is unit-testable; `default_sample`
/// is used when neither `--sample` nor `--full` is given.
///
/// `args` excludes the binary name (`std::env::args().skip(1)`).
///
/// This is [`RunOptions::from_cli`]: the historical `CliArgs`/`ExpOpts`
/// pair merged into the one typed options struct every run entry point
/// takes. Environment knobs (`DUPLO_JSON_DIR`, `DUPLO_TRACE*`, ...) are
/// snapshotted first, then flags override them.
pub fn parse_cli(args: &[String], default_sample: Option<usize>) -> Result<RunOptions, String> {
    RunOptions::from_cli(args, default_sample)
}

/// Runs `f` with a trace sink when `cli` asks for one
/// (`--trace`/`DUPLO_TRACE`), writing the Chrome trace-event document
/// afterwards. Otherwise this is exactly `f(cli)` — the simulator runs
/// untraced and no file is touched.
pub fn with_trace<T>(cli: &RunOptions, f: impl FnOnce(&RunOptions) -> T) -> T {
    let Some(path) = &cli.trace else {
        return f(cli);
    };
    let sink = trace::TraceSink::new(cli.trace_options());
    let out = f(&RunOptions {
        trace_sink: Some(sink.clone()),
        ..cli.clone()
    });
    let data = sink.finish();
    let doc = data.to_chrome_json();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, doc.to_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    log::info(
        "trace",
        format_args!(
            "wrote {} ({} runs, {} events)",
            path.display(),
            data.runs.len(),
            events
        ),
    );
    out
}

/// Runs `f` with the `--trace-in` file loaded as the replay set, reporting
/// how many kernel runs were substituted afterwards. Without the flag this
/// is exactly `f(cli)`. A file that fails to read or decode prints the
/// decoder's positional error and exits with code 2.
pub fn with_replay<T>(cli: &RunOptions, f: impl FnOnce(&RunOptions) -> T) -> T {
    let Some(path) = &cli.trace_in else {
        return f(cli);
    };
    let kernels = match wtrace::load_file(path) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let n_kernels = kernels.len();
    let set = wtrace::ReplaySet::new(kernels);
    let out = f(&RunOptions {
        replay: Some(set.clone()),
        ..cli.clone()
    });
    log::info(
        "wtrace",
        format_args!(
            "replayed {} ({n_kernels} kernels, {} runs substituted)",
            path.display(),
            set.substituted()
        ),
    );
    out
}

/// Records `f`'s kernels to a wtrace file at `path`: every kernel reaching
/// the simulator under the options `f` receives is captured (deduplicated
/// by content) and the encoded document is written afterwards.
pub fn record_to_file<T>(cli: &RunOptions, path: &Path, f: impl FnOnce(&RunOptions) -> T) -> T {
    let recorder = wtrace::Recorder::default();
    let out = f(&RunOptions {
        record: Some(recorder.clone()),
        ..cli.clone()
    });
    let records = recorder.records();
    wtrace::write_file(path, &records).unwrap_or_else(|e| panic!("cannot write wtrace file: {e}"));
    log::info(
        "wtrace",
        format_args!("wrote {} ({} kernels)", path.display(), records.len()),
    );
    out
}

/// Parses the full shared command line (sampling + JSON + cache + trace
/// flags) from `std::env::args`. On a bad argument it prints the error and
/// usage to stderr and exits with code 2 — no panic, no backtrace.
pub fn cli_from_args(default_sample: Option<usize>) -> RunOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args, default_sample) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Prints the sampling banner all binaries share. The worker-thread count
/// goes to **stderr**: stdout must stay byte-identical across
/// `DUPLO_THREADS` settings (the determinism guarantee the golden tables
/// and `scripts/ci.sh` rely on).
pub fn banner(name: &str, opts: &RunOptions) {
    match opts.sample_ctas {
        Some(n) => println!("[{name}] CTA sampling: at most {n} CTAs per representative SM"),
        None => println!("[{name}] full CTA shares simulated"),
    }
    log::info(
        name,
        format_args!(
            "worker threads: {} (override with DUPLO_THREADS)",
            duplo_sim::runner::resolve_threads(opts.threads)
        ),
    );
}

/// Runs `f`, reporting its wall-clock time on stderr as
/// `[name] wall-clock: 1.234s`. Timing stays off stdout for the same
/// reason as the thread-count banner: experiment tables must not vary
/// with machine speed or thread count.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    timed_secs(name, f).0
}

/// Like [`timed`], but also returns the elapsed seconds so the caller can
/// stamp them into a JSON `host` block.
pub fn timed_secs<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    log::info(name, format_args!("wall-clock: {secs:.3}s"));
    (out, secs)
}

/// Whether volatile host metadata must be left out of JSON files
/// (`DUPLO_JSON_STABLE` set): byte-identical output across thread counts
/// and cache states.
pub fn json_stable() -> bool {
    std::env::var_os("DUPLO_JSON_STABLE").is_some()
}

/// Stamps host metadata (unless `DUPLO_JSON_STABLE` is set) — wall-clock
/// seconds and the worker threads `opts` ran with — and writes the result
/// to `path`, noting the write on stderr.
pub fn write_result(
    path: &Path,
    mut result: ExperimentResult,
    wall_clock_s: f64,
    opts: &RunOptions,
) {
    if !json_stable() {
        result.wall_clock_s = Some(wall_clock_s);
        result.workers = Some(duplo_sim::runner::resolve_threads(opts.threads));
    }
    result
        .write(path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    log::info(&result.name, format_args!("wrote {}", path.display()));
}

/// Executes one registered experiment: timed run (when `spec.timed`), the
/// run's own cache counts reported on stderr and stamped into the result
/// (unless `DUPLO_JSON_STABLE`). Returns the output, elapsed seconds and
/// cache counts.
fn execute(spec: &ExperimentSpec, opts: &RunOptions) -> (ExperimentOutput, f64, CacheStats) {
    let tally = CacheTally::default();
    let opts = RunOptions {
        cache_tally: Some(tally.clone()),
        ..opts.clone()
    };
    let (mut out, secs) = if spec.timed {
        timed_secs(spec.tag, || (spec.run)(&opts))
    } else {
        ((spec.run)(&opts), 0.0)
    };
    let delta = tally.get();
    log::info(
        spec.tag,
        format_args!(
            "cache: hits={} misses={} bytes={}",
            delta.hits, delta.misses, delta.bytes
        ),
    );
    if !json_stable() {
        out.result.cache_hits = Some(delta.hits);
        out.result.cache_misses = Some(delta.misses);
        out.result.cache_bytes = Some(delta.bytes);
    }
    (out, secs, delta)
}

/// Runs one registered experiment under the `duplo run` protocol:
/// optional sampling banner, timed run, rendered table on stdout, and
/// `--json` output (banners and tables only on stdout; timing and cache
/// stats are stderr).
pub fn run_spec(spec: &ExperimentSpec, cli: &RunOptions) -> ExperimentResult {
    if spec.banner {
        banner(spec.tag, cli);
    }
    let (out, secs, _) = execute(spec, cli);
    print!("{}", out.rendered);
    if let Some(path) = &cli.json {
        write_result(path, out.result.clone(), secs, cli);
    }
    out.result
}

/// Runs the registered experiment `name` under the `duplo run` protocol
/// ([`run_spec`]). Unknown names print the registry hint — with a
/// nearest-name suggestion when one is close — and exit with code 2.
pub fn run_named(name: &str, cli: &RunOptions) -> ExperimentResult {
    let Some(spec) = find_experiment(name) else {
        exit_unknown_experiment(name);
    };
    run_spec(spec, cli)
}

/// Prints the unknown-experiment error (with a "did you mean" suggestion
/// when a registry name is within edit distance) and exits with code 2.
pub fn exit_unknown_experiment(name: &str) -> ! {
    match suggest_experiment(name) {
        Some(hint) => eprintln!(
            "error: unknown experiment {name:?} (did you mean {hint:?}? see `duplo list`)"
        ),
        None => eprintln!("error: unknown experiment {name:?} (see `duplo list`)"),
    }
    std::process::exit(2);
}

/// Runs a batch of registered experiments under the `all_experiments`
/// protocol: one `[all]` banner, every table on stdout in registry order,
/// and (under `--json-dir`) one JSON file per experiment plus the
/// `BENCH_duplo.json` roll-up.
///
/// `full_registry` selects every registered experiment (`duplo run all`);
/// otherwise only the `in_all` subset runs (the `all_experiments` binary,
/// whose stdout is pinned by CI).
pub fn run_all(cli: &RunOptions, full_registry: bool) {
    banner("all", cli);
    let total = std::time::Instant::now();
    let mut cache_delta = CacheStats::default();
    let specs: Vec<&ExperimentSpec> = registry()
        .iter()
        .filter(|s| full_registry || s.in_all)
        .collect();
    let n_specs = specs.len();
    // Heartbeat after each experiment, rate-limited so a warm all-cached
    // sweep does not spam one line per experiment; the final one always
    // lands.
    let mut last_beat = std::time::Instant::now();
    // (structured result, wall-clock seconds) per experiment, in run order.
    let mut results: Vec<(ExperimentResult, f64)> = Vec::new();
    for spec in specs {
        let (out, secs, delta) = execute(spec, cli);
        print!("{}", out.rendered);
        results.push((out.result, secs));
        cache_delta.hits += delta.hits;
        cache_delta.misses += delta.misses;
        cache_delta.bytes += delta.bytes;
        let done = results.len();
        if last_beat.elapsed().as_secs_f64() >= 1.0 || done == n_specs {
            last_beat = std::time::Instant::now();
            log::info(
                "all",
                format_args!(
                    "{done}/{n_specs} experiments, {:.1}s elapsed, cache hits={} misses={}",
                    total.elapsed().as_secs_f64(),
                    cache_delta.hits,
                    cache_delta.misses
                ),
            );
        }
    }
    let wall = total.elapsed().as_secs_f64();
    log::info("all", format_args!("wall-clock: {wall:.3}s"));
    log::info(
        "all",
        format_args!(
            "cache: hits={} misses={} bytes={}",
            cache_delta.hits, cache_delta.misses, cache_delta.bytes
        ),
    );

    if let Some(dir) = &cli.json_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let refs: Vec<&ExperimentResult> = results.iter().map(|(r, _)| r).collect();
        let mut roll = rollup(&refs);
        if !json_stable() {
            if let Json::Obj(fields) = &mut roll {
                fields.push((
                    "host".to_string(),
                    Json::obj()
                        .field("wall_clock_s", wall)
                        .field("workers", duplo_sim::runner::resolve_threads(cli.threads))
                        .field("cache_hits", cache_delta.hits)
                        .field("cache_misses", cache_delta.misses)
                        .field("cache_bytes", cache_delta.bytes)
                        .build(),
                ));
            }
        }
        for (result, secs) in results {
            let path = dir.join(format!("{}.json", result.name));
            write_result(&path, result, secs, cli);
        }
        let roll_path = dir.join("BENCH_duplo.json");
        std::fs::write(&roll_path, roll.to_pretty())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", roll_path.display()));
        log::info("all", format_args!("wrote {}", roll_path.display()));
    }
}

/// Runs `spec` once with the run cache off, in event-driven or
/// tick-by-tick reference mode, returning the rendered table, the
/// simulated-cycle delta, and the wall-clock seconds.
fn measure_spec(spec: &ExperimentSpec, opts: &RunOptions, reference: bool) -> (String, u64, f64) {
    // Mode and cache selection travel by value: the clone reaches every
    // driver's `GpuSim`, which picks the SM loop per run. Cached results
    // would turn the measurement (and the mode comparison) into a no-op.
    let opts = RunOptions {
        tick_reference: reference,
        no_cache: true,
        ..opts.clone()
    };
    let cycles_before = duplo_sm::simulated_cycles();
    let t0 = std::time::Instant::now();
    let out = (spec.run)(&opts);
    let wall_s = t0.elapsed().as_secs_f64();
    let cycles = duplo_sm::simulated_cycles() - cycles_before;
    (out.rendered, cycles, wall_s)
}

/// Runs every registry experiment twice — event-driven wakeup-wheel loop
/// and tick-by-tick reference — with the run cache bypassed, and writes
/// the `BENCH_duplo.json` perf trajectory to `out`: per-experiment
/// simulated cycles, wall-clock, cycles-simulated/sec in both modes, and
/// the speedup, plus whole-run totals and a geometric-mean speedup.
///
/// Doubles as an equivalence gate: the rendered table and the total
/// simulated cycles of the two modes must match byte-for-byte per
/// experiment, or the run aborts.
///
/// # Panics
///
/// Panics when an experiment's event-driven output diverges from the
/// reference loop, or when the report cannot be written.
pub fn run_bench(out: &Path, cli: &RunOptions) {
    use duplo_testkit::bench::{BenchEntry, BenchReport, MetricValue};
    let opts = cli;
    let mut report = BenchReport {
        schema: duplo_sim::results::SCHEMA_VERSION,
        meta: vec![
            (
                "modes".to_string(),
                "event-skip vs tick-by-tick reference".to_string(),
            ),
            (
                "sample_ctas".to_string(),
                match opts.sample_ctas {
                    Some(n) => n.to_string(),
                    None => "full".to_string(),
                },
            ),
        ],
        entries: Vec::new(),
        summary: Vec::new(),
    };
    let (mut total_cycles, mut total_wall, mut total_ref_wall) = (0u64, 0.0f64, 0.0f64);
    let (mut ln_speedup_sum, mut speedups) = (0.0f64, 0u64);
    for spec in registry() {
        let (rendered, cycles, wall_s) = measure_spec(spec, opts, false);
        let (ref_rendered, ref_cycles, ref_wall_s) = measure_spec(spec, opts, true);
        assert_eq!(
            rendered, ref_rendered,
            "{}: event-driven output diverged from the tick-by-tick reference",
            spec.name
        );
        assert_eq!(
            cycles, ref_cycles,
            "{}: event-driven loop simulated a different cycle count than the reference",
            spec.name
        );
        // Identical cycle counts make the cycles/sec ratio a pure time
        // ratio; experiments that simulate nothing are excluded from the
        // geometric mean.
        let speedup = ref_wall_s / wall_s;
        if cycles > 0 {
            ln_speedup_sum += speedup.ln();
            speedups += 1;
        }
        log::info(
            "bench",
            format_args!(
                "{}: {cycles} cycles, {wall_s:.3}s event vs {ref_wall_s:.3}s reference ({speedup:.2}x)",
                spec.name
            ),
        );
        report.entries.push(BenchEntry {
            name: spec.name.to_string(),
            metrics: vec![
                ("cycles".to_string(), MetricValue::U64(cycles)),
                ("wall_s".to_string(), MetricValue::F64(wall_s)),
                (
                    "cycles_per_sec".to_string(),
                    MetricValue::F64(cycles as f64 / wall_s),
                ),
                ("ref_wall_s".to_string(), MetricValue::F64(ref_wall_s)),
                (
                    "ref_cycles_per_sec".to_string(),
                    MetricValue::F64(cycles as f64 / ref_wall_s),
                ),
                ("speedup".to_string(), MetricValue::F64(speedup)),
            ],
        });
        total_cycles += cycles;
        total_wall += wall_s;
        total_ref_wall += ref_wall_s;
    }
    let gmean = if speedups > 0 {
        (ln_speedup_sum / speedups as f64).exp()
    } else {
        1.0
    };
    report.summary = vec![
        (
            "experiments".to_string(),
            MetricValue::U64(report.entries.len() as u64),
        ),
        ("total_cycles".to_string(), MetricValue::U64(total_cycles)),
        ("total_wall_s".to_string(), MetricValue::F64(total_wall)),
        (
            "total_ref_wall_s".to_string(),
            MetricValue::F64(total_ref_wall),
        ),
        (
            "cycles_per_sec".to_string(),
            MetricValue::F64(total_cycles as f64 / total_wall),
        ),
        (
            "ref_cycles_per_sec".to_string(),
            MetricValue::F64(total_cycles as f64 / total_ref_wall),
        ),
        ("speedup_gmean".to_string(), MetricValue::F64(gmean)),
    ];
    report
        .write(out)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    log::info(
        "bench",
        format_args!(
            "wrote {} ({} experiments, gmean speedup {gmean:.2}x)",
            out.display(),
            report.entries.len()
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_sample_passes_through() {
        let cli = parse_cli(&[], Some(4)).unwrap();
        assert_eq!(cli.sample_ctas, Some(4));
        let quick = RunOptions::quick();
        assert_eq!(quick.sample_ctas, Some(2));
    }

    #[test]
    fn sample_and_full_override_the_default() {
        let cli = parse_cli(&argv(&["--sample", "16"]), Some(4)).unwrap();
        assert_eq!(cli.sample_ctas, Some(16));
        let cli = parse_cli(&argv(&["--full"]), Some(4)).unwrap();
        assert_eq!(cli.sample_ctas, None);
    }

    #[test]
    fn sample_zero_is_rejected_with_a_clear_message() {
        let err = parse_cli(&argv(&["--sample", "0"]), None).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(err.contains("--full"), "should point at --full: {err}");
        let err = parse_cli(&argv(&["--sample", "two"]), None).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = parse_cli(&argv(&["--sample"]), None).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn unknown_arguments_error_instead_of_panicking() {
        let err = parse_cli(&argv(&["--bogus"]), None).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn cache_flags_parse() {
        let cli = parse_cli(&argv(&["--cache-dir", "/tmp/c", "--no-cache"]), None).unwrap();
        assert_eq!(cli.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(cli.no_cache);
        let cli = parse_cli(&[], None).unwrap();
        assert_eq!(cli.cache_dir, None);
        assert!(!cli.no_cache);
        let err = parse_cli(&argv(&["--cache-dir"]), None).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn trace_flags_parse() {
        let cli = parse_cli(
            &argv(&[
                "--trace",
                "/tmp/t.json",
                "--trace-interval",
                "256",
                "--trace-full",
            ]),
            None,
        )
        .unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(cli.trace_interval, Some(256));
        assert!(cli.trace_full);
        let err = parse_cli(&argv(&["--trace-interval", "0"]), None).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = parse_cli(&argv(&["--trace"]), None).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    /// The env path must reject what the flag rejects, with the same
    /// message shape (it used to silently fall back to the default).
    /// Tested through the pure helper: setting the real variable would
    /// race the other tests, which call `parse_cli` concurrently.
    #[test]
    fn trace_interval_env_values_fail_like_the_flag() {
        use duplo_sim::options::parse_trace_interval;
        assert_eq!(parse_trace_interval("DUPLO_TRACE_INTERVAL", "256"), Ok(256));
        for bad in ["0", "abc", "-1", ""] {
            let err = parse_trace_interval("DUPLO_TRACE_INTERVAL", bad).unwrap_err();
            assert!(err.contains("DUPLO_TRACE_INTERVAL"), "{err}");
            assert!(err.contains("positive cycle count"), "{err}");
            let flag_err = parse_trace_interval("--trace-interval", bad).unwrap_err();
            assert_eq!(
                err.replace("DUPLO_TRACE_INTERVAL", "--trace-interval"),
                flag_err,
                "env and flag must share one message shape"
            );
        }
    }

    #[test]
    fn write_result_produces_parseable_json() {
        use duplo_sim::json::{Json, parse};
        let dir = std::env::temp_dir().join(format!("duplo-bench-test-{}", std::process::id()));
        let path = dir.join("demo.json");
        let r = ExperimentResult::new(
            "demo",
            "Demo",
            Json::Obj(vec![]),
            vec![],
            Json::obj().field("k", 1u64).build(),
        );
        let opts = RunOptions {
            threads: Some(3),
            ..RunOptions::default()
        };
        write_result(&path, r, 0.5, &opts);
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse(&text).expect("file must parse");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("demo"));
        if !json_stable() {
            let workers = doc.get("host").and_then(|h| h.get("workers"));
            assert_eq!(
                workers.and_then(Json::as_u64),
                Some(3),
                "the host block reports the run's own thread count"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_event_leg_takes_event_skips() {
        let spec = find_experiment("smem_policy").expect("registered experiment");
        let opts = RunOptions {
            sample_ctas: Some(1),
            ..RunOptions::default()
        };
        let before = duplo_sm::loop_profile().skips_taken;
        let (_, cycles, _) = measure_spec(spec, &opts, false);
        assert!(cycles > 0, "the experiment simulates");
        assert!(
            duplo_sm::loop_profile().skips_taken > before,
            "the event column must run the event-driven loop"
        );
    }
}
