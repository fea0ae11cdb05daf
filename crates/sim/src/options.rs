//! Typed run options: every run-affecting setting, carried by value.
//!
//! The process boundary — the `duplo` CLI, `all_experiments`, test
//! harnesses — resolves one [`RunOptions`] ([`RunOptions::from_cli`] /
//! [`RunOptions::from_env`]; this module is the only library code that
//! reads `DUPLO_*` run settings). The experiment registry runners receive
//! it, and [`crate::GpuSim::with_options`] threads it down through the
//! runner, the cache, the trace sink, wtrace record/replay, and the SM
//! loop. Nothing below the boundary consults process state, so two
//! in-flight runs (a `duplo serve` worker pool) can use different
//! settings.

use std::path::PathBuf;

use duplo_mem::{HashKind, NocConfig};

use crate::GpuConfig;
use crate::cache::{CacheCtl, CacheTally};
use crate::json::Json;
use crate::progress::ProgressHandle;
use crate::trace::{TraceOptions, TraceSink};
use crate::wtrace::{Recorder, ReplaySet};

/// Options for one simulation run (or one experiment invocation).
/// `RunOptions::default()` is the plain run: every CTA, event-driven SM
/// loop, memory-only run cache, all available threads, no tracing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOptions {
    /// Simulate at most this many CTAs per representative SM (None = all).
    pub sample_ctas: Option<usize>,
    /// Worker-thread cap for this run's parallel fan-out (`DUPLO_THREADS`;
    /// `None` = available parallelism).
    pub threads: Option<usize>,
    /// Run the tick-by-tick reference SM loop (`DUPLO_TICK_REFERENCE`)
    /// instead of the event-driven one; results are identical.
    pub tick_reference: bool,
    /// `--no-cache`: neither look up nor store run-cache entries.
    pub no_cache: bool,
    /// `--cache-dir <dir>` / `DUPLO_CACHE_DIR`: disk tier for the run
    /// cache (`None` = memory tier only).
    pub cache_dir: Option<PathBuf>,
    /// Per-run cache counters ([`CacheCtl::tally`]); `None` counts only
    /// process-wide.
    pub cache_tally: Option<CacheTally>,
    /// L2 slice count override: `Some(0)` forces the flat memory side,
    /// `Some(n >= 1)` the sliced one (`DUPLO_L2_SLICES`), `None` keeps
    /// whatever the configuration already selected.
    pub l2_slices: Option<usize>,
    /// Line→slice hash for the sliced memory side (`DUPLO_L2_HASH`;
    /// `None` = XOR-fold when slicing is requested here).
    pub l2_hash: Option<HashKind>,
    /// `--json <path>`: write the structured result here.
    pub json: Option<PathBuf>,
    /// `--json-dir <dir>` (or `DUPLO_JSON_DIR`): per-experiment files.
    pub json_dir: Option<PathBuf>,
    /// `--trace <path>` (or `DUPLO_TRACE`): write a Chrome trace-event
    /// timeline of every simulated run to this file (the CLI records
    /// into [`RunOptions::trace_sink`] and writes it afterwards).
    pub trace: Option<PathBuf>,
    /// `--trace-interval <N>` (or `DUPLO_TRACE_INTERVAL`): cycles between
    /// trace samples.
    pub trace_interval: Option<u64>,
    /// `--trace-full` (or `DUPLO_TRACE_FULL`): also record volatile
    /// host-side spans (runner workers) — the export is then no longer
    /// byte-reproducible.
    pub trace_full: bool,
    /// `--trace-in <file>`: replay this recorded wtrace file — the CLI
    /// loads it into [`RunOptions::replay`].
    pub trace_in: Option<PathBuf>,
    /// Where simulated runs record their timelines (see [`crate::trace`]);
    /// `None` runs untraced.
    pub trace_sink: Option<TraceSink>,
    /// Captures every kernel run under these options (see
    /// [`crate::wtrace`]).
    pub record: Option<Recorder>,
    /// Swaps each generated kernel for its recorded trace before
    /// simulation (see [`crate::wtrace`]).
    pub replay: Option<ReplaySet>,
    /// Live progress cell for this run (see [`crate::progress`]):
    /// [`crate::GpuSim::run`] adds each kernel's simulated cycles as it
    /// completes. `duplo serve` threads one per submission; `None` (the
    /// default everywhere else) reports nothing. Never part of the cache
    /// key — progress observation cannot perturb results.
    pub progress: Option<ProgressHandle>,
}

/// Validates a trace-interval setting coming from `source` (a flag or an
/// environment variable name). Pure and shared by the `--trace-interval`
/// flag and the `DUPLO_TRACE_INTERVAL` environment path, so both reject
/// bad values with the same message — the env path used to silently fall
/// back to the default on `0` or garbage while the flag errored.
pub fn parse_trace_interval(source: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{source} requires a positive cycle count, got {v:?}"
        )),
    }
}

impl RunOptions {
    /// Fast settings for CI/tests: aggressive CTA sampling.
    pub fn quick() -> RunOptions {
        RunOptions {
            sample_ctas: Some(2),
            ..RunOptions::default()
        }
    }

    /// Snapshots every environment knob into an explicit value: the
    /// `DUPLO_JSON_DIR` / `DUPLO_TRACE*` harness settings, plus
    /// `DUPLO_THREADS`, `DUPLO_CACHE_DIR`, `DUPLO_TICK_REFERENCE`, and
    /// `DUPLO_L2_SLICES` / `DUPLO_L2_HASH`. Lenient where the historical
    /// readers were lenient (an unparsable `DUPLO_THREADS` is ignored),
    /// strict where they were strict (`DUPLO_TRACE_INTERVAL` errors).
    pub fn from_env() -> Result<RunOptions, String> {
        let mut o = RunOptions::default();
        o.threads = std::env::var("DUPLO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        o.cache_dir = std::env::var_os("DUPLO_CACHE_DIR").map(PathBuf::from);
        o.tick_reference = std::env::var_os("DUPLO_TICK_REFERENCE").is_some_and(|v| v != "0");
        o.l2_slices = std::env::var("DUPLO_L2_SLICES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        o.l2_hash = std::env::var("DUPLO_L2_HASH")
            .ok()
            .and_then(|v| HashKind::parse(&v));
        o.json_dir = std::env::var_os("DUPLO_JSON_DIR").map(PathBuf::from);
        o.trace = std::env::var_os("DUPLO_TRACE").map(PathBuf::from);
        o.trace_interval = match std::env::var("DUPLO_TRACE_INTERVAL") {
            Ok(v) => Some(parse_trace_interval("DUPLO_TRACE_INTERVAL", v.trim())?),
            Err(_) => None,
        };
        o.trace_full = std::env::var_os("DUPLO_TRACE_FULL").is_some();
        Ok(o)
    }

    /// Parses the shared experiment command line on top of
    /// [`RunOptions::from_env`]. Pure over `args` — no process exit, no
    /// global state — so argument handling is unit-testable;
    /// `default_sample` is used when neither `--sample` nor `--full` is
    /// given. `args` excludes the binary name
    /// (`std::env::args().skip(1)`).
    pub fn from_cli(args: &[String], default_sample: Option<usize>) -> Result<RunOptions, String> {
        let mut o = RunOptions::from_env()?;
        o.sample_ctas = default_sample;
        let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => o.sample_ctas = None,
                "--sample" => {
                    let v = value(args, &mut i, "--sample")?;
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => o.sample_ctas = Some(n),
                        Ok(_) => {
                            return Err(
                                "--sample requires a positive integer (0 would simulate no CTAs); \
                                 use --full to simulate every CTA"
                                    .to_string(),
                            );
                        }
                        Err(_) => {
                            return Err(format!("--sample requires a positive integer, got {v:?}"));
                        }
                    }
                }
                "--json" => o.json = Some(PathBuf::from(value(args, &mut i, "--json")?)),
                "--json-dir" => {
                    o.json_dir = Some(PathBuf::from(value(args, &mut i, "--json-dir")?));
                }
                "--cache-dir" => {
                    o.cache_dir = Some(PathBuf::from(value(args, &mut i, "--cache-dir")?));
                }
                "--no-cache" => o.no_cache = true,
                "--trace" => o.trace = Some(PathBuf::from(value(args, &mut i, "--trace")?)),
                "--trace-interval" => {
                    let v = value(args, &mut i, "--trace-interval")?;
                    o.trace_interval = Some(parse_trace_interval("--trace-interval", &v)?);
                }
                "--trace-full" => o.trace_full = true,
                "--trace-in" => {
                    o.trace_in = Some(PathBuf::from(value(args, &mut i, "--trace-in")?));
                }
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        Ok(o)
    }

    /// Applies the configuration-shaping options to a GPU configuration:
    /// CTA sampling always, the memory side when an `l2_slices` override
    /// is present. Re-applying the same slice settings a configuration
    /// already carries is idempotent.
    pub fn apply(&self, mut cfg: GpuConfig) -> GpuConfig {
        cfg.sample_ctas = self.sample_ctas;
        match self.l2_slices {
            None => {}
            Some(0) => {
                // Explicit flat: undo any sliced selection.
                cfg.sm.hierarchy.l2_slices = 0;
                cfg.sm.hierarchy.noc = NocConfig::passthrough();
            }
            Some(n) => {
                let hash = self.l2_hash.unwrap_or(HashKind::XorFold);
                cfg.sm.hierarchy = cfg.sm.hierarchy.sliced(n, hash);
            }
        }
        cfg
    }

    /// The cache control block [`crate::GpuSim`] hands to
    /// [`crate::cache::run_cached_ctl`] for runs under these options.
    pub fn cache_ctl(&self) -> CacheCtl {
        CacheCtl {
            disabled: self.no_cache,
            dir: self.cache_dir.clone(),
            tally: self.cache_tally.clone(),
        }
    }

    /// The trace-sink parameters `trace_interval` / `trace_full` ask for.
    pub fn trace_options(&self) -> TraceOptions {
        let mut t = TraceOptions::default();
        if let Some(n) = self.trace_interval {
            t.interval = n;
        }
        t.host_events = self.trace_full;
        t
    }

    /// Overlays the wire-format options object of a `duplo serve`
    /// submission onto `self` (the server's defaults). Strict: unknown
    /// fields, mistyped values, and contradictory settings are errors,
    /// surfaced verbatim in the daemon's structured error body.
    ///
    /// Accepted fields: `sample_ctas` (integer >= 1), `full` (bool),
    /// `l2_slices` (integer; 0 = flat), `l2_hash` (`"mod"` | `"xor"`),
    /// `tick_reference` (bool), `no_cache` (bool).
    pub fn merge_wire(&self, v: &Json) -> Result<RunOptions, String> {
        let mut o = self.clone();
        let Json::Obj(fields) = v else {
            return Err("options must be an object".to_string());
        };
        let mut saw_sample = false;
        let mut saw_full = false;
        for (key, val) in fields {
            match key.as_str() {
                "sample_ctas" => {
                    let n = val.as_u64().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("options.sample_ctas requires a positive integer, got {val:?}")
                    })?;
                    o.sample_ctas = Some(n as usize);
                    saw_sample = true;
                }
                "full" => match val {
                    Json::Bool(true) => {
                        o.sample_ctas = None;
                        saw_full = true;
                    }
                    Json::Bool(false) => {}
                    _ => return Err(format!("options.full requires a boolean, got {val:?}")),
                },
                "l2_slices" => {
                    let n = val.as_u64().ok_or_else(|| {
                        format!("options.l2_slices requires an integer (0 = flat), got {val:?}")
                    })?;
                    o.l2_slices = Some(n as usize);
                }
                "l2_hash" => {
                    let s = val.as_str().and_then(HashKind::parse).ok_or_else(|| {
                        format!("options.l2_hash requires \"mod\" or \"xor\", got {val:?}")
                    })?;
                    o.l2_hash = Some(s);
                }
                "tick_reference" => match val {
                    Json::Bool(b) => o.tick_reference = *b,
                    _ => {
                        return Err(format!(
                            "options.tick_reference requires a boolean, got {val:?}"
                        ));
                    }
                },
                "no_cache" => match val {
                    Json::Bool(b) => o.no_cache = *b,
                    _ => return Err(format!("options.no_cache requires a boolean, got {val:?}")),
                },
                other => return Err(format!("options.{other}: unknown field")),
            }
        }
        if saw_sample && saw_full {
            return Err("options.sample_ctas and options.full are mutually exclusive".to_string());
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_defers_everything() {
        let o = RunOptions::default();
        assert_eq!(o.sample_ctas, None);
        assert_eq!(o.threads, None);
        assert!(!o.tick_reference);
        assert!(!o.no_cache);
        assert_eq!(o.l2_slices, None);
        assert_eq!(o.cache_ctl(), CacheCtl::default());
        assert!(o.trace_sink.is_none() && o.record.is_none() && o.replay.is_none());
    }

    #[test]
    fn quick_samples_two_ctas() {
        assert_eq!(RunOptions::quick().sample_ctas, Some(2));
    }

    #[test]
    fn cli_flags_override_the_defaults() {
        let o = RunOptions::from_cli(&argv(&["--sample", "5", "--no-cache"]), Some(2)).unwrap();
        assert_eq!(o.sample_ctas, Some(5));
        assert!(o.no_cache);
        let o = RunOptions::from_cli(&argv(&["--full", "--cache-dir", "/tmp/c"]), Some(2)).unwrap();
        assert_eq!(o.sample_ctas, None);
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        let err = RunOptions::from_cli(&argv(&["--bogus"]), None).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn trace_interval_env_values_fail_like_the_flag() {
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
    fn apply_respects_slice_overrides() {
        let flat = GpuConfig::titan_v();
        // No override: the hierarchy is untouched.
        let same = RunOptions::default().apply(flat.clone());
        assert_eq!(same.sm.hierarchy.l2_slices, flat.sm.hierarchy.l2_slices);
        // Sliced override.
        let mut o = RunOptions::default();
        o.l2_slices = Some(4);
        o.l2_hash = Some(HashKind::Mod);
        let sliced = o.apply(flat.clone());
        assert_eq!(sliced.sm.hierarchy.l2_slices, 4);
        assert_eq!(sliced.sm.hierarchy.hash.label(), "mod");
        // Explicit flat undoes it.
        let mut back = RunOptions::default();
        back.l2_slices = Some(0);
        let undone = back.apply(sliced);
        assert_eq!(undone.sm.hierarchy.l2_slices, 0);
        // Re-applying settings a config already carries is idempotent.
        let mut again = RunOptions::default();
        again.l2_slices = Some(4);
        again.l2_hash = Some(HashKind::Mod);
        let one = again.apply(flat.clone());
        let two = again.apply(one.clone());
        assert_eq!(one.sm.hierarchy.l2_slices, two.sm.hierarchy.l2_slices);
        assert_eq!(one.sm.hierarchy.hash, two.sm.hierarchy.hash);
    }

    #[test]
    fn wire_overlay_is_strict() {
        use crate::json::parse;
        let base = RunOptions::quick();
        let o = base
            .merge_wire(&parse(r#"{"sample_ctas": 3, "tick_reference": true}"#).unwrap())
            .unwrap();
        assert_eq!(o.sample_ctas, Some(3));
        assert!(o.tick_reference);
        // Unknown fields are rejected, not ignored.
        let err = base
            .merge_wire(&parse(r#"{"smaple_ctas": 3}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        // Mistyped values are rejected with the offending value echoed.
        let err = base
            .merge_wire(&parse(r#"{"sample_ctas": 0}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = base
            .merge_wire(&parse(r#"{"l2_hash": "crc"}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("l2_hash"), "{err}");
        // Contradictions are rejected.
        let err = base
            .merge_wire(&parse(r#"{"sample_ctas": 3, "full": true}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // Non-object payloads are rejected.
        assert!(base.merge_wire(&Json::Null).is_err());
        // `full: true` clears the server's default sampling.
        let o = base
            .merge_wire(&parse(r#"{"full": true}"#).unwrap())
            .unwrap();
        assert_eq!(o.sample_ctas, None);
    }
}
