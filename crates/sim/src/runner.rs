//! Zero-dependency parallel execution engine for the simulator.
//!
//! The paper's §V evaluation sweeps hundreds of independent
//! (layer, LHB-config) simulations; each is a pure function of its inputs,
//! so the experiment drivers and [`crate::GpuSim::run`] fan their grids out
//! over a bounded pool of scoped threads ([`par_map_opt`]).
//!
//! # Determinism
//!
//! Results are collected *order-stably*: the output vector is ordered by
//! input index, never by completion order, and every downstream reduction
//! (stat accumulation, float sums, table rows) folds that vector
//! sequentially. Identical inputs therefore produce byte-identical tables
//! at any thread count — `threads: Some(1)` and `Some(64)` render the same
//! output.
//!
//! # Thread-count selection
//!
//! Each call carries its cap by value ([`Fanout::threads`], normally
//! [`crate::RunOptions::threads`]); [`resolve_threads`] maps `None` to
//! [`std::thread::available_parallelism`]. `Some(1)` forces the serial
//! fallback.
//!
//! # Nesting
//!
//! `par_map_opt` inside a `par_map_opt` worker spawns its own scoped pool, so
//! nested grids multiply thread counts. The two built-in layers avoid
//! this in the common case: the default [`crate::GpuConfig`] simulates one
//! representative SM, which takes the serial fallback (a single-item map
//! never spawns), while the experiment grids above it fan out.

use std::sync::OnceLock;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::metrics;
use crate::options::RunOptions;
use crate::trace::TraceSink;

/// Registry metrics for the pool. Task counts are a pure function of the
/// work (stable at any thread count); pool/worker/imbalance figures
/// describe the host-side fan-out and are volatile.
struct RunnerMetrics {
    tasks: metrics::Counter,
    pools: metrics::Counter,
    workers: metrics::Counter,
    imbalance: metrics::Gauge,
}

fn rm() -> &'static RunnerMetrics {
    static RM: OnceLock<RunnerMetrics> = OnceLock::new();
    RM.get_or_init(|| RunnerMetrics {
        tasks: metrics::counter(
            "duplo_runner_tasks_total",
            "Items executed by the parallel runner (serial fallback included)",
        ),
        pools: metrics::volatile_counter(
            "duplo_runner_pools_total",
            "Scoped worker pools actually spawned",
        ),
        workers: metrics::volatile_counter(
            "duplo_runner_workers_total",
            "Worker threads spawned across all pools",
        ),
        imbalance: metrics::volatile_gauge(
            "duplo_runner_imbalance_last",
            "Items-per-worker spread (max - min) of the most recent pool",
        ),
    })
}

/// Worker-thread count for a per-run request: `explicit` when it is a
/// positive count, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 if unknown).
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit.filter(|&n| n >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How wide one [`par_map_opt`] call fans out, and where its host-side
/// worker spans go.
#[derive(Clone, Debug)]
pub struct Fanout {
    /// Worker-thread cap (see [`resolve_threads`]).
    pub threads: Option<usize>,
    /// Receives one volatile span per worker when it records host events.
    pub sink: Option<TraceSink>,
}

impl From<Option<usize>> for Fanout {
    fn from(threads: Option<usize>) -> Fanout {
        Fanout {
            threads,
            sink: None,
        }
    }
}

impl From<&RunOptions> for Fanout {
    fn from(opts: &RunOptions) -> Fanout {
        Fanout {
            threads: opts.threads,
            sink: opts.trace_sink.clone(),
        }
    }
}

/// Applies `f` to every item of `items` on a bounded pool of scoped
/// threads and returns the results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — large layers next to small ones — balance across workers. With
/// one thread (or one item) the map runs serially on the calling thread,
/// spawning nothing. `fanout` is the per-run cap (an `Option<usize>` or
/// `&RunOptions`), so two concurrent runs can fan out at different widths.
///
/// # Panics
///
/// A panic in `f` is propagated to the caller after the remaining workers
/// drain.
pub fn par_map_opt<T, R, F>(fanout: impl Into<Fanout>, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let Fanout { threads, sink } = fanout.into();
    let workers = resolve_threads(threads).min(items.len());
    rm().tasks.add(items.len() as u64);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    rm().pools.inc();
    rm().workers.add(workers as u64);
    crate::log::trace(
        "runner",
        format_args!("pool: {} workers for {} items", workers, items.len()),
    );
    // Host-side worker spans are volatile (wall-clock), so they are only
    // recorded when the run's trace sink explicitly opted into host events.
    let sink = sink.filter(TraceSink::host_enabled);
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                let sink = &sink;
                scope.spawn(move || {
                    let started = sink.as_ref().map(|_| std::time::Instant::now());
                    let mut out = Vec::new();
                    let mut done = 0usize;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                        done += 1;
                    }
                    if let (Some(sink), Some(start)) = (sink, started) {
                        sink.host_span(format!("worker {w}: {done} items"), w as u64 + 1, start);
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        let mut panicked = None;
        let (mut most, mut least) = (0usize, usize::MAX);
        for h in handles {
            match h.join() {
                Ok(chunk) => {
                    most = most.max(chunk.len());
                    least = least.min(chunk.len());
                    all.extend(chunk);
                }
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        rm().imbalance.set(most.saturating_sub(least) as i64);
        all
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), items.len());
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOptions;

    #[test]
    fn results_are_input_ordered() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven work per item: later items finish first.
        let out = par_map_opt(Some(4), &items, |&x| {
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches_parallel() {
        let items: Vec<u32> = (0..37).collect();
        let serial = par_map_opt(Some(1), &items, |&x| x.wrapping_mul(2654435761));
        let parallel = par_map_opt(Some(8), &items, |&x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_opt(Some(4), &empty, |&x| x).is_empty());
        assert_eq!(par_map_opt(Some(4), &[42u8], |&x| x + 1), vec![43]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_opt(Some(4), &items, |&x| {
                assert!(x != 11, "boom at {x}");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn explicit_threads_win_else_available_parallelism() {
        assert_eq!(resolve_threads(Some(7)), 7);
        let ambient = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(None), ambient);
        // Zero is treated as "no request".
        assert_eq!(resolve_threads(Some(0)), ambient);
    }

    #[test]
    fn worker_spans_reach_only_the_fanout_sink() {
        let items: Vec<u32> = (0..8).collect();
        let host = TraceSink::new(TraceOptions {
            host_events: true,
            ..TraceOptions::default()
        });
        let quiet = TraceSink::new(TraceOptions::default());
        for sink in [&host, &quiet] {
            let fanout = Fanout {
                threads: Some(2),
                sink: Some(sink.clone()),
            };
            par_map_opt(fanout, &items, |&x| x);
        }
        assert_eq!(host.finish().host_events.len(), 2, "one span per worker");
        assert!(quiet.finish().host_events.is_empty());
    }
}
