//! Content-addressed result cache for whole-GPU simulation runs.
//!
//! [`crate::GpuSim::run`] is a pure function of (configuration, kernel):
//! the trace of every CTA is derived from the kernel parameters alone, and
//! the SM model is deterministic. The paper's §V sweeps exploit none of
//! that purity — every Fig. 9/10/12/13 sweep re-simulates the identical
//! no-Duplo baseline per layer, and a second `all_experiments` invocation
//! redoes the whole grid. This module memoizes runs behind a deterministic
//! content digest, the same redundancy-lifting idea Duplo itself applies
//! to tensor-core loads:
//!
//! * **Key** — [`crate::digest`] over the canonical JSON encoding of the
//!   full [`GpuConfig`] (every SM / hierarchy / LHB field), a kernel
//!   descriptor (name, grid, occupancy footprints, workspace geometry),
//!   and schema-version salts ([`CACHE_SCHEMA_VERSION`],
//!   [`CACHE_MODEL_SALT`], [`crate::results::SCHEMA_VERSION`]).
//! * **Memory tier** — a sharded process-global map with *single-flight*
//!   semantics: the first requester of a key becomes the leader and
//!   simulates; concurrent requesters for the same key block until the
//!   leader publishes, so two [`crate::runner`] workers never simulate
//!   the same point twice.
//! * **Disk tier** — optional ([`CacheCtl::dir`], from `--cache-dir` /
//!   `DUPLO_CACHE_DIR` at the CLI): results persist as `<digest>.json` via
//!   [`crate::json`], so a later process serves repeats from disk.
//!   Corrupted, truncated, or schema-mismatched entries fall back to
//!   simulation and are rewritten; all disk I/O is best-effort.
//!
//! The JSON codec round-trips every counter exactly (integers verbatim,
//! floats in shortest round-trip form), so cached and fresh results are
//! byte-identical through the serializer and render identical tables.
//!
//! Hit/miss/byte counters live in the [`crate::metrics`] registry, one
//! counter per tier (`duplo_cache_hits_total{tier="memory"|"disk"|
//! "flight"}`, `duplo_cache_misses_total`, `duplo_cache_disk_bytes_total
//! {dir="read"|"write"}`); [`stats`] sums them back into the historical
//! [`CacheStats`] shape. The counters are exempt from the
//! `DUPLO_METRICS=off` kill switch — they feed non-telemetry APIs. Each
//! lookup is also counted in its run's own [`CacheTally`] (when the
//! [`CacheCtl`] carries one), which is what the experiment harness and
//! `duplo serve` report per run: exact even while other runs share the
//! process.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use duplo_isa::Kernel;
use duplo_sm::{SchedulerPolicy, SmStats};

use crate::digest;
use crate::gpu::{GpuConfig, GpuRunResult};
use crate::json::{Json, parse};
use crate::metrics;

/// Version of the on-disk entry layout; bump when the codec changes shape.
/// v2: `mem` gained `mshr_peak_occupancy`, `l2_peak_queue_delay`, and
/// `dram_peak_queue_delay`. v4: stats gained the per-L2-slice `slices`
/// array.
pub const CACHE_SCHEMA_VERSION: u64 = 4;

/// Salt folded into every key; bump when the simulator *model* changes in
/// a way that alters results without changing any configuration field.
/// v2: hierarchy accounting fixes (merge service-level attribution,
/// once-per-access miss counting, store-invalidates-L2).
pub const CACHE_MODEL_SALT: u64 = 2;

// ---------------------------------------------------------------------------
// Counters and controls
// ---------------------------------------------------------------------------

/// The cache's registry metrics, one counter per tier so an operator can
/// tell memory hits from disk hits from single-flight rides. Registered
/// *exempt* from the `DUPLO_METRICS=off` kill switch: these counters
/// feed [`stats`] (and through it the CI greps and `/v1/metrics`), so
/// disabling telemetry must not change what they report.
struct CacheMetrics {
    mem_hits: metrics::Counter,
    disk_hits: metrics::Counter,
    flight_hits: metrics::Counter,
    misses: metrics::Counter,
    disk_read_bytes: metrics::Counter,
    disk_write_bytes: metrics::Counter,
}

fn cm() -> &'static CacheMetrics {
    static CM: OnceLock<CacheMetrics> = OnceLock::new();
    CM.get_or_init(|| CacheMetrics {
        mem_hits: metrics::exempt_counter(
            &metrics::labeled("duplo_cache_hits_total", &[("tier", "memory")]),
            "Run-cache lookups served without simulating, by tier",
        ),
        disk_hits: metrics::exempt_counter(
            &metrics::labeled("duplo_cache_hits_total", &[("tier", "disk")]),
            "Run-cache lookups served without simulating, by tier",
        ),
        flight_hits: metrics::exempt_counter(
            &metrics::labeled("duplo_cache_hits_total", &[("tier", "flight")]),
            "Run-cache lookups served without simulating, by tier",
        ),
        misses: metrics::exempt_counter(
            "duplo_cache_misses_total",
            "Run-cache lookups that ran the simulation",
        ),
        disk_read_bytes: metrics::exempt_counter(
            &metrics::labeled("duplo_cache_disk_bytes_total", &[("dir", "read")]),
            "Bytes moved through the disk tier, by direction",
        ),
        disk_write_bytes: metrics::exempt_counter(
            &metrics::labeled("duplo_cache_disk_bytes_total", &[("dir", "write")]),
            "Bytes moved through the disk tier, by direction",
        ),
    })
}

/// Active [`bypass`] guards (counted so guards nest).
static BYPASS: AtomicUsize = AtomicUsize::new(0);

/// Cache counters: a snapshot of the process-wide ones ([`stats`]) or
/// one run's ([`CacheTally::get`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without simulating (memory, disk, or single-flight
    /// followers of an in-flight leader).
    pub hits: u64,
    /// Lookups that ran the simulation.
    pub misses: u64,
    /// Bytes read from and written to the disk tier.
    pub bytes: u64,
}

impl CacheStats {
    /// Counter increments since `earlier` (an earlier [`stats`] snapshot).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Current process-global cache counters (sums of the per-tier registry
/// metrics, so [`CacheStats`] keeps its historical shape).
pub fn stats() -> CacheStats {
    let m = cm();
    CacheStats {
        hits: m.mem_hits.get() + m.disk_hits.get() + m.flight_hits.get(),
        misses: m.misses.get(),
        bytes: m.disk_read_bytes.get() + m.disk_write_bytes.get(),
    }
}

/// RAII guard from [`bypass`]; re-enables caching on drop.
pub struct BypassGuard(());

impl Drop for BypassGuard {
    fn drop(&mut self) {
        BYPASS.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Bypasses the cache process-wide for the guard's lifetime (lookups
/// compute and store nothing, counters untouched) — for harnesses that
/// time the simulator itself. A single run opts out by value instead
/// ([`crate::RunOptions::no_cache`]). Guards nest; the cache is bypassed
/// while any guard is alive.
pub fn bypass() -> BypassGuard {
    BYPASS.fetch_add(1, Ordering::AcqRel);
    BypassGuard(())
}

/// One lookup outcome, counted globally and in the run's tally.
enum Outcome {
    MemHit,
    FlightHit,
    DiskHit,
    Miss,
    DiskRead(u64),
    DiskWrite(u64),
}

/// Per-run cache counters (see [`CacheCtl::tally`]). Clones share one
/// set of counters, so every `GpuSim` of one experiment invocation or
/// one served submission adds into the same tally.
#[derive(Clone, Default)]
pub struct CacheTally(Arc<[AtomicU64; 3]>);

impl std::fmt::Debug for CacheTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Tallies compare by identity (shared counters).
impl PartialEq for CacheTally {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl CacheTally {
    /// The counts so far, in the [`CacheStats`] shape.
    pub fn get(&self) -> CacheStats {
        let [hits, misses, bytes] = &*self.0;
        CacheStats {
            hits: hits.load(Ordering::Relaxed),
            misses: misses.load(Ordering::Relaxed),
            bytes: bytes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-run cache control
// ---------------------------------------------------------------------------

/// By-value cache controls for one run (see [`crate::RunOptions`]). The
/// process-wide [`bypass`] guard still applies on top of any per-run
/// setting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheCtl {
    /// Neither look up nor store entries for this run (`--no-cache`).
    pub disabled: bool,
    /// Disk-tier directory for this run; `None` keeps it memory-only.
    pub dir: Option<PathBuf>,
    /// Counters for this run's lookups alone.
    pub tally: Option<CacheTally>,
}

impl CacheCtl {
    fn active(&self) -> bool {
        !self.disabled && BYPASS.load(Ordering::Acquire) == 0
    }

    /// Counts `o` in the process-wide registry and in this run's tally.
    fn count(&self, o: Outcome) {
        let m = cm();
        let (counter, n, tally) = match o {
            Outcome::MemHit => (&m.mem_hits, 1, [1, 0, 0]),
            Outcome::FlightHit => (&m.flight_hits, 1, [1, 0, 0]),
            Outcome::DiskHit => (&m.disk_hits, 1, [1, 0, 0]),
            Outcome::Miss => (&m.misses, 1, [0, 1, 0]),
            Outcome::DiskRead(n) => (&m.disk_read_bytes, n, [0, 0, n]),
            Outcome::DiskWrite(n) => (&m.disk_write_bytes, n, [0, 0, n]),
        };
        counter.add(n);
        if let Some(t) = &self.tally {
            for (cell, n) in t.0.iter().zip(tally) {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Memory tier: sharded single-flight map
// ---------------------------------------------------------------------------

const SHARDS: usize = 16;

enum SlotState {
    /// A leader is computing; followers wait on the condvar.
    InFlight,
    /// Published result.
    Ready(GpuRunResult),
    /// The leader died without publishing; waiters must retry.
    Abandoned,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new_inflight() -> Slot {
        Slot {
            state: Mutex::new(SlotState::InFlight),
            cv: Condvar::new(),
        }
    }
}

type Shard = Mutex<HashMap<u128, Arc<Slot>>>;

static STORE: OnceLock<Vec<Shard>> = OnceLock::new();

fn store() -> &'static [Shard] {
    STORE.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect())
}

fn shard(key: u128) -> &'static Shard {
    &store()[(key % SHARDS as u128) as usize]
}

/// Drops every published entry from the memory tier (test aid: forces the
/// next lookup back to the disk tier or the simulator). In-flight entries
/// are kept so waiting followers still get their leader's result.
pub fn clear_memory() {
    for sh in store() {
        let mut map = sh.lock().unwrap_or_else(|e| e.into_inner());
        map.retain(|_, slot| {
            let st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            matches!(*st, SlotState::InFlight)
        });
    }
}

/// Marks an in-flight slot abandoned if its leader unwinds without
/// publishing, so followers retry instead of deadlocking.
struct AbandonOnPanic {
    key: u128,
    slot: Arc<Slot>,
}

impl Drop for AbandonOnPanic {
    fn drop(&mut self) {
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(*st, SlotState::InFlight) {
            return; // published normally
        }
        *st = SlotState::Abandoned;
        drop(st);
        let mut map = shard(self.key).lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cur) = map.get(&self.key) {
            if Arc::ptr_eq(cur, &self.slot) {
                map.remove(&self.key);
            }
        }
        drop(map);
        self.slot.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

/// Serves a simulation run from the cache, computing it via `compute` on a
/// miss. This is the sole entry point [`crate::GpuSim::run`] goes through,
/// traced or not, so every experiment driver and sweep inherits
/// memoization. `ctl` carries the per-run controls
/// ([`crate::RunOptions::cache_ctl`]); the memory tier and its
/// single-flight protocol are process-wide regardless, so concurrent runs
/// with different disk settings still collapse identical keys to one
/// simulation. `compute` runs at most once, and only on the leader of a
/// miss — a caller can tell a cache-served result by it not running.
pub fn run_cached_ctl(
    ctl: &CacheCtl,
    cfg: &GpuConfig,
    kernel: &dyn Kernel,
    compute: impl FnOnce() -> GpuRunResult,
) -> GpuRunResult {
    if !ctl.active() {
        return compute();
    }
    let key = run_key(cfg, kernel);
    // `compute` is consumed only on the leader path, which always returns;
    // follower retries (abandoned leader) leave it intact.
    let mut compute = Some(compute);
    loop {
        let leader = {
            let mut map = shard(key).lock().unwrap_or_else(|e| e.into_inner());
            match map.get(&key) {
                Some(slot) => Err(Arc::clone(slot)),
                None => {
                    let slot = Arc::new(Slot::new_inflight());
                    map.insert(key, Arc::clone(&slot));
                    Ok(slot)
                }
            }
        };
        match leader {
            Err(slot) => {
                // Follower: wait for the leader to publish or abandon. A
                // result that was Ready on arrival is a memory-tier hit;
                // one we had to wait for is a single-flight ride.
                let mut waited = false;
                let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    match &*st {
                        SlotState::Ready(r) => {
                            ctl.count(if waited {
                                Outcome::FlightHit
                            } else {
                                Outcome::MemHit
                            });
                            return r.clone();
                        }
                        SlotState::Abandoned => break,
                        SlotState::InFlight => {
                            waited = true;
                            st = slot.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                }
                // Leader abandoned: retry from the top (the key was
                // removed, so some requester becomes the new leader).
            }
            Ok(slot) => {
                let guard = AbandonOnPanic {
                    key,
                    slot: Arc::clone(&slot),
                };
                let result = match disk_load(ctl, key) {
                    Some(r) => {
                        ctl.count(Outcome::DiskHit);
                        r
                    }
                    None => {
                        let r = (compute.take().expect("leader computes once"))();
                        ctl.count(Outcome::Miss);
                        disk_store(ctl, key, &r);
                        r
                    }
                };
                {
                    let mut st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
                    *st = SlotState::Ready(result.clone());
                }
                slot.cv.notify_all();
                drop(guard); // published: the guard sees Ready and does nothing
                return result;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Key construction
// ---------------------------------------------------------------------------

/// The content digest keying `(cfg, kernel)` runs. Covers every
/// configuration field and the kernel's descriptor, salted with the cache,
/// model, and result schema versions; canonical JSON encoding makes it
/// independent of field ordering.
pub fn run_key(cfg: &GpuConfig, kernel: &dyn Kernel) -> u128 {
    let doc = Json::obj()
        .field("cache_schema", CACHE_SCHEMA_VERSION)
        .field("model_salt", CACHE_MODEL_SALT)
        .field("result_schema", crate::results::SCHEMA_VERSION)
        .field("config", config_json(cfg))
        .field("kernel", kernel_json(kernel))
        .build();
    digest::digest_json(&doc)
}

/// Canonical JSON of the full GPU configuration (every field that can
/// influence a run).
fn config_json(cfg: &GpuConfig) -> Json {
    let sm = &cfg.sm;
    let h = &sm.hierarchy;
    let cache_cfg = |c: &duplo_mem::CacheConfig| {
        Json::obj()
            .field("size_bytes", c.size_bytes)
            .field("ways", c.ways)
            .field("line_bytes", c.line_bytes)
            .field("latency", c.latency)
            .build()
    };
    let queue_cfg = |q: &duplo_mem::BandwidthQueueConfig| {
        Json::obj()
            .field("latency", q.latency)
            .field("bytes_per_cycle", q.bytes_per_cycle)
            .build()
    };
    // An unmetered link has infinite bandwidth, which JSON cannot carry as
    // a number — encode it as the string "inf" so passthrough and metered
    // crossbars always digest differently.
    let link_cfg = |l: &duplo_mem::LinkConfig| {
        let bw = if l.bytes_per_cycle.is_finite() {
            Json::from(l.bytes_per_cycle)
        } else {
            Json::from("inf")
        };
        Json::obj()
            .field("latency", l.latency)
            .field("bytes_per_cycle", bw)
            .build()
    };
    let lhb = sm.lhb.map(|l| {
        Json::obj()
            .field("entries", l.entries)
            .field("ways", l.ways)
            .field("oracle", l.oracle)
            .field("addr_match_only", l.addr_match_only)
            .build()
    });
    Json::obj()
        .field("total_sms", cfg.total_sms)
        .field("sms_simulated", cfg.sms_simulated)
        .field("clock_mhz", cfg.clock_mhz)
        .field("sample_ctas", cfg.sample_ctas)
        .field(
            "sm",
            Json::obj()
                .field("schedulers", sm.schedulers)
                .field("max_warps", sm.max_warps)
                .field("max_ctas", sm.max_ctas)
                .field("shared_mem_bytes", sm.shared_mem_bytes)
                .field("tensor_cores", sm.tensor_cores)
                .field("regfile_bytes", sm.regfile_bytes)
                .field("mma_ii", sm.mma_ii)
                .field("shared_latency", sm.shared_latency)
                .field("ldst_queue", sm.ldst_queue)
                .field("commit_delay", sm.commit_delay)
                .field("octet_dup", sm.octet_dup)
                .field(
                    "policy",
                    match sm.policy {
                        SchedulerPolicy::Gto => "gto",
                        SchedulerPolicy::Lrr => "lrr",
                    },
                )
                .field(
                    "hierarchy",
                    Json::obj()
                        .field("l1", cache_cfg(&h.l1))
                        .field("l1_mshr", h.l1_mshr)
                        .field("l2", cache_cfg(&h.l2))
                        .field("l2_port", queue_cfg(&h.l2_port))
                        .field("dram", queue_cfg(&h.dram))
                        .field("l2_slices", h.l2_slices)
                        .field("slice_mshr", h.slice_mshr)
                        .field("hash", h.hash.label())
                        .field(
                            "noc",
                            Json::obj()
                                .field("req", link_cfg(&h.noc.req))
                                .field("resp", link_cfg(&h.noc.resp))
                                .build(),
                        )
                        .build(),
                )
                .field("lhb", lhb)
                .field("lhb_on_shared", sm.lhb_on_shared)
                .field("detect_latency", sm.detect_latency)
                .field("rename_log_cap", sm.rename_log_cap)
                .build(),
        )
        .build()
}

/// Canonical JSON kernel descriptor. Kernel traces are pure functions of
/// the kernel's parameters, all of which are reachable through the trait:
/// the name encodes the GEMM/conv geometry, and the occupancy footprints
/// plus workspace descriptor pin everything the name alone leaves
/// ambiguous (e.g. shared-memory placement policies).
fn kernel_json(kernel: &dyn Kernel) -> Json {
    let ws = kernel.workspace().map(|w| {
        Json::obj()
            .field("base", w.base)
            .field("bytes", w.bytes)
            .field("elem_bytes", w.elem_bytes)
            .field("row_stride_elems", w.row_stride_elems)
            .field("input_w", w.input_w)
            .field("channels", w.channels)
            .field("fw", w.fw)
            .field("fh", w.fh)
            .field("out_w", w.out_w)
            .field("out_h", w.out_h)
            .field("stride", w.stride)
            .field("pad", w.pad)
            .field("batch", w.batch)
            .build()
    });
    Json::obj()
        .field("name", kernel.name())
        .field("num_ctas", kernel.num_ctas())
        .field("shared_mem_per_cta", kernel.shared_mem_per_cta())
        .field("regs_per_warp", kernel.regs_per_warp())
        .field("workspace", ws)
        // Kernels with externally-sourced instruction content (replayed
        // wtrace files) salt the key with their content digest; for the
        // in-tree generators this is None and the field is omitted, so
        // their keys are unchanged.
        .field_opt("content_digest", kernel.content_digest().map(digest::hex))
        .build()
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

fn entry_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{}.json", digest::hex(key)))
}

fn disk_load(ctl: &CacheCtl, key: u128) -> Option<GpuRunResult> {
    let dir = ctl.dir.as_ref()?;
    let text = std::fs::read_to_string(entry_path(dir, key)).ok()?;
    let doc = parse(&text).ok()?;
    let result = result_from_json(&doc)?;
    ctl.count(Outcome::DiskRead(text.len() as u64));
    Some(result)
}

fn disk_store(ctl: &CacheCtl, key: u128, r: &GpuRunResult) {
    let Some(dir) = &ctl.dir else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let text = result_to_json(r).to_pretty();
    // Atomic publish: write a private temp file, then rename over the
    // entry, so concurrent processes never observe a torn write.
    let tmp = dir.join(format!(".{}.tmp.{}", digest::hex(key), std::process::id()));
    if std::fs::write(&tmp, &text).is_ok() && std::fs::rename(&tmp, entry_path(dir, key)).is_ok() {
        ctl.count(Outcome::DiskWrite(text.len() as u64));
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Serializes a run result as a disk-tier cache entry. Every counter
/// round-trips exactly (integers verbatim, floats in shortest round-trip
/// form), so a reloaded result is indistinguishable from a fresh one.
pub fn result_to_json(r: &GpuRunResult) -> Json {
    Json::obj()
        .field("cache_schema", CACHE_SCHEMA_VERSION)
        .field("cycles", r.cycles)
        .field("sampled_fraction", r.sampled_fraction)
        .field("ctas_simulated", r.ctas_simulated)
        .field("stats", stats_to_json(&r.stats))
        .build()
}

fn stats_to_json(s: &SmStats) -> Json {
    let pairs: Vec<Json> = s
        .rename_pairs
        .iter()
        .map(|&(a, b)| Json::Arr(vec![Json::from(a), Json::from(b)]))
        .collect();
    Json::obj()
        .field("cycles", s.cycles)
        .field("issued_mma", s.issued_mma)
        .field("issued_tensor_loads", s.issued_tensor_loads)
        .field("row_loads", s.row_loads)
        .field("eliminated_loads", s.eliminated_loads)
        .field("issued_other", s.issued_other)
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
        .field("octet_dup_l1", s.octet_dup_l1)
        .field(
            "stalls",
            Json::obj()
                .field("empty", s.stalls.empty)
                .field("data_dependency", s.stalls.data_dependency)
                .field("ldst_full", s.stalls.ldst_full)
                .field("tensor_busy", s.stalls.tensor_busy)
                .field("barrier", s.stalls.barrier)
                .build(),
        )
        .field("ldst_pipe_stalls", s.ldst_pipe_stalls)
        .field("rf_peak_rows", s.rf_peak_rows)
        .field("rf_final_rows", s.rf_final_rows)
        .field(
            "detect",
            Json::obj()
                .field("workspace_loads", s.detect.workspace_loads)
                .field("non_workspace_loads", s.detect.non_workspace_loads)
                .field("boundary_bypasses", s.detect.boundary_bypasses)
                .field("eliminated", s.detect.eliminated)
                .build(),
        )
        .field(
            "lhb",
            Json::obj()
                .field("hits", s.lhb.hits)
                .field("misses", s.lhb.misses)
                .field("conflict_evictions", s.lhb.conflict_evictions)
                .field("retire_releases", s.lhb.retire_releases)
                .field("store_invalidations", s.lhb.store_invalidations)
                .build(),
        )
        .field(
            "mem",
            Json::obj()
                .field("l1_hits", s.mem.l1_hits)
                .field("l1_misses", s.mem.l1_misses)
                .field("mshr_merges", s.mem.mshr_merges)
                .field("mshr_stalls", s.mem.mshr_stalls)
                .field("l2_accesses", s.mem.l2_accesses)
                .field("l2_hits", s.mem.l2_hits)
                .field("dram_accesses", s.mem.dram_accesses)
                .field("dram_bytes", s.mem.dram_bytes)
                .field("stores", s.mem.stores)
                .field("store_bytes", s.mem.store_bytes)
                .field("l2_port_requests", s.mem.l2_port_requests)
                .field("l2_queue_delay", s.mem.l2_queue_delay)
                .field("dram_requests", s.mem.dram_requests)
                .field("dram_queue_delay", s.mem.dram_queue_delay)
                .field("mshr_peak_occupancy", s.mem.mshr_peak_occupancy)
                .field("l2_peak_queue_delay", s.mem.l2_peak_queue_delay)
                .field("dram_peak_queue_delay", s.mem.dram_peak_queue_delay)
                .build(),
        )
        .field(
            "slices",
            Json::Arr(
                s.slices
                    .iter()
                    .map(|sl| {
                        Json::obj()
                            .field("accesses", sl.accesses)
                            .field("l2_hits", sl.l2_hits)
                            .field("dram_accesses", sl.dram_accesses)
                            .field("stores", sl.stores)
                            .field("port_requests", sl.port_requests)
                            .field("port_queue_delay", sl.port_queue_delay)
                            .field("port_peak_queue_delay", sl.port_peak_queue_delay)
                            .field("dram_queue_delay", sl.dram_queue_delay)
                            .field("noc_req_delay", sl.noc_req_delay)
                            .field("noc_resp_delay", sl.noc_resp_delay)
                            .field("mshr_peak", sl.mshr_peak)
                            .build()
                    })
                    .collect(),
            ),
        )
        .field("rename_pairs", Json::Arr(pairs))
        .field("ctas_run", s.ctas_run)
        .build()
}

/// Decodes a disk-tier entry. Strict: any missing or mistyped field yields
/// `None`, which the lookup treats as a miss (fall back to simulation and
/// rewrite the entry).
pub fn result_from_json(doc: &Json) -> Option<GpuRunResult> {
    let f = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64);
    let u = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64);
    if u(doc, "cache_schema") != Some(CACHE_SCHEMA_VERSION) {
        return None;
    }
    let stats = stats_from_json(doc.get("stats")?)?;
    Some(GpuRunResult {
        cycles: f(doc, "cycles")?,
        stats,
        sampled_fraction: f(doc, "sampled_fraction")?,
        ctas_simulated: usize::try_from(u(doc, "ctas_simulated")?).ok()?,
    })
}

fn stats_from_json(v: &Json) -> Option<SmStats> {
    let u = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64);
    let f = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64);
    let services = v.get("services")?;
    let stalls = v.get("stalls")?;
    let detect = v.get("detect")?;
    let lhb = v.get("lhb")?;
    let mem = v.get("mem")?;
    let mut rename_pairs = Vec::new();
    for pair in v.get("rename_pairs")?.as_arr()? {
        let p = pair.as_arr()?;
        if p.len() != 2 {
            return None;
        }
        rename_pairs.push((p[0].as_u64()?, p[1].as_u64()?));
    }
    let mut s = SmStats::default();
    s.cycles = u(v, "cycles")?;
    s.issued_mma = u(v, "issued_mma")?;
    s.issued_tensor_loads = u(v, "issued_tensor_loads")?;
    s.row_loads = u(v, "row_loads")?;
    s.eliminated_loads = u(v, "eliminated_loads")?;
    s.issued_other = u(v, "issued_other")?;
    s.services.lhb = u(services, "lhb")?;
    s.services.l1 = u(services, "l1")?;
    s.services.l2 = u(services, "l2")?;
    s.services.dram = u(services, "dram")?;
    s.services.shared = u(services, "shared")?;
    s.octet_dup_l1 = u(v, "octet_dup_l1")?;
    s.stalls.empty = u(stalls, "empty")?;
    s.stalls.data_dependency = u(stalls, "data_dependency")?;
    s.stalls.ldst_full = u(stalls, "ldst_full")?;
    s.stalls.tensor_busy = u(stalls, "tensor_busy")?;
    s.stalls.barrier = u(stalls, "barrier")?;
    s.ldst_pipe_stalls = u(v, "ldst_pipe_stalls")?;
    s.rf_peak_rows = u32::try_from(u(v, "rf_peak_rows")?).ok()?;
    s.rf_final_rows = u32::try_from(u(v, "rf_final_rows")?).ok()?;
    s.detect.workspace_loads = u(detect, "workspace_loads")?;
    s.detect.non_workspace_loads = u(detect, "non_workspace_loads")?;
    s.detect.boundary_bypasses = u(detect, "boundary_bypasses")?;
    s.detect.eliminated = u(detect, "eliminated")?;
    s.lhb.hits = u(lhb, "hits")?;
    s.lhb.misses = u(lhb, "misses")?;
    s.lhb.conflict_evictions = u(lhb, "conflict_evictions")?;
    s.lhb.retire_releases = u(lhb, "retire_releases")?;
    s.lhb.store_invalidations = u(lhb, "store_invalidations")?;
    s.mem.l1_hits = u(mem, "l1_hits")?;
    s.mem.l1_misses = u(mem, "l1_misses")?;
    s.mem.mshr_merges = u(mem, "mshr_merges")?;
    s.mem.mshr_stalls = u(mem, "mshr_stalls")?;
    s.mem.l2_accesses = u(mem, "l2_accesses")?;
    s.mem.l2_hits = u(mem, "l2_hits")?;
    s.mem.dram_accesses = u(mem, "dram_accesses")?;
    s.mem.dram_bytes = u(mem, "dram_bytes")?;
    s.mem.stores = u(mem, "stores")?;
    s.mem.store_bytes = u(mem, "store_bytes")?;
    s.mem.l2_port_requests = u(mem, "l2_port_requests")?;
    s.mem.l2_queue_delay = f(mem, "l2_queue_delay")?;
    s.mem.dram_requests = u(mem, "dram_requests")?;
    s.mem.dram_queue_delay = f(mem, "dram_queue_delay")?;
    s.mem.mshr_peak_occupancy = u(mem, "mshr_peak_occupancy")?;
    s.mem.l2_peak_queue_delay = f(mem, "l2_peak_queue_delay")?;
    s.mem.dram_peak_queue_delay = f(mem, "dram_peak_queue_delay")?;
    for sl in v.get("slices")?.as_arr()? {
        s.slices.push(duplo_sm::SliceStat {
            accesses: u(sl, "accesses")?,
            l2_hits: u(sl, "l2_hits")?,
            dram_accesses: u(sl, "dram_accesses")?,
            stores: u(sl, "stores")?,
            port_requests: u(sl, "port_requests")?,
            port_queue_delay: f(sl, "port_queue_delay")?,
            port_peak_queue_delay: f(sl, "port_peak_queue_delay")?,
            dram_queue_delay: f(sl, "dram_queue_delay")?,
            noc_req_delay: f(sl, "noc_req_delay")?,
            noc_resp_delay: f(sl, "noc_resp_delay")?,
            mshr_peak: u(sl, "mshr_peak")?,
        });
    }
    s.rename_pairs = rename_pairs;
    s.ctas_run = u(v, "ctas_run")?;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> GpuRunResult {
        let mut s = SmStats::default();
        s.cycles = 1234;
        s.issued_mma = 5;
        s.row_loads = 100;
        s.eliminated_loads = 30;
        s.services.lhb = 30;
        s.services.dram = 70;
        s.stalls.data_dependency = 9;
        s.rf_peak_rows = 512;
        s.rf_final_rows = 3;
        s.lhb.hits = 30;
        s.lhb.misses = 70;
        s.mem.l2_queue_delay = 12.625;
        s.mem.dram_queue_delay = 0.1;
        s.slices = vec![
            duplo_sm::SliceStat {
                accesses: 40,
                l2_hits: 10,
                dram_accesses: 30,
                stores: 4,
                port_requests: 44,
                port_queue_delay: 7.5,
                port_peak_queue_delay: 2.25,
                dram_queue_delay: 99.0,
                noc_req_delay: 1.125,
                noc_resp_delay: 0.5,
                mshr_peak: 6,
            },
            duplo_sm::SliceStat::default(),
        ];
        s.rename_pairs = vec![(0x1000, 0x2000), (0x3000, 0x4000)];
        s.ctas_run = 4;
        GpuRunResult {
            cycles: 1234.5,
            stats: s,
            sampled_fraction: 0.4,
            ctas_simulated: 4,
        }
    }

    #[test]
    fn codec_round_trips_exactly() {
        let r = sample_result();
        let doc = result_to_json(&r);
        let back = result_from_json(&parse(&doc.to_pretty()).unwrap()).unwrap();
        // Debug form covers every field of the nested stats structs.
        assert_eq!(format!("{r:?}"), format!("{back:?}"));
        // And the reloaded result re-serializes to identical bytes.
        assert_eq!(result_to_json(&back).to_pretty(), doc.to_pretty());
    }

    #[test]
    fn codec_rejects_missing_and_mistyped_fields() {
        let doc = result_to_json(&sample_result());
        let Json::Obj(fields) = &doc else {
            panic!("entry must be an object")
        };
        // Dropping any top-level field breaks decoding, never panics.
        for i in 0..fields.len() {
            let mut copy = fields.clone();
            copy.remove(i);
            assert!(
                result_from_json(&Json::Obj(copy)).is_none(),
                "field {} must be required",
                fields[i].0
            );
        }
        assert!(result_from_json(&Json::Null).is_none());
        assert!(result_from_json(&parse("{\"cycles\": \"x\"}").unwrap()).is_none());
    }

    #[test]
    fn stats_snapshot_delta_is_monotone() {
        let a = CacheStats {
            hits: 5,
            misses: 2,
            bytes: 100,
        };
        let b = CacheStats {
            hits: 8,
            misses: 2,
            bytes: 150,
        };
        assert_eq!(
            b.since(&a),
            CacheStats {
                hits: 3,
                misses: 0,
                bytes: 50
            }
        );
        // Saturates rather than wrapping if snapshots are misordered.
        assert_eq!(a.since(&b).hits, 0);
    }
}
