//! Correctness suite for the content-addressed run cache
//! (`duplo_sim::cache`): digest stability, hit equivalence through the
//! JSON serializer, single-flight semantics under a parallel runner, and
//! corrupted-disk-entry fallback.
//!
//! Every test passes its own `CacheCtl` by value — its disk directory (or
//! memory-only) and a private `CacheTally` — so the tests run in parallel
//! and each counts exactly its own hits and misses. The one process-wide
//! operation, `cache::clear_memory`, evicts every test's entries, so tests
//! that evict and tests that expect memory hits take turns on
//! `MEMORY_TIER`.

use std::path::PathBuf;
use std::sync::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};

use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::cache::{CacheCtl, CacheStats, CacheTally};
use duplo_sim::json::{Json, parse};
use duplo_sim::{GpuConfig, GpuSim, RunOptions, cache, digest, runner};
use duplo_testkit::prop;

/// Held for writing around `cache::clear_memory`, for reading by tests
/// whose assertions rely on the memory tier keeping their entries.
static MEMORY_TIER: RwLock<()> = RwLock::new(());

/// A configuration with a process-unique cache key: `clock_mhz` is part
/// of the key (it is configuration) but never read by the simulator
/// (which counts cycles, not seconds), so bumping it gives each test its
/// own key space without changing any simulated result.
fn unique_cfg() -> GpuConfig {
    static NONCE: AtomicUsize = AtomicUsize::new(0);
    let mut cfg = GpuConfig::titan_v().with_sample(1);
    cfg.clock_mhz = 1_000_000 + NONCE.fetch_add(1, Ordering::Relaxed) as u64;
    cfg
}

/// Cache controls over `dir` (`None` = memory tier only) that count into
/// a private tally.
fn ctl(dir: Option<PathBuf>) -> CacheCtl {
    CacheCtl {
        disabled: false,
        dir,
        tally: Some(CacheTally::default()),
    }
}

/// The counts `ctl` has seen so far.
fn counts(ctl: &CacheCtl) -> CacheStats {
    ctl.tally.as_ref().expect("ctl() carries a tally").get()
}

/// A simulation that bypasses the cache by value.
fn simulate(cfg: &GpuConfig, kernel: &GemmTcKernel) -> duplo_sim::GpuRunResult {
    let opts = RunOptions {
        no_cache: true,
        ..RunOptions::default()
    };
    GpuSim::with_options(cfg.clone(), opts).run(kernel)
}

/// One cached lookup whose `compute` path counts simulator invocations.
/// The nested simulation runs with the cache off, so it cannot re-enter
/// the single-flight slot it is computing (a self-deadlock).
fn counted_run(
    ctl: &CacheCtl,
    cfg: &GpuConfig,
    kernel: &GemmTcKernel,
    sims: &AtomicUsize,
) -> String {
    let r = cache::run_cached_ctl(ctl, cfg, kernel, || {
        sims.fetch_add(1, Ordering::SeqCst);
        simulate(cfg, kernel)
    });
    cache::result_to_json(&r).to_pretty()
}

#[test]
fn digest_is_stable_across_field_reordering() {
    let a = Json::obj()
        .field(
            "sm",
            Json::obj()
                .field("schedulers", 4u64)
                .field("max_warps", 64u64)
                .build(),
        )
        .field("total_sms", 80u64)
        .build();
    let b = Json::obj()
        .field("total_sms", 80u64)
        .field(
            "sm",
            Json::obj()
                .field("max_warps", 64u64)
                .field("schedulers", 4u64)
                .build(),
        )
        .build();
    assert_eq!(digest::digest_json(&a), digest::digest_json(&b));
    // Content changes do move the digest.
    let c = Json::obj()
        .field("total_sms", 81u64)
        .field(
            "sm",
            Json::obj()
                .field("max_warps", 64u64)
                .field("schedulers", 4u64)
                .build(),
        )
        .build();
    assert_ne!(digest::digest_json(&a), digest::digest_json(&c));
}

#[test]
fn run_key_distinguishes_configs_and_kernels() {
    let cfg = GpuConfig::titan_v();
    let k = GemmTcKernel::new(32, 32, 32, SmemPolicy::COnly);
    // Independently constructed but identical inputs share a key.
    let k_again = GemmTcKernel::new(32, 32, 32, SmemPolicy::COnly);
    assert_eq!(cache::run_key(&cfg, &k), cache::run_key(&cfg, &k_again));
    // Enabling Duplo, changing sampling, or changing the kernel's
    // shared-memory policy each moves the key.
    let duplo = cfg.clone().with_duplo(LhbConfig::paper_default());
    assert_ne!(cache::run_key(&cfg, &k), cache::run_key(&duplo, &k));
    let sampled = cfg.clone().with_sample(2);
    assert_ne!(cache::run_key(&cfg, &k), cache::run_key(&sampled, &k));
    let other_policy = GemmTcKernel::new(32, 32, 32, SmemPolicy::AllAbc);
    assert_ne!(
        cache::run_key(&cfg, &k),
        cache::run_key(&cfg, &other_policy)
    );
}

#[test]
fn memory_hit_is_byte_identical_and_skips_simulation() {
    let _shared = MEMORY_TIER.read().unwrap_or_else(|e| e.into_inner());
    let ctl = ctl(None); // memory tier only
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(48, 32, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    let before = counts(&ctl);
    let cached = counted_run(&ctl, &cfg, &kernel, &sims);
    let delta = counts(&ctl).since(&before);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "repeat must not re-simulate"
    );
    assert_eq!(delta.hits, 1);
    assert_eq!(delta.misses, 0);
    assert_eq!(
        cached, fresh,
        "cached result must serialize byte-identically"
    );
}

#[test]
fn disk_tier_round_trips_byte_identically() {
    let _evicting = MEMORY_TIER.write().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("duplo-cache-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(32, 48, 16, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    assert_eq!(sims.load(Ordering::SeqCst), 1);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir must exist")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one entry per key: {entries:?}");
    // Evict the memory tier: the reload must come from disk, not the
    // simulator, and serialize to the same bytes.
    cache::clear_memory();
    let before = counts(&ctl);
    let reloaded = counted_run(&ctl, &cfg, &kernel, &sims);
    let delta = counts(&ctl).since(&before);
    assert_eq!(
        sims.load(Ordering::SeqCst),
        1,
        "disk tier must serve the reload"
    );
    assert_eq!(delta.hits, 1);
    assert!(delta.bytes > 0, "disk reads are accounted");
    assert_eq!(reloaded, fresh);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_disk_entry_falls_back_to_simulation_and_repairs() {
    let _evicting = MEMORY_TIER.write().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("duplo-cache-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctl = ctl(Some(dir.clone()));
    let cfg = unique_cfg();
    let kernel = GemmTcKernel::new(16, 48, 32, SmemPolicy::COnly);
    let sims = AtomicUsize::new(0);
    let fresh = counted_run(&ctl, &cfg, &kernel, &sims);
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("entry written");
    for garbage in ["{ not json at all", "{}", "{\"cache_schema\": 999}"] {
        std::fs::write(&entry, garbage).unwrap();
        cache::clear_memory();
        let n_before = sims.load(Ordering::SeqCst);
        let recomputed = counted_run(&ctl, &cfg, &kernel, &sims);
        assert_eq!(
            sims.load(Ordering::SeqCst),
            n_before + 1,
            "corrupted entry {garbage:?} must fall back to simulation"
        );
        assert_eq!(recomputed, fresh, "fallback result must match the original");
        // The bad entry was rewritten with a decodable one.
        let text = std::fs::read_to_string(&entry).unwrap();
        let doc = parse(&text).expect("repaired entry must parse");
        assert!(
            cache::result_from_json(&doc).is_some(),
            "repaired entry must decode"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_flight_under_four_threads() {
    let _shared = MEMORY_TIER.read().unwrap_or_else(|e| e.into_inner());
    prop::check(
        "cache_single_flight",
        8,
        |rng| {
            let dims = [16usize, 32, 48];
            Some((
                dims[rng.gen_index(dims.len())],
                dims[rng.gen_index(dims.len())],
                dims[rng.gen_index(dims.len())],
            ))
        },
        |&(m, n, k)| {
            let cfg = unique_cfg(); // private key even when dims repeat
            let kernel = GemmTcKernel::new(m, n, k, SmemPolicy::COnly);
            // Simulate once up front, outside the cache.
            let expected = simulate(&cfg, &kernel);
            let ctl = ctl(None);
            let sims = AtomicUsize::new(0);
            let lanes: Vec<usize> = (0..8).collect();
            let runs = runner::par_map_opt(Some(4), &lanes, |_| {
                let r = cache::run_cached_ctl(&ctl, &cfg, &kernel, || {
                    sims.fetch_add(1, Ordering::SeqCst);
                    expected.clone()
                });
                cache::result_to_json(&r).to_pretty()
            });
            let n = sims.load(Ordering::SeqCst);
            if n != 1 {
                return Err(format!(
                    "expected exactly one simulation for 8 concurrent lookups, got {n}"
                ));
            }
            let want = cache::result_to_json(&expected).to_pretty();
            if runs.iter().any(|r| *r != want) {
                return Err("followers must observe the leader's exact result".to_string());
            }
            let c = counts(&ctl);
            if (c.hits, c.misses) != (7, 1) {
                return Err(format!(
                    "the run's own tally must read 7 hits, 1 miss: {c:?}"
                ));
            }
            Ok(())
        },
    );
}
