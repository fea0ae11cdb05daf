//! Determinism gate for the parallel execution engine: the same experiment
//! must render byte-identical tables at every thread count.
//!
//! The options come from `RunOptions::from_env`: `scripts/ci.sh` runs
//! this binary under `DUPLO_THREADS=1` and `4`, with the reference loop
//! (`DUPLO_TICK_REFERENCE`) and with a sliced L2 (`DUPLO_L2_SLICES`), and
//! each test also pins explicit thread counts by value.

use duplo_sim::experiments::{
    RunOptions, fig09_lhb_size, fig10_hit_rate, size_configs, sweep_layers,
};
use duplo_sim::networks::all_layers;

/// The three smallest Table I layers (deterministically picked), keeping
/// debug-mode runtime bounded while still fanning 15 jobs out.
fn probe_layers() -> Vec<duplo_sim::networks::LayerSpec> {
    let mut layers = all_layers();
    layers.sort_by_key(|l| {
        let (m, n, k) = l.lowered().gemm_dims();
        (m * n * k, l.qualified_name())
    });
    layers.truncate(3);
    layers
}

/// Quick-sampled options from the environment, cache off (a memoized
/// second sweep would make the thread-count comparison vacuous), at
/// `threads` (`None` keeps the environment's setting).
fn options(threads: Option<usize>) -> RunOptions {
    let env = RunOptions::from_env().expect("valid DUPLO_* environment");
    RunOptions {
        sample_ctas: Some(2),
        no_cache: true,
        threads: threads.or(env.threads),
        ..env
    }
}

fn render_once(threads: Option<usize>) -> String {
    let sweeps = sweep_layers(&probe_layers(), &size_configs(), &options(threads));
    format!(
        "{}{}",
        fig09_lhb_size::render(&sweeps),
        fig10_hit_rate::render(&sweeps)
    )
}

#[test]
fn experiment_tables_identical_at_one_and_many_threads() {
    let serial = render_once(Some(1));
    let parallel = render_once(Some(4));
    assert_eq!(
        serial, parallel,
        "rendered tables must be byte-identical regardless of thread count"
    );
}

/// The machine-readable path gets the same guarantee as the tables: the
/// structured JSON (including the stall-attribution metrics blocks) must
/// be byte-identical at every thread count.
#[test]
fn json_results_identical_at_one_and_many_threads() {
    let json_once = |threads| {
        let opts = options(Some(threads));
        let sweeps = sweep_layers(&probe_layers(), &size_configs(), &opts);
        fig09_lhb_size::result(&sweeps, &opts).to_pretty()
    };
    let serial = json_once(1);
    let parallel = json_once(4);
    assert_eq!(
        serial, parallel,
        "JSON results must be byte-identical regardless of thread count"
    );
}

#[test]
fn ambient_thread_count_matches_forced_serial() {
    // Under ci.sh this runs with DUPLO_THREADS set in the environment;
    // whatever the ambient configuration is, output must match serial.
    let ambient = render_once(None);
    let serial = render_once(Some(1));
    assert_eq!(ambient, serial);
}
