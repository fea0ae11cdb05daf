//! The `serve_mix` workload: an in-process `duplo serve` daemon driven by
//! a closed loop of [`CLIENTS`] client connections.
//!
//! Each pass starts a fresh daemon on a fresh cache directory with an
//! empty in-memory run cache, so every pass sends the same mix of cold
//! (first-sight: simulate, then write the memory and disk tiers) and warm
//! (read-only cache hit) submissions.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use duplo_sim::json::{Json, parse};
use duplo_sim::serve::{ServeOptions, Server, http_request};
use duplo_sim::{GpuConfig, GpuSim, RunOptions, cache, experiments, wtrace};

use crate::check::same_body;
use crate::gen::{CLIENTS, SAMPLE_CTAS, ServePlan, SubmitKind, serve_plan, submit_body};
use crate::registry::Registry;
use crate::spans::Spans;

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// The generated inputs: the plan and one request body per submission.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Submissions and their send order.
    pub plan: ServePlan,
    /// Request body per submission.
    pub bodies: Vec<Vec<u8>>,
}

/// Generates the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let plan = serve_plan(seed);
    let bodies = plan.submissions.iter().map(submit_body).collect();
    Inputs { plan, bodies }
}

/// The daemon's default run options: sampled like the simulator
/// workloads, flat L2 unless a submission overlays slicing, one
/// simulation thread per submission.
pub fn server_defaults(cache_dir: Option<PathBuf>) -> RunOptions {
    RunOptions {
        sample_ctas: Some(SAMPLE_CTAS),
        threads: Some(1),
        cache_dir,
        l2_slices: Some(0),
        ..RunOptions::default()
    }
}

/// One client-observed send.
#[derive(Clone, Debug)]
pub struct Send {
    /// Submission index.
    pub sub: usize,
    /// First sight of the submission in its pass.
    pub cold: bool,
    /// Client-observed latency, seconds.
    pub secs: f64,
    /// Whether the reply was a 200 whose body equals the submission's
    /// first cold body.
    pub ok: bool,
}

/// One pass of the send sequence against a fresh daemon.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds for the pass (daemon start to drain).
    pub wall_s: f64,
    /// Every send.
    pub sends: Vec<Send>,
    /// Deepest accept queue seen by the gauge sampler (traced passes).
    pub queue_depth_max: f64,
    /// Mean share of busy daemon workers (traced passes).
    pub workers_busy_frac: f64,
}

/// Bodies served so far: the first cold reply per submission.
pub type FirstBodies = Mutex<HashMap<usize, Arc<Vec<u8>>>>;

/// Runs one pass. `first` holds the first cold body of each submission;
/// later replies must match it byte for byte. Failures are reported in
/// `errors`.
pub fn run_pass(
    inputs: &Inputs,
    cache_root: &Path,
    pass_no: u64,
    spans: &Spans,
    first: &FirstBodies,
    errors: &Mutex<Vec<String>>,
) -> std::io::Result<Pass> {
    let dir = cache_root.join(format!("pass{pass_no}"));
    std::fs::create_dir_all(&dir)?;
    cache::clear_memory();
    let t0 = Instant::now();
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        defaults: server_defaults(Some(dir.clone())),
        explicit_sample: true,
        ..ServeOptions::default()
    })?;
    let addr = server.local_addr().to_string();
    let stop = AtomicBool::new(false);
    let seq = &inputs.plan.pass_sequence(pass_no);
    let mut seen = vec![false; inputs.bodies.len()];
    let is_cold: Vec<bool> = seq
        .iter()
        .map(|&s| !std::mem::replace(&mut seen[s], true))
        .collect();
    let cursor = AtomicUsize::new(0);
    let answered = (Mutex::new(vec![false; inputs.bodies.len()]), Condvar::new());
    let (sends, gauges) = std::thread::scope(|scope| {
        let sampler = spans.on().then(|| scope.spawn(|| sample_gauges(&stop)));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&sub) = seq.get(k) else { break };
                        if !is_cold[k] {
                            // A warm repeat goes out only once its cold send
                            // has been answered, so it is a pure cache read.
                            let (lock, cv) = &answered;
                            let mut a = lock.lock().unwrap_or_else(|e| e.into_inner());
                            while !a[sub] {
                                a = cv.wait(a).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                        let span = spans.enter("serve", pass_no << 32 | k as u64, None);
                        let t = Instant::now();
                        let reply =
                            http_request(&addr, "POST", "/v1/submit", Some(&inputs.bodies[sub]));
                        let secs = t.elapsed().as_secs_f64();
                        drop(span);
                        if is_cold[k] {
                            let (lock, cv) = &answered;
                            lock.lock().unwrap_or_else(|e| e.into_inner())[sub] = true;
                            cv.notify_all();
                        }
                        let verdict = match reply {
                            Ok(r) if r.status == 200 => {
                                let body = Arc::new(r.body);
                                let expected = Arc::clone(
                                    first
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .entry(sub)
                                        .or_insert_with(|| Arc::clone(&body)),
                                );
                                same_body(&expected, &body)
                            }
                            Ok(r) => Err(format!(
                                "status {}: {}",
                                r.status,
                                String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
                            )),
                            Err(e) => Err(e),
                        };
                        if let Err(e) = &verdict {
                            errors
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(format!("submission {sub}: {e}"));
                        }
                        out.push(Send {
                            sub,
                            cold: is_cold[k],
                            secs,
                            ok: verdict.is_ok(),
                        });
                    }
                    out
                })
            })
            .collect();
        let sends: Vec<Send> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let gauges = sampler.map(|h| h.join().expect("gauge sampler panicked"));
        (sends, gauges)
    });
    server.shutdown();
    server.join();
    let wall_s = t0.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir)?;
    let (queue_depth_max, workers_busy_frac) = gauges.unwrap_or((0.0, 0.0));
    Ok(Pass {
        wall_s,
        sends,
        queue_depth_max,
        workers_busy_frac,
    })
}

/// Polls the daemon's queue-depth and busy-worker gauges until `stop`;
/// returns (deepest queue, mean busy share of the workers).
fn sample_gauges(stop: &AtomicBool) -> (f64, f64) {
    let mut depth_max: f64 = 0.0;
    let mut busy_sum = 0.0;
    let mut samples = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let r = Registry::snapshot();
        depth_max = depth_max.max(r.value("duplo_serve_queue_depth"));
        busy_sum += r.value("duplo_serve_workers_busy");
        samples += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    (depth_max, busy_sum / samples.max(1) as f64 / WORKERS as f64)
}

/// The body the daemon should serve for submission `kind`, computed in
/// process with the run cache bypassed.
pub fn in_process_body(kind: &SubmitKind, body: &[u8]) -> Result<Vec<u8>, String> {
    let _fresh = cache::bypass();
    let defaults = server_defaults(None);
    match kind {
        SubmitKind::Experiment { name, .. } => {
            let spec = experiments::find_experiment(name)
                .ok_or_else(|| format!("no experiment {name:?}"))?;
            let doc = parse_body(body)?;
            let overlay = doc.get("options").ok_or("body has no options")?;
            let opts = defaults.merge_wire(overlay)?;
            Ok((spec.run)(&opts).result.to_pretty().into_bytes())
        }
        SubmitKind::Wtrace { .. } => {
            let doc = parse_body(body)?;
            let records = wtrace::decode(doc.get("wtrace").ok_or("body has no wtrace")?)
                .map_err(|e| e.to_string())?;
            let cfg = defaults.apply(GpuConfig::titan_v());
            let kernels: Vec<Json> = records
                .into_iter()
                .map(|record| {
                    let num_ctas = record.num_ctas;
                    let kernel = wtrace::TraceKernel::new(record);
                    let r = GpuSim::with_options(cfg.clone(), defaults.clone()).run(&kernel);
                    Json::obj()
                        .field("name", duplo_isa::Kernel::name(&kernel))
                        .field("num_ctas", num_ctas as u64)
                        .field("result", cache::result_to_json(&r))
                        .build()
                })
                .collect();
            Ok(Json::obj()
                .field("schema", duplo_sim::results::SCHEMA_VERSION)
                .field("kernels", Json::Arr(kernels))
                .build()
                .to_pretty()
                .into_bytes())
        }
    }
}

/// Parses a request or response body.
pub fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    parse(text)
}
