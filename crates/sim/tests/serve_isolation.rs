//! Per-submission isolation in `duplo serve`: every run-affecting value —
//! cache counters, trace sink — belongs to its submission, so concurrent
//! submissions neither serialize behind each other nor bleed into each
//! other's responses.
//!
//! * Each response's `X-Duplo-Cache-Hits/Misses` headers count exactly
//!   that submission's own lookups, under a mixed cold/warm storm.
//! * Two traced submissions of different experiments make progress at
//!   the same time, and their trace artifacts are byte-identical to the
//!   same submissions run one after the other.
//! * Two identical concurrent traced submissions simulate each kernel once.
//!
//! Every test uses its own sampling (part of the cache key), so tests
//! sharing the process-wide memory tier cannot warm each other.

use std::time::{Duration, Instant};

use duplo_sim::RunOptions;
use duplo_sim::json::{Json, parse};
use duplo_sim::serve::{HttpReply, ServeOptions, Server, http_request};

fn start(workers: usize, cache_dir: Option<std::path::PathBuf>) -> (Server, String) {
    let server = Server::start(ServeOptions {
        workers,
        defaults: RunOptions {
            threads: Some(1),
            cache_dir,
            ..RunOptions::default()
        },
        explicit_sample: true,
        ..ServeOptions::default()
    })
    .expect("server must bind an ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

fn body(experiment: &str, sample: u64, no_cache: bool, trace: bool) -> String {
    Json::obj()
        .field("experiment", experiment)
        .field(
            "options",
            Json::obj()
                .field("sample_ctas", sample)
                .field("no_cache", no_cache)
                .build(),
        )
        .field("trace", trace)
        .build()
        .to_pretty()
}

fn submit(addr: &str, body: &str) -> HttpReply {
    let reply = http_request(addr, "POST", "/v1/submit", Some(body.as_bytes()))
        .expect("submission must not be dropped");
    assert_eq!(
        reply.status,
        200,
        "submission failed: {}",
        String::from_utf8_lossy(&reply.body)
    );
    reply
}

/// The reply's `(hits, misses)` headers.
fn counts(reply: &HttpReply) -> (u64, u64) {
    let header = |name: &str| -> u64 {
        reply
            .header(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("reply lacks a numeric {name} header"))
    };
    (header("x-duplo-cache-hits"), header("x-duplo-cache-misses"))
}

/// The trace document a traced submission produced.
fn artifact(addr: &str, reply: &HttpReply) -> Vec<u8> {
    let key = reply.header("x-duplo-artifact").expect("traced reply");
    let got = http_request(addr, "GET", &format!("/v1/artifacts/{key}"), None).expect("fetch");
    assert_eq!(got.status, 200);
    got.body
}

/// One job's `(state, cycles)` from `/v1/progress` (`None` before the
/// daemon registered it).
fn progress(addr: &str, job: &str) -> Option<(String, u64)> {
    let reply = http_request(addr, "GET", &format!("/v1/progress/{job}"), None).expect("poll");
    if reply.status == 404 {
        return None;
    }
    let doc = parse(std::str::from_utf8(&reply.body).unwrap()).expect("progress parses");
    let state = doc.get("state").and_then(Json::as_str).expect("state");
    let cycles = doc.get("cycles").and_then(Json::as_u64).expect("cycles");
    Some((state.to_string(), cycles))
}

fn job_of(body: &str) -> String {
    duplo_sim::digest::hex(duplo_sim::digest::digest_bytes(body.as_bytes()))
}

#[test]
fn concurrent_submissions_report_their_own_cache_work() {
    let dir = std::env::temp_dir().join(format!("duplo-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, addr) = start(4, Some(dir.clone()));
    let warm = body("wl_membound", 3, false, false);
    let cold = body("wl_attention", 3, false, false);

    // A solo cold run simulates every one of its lookups.
    let (hits, lookups_warm) = counts(&submit(&addr, &warm));
    assert_eq!(hits, 0, "the first run of a fresh key space cannot hit");
    assert!(lookups_warm > 0);

    // 24 concurrent submissions: half re-run the warmed experiment, half
    // run a cold one whose kernels the storm simulates exactly once.
    let replies: Vec<(bool, HttpReply)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24)
            .map(|i| {
                let (is_warm, b) = if i % 2 == 0 {
                    (true, &warm)
                } else {
                    (false, &cold)
                };
                let addr = &addr;
                scope.spawn(move || (is_warm, submit(addr, b)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut cold_lookups = None;
    let mut cold_misses = 0;
    for (is_warm, reply) in &replies {
        let (hits, misses) = counts(reply);
        if *is_warm {
            assert_eq!(
                (hits, misses),
                (lookups_warm, 0),
                "a warm submission reports only its own hits, whatever runs beside it"
            );
        } else {
            let own = *cold_lookups.get_or_insert(hits + misses);
            assert_eq!(
                hits + misses,
                own,
                "every cold submission does the same lookups"
            );
            cold_misses += misses;
        }
    }
    assert_eq!(
        Some(cold_misses),
        cold_lookups,
        "the cold storm simulates each of its kernels exactly once"
    );
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_submissions_run_concurrently_and_match_serial() {
    // Two workers for the submissions, two for the progress polls.
    let (server, addr) = start(4, None);
    // Uncached, so every run is simulated and recorded with a timeline
    // however the two submissions interleave; each runs a few seconds in
    // debug builds, long enough to overlap.
    let bodies = [
        body("smem_policy", 4, true, true),
        body("ext_implicit", 4, true, true),
    ];
    let jobs = [job_of(&bodies[0]), job_of(&bodies[1])];

    let (concurrent, overlapped) = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|b| {
                let addr = &addr;
                scope.spawn(move || submit(addr, b))
            })
            .collect();
        // Both submissions must be running and have finished a kernel at
        // the same moment: the second does not wait for the first.
        let mut overlapped = false;
        let deadline = Instant::now() + Duration::from_secs(600);
        while !overlapped && !handles.iter().all(|h| h.is_finished()) {
            assert!(Instant::now() < deadline, "submissions never finished");
            let both: Vec<_> = jobs.iter().map(|j| progress(&addr, j)).collect();
            overlapped = both
                .iter()
                .all(|p| matches!(p, Some((state, cycles)) if state == "running" && *cycles > 0));
            std::thread::sleep(Duration::from_millis(2));
        }
        let replies: Vec<HttpReply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (replies, overlapped)
    });
    assert!(
        overlapped,
        "two traced submissions must make progress at the same time"
    );
    for (b, reply) in bodies.iter().zip(&concurrent) {
        let serial = submit(&addr, b);
        assert_eq!(serial.body, reply.body, "result bodies match serial runs");
        assert_eq!(
            artifact(&addr, &serial),
            artifact(&addr, reply),
            "trace artifacts match serial runs byte for byte"
        );
    }
    stop(server);
}

#[test]
fn identical_traced_submissions_simulate_each_kernel_once() {
    let (server, addr) = start(2, None);
    let b = body("wl_membound", 5, false, true);
    let replies: Vec<HttpReply> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (addr, b) = (&addr, &b);
                scope.spawn(move || submit(addr, b))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (a, c) = (counts(&replies[0]), counts(&replies[1]));
    let lookups = a.0 + a.1;
    assert!(lookups > 0);
    assert_eq!(c.0 + c.1, lookups, "both submissions do the same lookups");
    assert_eq!(
        a.1 + c.1,
        lookups,
        "each kernel is simulated once across the two traced submissions"
    );
    for reply in &replies {
        assert!(!artifact(&addr, reply).is_empty());
    }
    stop(server);
}
