//! A served body equals the in-process result of the same submission.

use duplo_mem::HashKind;
use duplo_sim::serve::{ServeOptions, Server, http_request};
use perfbench::check::same_body;
use perfbench::gen::{SubmitKind, submit_body};
use perfbench::serve_mix::{in_process_body, server_defaults};

#[test]
fn served_body_matches_in_process_result() {
    let kind = SubmitKind::Experiment {
        name: "wl_membound",
        slices: 2,
        hash: HashKind::Mod,
    };
    let body = submit_body(&kind);
    let server = Server::start(ServeOptions {
        workers: 1,
        defaults: server_defaults(None),
        explicit_sample: true,
        ..ServeOptions::default()
    })
    .expect("bind an ephemeral port");
    let reply = http_request(
        &server.local_addr().to_string(),
        "POST",
        "/v1/submit",
        Some(&body),
    )
    .expect("daemon answers");
    server.shutdown();
    server.join();
    assert_eq!(reply.status, 200);
    let want = in_process_body(&kind, &body).expect("in-process run");
    same_body(&want, &reply.body).expect("served == in-process");
    let mut corrupted = reply.body.clone();
    let last = corrupted.len() - 2;
    corrupted[last] ^= 1;
    assert!(same_body(&want, &corrupted).is_err());
}
