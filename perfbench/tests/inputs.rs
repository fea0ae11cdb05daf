//! The generated inputs are a pure function of the seed.

use perfbench::gen::{self, SubmitKind};

fn serve_fingerprint(seed: u64) -> Vec<u8> {
    let plan = gen::serve_plan(seed);
    let mut out = format!("{plan:?}").into_bytes();
    for s in &plan.submissions {
        if matches!(s, SubmitKind::Experiment { .. }) {
            out.extend(gen::submit_body(s));
        }
    }
    out
}

#[test]
fn same_seed_gives_identical_inputs() {
    for seed in [0, 1, 0xDEAD_BEEF] {
        assert_eq!(
            format!("{:?}", gen::conv_plan(seed)),
            format!("{:?}", gen::conv_plan(seed))
        );
        assert_eq!(
            format!("{:?}", gen::stream_plan(seed)),
            format!("{:?}", gen::stream_plan(seed))
        );
        assert_eq!(serve_fingerprint(seed), serve_fingerprint(seed));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    assert_ne!(gen::conv_plan(1), gen::conv_plan(2));
    assert_ne!(gen::stream_plan(1), gen::stream_plan(2));
    assert_ne!(serve_fingerprint(1), serve_fingerprint(2));
}

#[test]
fn wtrace_bodies_are_deterministic_and_in_size_range() {
    // The smallest eligible layer keeps this quick in a debug build.
    let layer = *gen::wtrace_layers()
        .iter()
        .min_by_key(|&&l| {
            let p = duplo_conv::layers::all_layers()[l].lowered();
            duplo_kernels::GemmTcKernel::from_conv(&p, duplo_kernels::SmemPolicy::COnly)
                .padded_dims()
                .2
        })
        .expect("eligible layers");
    let kind = SubmitKind::Wtrace { layer };
    let body = gen::submit_body(&kind);
    assert_eq!(body, gen::submit_body(&kind));
    assert!(body.len() >= 100_000, "body of {} bytes", body.len());
}

#[test]
fn plans_keep_their_shape_across_seeds() {
    for seed in 0..20 {
        let conv = gen::conv_plan(seed);
        assert_eq!(conv.len(), 66);
        // The fixed Fig. 9 grid comes first, in layer order.
        for (i, p) in conv[..44].iter().enumerate() {
            assert_eq!(p.layer, i / 2);
            assert_eq!(p.batch, None);
        }
        assert_eq!(gen::stream_plan(seed).len(), 96);
        let serve = gen::serve_plan(seed);
        assert_eq!(serve.submissions.len(), 24);
        assert_eq!(serve.sequence.len(), 78);
        let mut first = serve.pass_sequence(0);
        let mut later = serve.pass_sequence(3);
        assert_eq!(first, serve.sequence);
        assert_ne!(first, later, "each pass has an order of its own");
        first.sort_unstable();
        later.sort_unstable();
        assert_eq!(first, later, "every pass sends the same submissions");
    }
}
