//! The correctness checks accept real results and reject corrupted ones.

use perfbench::check::{check_sim, same_body, same_result, stats_invariants};
use perfbench::gen::{self, ConvPoint, Lhb};
use perfbench::simwork::run_pass;
use perfbench::spans::Spans;

fn small_ops() -> Vec<gen::SimOp> {
    // ResNet/C1 and YOLO/C1: the cheapest Table I layers.
    let points: Vec<ConvPoint> = [0usize, 16]
        .iter()
        .flat_map(|&layer| {
            [Lhb::Baseline, Lhb::Direct(1024)].map(|lhb| ConvPoint {
                layer,
                batch: None,
                lhb,
            })
        })
        .collect();
    gen::conv_ops(&points)
}

#[test]
fn checks_pass_on_real_results_and_fail_on_corrupted_ones() {
    let ops = small_ops();
    let pass = run_pass(
        &ops,
        &(0..ops.len()).collect::<Vec<_>>(),
        1,
        &Spans::new(false),
        0,
    );
    let outcomes = pass.outcomes.as_slice();
    let (failed, msgs) = check_sim(&ops, &[outcomes, outcomes], &[1], &[]);
    assert_eq!(failed, 0, "{msgs:?}");

    let good = outcomes[1].result.clone().expect("run completed");
    assert!(good.stats.lhb.hits > 0, "the LHB op must exercise the LHB");
    stats_invariants(&good.stats, 4).expect("invariants hold");

    let mut bad = good.clone();
    bad.stats.issued_mma += 1;
    assert!(stats_invariants(&bad.stats, 4).is_err());
    assert!(same_result(&good, &bad).is_err());

    let mut bad = good.clone();
    bad.stats.lhb.hits += 1;
    bad.stats.lhb.misses -= 1;
    assert!(
        stats_invariants(&bad.stats, 4).is_ok(),
        "hits + misses unchanged"
    );
    bad.stats.lhb.misses += 1;
    assert!(stats_invariants(&bad.stats, 4).is_err());

    let mut bad = good.clone();
    bad.cycles += 1.0;
    let mut corrupted = outcomes.to_vec();
    corrupted[1].result = Some(bad);
    let (failed, msgs) = check_sim(&ops, &[outcomes, &corrupted], &[], &[]);
    assert_eq!(failed, 1, "{msgs:?}");

    let mut panicked = outcomes.to_vec();
    panicked[0].result = None;
    let (failed, _) = check_sim(&ops, &[outcomes, &panicked], &[], &[]);
    assert_eq!(failed, 1);

    // An op whose CTAs failed validation in set-up fails in every pass.
    let (failed, _) = check_sim(&ops, &[outcomes, outcomes], &[], &[2]);
    assert_eq!(failed, 2);
}

#[test]
fn body_check_rejects_a_flipped_byte() {
    let body = br#"{"result": 1}"#.to_vec();
    assert!(same_body(&body, &body.clone()).is_ok());
    let mut flipped = body.clone();
    flipped[11] = b'2';
    assert!(same_body(&body, &flipped).is_err());
    assert!(same_body(&body, &body[..5]).is_err());
}
