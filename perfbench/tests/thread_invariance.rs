//! The simulated per-layer counts do not depend on the thread count.

use duplo_mem::HashKind;
use perfbench::gen::{self, ConvPoint, Lhb, StreamPoint};
use perfbench::registry::Registry;
use perfbench::simwork::{SimCounts, run_pass};
use perfbench::spans::Spans;

fn counts(ops: &[gen::SimOp], threads: usize) -> SimCounts {
    let before = Registry::snapshot();
    let pass = run_pass(
        ops,
        &(0..ops.len()).collect::<Vec<_>>(),
        threads,
        &Spans::new(false),
        0,
    );
    SimCounts::of_pass(&pass, &before, &Registry::snapshot())
}

#[test]
fn sim_counts_identical_at_one_and_two_threads() {
    let conv: Vec<ConvPoint> = [0usize, 12, 16]
        .iter()
        .flat_map(|&layer| {
            [Lhb::Baseline, Lhb::Direct(256), Lhb::Oracle].map(|lhb| ConvPoint {
                layer,
                batch: None,
                lhb,
            })
        })
        .collect();
    let streams: Vec<StreamPoint> = [(4, HashKind::Mod, 4), (8, HashKind::XorFold, 3)]
        .iter()
        .map(|&(slices, hash, stride)| StreamPoint {
            slices,
            hash,
            warps: 4,
            iters: 64,
            stride,
        })
        .collect();
    let mut ops = gen::conv_ops(&conv);
    ops.extend(gen::stream_ops(&streams));
    let one = counts(&ops, 1);
    let two = counts(&ops, 2);
    assert_eq!(one, two);
    assert!(one.lhb_hits > 0 && one.xbar_delay_cycles > 0.0 && one.cycles_skipped > 0);
    assert_eq!(one.runs, ops.len() as u64);
}
