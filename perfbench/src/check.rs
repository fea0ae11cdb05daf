//! Correctness checks on the program's outputs. A failed check counts the
//! operation it belongs to as failed.

use duplo_sim::{GpuRunResult, GpuSim, RunOptions};
use duplo_sm::SmStats;

use crate::gen::{SimOp, sim_options};

/// Every scheduler slot either issues or lands in one stall bucket, and
/// every LHB probe is either a hit or a miss.
pub fn stats_invariants(s: &SmStats, schedulers: usize) -> Result<(), String> {
    let slots = s.cycles * schedulers as u64;
    let accounted = s.issued_total() + s.stalls.total();
    if accounted != slots {
        return Err(format!(
            "issued + stalls = {accounted}, cycles x schedulers = {slots}"
        ));
    }
    let probes = s.detect.workspace_loads;
    if s.lhb.hits + s.lhb.misses != probes {
        return Err(format!(
            "lhb hits {} + misses {} != probes {probes}",
            s.lhb.hits, s.lhb.misses
        ));
    }
    Ok(())
}

/// Two results of the same simulation must be identical.
pub fn same_result(expected: &GpuRunResult, got: &GpuRunResult) -> Result<(), String> {
    let (e, g) = (format!("{expected:?}"), format!("{got:?}"));
    if e == g {
        return Ok(());
    }
    let at = e
        .bytes()
        .zip(g.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(e.len().min(g.len()));
    let from = at.saturating_sub(40);
    Err(format!(
        "results differ at byte {at}: expected ..{}.. got ..{}..",
        &e[from..(at + 40).min(e.len())],
        &g[from..(at + 40).min(g.len())]
    ))
}

/// Re-runs `op` on the tick-by-tick reference loop (the repository's
/// oracle for the event-driven loop) and compares with `result`.
pub fn reference_check(op: &SimOp, result: &GpuRunResult) -> Result<(), String> {
    let opts = RunOptions {
        tick_reference: true,
        ..sim_options()
    };
    let reference = GpuSim::with_options(op.cfg.clone(), opts).run(op.kernel.as_ref());
    same_result(&reference, result).map_err(|e| format!("{}: vs reference loop: {e}", op.label))
}

/// A served body must be byte-identical to the one it is compared with.
pub fn same_body(expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "bodies differ at byte {at} (lengths {} and {})",
        expected.len(),
        got.len()
    ))
}

/// Checks of one simulator workload run: every outcome of every pass
/// satisfies the statistics invariants and equals the first pass's result
/// for the same op, and the ops at `reference` agree with the reference
/// loop. The ops at `invalid` already failed a check in set-up (a CTA that
/// does not validate) and fail in every pass. Returns `(failed ops,
/// messages)`; an op counts once per pass it failed in.
pub fn check_sim(
    ops: &[SimOp],
    passes: &[&[crate::simwork::Outcome]],
    reference: &[usize],
    invalid: &[usize],
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut msgs = Vec::new();
    let Some(first) = passes.first() else {
        return (0, msgs);
    };
    let mut bad_op = vec![false; ops.len()];
    for &i in invalid {
        bad_op[i] = true;
    }
    for &i in reference {
        if let Some(r) = &first[i].result {
            if let Err(e) = reference_check(&ops[i], r) {
                bad_op[i] = true;
                msgs.push(e);
            }
        }
    }
    for pass in passes {
        for (i, o) in pass.iter().enumerate() {
            let res = match (&o.result, &first[i].result) {
                (None, _) | (_, None) => Err(format!("{}: run panicked", ops[i].label)),
                (Some(r), Some(f)) => stats_invariants(&r.stats, ops[i].cfg.sm.schedulers)
                    .and_then(|()| same_result(f, r))
                    .map_err(|e| format!("{}: {e}", ops[i].label)),
            };
            if let Err(e) = res {
                if msgs.len() < 20 {
                    msgs.push(e);
                }
                failed += 1;
            } else if bad_op[i] {
                failed += 1;
            }
        }
    }
    (failed, msgs)
}
