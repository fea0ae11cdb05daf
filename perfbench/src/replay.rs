//! Layer replay timers: the workload's own generated streams fed through
//! one layer's public functions at a time, each call inside a span named
//! after the layer.

use std::collections::VecDeque;
use std::time::Instant;

use duplo_core::{DetectionUnit, LoadDecision, LoadToken, PhysReg};
use duplo_isa::{CtaTrace, Op, Space};
use duplo_mem::{AddrDec, MemoryHierarchy};
use duplo_noc::Crossbar;

use crate::gen::SimOp;
use crate::spans::Spans;

/// The materialized sampled CTAs of one op.
pub struct OpTraces {
    /// Index of the op.
    pub op: usize,
    /// Sampled CTAs, in simulation order.
    pub ctas: Vec<CtaTrace>,
}

/// Instruction count of a set of CTAs.
pub fn instr_count(ctas: &[CtaTrace]) -> u64 {
    ctas.iter()
        .flat_map(|c| &c.warps)
        .map(|w| w.ops.len() as u64)
        .sum()
}

/// Generates every op's sampled CTAs (`Kernel::cta`) inside `kernels`
/// spans.
pub fn gen_traces(ops: &[SimOp], spans: &Spans) -> Vec<OpTraces> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let idx = op.simulated_ctas();
            let _span = spans.enter("kernels", i as u64, None);
            OpTraces {
                op: i,
                ctas: idx.iter().map(|&c| op.kernel.cta(c)).collect(),
            }
        })
        .collect()
}

/// Global-memory accesses of a CTA set in issue-like order (warps
/// interleaved instruction by instruction): `(addr, bytes, tensor)`, one
/// entry per tensor-core row-segment or ordinary load.
pub fn global_loads(ctas: &[CtaTrace]) -> Vec<(u64, u32, bool)> {
    let mut out = Vec::new();
    for cta in ctas {
        let longest = cta.warps.iter().map(|w| w.ops.len()).max().unwrap_or(0);
        for pc in 0..longest {
            for w in &cta.warps {
                match w.ops.get(pc) {
                    Some(&Op::WmmaLoad {
                        addr,
                        rows,
                        seg_bytes,
                        row_stride,
                        space: Space::Global,
                        ..
                    }) => {
                        for r in 0..u64::from(rows) {
                            out.push((addr + r * row_stride, u32::from(seg_bytes), true));
                        }
                    }
                    Some(&Op::Ld {
                        addr,
                        bytes,
                        space: Space::Global,
                        ..
                    }) => out.push((addr, bytes, false)),
                    _ => {}
                }
            }
        }
    }
    out
}

/// Host time and call count of one replayed layer.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Timing {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent in them.
    pub ns: f64,
}

impl Timing {
    /// Nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.ns, self.calls as f64)
    }

    fn add(&mut self, calls: u64, t: Instant) {
        self.calls += calls;
        self.ns += t.elapsed().as_nanos() as f64;
    }
}

/// Entries an LHB replay keeps live before retiring the oldest load.
const RETIRE_WINDOW: usize = 512;

/// `DetectionUnit::probe_load` over the tensor-core row-segments of every
/// op that runs with an LHB on a workspace kernel.
pub fn core_replay(ops: &[SimOp], traces: &[OpTraces], spans: &Spans) -> Timing {
    let mut t = Timing::default();
    for tr in traces {
        let op = &ops[tr.op];
        let (Some(lhb), Some(ws)) = (op.cfg.sm.lhb, op.kernel.workspace()) else {
            continue;
        };
        let segs: Vec<(u64, u64)> = global_loads(&tr.ctas)
            .into_iter()
            .filter(|l| l.2)
            .map(|(a, b, _)| (a, u64::from(b)))
            .collect();
        let mut unit = DetectionUnit::new(&ws, lhb, 0);
        let mut live = VecDeque::with_capacity(RETIRE_WINDOW + 1);
        let _span = spans.enter("core", tr.op as u64, None);
        let start = Instant::now();
        for (n, &(addr, bytes)) in segs.iter().enumerate() {
            let token = LoadToken(n as u64);
            if unit.probe_load(addr, bytes, token) == LoadDecision::Miss {
                unit.record_fill(addr, bytes, PhysReg(n as u32), token);
            }
            live.push_back(token);
            if live.len() > RETIRE_WINDOW {
                if let Some(old) = live.pop_front() {
                    unit.retire(old);
                }
            }
        }
        t.add(segs.len() as u64, start);
    }
    t
}

/// `MemoryHierarchy::load` over every op's global loads, on the op's own
/// memory side (flat or sliced); an access the MSHRs reject is retried at
/// the next MSHR fill, as the SM's event wheel does.
pub fn mem_replay(ops: &[SimOp], traces: &[OpTraces], spans: &Spans) -> Timing {
    let mut t = Timing::default();
    for tr in traces {
        let loads = global_loads(&tr.ctas);
        let mut mem = MemoryHierarchy::new(ops[tr.op].cfg.sm.hierarchy);
        let _span = spans.enter("mem", tr.op as u64, None);
        let start = Instant::now();
        let mut cycle = 0u64;
        for &(addr, bytes, _) in &loads {
            while mem.load(cycle, addr, bytes).is_none() {
                cycle = mem
                    .next_mshr_fill(cycle)
                    .map_or(cycle + 1, |c| c.max(cycle + 1));
            }
            cycle += 1;
        }
        t.add(loads.len() as u64, start);
    }
    t
}

/// `AddrDec::map` plus a request and a response crossbar transfer for
/// every global load line of the ops that run on a sliced L2.
pub fn noc_replay(ops: &[SimOp], traces: &[OpTraces], spans: &Spans) -> Timing {
    let mut t = Timing::default();
    for tr in traces {
        let h = ops[tr.op].cfg.sm.hierarchy;
        if h.l2_slices == 0 {
            continue;
        }
        let line_bytes = h.l1.line_bytes as u64;
        let lines: Vec<u64> = global_loads(&tr.ctas)
            .iter()
            .map(|&(a, _, _)| a / line_bytes)
            .collect();
        let dec = AddrDec::new(h.l2_slices, h.hash);
        let mut xbar = Crossbar::new(h.l2_slices, h.noc);
        let _span = spans.enter("noc", tr.op as u64, None);
        let start = Instant::now();
        for (cycle, &line) in lines.iter().enumerate() {
            let (slice, _) = dec.map(line);
            let arrive = xbar.req(slice).request(cycle as u64, 32);
            xbar.resp(slice).request(arrive, line_bytes as u32);
        }
        t.add(lines.len() as u64, start);
    }
    t
}

/// `duplo_sm::run_kernel_mode` (the SM model alone, no whole-GPU fold or
/// cache) for the ops at `pick`; returns host time per simulated cycle.
pub fn sm_replay(ops: &[SimOp], pick: &[usize], spans: &Spans) -> Timing {
    let mut t = Timing::default();
    for &i in pick {
        let op = &ops[i];
        let ctas = op.simulated_ctas();
        let _span = spans.enter("sm", i as u64, None);
        let start = Instant::now();
        let stats = duplo_sm::run_kernel_mode(op.kernel.as_ref(), &ctas, op.cfg.sm.clone(), false);
        t.add(stats.cycles, start);
    }
    t
}
