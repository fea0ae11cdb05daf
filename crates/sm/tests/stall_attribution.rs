//! Directed tests of the scheduler-slot accounting identity behind the
//! exported stall-attribution metrics: every scheduler slot of every cycle
//! either issues exactly one instruction or lands in exactly one
//! [`StallBreakdown`] category, so
//!
//! ```text
//! issued_total + stalls.total() == cycles * schedulers
//! ```
//!
//! must hold exactly for any kernel, baseline or Duplo.

use duplo_core::LhbConfig;
use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_sm::{SmConfig, SmStats, run_kernel_mode};

struct TestKernel {
    ctas: Vec<CtaTrace>,
    shared: u32,
    workspace: Option<WorkspaceDesc>,
}

impl Kernel for TestKernel {
    fn name(&self) -> &str {
        "stall-attr"
    }
    fn num_ctas(&self) -> usize {
        self.ctas.len()
    }
    fn cta(&self, idx: usize) -> CtaTrace {
        self.ctas[idx].clone()
    }
    fn shared_mem_per_cta(&self) -> u32 {
        self.shared
    }
    fn regs_per_warp(&self) -> u32 {
        16
    }
    fn workspace(&self) -> Option<WorkspaceDesc> {
        self.workspace
    }
}

fn config() -> SmConfig {
    SmConfig::titan_v(80)
}

/// Same workspace geometry as the pipeline tests: 16-channel 3x3 conv on
/// a 16x16 input, 144-element rows.
fn ws_desc(base: u64) -> WorkspaceDesc {
    let out = 16u32;
    let row_len = 3 * 3 * 16u64;
    let rows = u64::from(out) * u64::from(out);
    WorkspaceDesc {
        base,
        bytes: rows * row_len * 2,
        elem_bytes: 2,
        row_stride_elems: 144,
        input_w: 16,
        channels: 16,
        fw: 3,
        fh: 3,
        out_w: out,
        out_h: out,
        stride: 1,
        pad: 1,
        batch: 1,
    }
}

fn frag_load(dst: u16, addr: u64, row_stride: u64) -> Op {
    Op::WmmaLoad {
        dst: ArchReg(dst),
        addr,
        rows: 16,
        seg_bytes: 32,
        row_stride,
        space: Space::Global,
    }
}

/// Asserts the accounting identity and the per-pipe bound on a run.
fn assert_accounted(stats: &SmStats, schedulers: usize, label: &str) {
    let slots = stats.cycles * schedulers as u64;
    assert_eq!(
        stats.issued_total() + stats.stalls.total(),
        slots,
        "{label}: issued {} + stalls {:?} (total {}) must equal {} cycles x {} schedulers",
        stats.issued_total(),
        stats.stalls,
        stats.stalls.total(),
        stats.cycles,
        schedulers,
    );
    // One LDST pipe per scheduler, each ticking at most once per cycle.
    assert!(
        stats.ldst_pipe_stalls <= slots,
        "{label}: ldst_pipe_stalls {} exceeds pipe-cycle budget {slots}",
        stats.ldst_pipe_stalls,
    );
}

/// A mixed kernel (loads, MMAs, dependent ALU work, barriers) across
/// several warps: the identity must hold exactly, and the tail plus the
/// dependence chains must show up in their categories.
#[test]
fn scheduler_slots_are_fully_accounted() {
    let base = 0x10_0000u64;
    let desc = ws_desc(base);
    let row_stride = desc.row_len() * 2;
    let mut warps = Vec::new();
    for w in 0..6u64 {
        let mut ops = Vec::new();
        for i in 0..4u64 {
            ops.push(frag_load(
                i as u16,
                base + ((w * 5 + i * 3) % 32) * row_stride,
                row_stride,
            ));
        }
        // A dependent ALU chain keeps this warp unissuable for stretches.
        for _ in 0..4 {
            ops.push(Op::Alu {
                dst: Some(ArchReg(8)),
                latency: 20,
            });
        }
        ops.push(Op::WmmaMma {
            d: ArchReg(9),
            a: ArchReg(0),
            b: ArchReg(1),
            c: ArchReg(9),
        });
        ops.push(Op::Bar);
        ops.push(Op::Exit);
        warps.push(WarpTrace { ops });
    }
    let k = TestKernel {
        ctas: vec![CtaTrace { warps }],
        shared: 0,
        workspace: Some(desc),
    };

    let cfg = config();
    let schedulers = cfg.schedulers;
    let baseline = run_kernel_mode(&k, &[0], cfg.clone(), false);
    assert_accounted(&baseline, schedulers, "baseline");
    assert!(baseline.stalls.empty > 0, "tail cycles must count as empty");
    assert!(
        baseline.stalls.data_dependency > 0,
        "ALU chains must stall on operands"
    );
    assert!(baseline.stalls.barrier > 0, "barrier waits must be counted");

    let mut duplo_cfg = cfg;
    duplo_cfg.lhb = Some(LhbConfig::paper_default());
    let duplo = run_kernel_mode(&k, &[0], duplo_cfg, false);
    assert_accounted(&duplo, schedulers, "duplo");
    assert!(duplo.eliminated_loads > 0, "workspace reuse must rename");
}

/// Back-to-back independent fragment loads from many warps overwhelm the
/// 8-entry LDST queues: the `ldst_full` category must fire, and the
/// identity must still balance to the cycle.
#[test]
fn ldst_queue_pressure_is_attributed() {
    let base = 0x10_0000u64;
    let mut warps = Vec::new();
    for w in 0..8u64 {
        let mut ops = Vec::new();
        for i in 0..12u64 {
            // Distinct cold addresses so every load occupies its queue slot
            // for a full memory round-trip.
            ops.push(frag_load(
                (i % 8) as u16,
                base + (w * 12 + i) * 0x2000,
                0x400,
            ));
        }
        ops.push(Op::Exit);
        warps.push(WarpTrace { ops });
    }
    let k = TestKernel {
        ctas: vec![CtaTrace { warps }],
        shared: 0,
        workspace: None,
    };
    let cfg = config();
    let schedulers = cfg.schedulers;
    let stats = run_kernel_mode(&k, &[0], cfg, false);
    assert_accounted(&stats, schedulers, "ldst pressure");
    assert!(
        stats.stalls.ldst_full > 0,
        "saturated LDST queues must be attributed: {:?}",
        stats.stalls
    );
    assert_eq!(stats.issued_tensor_loads, 8 * 12);
}

/// A single warp spamming dependent MMAs saturates its tensor cores:
/// `tensor_busy` must fire and the identity must balance.
#[test]
fn tensor_core_pressure_is_attributed() {
    let mut ops = Vec::new();
    for i in 0..32u16 {
        ops.push(Op::WmmaMma {
            d: ArchReg(8 + i % 4),
            a: ArchReg(0),
            b: ArchReg(1),
            c: ArchReg(8 + i % 4),
        });
    }
    ops.push(Op::Exit);
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace { ops }],
        }],
        shared: 0,
        workspace: None,
    };
    let cfg = config();
    let schedulers = cfg.schedulers;
    let stats = run_kernel_mode(&k, &[0], cfg, false);
    assert_accounted(&stats, schedulers, "mma pressure");
    assert_eq!(stats.issued_mma, 32);
    assert!(
        stats.stalls.tensor_busy + stats.stalls.data_dependency > 0,
        "back-to-back MMAs must stall on TCs or operands: {:?}",
        stats.stalls
    );
}
