//! Randomized SM pipeline tests: arbitrary well-formed kernels must run to
//! completion (no deadlock), and the statistics must stay self-consistent.
//!
//! Runs on the hermetic `duplo_testkit::prop` runner; set `DUPLO_TEST_SEED`
//! to reproduce a failure (the panic message prints the seed to use).

use duplo_core::LhbConfig;
use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_sm::{SmConfig, run_kernel_mode};
use duplo_testkit::prop::check;
use duplo_testkit::{Rng, require_eq};

struct FuzzKernel {
    ctas: Vec<CtaTrace>,
    workspace: Option<WorkspaceDesc>,
}

impl Kernel for FuzzKernel {
    fn name(&self) -> &str {
        "fuzz"
    }
    fn num_ctas(&self) -> usize {
        self.ctas.len()
    }
    fn cta(&self, idx: usize) -> CtaTrace {
        self.ctas[idx].clone()
    }
    fn shared_mem_per_cta(&self) -> u32 {
        1024
    }
    fn regs_per_warp(&self) -> u32 {
        16
    }
    fn workspace(&self) -> Option<WorkspaceDesc> {
        self.workspace
    }
}

fn ws_desc() -> WorkspaceDesc {
    WorkspaceDesc {
        base: 0x10_0000,
        bytes: 256 * 144 * 2,
        elem_bytes: 2,
        row_stride_elems: 144,
        input_w: 16,
        channels: 16,
        fw: 3,
        fh: 3,
        out_w: 16,
        out_h: 16,
        stride: 1,
        pad: 1,
        batch: 1,
    }
}

/// Generates a well-formed warp: random mix of ALU, loads, MMAs and a
/// final Exit; barriers are emitted CTA-uniformly (same count per warp) to
/// avoid ill-formed programs.
fn arb_warp(ops_seed: &[(u8, u8)], barriers: usize) -> WarpTrace {
    let mut ops = Vec::new();
    let bar_every = if barriers > 0 {
        (ops_seed.len() / (barriers + 1)).max(1)
    } else {
        usize::MAX
    };
    for (i, (kind, arg)) in ops_seed.iter().enumerate() {
        match kind % 4 {
            0 => ops.push(Op::Alu {
                dst: Some(ArchReg(u16::from(arg % 4))),
                latency: 2 + arg % 6,
            }),
            1 => ops.push(Op::WmmaLoad {
                dst: ArchReg(u16::from(arg % 4)),
                addr: 0x10_0000 + u64::from(*arg) * 288,
                rows: 4 + (arg % 12),
                seg_bytes: 32,
                row_stride: 288,
                space: if arg % 5 == 0 {
                    Space::Shared
                } else {
                    Space::Global
                },
            }),
            2 => ops.push(Op::WmmaMma {
                d: ArchReg(8 + u16::from(arg % 4)),
                a: ArchReg(u16::from(arg % 4)),
                b: ArchReg(u16::from((arg / 4) % 4)),
                c: ArchReg(8 + u16::from(arg % 4)),
            }),
            _ => ops.push(Op::St {
                src: ArchReg(8),
                addr: 0x40_0000 + u64::from(*arg) * 64,
                bytes: 64,
                space: Space::Global,
            }),
        }
        if i % bar_every == bar_every - 1 {
            ops.push(Op::Bar);
        }
    }
    // Close any trailing barrier imbalance by construction: all warps in a
    // CTA get the same ops_seed length and bar_every, so counts match.
    ops.push(Op::Exit);
    WarpTrace { ops }
}

#[derive(Debug)]
struct Case {
    ops_seed: Vec<(u8, u8)>,
    warps: usize,
    barriers: usize,
    duplo: bool,
}

fn arb_case(rng: &mut Rng) -> Option<Case> {
    let len = rng.gen_range(1usize..40);
    let ops_seed = (0..len)
        .map(|_| (rng.gen_range(0u8..4), rng.gen_range(0u8..=255)))
        .collect();
    Some(Case {
        ops_seed,
        warps: rng.gen_range(1usize..5),
        barriers: rng.gen_range(0usize..3),
        duplo: rng.gen_bool(0.5),
    })
}

/// Any generated kernel completes, with and without Duplo, and the
/// statistics add up.
#[test]
fn random_kernels_complete_and_stats_are_consistent() {
    check(
        "random_kernels_complete_and_stats_are_consistent",
        24,
        arb_case,
        |case| {
            let cta = CtaTrace {
                warps: (0..case.warps)
                    .map(|_| arb_warp(&case.ops_seed, case.barriers))
                    .collect(),
            };
            let kernel = FuzzKernel {
                ctas: vec![cta.clone(), cta],
                workspace: Some(ws_desc()),
            };
            let mut cfg = SmConfig::titan_v(80);
            if case.duplo {
                cfg.lhb = Some(LhbConfig::direct_mapped(64));
            }
            let stats = run_kernel_mode(&kernel, &[0, 1], cfg, false);
            require_eq!(stats.ctas_run, 2);
            // Every eliminated load was served by the LHB.
            require_eq!(stats.eliminated_loads, stats.services.lhb);
            // Row loads are global tensor rows: they equal the global service
            // events minus scalar loads (this fuzz issues no scalar loads).
            require_eq!(
                stats.services.total_global(),
                stats.row_loads,
                "every tensor row must be attributed to exactly one level"
            );
            if !case.duplo {
                require_eq!(stats.services.lhb, 0);
                require_eq!(stats.lhb.hits + stats.lhb.misses, 0);
            }
            // Determinism.
            let mut cfg2 = SmConfig::titan_v(80);
            if case.duplo {
                cfg2.lhb = Some(LhbConfig::direct_mapped(64));
            }
            let kernel2 = FuzzKernel {
                ctas: (0..2).map(|i| kernel.cta(i)).collect(),
                workspace: Some(ws_desc()),
            };
            let stats2 = run_kernel_mode(&kernel2, &[0, 1], cfg2, false);
            require_eq!(stats.cycles, stats2.cycles);
            Ok(())
        },
    );
}
