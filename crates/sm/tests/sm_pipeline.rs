//! End-to-end tests of the SM pipeline: scheduling, barriers, memory
//! behaviour, and the Duplo detection path.

use duplo_core::LhbConfig;
use duplo_isa::{ArchReg, CtaTrace, Kernel, Op, Space, WarpTrace, WorkspaceDesc};
use duplo_sm::{SchedulerPolicy, SmConfig, run_kernel_mode};

/// A kernel over explicit CTA traces.
struct TestKernel {
    ctas: Vec<CtaTrace>,
    shared: u32,
    workspace: Option<WorkspaceDesc>,
}

impl Kernel for TestKernel {
    fn name(&self) -> &str {
        "test"
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

/// A workspace descriptor for a 16-channel 3x3 unit-stride conv on a
/// 16x16 input: `fw*C = 48` elements, so 16-element segments never cross
/// filter-row boundaries.
fn ws_desc(base: u64) -> WorkspaceDesc {
    let out = 16u32; // pad 1 keeps dims
    let row_len = 3 * 3 * 16u64; // 144 elements
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

#[test]
fn empty_kernel_finishes_immediately() {
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace {
                ops: vec![Op::Exit],
            }],
        }],
        shared: 0,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0], config(), false);
    assert!(stats.cycles < 10);
    assert_eq!(stats.ctas_run, 1);
}

#[test]
fn alu_chain_respects_latencies() {
    // 10 dependent ALU ops of latency 4 take at least 40 cycles.
    let mut ops = Vec::new();
    for _ in 0..10 {
        ops.push(Op::Alu {
            dst: Some(ArchReg(0)),
            latency: 4,
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
    let stats = run_kernel_mode(&k, &[0], config(), false);
    assert!(stats.cycles >= 40, "got {}", stats.cycles);
    assert!(stats.cycles < 60, "got {}", stats.cycles);
}

#[test]
fn barrier_synchronizes_cta() {
    // Warp 0 does long ALU work before the barrier; warp 1 reaches it
    // immediately. Both must pass together.
    let slow = WarpTrace {
        ops: vec![
            Op::Alu {
                dst: Some(ArchReg(0)),
                latency: 100,
            },
            Op::Alu {
                dst: Some(ArchReg(0)),
                latency: 100,
            },
            Op::Bar,
            Op::Exit,
        ],
    };
    let fast = WarpTrace {
        ops: vec![Op::Bar, Op::Exit],
    };
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![slow, fast],
        }],
        shared: 0,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0], config(), false);
    // Warp 1 must wait for warp 0's ~200 cycles of ALU latency.
    assert!(
        stats.cycles >= 200,
        "barrier released early: {}",
        stats.cycles
    );
    assert_eq!(stats.ctas_run, 1);
}

#[test]
fn baseline_load_traverses_hierarchy() {
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace {
                ops: vec![frag_load(0, 0x10_0000, 288), Op::Exit],
            }],
        }],
        shared: 0,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0], config(), false);
    assert_eq!(stats.issued_tensor_loads, 1);
    assert_eq!(stats.row_loads, 16);
    assert!(stats.services.dram > 0, "cold rows must reach DRAM");
    assert_eq!(stats.services.lhb, 0);
    assert!(stats.mem.dram_bytes > 0);
}

#[test]
fn duplicate_fragment_hits_lhb_and_saves_traffic() {
    let base = 0x10_0000u64;
    let desc = ws_desc(base);
    let row_stride = desc.row_len() * 2; // one workspace row apart
    // Two loads of the same fragment to different registers: the second
    // must be fully eliminated.
    let ops = vec![
        frag_load(0, base, row_stride),
        frag_load(1, base, row_stride),
        Op::Exit,
    ];
    let mk = |lhb: Option<LhbConfig>| {
        let k = TestKernel {
            ctas: vec![CtaTrace {
                warps: vec![WarpTrace { ops: ops.clone() }],
            }],
            shared: 0,
            workspace: Some(desc),
        };
        let mut cfg = config();
        cfg.lhb = lhb;
        cfg.rename_log_cap = 100;
        run_kernel_mode(&k, &[0], cfg, false)
    };

    let baseline = mk(None);
    let duplo = mk(Some(LhbConfig::paper_default()));

    assert_eq!(duplo.eliminated_loads, 16, "second fragment fully renamed");
    assert_eq!(duplo.services.lhb, 16);
    assert_eq!(baseline.services.lhb, 0);
    // Same-address duplicates hit the L1 in the baseline, so DRAM traffic
    // ties here; the savings appear in L1/L2 accesses and latency.
    assert!(duplo.mem.dram_bytes <= baseline.mem.dram_bytes);
    assert!(
        duplo.mem.l1_hits + duplo.mem.l1_misses < baseline.mem.l1_hits + baseline.mem.l1_misses,
        "duplo must touch the L1 less: {:?} vs {:?}",
        duplo.mem,
        baseline.mem
    );
    assert!(duplo.cycles <= baseline.cycles);
    assert_eq!(duplo.lhb.hits, 16);
    // The rename log pairs identical addresses (same fragment loaded twice).
    assert!(!duplo.rename_pairs.is_empty());
    for (a, b) in &duplo.rename_pairs {
        assert_eq!(a, b);
    }
}

#[test]
fn duplicate_rows_at_different_addresses_hit() {
    // Inter-patch duplication: workspace rows `flat` and `flat + out_w` share
    // element IDs at k-offsets differing by fw*C (paper Fig. 5/6). Build two
    // fragment loads whose 16 rows pairwise carry equal element IDs.
    let base = 0x10_0000u64;
    let desc = ws_desc(base);
    let row_len_b = desc.row_len() * 2; // 288 bytes
    // Fragment A: workspace rows 16..31 (one output row = 16 rows here),
    // k-offset = fw*C elements = 96 bytes into the row (filter row r=1).
    let a_addr = base + 16 * row_len_b + 96;
    // Fragment B: workspace rows 32..47 (next output row), r=0 (k-offset 0).
    let b_addr = base + 32 * row_len_b;
    let ops = vec![
        frag_load(0, a_addr, row_len_b),
        frag_load(1, b_addr, row_len_b),
        Op::Exit,
    ];
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace { ops }],
        }],
        shared: 0,
        workspace: Some(desc),
    };
    let mut cfg = config();
    cfg.lhb = Some(LhbConfig::oracle());
    let stats = run_kernel_mode(&k, &[0], cfg, false);
    assert_eq!(
        stats.eliminated_loads, 16,
        "all 16 rows of the second fragment are duplicates (got {} of 32 rows, lhb hits {})",
        stats.eliminated_loads, stats.lhb.hits
    );
}

#[test]
fn no_workspace_descriptor_means_baseline_behaviour() {
    let ops = vec![
        frag_load(0, 0x10_0000, 288),
        frag_load(1, 0x10_0000, 288),
        Op::Exit,
    ];
    let mk = |ws: Option<WorkspaceDesc>, lhb: Option<LhbConfig>| {
        let k = TestKernel {
            ctas: vec![CtaTrace {
                warps: vec![WarpTrace { ops: ops.clone() }],
            }],
            shared: 0,
            workspace: ws,
        };
        let mut cfg = config();
        cfg.lhb = lhb;
        run_kernel_mode(&k, &[0], cfg, false)
    };
    // Duplo enabled but the kernel has no workspace: detection unit stays
    // power-gated; behaviour identical to baseline.
    let base = mk(None, None);
    let gated = mk(None, Some(LhbConfig::paper_default()));
    assert_eq!(base.cycles, gated.cycles);
    assert_eq!(base.mem.dram_bytes, gated.mem.dram_bytes);
    assert_eq!(gated.eliminated_loads, 0);
}

#[test]
fn runs_are_deterministic() {
    let base = 0x10_0000u64;
    let desc = ws_desc(base);
    let mut warps = Vec::new();
    for w in 0..8u64 {
        let mut ops = Vec::new();
        for i in 0..6u64 {
            ops.push(frag_load(
                i as u16,
                base + (w * 7 + i * 3) % 32 * desc.row_len() * 2,
                desc.row_len() * 2,
            ));
        }
        ops.push(Op::Exit);
        warps.push(WarpTrace { ops });
    }
    let k = TestKernel {
        ctas: vec![CtaTrace { warps }],
        shared: 0,
        workspace: Some(desc),
    };
    let mut cfg = config();
    cfg.lhb = Some(LhbConfig::paper_default());
    let a = run_kernel_mode(&k, &[0], cfg.clone(), false);
    let b = run_kernel_mode(&k, &[0], cfg, false);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.eliminated_loads, b.eliminated_loads);
    assert_eq!(a.mem.dram_bytes, b.mem.dram_bytes);
    assert_eq!(a.lhb.hits, b.lhb.hits);
}

#[test]
fn lrr_policy_also_completes() {
    let mut cfg = config();
    cfg.policy = SchedulerPolicy::Lrr;
    let warps = (0..4)
        .map(|_| WarpTrace {
            ops: vec![frag_load(0, 0x10_0000, 288), Op::Exit],
        })
        .collect();
    let k = TestKernel {
        ctas: vec![CtaTrace { warps }],
        shared: 0,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0], cfg, false);
    assert_eq!(stats.issued_tensor_loads, 4);
}

#[test]
fn shared_memory_limits_concurrent_ctas() {
    // Each CTA claims 48 KB of a 96 KB SM: at most 2 resident at once.
    // 4 CTAs of pure ALU latency 100 serialize into >= 2 waves.
    let cta = CtaTrace {
        warps: vec![WarpTrace {
            ops: vec![
                Op::Alu {
                    dst: Some(ArchReg(0)),
                    latency: 100,
                },
                Op::Alu {
                    dst: Some(ArchReg(0)),
                    latency: 100,
                },
                Op::Exit,
            ],
        }],
    };
    let k = TestKernel {
        ctas: vec![cta.clone(), cta.clone(), cta.clone(), cta],
        shared: 48 * 1024,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0, 1, 2, 3], config(), false);
    assert!(
        stats.cycles >= 400,
        "4 CTAs with 2-resident limit must take 2+ waves: {}",
        stats.cycles
    );
    assert_eq!(stats.ctas_run, 4);
}

#[test]
fn mma_throughput_bounded_by_tensor_cores() {
    // 64 independent MMAs per warp on 1 warp: 2 TCs per scheduler, ii=8:
    // at best one MMA per 8 cycles per TC, but a single warp issues 1/cycle;
    // with 2 TCs the warp sustains 2 MMAs per 8 cycles.
    let mut ops = Vec::new();
    for i in 0..64u16 {
        ops.push(Op::WmmaMma {
            d: ArchReg(8 + i % 8),
            a: ArchReg(0),
            b: ArchReg(1),
            c: ArchReg(8 + i % 8),
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
    let stats = run_kernel_mode(&k, &[0], config(), false);
    assert_eq!(stats.issued_mma, 64);
    // 64 MMAs / 2 TCs * 8 cycles = 256 cycles lower bound.
    assert!(stats.cycles >= 256, "got {}", stats.cycles);
}

#[test]
fn store_does_not_block_and_counts_traffic() {
    let ops = vec![
        Op::WmmaStore {
            src: ArchReg(0),
            addr: 0x40_0000,
            rows: 16,
            seg_bytes: 32,
            row_stride: 512,
            space: Space::Global,
        },
        Op::Exit,
    ];
    let k = TestKernel {
        ctas: vec![CtaTrace {
            warps: vec![WarpTrace { ops }],
        }],
        shared: 0,
        workspace: None,
    };
    let stats = run_kernel_mode(&k, &[0], config(), false);
    assert_eq!(stats.mem.stores, 16);
    assert_eq!(stats.mem.store_bytes, 512);
    assert!(stats.cycles < 100, "stores must not wait for DRAM");
}
