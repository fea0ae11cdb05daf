//! Generated workload library beyond the paper's two GEMM shapes.
//!
//! ROADMAP item 2's workload half: attention GEMM chains, batched small
//! GEMMs, grouped/depthwise convolution, the kn2row low-memory lowering
//! ("Low-memory GEMM-based convolution algorithms", PAPERS.md), and an
//! adversarial memory-bound streaming kernel ("Can Tensor Cores Benefit
//! Memory-Bound Kernels? (No!)", PAPERS.md). Each is a registry
//! experiment, so all of them record and replay through
//! [`crate::wtrace`] like the paper figures.
//!
//! The adversarial entries pin down when Duplo must *not* help: kernels
//! with no lowered-convolution workspace (attention, streaming) leave the
//! detection unit power-gated, so their Duplo speedup is exactly 1.0.

use super::RunOptions;
use crate::json::Json;
use crate::report::{Table, fmt_pct_plain, gmean};
use crate::results::{ExperimentResult, opts_json};
use crate::{GpuConfig, GpuRunResult, GpuSim};
use duplo_conv::ConvParams;
use duplo_core::LhbConfig;
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy, StreamKernel};
use duplo_tensor::Nhwc;

/// One workload item: a kernel simulated baseline-vs-Duplo, scaled by how
/// many identical launches the item stands for (batch entries, attention
/// heads, convolution groups, kn2row's per-filter-offset GEMMs).
#[derive(Clone, Debug)]
pub struct WlRow {
    /// Item label within the workload.
    pub item: String,
    /// Kernel name.
    pub kernel: String,
    /// Identical launches this row stands for (pure cycle scaling).
    pub launches: usize,
    /// Total baseline cycles (per-launch cycles × launches).
    pub base_cycles: f64,
    /// Total Duplo cycles.
    pub duplo_cycles: f64,
    /// LHB hit rate of the Duplo run.
    pub lhb_hit_rate: f64,
    /// Row-segment elimination rate of the Duplo run.
    pub elimination: f64,
}

impl WlRow {
    /// Duplo speedup (`baseline / duplo`; 1.0 = no effect).
    pub fn speedup(&self) -> f64 {
        self.base_cycles / self.duplo_cycles
    }
}

/// Simulates every kernel twice — baseline (LHB off) and Duplo (paper
/// default LHB) — fanning the whole grid out over the runner pool, then
/// folds each `(item, launches)` descriptor with its pair into a row.
fn run_rows(
    items: &[(String, usize)],
    kernels: &[Box<dyn Kernel>],
    gpu: &GpuConfig,
    opts: &RunOptions,
) -> Vec<WlRow> {
    assert_eq!(items.len(), kernels.len());
    let jobs: Vec<(usize, bool)> = (0..kernels.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let results: Vec<GpuRunResult> = crate::runner::par_map_opt(opts, &jobs, |&(i, duplo)| {
        let mut cfg = gpu.clone();
        cfg.sm.lhb = duplo.then(LhbConfig::paper_default);
        GpuSim::with_options(cfg, opts.clone()).run(kernels[i].as_ref())
    });
    let mut it = results.into_iter();
    items
        .iter()
        .zip(kernels)
        .map(|((item, launches), kernel)| {
            let base = it.next().expect("one baseline run per kernel");
            let duplo = it.next().expect("one Duplo run per kernel");
            WlRow {
                item: item.clone(),
                kernel: kernel.name().to_string(),
                launches: *launches,
                base_cycles: base.cycles * *launches as f64,
                duplo_cycles: duplo.cycles * *launches as f64,
                lhb_hit_rate: duplo.stats.lhb.hit_rate(),
                elimination: duplo.stats.elimination_rate(),
            }
        })
        .collect()
}

/// Shared structured result for every workload in this module.
fn result_rows(
    name: &'static str,
    title: &'static str,
    rows: &[WlRow],
    opts: &RunOptions,
) -> ExperimentResult {
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("item", r.item.as_str())
                .field("kernel", r.kernel.as_str())
                .field("launches", r.launches)
                .field("base_cycles", r.base_cycles)
                .field("duplo_cycles", r.duplo_cycles)
                .field("speedup", r.speedup())
                .field("lhb_hit_rate", r.lhb_hit_rate)
                .field("elimination", r.elimination)
                .build()
        })
        .collect();
    let sp: Vec<f64> = rows.iter().map(WlRow::speedup).collect();
    let summary = Json::obj().field("gmean_speedup", gmean(&sp)).build();
    ExperimentResult::new(name, title, opts_json(opts), json_rows, summary)
}

/// Shared summary table for every workload in this module.
fn render_rows(title: &str, note: &str, rows: &[WlRow]) -> String {
    let mut t = Table::new(
        title,
        &[
            "item",
            "kernel",
            "n",
            "base cyc",
            "duplo cyc",
            "speedup",
            "LHB hits",
            "elim",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.item.clone(),
            r.kernel.clone(),
            r.launches.to_string(),
            format!("{:.0}", r.base_cycles),
            format!("{:.0}", r.duplo_cycles),
            format!("{:.2}x", r.speedup()),
            fmt_pct_plain(r.lhb_hit_rate),
            fmt_pct_plain(r.elimination),
        ]);
    }
    let sp: Vec<f64> = rows.iter().map(WlRow::speedup).collect();
    t.push_row(vec![
        "gmean".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        gmean(&sp).map_or("-".into(), |g| format!("{g:.2}x")),
        String::new(),
        String::new(),
    ]);
    t.note(note);
    t.render()
}

/// Attention GEMM chain: one transformer head's `Q·Kᵀ` and `P·V` GEMMs,
/// scaled to 8 heads. Plain GEMMs with no lowered workspace — adversarial
/// for Duplo, whose detection unit stays power-gated (speedup 1.0).
pub mod attention {
    use super::*;

    /// Registry name.
    pub const NAME: &str = "wl_attention";
    /// Registry title.
    pub const TITLE: &str = "WL — attention GEMM chain (no workspace: Duplo inert)";
    const HEADS: usize = 8;

    /// Runs the workload.
    pub fn run(opts: &RunOptions) -> Vec<WlRow> {
        let gpu = opts.apply(GpuConfig::titan_v());
        // seq=128, d_head=64: scores = Q(128x64)·Kᵀ(64x128), out = P(128x128)·V(128x64).
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(GemmTcKernel::new(128, 128, 64, SmemPolicy::COnly)),
            Box::new(GemmTcKernel::new(128, 64, 128, SmemPolicy::COnly)),
        ];
        let items = vec![
            ("Q.K^T per head".to_string(), HEADS),
            ("P.V per head".to_string(), HEADS),
        ];
        run_rows(&items, &kernels, &gpu, opts)
    }

    /// Structured result.
    pub fn result(rows: &[WlRow], opts: &RunOptions) -> ExperimentResult {
        result_rows(NAME, TITLE, rows, opts)
    }

    /// Summary table.
    pub fn render(rows: &[WlRow]) -> String {
        render_rows(
            TITLE,
            "no convolution workspace -> LHB power-gated, speedup exactly 1.0",
            rows,
        )
    }
}

/// Batched small convolution GEMMs: lowered 3×3 layers small enough that
/// a kernel's whole workspace is LHB-resident reuse distance — the shapes
/// cuDNN batches rather than runs one-by-one.
pub mod batched {
    use super::*;

    /// Registry name.
    pub const NAME: &str = "wl_batched_gemm";
    /// Registry title.
    pub const TITLE: &str = "WL — batched small convolution GEMMs";

    /// Runs the workload.
    pub fn run(opts: &RunOptions) -> Vec<WlRow> {
        let gpu = opts.apply(GpuConfig::titan_v());
        let layers = [
            (Nhwc::new(8, 14, 14, 32), 64usize),
            (Nhwc::new(4, 14, 14, 48), 96),
            (Nhwc::new(16, 7, 7, 32), 64),
        ];
        let mut items = Vec::new();
        let mut kernels: Vec<Box<dyn Kernel>> = Vec::new();
        for (input, filters) in layers {
            let p = ConvParams::new(input, filters, 3, 3, 1, 1)
                .expect("workload layer shapes are valid");
            items.push((
                format!(
                    "b{} {}x{}x{} -> {}",
                    input.n, input.h, input.w, input.c, filters
                ),
                1,
            ));
            kernels.push(Box::new(GemmTcKernel::from_conv(&p, SmemPolicy::COnly)));
        }
        run_rows(&items, &kernels, &gpu, opts)
    }

    /// Structured result.
    pub fn result(rows: &[WlRow], opts: &RunOptions) -> ExperimentResult {
        result_rows(NAME, TITLE, rows, opts)
    }

    /// Summary table.
    pub fn render(rows: &[WlRow]) -> String {
        render_rows(
            TITLE,
            "small lowered GEMMs: the whole workspace fits the LHB reuse window",
            rows,
        )
    }
}

/// Grouped and depthwise convolution: one 14×14, C=64→64 3×3 layer at
/// group counts 1/4/16/64. Groups are independent convolutions of C/G
/// channels; one group is simulated and cycles scale by G.
pub mod grouped {
    use super::*;

    /// Registry name.
    pub const NAME: &str = "wl_grouped_conv";
    /// Registry title.
    pub const TITLE: &str = "WL — grouped/depthwise convolution (G = 1..64)";

    /// Runs the workload.
    pub fn run(opts: &RunOptions) -> Vec<WlRow> {
        let gpu = opts.apply(GpuConfig::titan_v());
        let mut items = Vec::new();
        let mut kernels: Vec<Box<dyn Kernel>> = Vec::new();
        for g in [1usize, 4, 16, 64] {
            let p = ConvParams::new(Nhwc::new(4, 14, 14, 64 / g), 64 / g, 3, 3, 1, 1)
                .expect("workload layer shapes are valid");
            let label = if g == 64 {
                "G=64 (depthwise)".to_string()
            } else {
                format!("G={g}")
            };
            items.push((label, g));
            kernels.push(Box::new(GemmTcKernel::from_conv(&p, SmemPolicy::COnly)));
        }
        run_rows(&items, &kernels, &gpu, opts)
    }

    /// Structured result.
    pub fn result(rows: &[WlRow], opts: &RunOptions) -> ExperimentResult {
        result_rows(NAME, TITLE, rows, opts)
    }

    /// Summary table.
    pub fn render(rows: &[WlRow]) -> String {
        render_rows(
            TITLE,
            "per-group K dim shrinks with G: depthwise leaves little to eliminate",
            rows,
        )
    }
}

/// kn2row lowering vs im2col: one 28×28, C=64→64 3×3 layer either as one
/// im2col GEMM (9× duplicated workspace) or as kn2row's nine 1×1-GEMM
/// passes over the unexpanded input (duplication factor 1).
pub mod kn2row {
    use super::*;

    /// Registry name.
    pub const NAME: &str = "wl_kn2row";
    /// Registry title.
    pub const TITLE: &str = "WL — kn2row lowering vs im2col";

    /// Runs the workload.
    pub fn run(opts: &RunOptions) -> Vec<WlRow> {
        let gpu = opts.apply(GpuConfig::titan_v());
        let input = Nhwc::new(4, 28, 28, 64);
        let im2col =
            ConvParams::new(input, 64, 3, 3, 1, 1).expect("workload layer shapes are valid");
        // kn2row: one K=C GEMM per filter offset, 3*3 of them, each over
        // the unexpanded input (a 1x1 convolution's workspace).
        let one_by_one =
            ConvParams::new(input, 64, 1, 1, 0, 1).expect("workload layer shapes are valid");
        let items = vec![
            ("im2col 3x3".to_string(), 1),
            ("kn2row 9 x 1x1".to_string(), 9),
        ];
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(GemmTcKernel::from_conv(&im2col, SmemPolicy::COnly)),
            Box::new(GemmTcKernel::from_conv(&one_by_one, SmemPolicy::COnly)),
        ];
        run_rows(&items, &kernels, &gpu, opts)
    }

    /// Structured result.
    pub fn result(rows: &[WlRow], opts: &RunOptions) -> ExperimentResult {
        result_rows(NAME, TITLE, rows, opts)
    }

    /// Summary table.
    pub fn render(rows: &[WlRow]) -> String {
        render_rows(
            TITLE,
            "kn2row's duplication factor is 1: little for Duplo, 9x less workspace",
            rows,
        )
    }
}

/// Adversarial memory-bound streaming kernel: pure load/compute/store with
/// every address touched once and no tensor-core traffic. The LHB has
/// nothing to probe, so Duplo's speedup is exactly 1.0.
pub mod membound {
    use super::*;

    /// Registry name.
    pub const NAME: &str = "wl_membound";
    /// Registry title.
    pub const TITLE: &str = "WL — memory-bound streaming kernel (adversarial)";

    /// Runs the workload.
    pub fn run(opts: &RunOptions) -> Vec<WlRow> {
        let gpu = opts.apply(GpuConfig::titan_v());
        let items = vec![("stream 64 CTAs x 8 warps x 128 lines".to_string(), 1)];
        let kernels: Vec<Box<dyn Kernel>> = vec![Box::new(StreamKernel::new(64, 8, 128))];
        run_rows(&items, &kernels, &gpu, opts)
    }

    /// Structured result.
    pub fn result(rows: &[WlRow], opts: &RunOptions) -> ExperimentResult {
        result_rows(NAME, TITLE, rows, opts)
    }

    /// Summary table.
    pub fn render(rows: &[WlRow]) -> String {
        render_rows(
            TITLE,
            "no tensor-core loads, no duplicates: Duplo must not (and does not) help",
            rows,
        )
    }
}

/// L2 slice camping: the same strided streaming kernel under a sliced L2,
/// once with a modulo partition hash (every line lands on slice 0 because
/// the stride is a multiple of the slice count) and once with the
/// XOR-folded hash that spreads the stride across slices. The camped run
/// funnels all traffic through one slice's port/DRAM queues and pays for
/// it in cycles.
pub mod slice_camp {
    use super::*;
    use duplo_mem::HashKind;

    /// Registry name.
    pub const NAME: &str = "wl_slice_camp";
    /// Registry title.
    pub const TITLE: &str = "WL — L2 slice camping: mod hash vs XOR-folded spread";
    /// L2 slices in both runs.
    pub const SLICES: usize = 4;
    /// Access stride in cache lines — a multiple of [`SLICES`], so the
    /// modulo hash maps the whole footprint to one slice.
    pub const STRIDE_LINES: u64 = 4;

    /// One hash configuration's run, with its per-slice access profile.
    #[derive(Clone, Debug)]
    pub struct CampRow {
        /// Row label (`mod (camped)` / `xor (spread)`).
        pub item: String,
        /// Partition hash label.
        pub hash: String,
        /// End-to-end cycles of the run.
        pub cycles: f64,
        /// Per-slice access counts, slice index order.
        pub slice_accesses: Vec<u64>,
        /// Hottest slice index.
        pub hot_slice: usize,
        /// Hottest slice's share of all slice accesses (1.0 = camped).
        pub hot_share: f64,
        /// Hottest slice's summed port + DRAM queue delay (cycles).
        pub hot_queue_delay: f64,
        /// Summed port + DRAM queue delay of every other slice.
        pub rest_queue_delay: f64,
    }

    fn row(item: &str, hash: HashKind, r: &GpuRunResult) -> CampRow {
        let accesses: Vec<u64> = r.stats.slices.iter().map(|s| s.accesses).collect();
        let total: u64 = accesses.iter().sum();
        let hot = accesses
            .iter()
            .enumerate()
            .max_by_key(|&(_, a)| a)
            .map_or(0, |(i, _)| i);
        let delay =
            |i: usize| r.stats.slices[i].port_queue_delay + r.stats.slices[i].dram_queue_delay;
        CampRow {
            item: item.to_string(),
            hash: hash.label().to_string(),
            cycles: r.cycles,
            hot_slice: hot,
            hot_share: if total == 0 {
                0.0
            } else {
                accesses[hot] as f64 / total as f64
            },
            hot_queue_delay: delay(hot),
            rest_queue_delay: (0..accesses.len()).filter(|&i| i != hot).map(delay).sum(),
            slice_accesses: accesses,
        }
    }

    /// Runs the workload: one strided stream per hash kind.
    pub fn run(opts: &RunOptions) -> Vec<CampRow> {
        let kernel = StreamKernel::strided(16, 4, 32, STRIDE_LINES);
        let hashes = [
            ("mod (camped)", HashKind::Mod),
            ("xor (spread)", HashKind::XorFold),
        ];
        let results: Vec<GpuRunResult> = crate::runner::par_map_opt(opts, &hashes, |&(_, hash)| {
            let mut cfg = opts.apply(GpuConfig::titan_v());
            cfg.sm.lhb = None;
            cfg.sm.hierarchy = cfg.sm.hierarchy.sliced(SLICES, hash);
            GpuSim::with_options(cfg, opts.clone()).run(&kernel)
        });
        hashes
            .iter()
            .zip(&results)
            .map(|(&(item, hash), r)| row(item, hash, r))
            .collect()
    }

    /// Structured result.
    pub fn result(rows: &[CampRow], opts: &RunOptions) -> ExperimentResult {
        let json_rows: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj()
                    .field("item", r.item.as_str())
                    .field("hash", r.hash.as_str())
                    .field("cycles", r.cycles)
                    .field(
                        "slice_accesses",
                        Json::Arr(r.slice_accesses.iter().map(|&a| Json::from(a)).collect()),
                    )
                    .field("hot_slice", r.hot_slice)
                    .field("hot_share", r.hot_share)
                    .field("hot_queue_delay", r.hot_queue_delay)
                    .field("rest_queue_delay", r.rest_queue_delay)
                    .build()
            })
            .collect();
        let slowdown = match rows {
            [camp, spread, ..] if spread.cycles > 0.0 => Some(camp.cycles / spread.cycles),
            _ => None,
        };
        let mut summary = Json::obj()
            .field("slices", SLICES)
            .field("stride_lines", STRIDE_LINES);
        if let Some(s) = slowdown {
            summary = summary.field("camp_over_spread", s);
        }
        ExperimentResult::new(NAME, TITLE, opts_json(opts), json_rows, summary.build())
    }

    /// Summary table.
    pub fn render(rows: &[CampRow]) -> String {
        let mut t = Table::new(
            TITLE,
            &[
                "item",
                "hash",
                "cycles",
                "hot slice",
                "hot share",
                "hot qdelay",
                "rest qdelay",
            ],
        );
        for r in rows {
            t.push_row(vec![
                r.item.clone(),
                r.hash.clone(),
                format!("{:.0}", r.cycles),
                r.hot_slice.to_string(),
                fmt_pct_plain(r.hot_share),
                format!("{:.0}", r.hot_queue_delay),
                format!("{:.0}", r.rest_queue_delay),
            ]);
        }
        t.note(&format!(
            "stride {STRIDE_LINES} lines on {SLICES} slices: mod hash camps on one slice, xor spreads"
        ));
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOptions {
        RunOptions {
            sample_ctas: Some(2),
            ..RunOptions::default()
        }
    }

    #[test]
    fn membound_speedup_is_exactly_one() {
        let rows = membound::run(&quick());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(
            r.base_cycles, r.duplo_cycles,
            "memory-bound stream must be unaffected by Duplo"
        );
        assert_eq!(r.speedup(), 1.0);
        assert_eq!(r.lhb_hit_rate, 0.0, "LHB must never hit: nothing probes it");
        assert_eq!(r.elimination, 0.0);
    }

    #[test]
    fn attention_without_workspace_leaves_duplo_inert() {
        let rows = attention::run(&quick());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(
                r.base_cycles, r.duplo_cycles,
                "{}: plain GEMM has no workspace, LHB is power-gated",
                r.item
            );
            assert_eq!(r.lhb_hit_rate, 0.0);
        }
    }

    #[test]
    fn batched_convs_benefit_from_duplo() {
        let rows = batched::run(&quick());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.elimination > 0.0,
                "{}: a 3x3 lowered GEMM must have duplicate rows to lift",
                r.item
            );
            assert!(r.speedup() >= 1.0, "{}: Duplo must not slow down", r.item);
        }
    }

    #[test]
    fn grouping_starves_duplo_of_duplicates() {
        let rows = grouped::run(&quick());
        assert_eq!(rows.len(), 4);
        // Full-channel conv (G=1) has rows to lift; per-group K shrinks
        // with G until there is nothing left, and Duplo never hurts.
        assert!(
            rows[0].elimination > 0.0,
            "G=1 must expose duplicate workspace rows"
        );
        assert!(
            rows[0].elimination >= rows[3].elimination,
            "depthwise (G=64, K=9) must not out-eliminate full-channel conv"
        );
        for r in &rows {
            assert!(r.speedup() >= 1.0, "{}: Duplo must not slow down", r.item);
        }
    }

    #[test]
    fn slice_camping_costs_cycles_and_spreading_recovers_them() {
        let rows = slice_camp::run(&quick());
        assert_eq!(rows.len(), 2);
        let (camp, spread) = (&rows[0], &rows[1]);
        assert_eq!(
            camp.hot_share, 1.0,
            "mod hash with a stride-of-slices footprint must camp on one slice"
        );
        assert!(
            spread.slice_accesses.iter().filter(|&&a| a > 0).count() > 1,
            "xor hash must spread the same footprint across slices"
        );
        assert_eq!(
            camp.slice_accesses.iter().sum::<u64>(),
            spread.slice_accesses.iter().sum::<u64>(),
            "both hashes see the same access stream"
        );
        assert!(
            camp.cycles > spread.cycles,
            "camping ({}) must cost cycles over spreading ({})",
            camp.cycles,
            spread.cycles
        );
        assert!(
            camp.hot_queue_delay > spread.hot_queue_delay,
            "the camped slice's queues must dominate any spread slice's"
        );
    }

    #[test]
    fn kn2row_has_less_duplication_and_less_workspace() {
        let rows = kn2row::run(&quick());
        assert_eq!(rows.len(), 2);
        let (im2col, kn2row) = (&rows[0], &rows[1]);
        assert!(
            im2col.elimination > kn2row.elimination,
            "im2col ({:.3}) must expose more duplication than kn2row ({:.3})",
            im2col.elimination,
            kn2row.elimination
        );
    }
}
