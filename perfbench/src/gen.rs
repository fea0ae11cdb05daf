//! Seeded workload generation: every input the benchmark feeds the
//! program is a pure function of the `--seed` argument.
//!
//! The draws are stratified — each seed picks *which* layer, stride or
//! body fills a slot, while the number of slots of each kind is fixed —
//! so the amount of work per pass barely depends on the seed.

use duplo_conv::layers::{LayerSpec, all_layers};
use duplo_core::LhbConfig;
use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy, StreamKernel};
use duplo_mem::HashKind;
use duplo_sim::json::Json;
use duplo_sim::{GpuConfig, RunOptions, wtrace};
use duplo_testkit::Rng;

/// CTAs simulated per representative SM in every workload.
pub(crate) const SAMPLE_CTAS: usize = 2;

/// Run options shared by the two simulator workloads: sampled, flat L2
/// (streams override the slicing), run cache off, one thread per run.
pub(crate) fn sim_options() -> RunOptions {
    RunOptions {
        sample_ctas: Some(SAMPLE_CTAS),
        threads: Some(1),
        no_cache: true,
        l2_slices: Some(0),
        ..RunOptions::default()
    }
}

/// One simulation: a configuration and the kernel to run on it.
pub struct SimOp {
    /// Human-readable label.
    pub label: String,
    /// Whole-GPU configuration (sampling, memory side and LHB applied).
    pub cfg: GpuConfig,
    /// The kernel.
    pub kernel: Box<dyn Kernel>,
}

impl SimOp {
    /// The CTA indices a run of this op simulates.
    pub fn simulated_ctas(&self) -> Vec<usize> {
        wtrace::simulated_ctas(&self.cfg, self.kernel.num_ctas())
    }
}

// ---------------------------------------------------------------------------
// conv_sweep
// ---------------------------------------------------------------------------

/// The detection-unit setting of one conv point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Lhb {
    /// No Duplo (baseline GPU).
    Baseline,
    /// Direct-mapped LHB with this many entries.
    Direct(usize),
    /// Set-associative LHB: (entries, ways).
    Assoc(usize, usize),
    /// Infinite-capacity oracle LHB.
    Oracle,
}

impl Lhb {
    fn config(self) -> Option<LhbConfig> {
        match self {
            Lhb::Baseline => None,
            Lhb::Direct(n) => Some(LhbConfig::direct_mapped(n)),
            Lhb::Assoc(n, w) => Some(LhbConfig::set_associative(n, w)),
            Lhb::Oracle => Some(LhbConfig::oracle()),
        }
    }
}

/// One conv_sweep point: a Table I layer (optionally re-batched) and an
/// LHB setting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ConvPoint {
    /// Index into [`all_layers`].
    pub layer: usize,
    /// Batch override (Fig. 13), `None` for the Table I batch.
    pub batch: Option<usize>,
    /// Detection-unit setting.
    pub lhb: Lhb,
}

/// Batch sizes of the Fig. 13 draws.
const BATCHES: [usize; 3] = [8, 16, 32];

/// The conv_sweep points for `seed`: the fixed 22-layer × {baseline,
/// direct-mapped 1024} grid (Fig. 9's headline pair) first, then one
/// seeded extra point per layer, drawn from the other Fig. 9/12/13
/// settings with every kind used four or five times.
pub fn conv_plan(seed: u64) -> Vec<ConvPoint> {
    let n = all_layers().len();
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0_5E_EE_D0);
    let mut points = Vec::with_capacity(3 * n);
    for layer in 0..n {
        for lhb in [Lhb::Baseline, Lhb::Direct(1024)] {
            points.push(ConvPoint {
                layer,
                batch: None,
                lhb,
            });
        }
    }
    let mut kinds: Vec<usize> = (0..n).map(|i| i % 5).collect();
    rng.shuffle(&mut kinds);
    for (layer, kind) in kinds.into_iter().enumerate() {
        let (batch, lhb) = match kind {
            0 => (None, Lhb::Direct(256)),
            1 => (None, Lhb::Direct(2048)),
            2 => (None, Lhb::Assoc(1024, 8)),
            3 => (None, Lhb::Oracle),
            _ => (
                Some(BATCHES[rng.gen_index(BATCHES.len())]),
                Lhb::Direct(1024),
            ),
        };
        points.push(ConvPoint { layer, batch, lhb });
    }
    points
}

/// The Table I layer a point runs, with its batch override applied.
fn conv_layer(p: &ConvPoint) -> LayerSpec {
    let layer = &all_layers()[p.layer];
    match p.batch {
        Some(b) => layer.with_batch(b),
        None => layer.clone(),
    }
}

/// Builds the simulations of conv points: explicit GEMM (`SmemPolicy::COnly`)
/// on the flat-L2 Titan V.
pub fn conv_ops(points: &[ConvPoint]) -> Vec<SimOp> {
    let base = sim_options().apply(GpuConfig::titan_v());
    points
        .iter()
        .map(|p| {
            let layer = conv_layer(p);
            let mut cfg = base.clone();
            cfg.sm.lhb = p.lhb.config();
            let kernel = GemmTcKernel::from_conv(&layer.lowered(), SmemPolicy::COnly);
            SimOp {
                label: format!(
                    "{}{}/{:?}",
                    layer.qualified_name(),
                    batch_tag(p.batch),
                    p.lhb
                ),
                cfg,
                kernel: Box::new(kernel),
            }
        })
        .collect()
}

fn batch_tag(batch: Option<usize>) -> String {
    batch.map_or(String::new(), |b| format!("@b{b}"))
}

// ---------------------------------------------------------------------------
// mem_stream
// ---------------------------------------------------------------------------

/// One mem_stream point: a strided streaming kernel on a sliced L2.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamPoint {
    /// L2 slices.
    pub slices: usize,
    /// Line→slice hash.
    pub hash: HashKind,
    /// Warps per CTA.
    pub warps: usize,
    /// Lines each warp streams.
    pub iters: usize,
    /// Stride between consecutive lines, in lines.
    pub stride: u64,
}

/// CTAs in every stream grid: two per SM, so the sampled share of the
/// representative SM holds two CTAs.
const STREAM_CTAS: usize = 160;

/// Targets for the loaded footprint of the simulated CTAs, as multiples
/// of the representative SM's share of the L2.
const FOOTPRINTS: [f64; 3] = [0.25, 1.0, 4.0];

/// Bytes of L2 each representative SM sees (its share of the chip L2).
fn l2_share_bytes() -> usize {
    GpuConfig::titan_v().sm.hierarchy.l2.size_bytes
}

/// Warp counts dealt over the 16 cells of one footprint.
const WARP_DECK: [usize; 16] = [4, 4, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8];

/// Stride magnitudes dealt over the 8 slice-multiple cells of one
/// footprint, as multiples of the slice count.
const CAMP_DECK: [u64; 8] = [1, 1, 1, 2, 2, 2, 3, 3];

/// Strides dealt over the 8 other cells of one footprint: odd, so never a
/// multiple of the slice count.
const ODD_DECK: [u64; 8] = [1, 1, 3, 3, 5, 5, 7, 7];

/// Deals of the decks per footprint: each cell gets this many points.
const STREAM_DEALS: usize = 2;

/// The mem_stream points for `seed`: every (footprint ∈ [`FOOTPRINTS`]) ×
/// (slices ∈ {2,4,8,16}) × (hash ∈ {mod, xor}) × (stride that is / is not
/// a multiple of the slice count) cell [`STREAM_DEALS`] times. Per
/// footprint and deal, the seed deals the warp counts and stride magnitudes
/// of fixed decks over the cells, so the work of a pass barely depends on
/// the seed; two deals put about ten ops, not five, in a pass's slowest
/// tenth, so the 90th percentile does not hang on one op.
pub fn stream_plan(seed: u64) -> Vec<StreamPoint> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x57_8E_A4);
    let l2_lines = l2_share_bytes() / 128;
    let mut points = Vec::new();
    for footprint in FOOTPRINTS.into_iter().flat_map(|f| [f; STREAM_DEALS]) {
        let (mut warp_deck, mut camp_deck, mut odd_deck) = (WARP_DECK, CAMP_DECK, ODD_DECK);
        rng.shuffle(&mut warp_deck);
        rng.shuffle(&mut camp_deck);
        rng.shuffle(&mut odd_deck);
        let (mut warp_deck, mut camp_deck, mut odd_deck) =
            (warp_deck.iter(), camp_deck.iter(), odd_deck.iter());
        for slices in [2usize, 4, 8, 16] {
            for hash in [HashKind::Mod, HashKind::XorFold] {
                for camp in [false, true] {
                    let warps = *warp_deck.next().expect("a warp count per cell");
                    let lines = (footprint * l2_lines as f64).round() as usize;
                    let iters = (lines / (SAMPLE_CTAS * warps)).max(1);
                    let stride = if camp {
                        slices as u64 * camp_deck.next().expect("a stride per cell")
                    } else {
                        *odd_deck.next().expect("a stride per cell")
                    };
                    points.push(StreamPoint {
                        slices,
                        hash,
                        warps,
                        iters,
                        stride,
                    });
                }
            }
        }
    }
    points
}

/// Loaded footprint of a point's simulated CTAs relative to the SM's L2
/// share.
pub fn stream_footprint(p: &StreamPoint) -> f64 {
    (SAMPLE_CTAS * p.warps * p.iters * 128) as f64 / l2_share_bytes() as f64
}

/// Builds the simulations of stream points, with Duplo enabled.
pub fn stream_ops(points: &[StreamPoint]) -> Vec<SimOp> {
    points
        .iter()
        .map(|p| {
            let opts = RunOptions {
                l2_slices: Some(p.slices),
                l2_hash: Some(p.hash),
                ..sim_options()
            };
            let kernel = StreamKernel::strided(STREAM_CTAS, p.warps, p.iters, p.stride);
            // Duplo is on but inert: a stream kernel has no workspace.
            let cfg = opts
                .apply(GpuConfig::titan_v())
                .with_duplo(LhbConfig::paper_default());
            SimOp {
                label: format!("{}/{}{}", kernel.name(), p.hash.label(), p.slices),
                cfg,
                kernel: Box::new(kernel),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------------

/// Closed-loop clients (each waits for its reply before sending again).
pub const CLIENTS: usize = 2;

/// What a submission asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitKind {
    /// An inline wtrace of one Table I layer (index into [`all_layers`]).
    Wtrace {
        /// Layer index.
        layer: usize,
    },
    /// A registry experiment by name with an options overlay.
    Experiment {
        /// Registry name.
        name: &'static str,
        /// `l2_slices` overlay.
        slices: usize,
        /// `l2_hash` overlay.
        hash: HashKind,
    },
}

/// The serve_mix plan: distinct submissions and the order in which the
/// clients send them. A submission's first appearance in a pass is its
/// cold (first-sight) send; every later one is a warm repeat.
#[derive(Clone, Debug, PartialEq)]
pub struct ServePlan {
    /// Distinct submissions.
    pub submissions: Vec<SubmitKind>,
    /// Indices into `submissions` in the first pass's send order; the
    /// clients take the next entry as soon as their previous reply has
    /// arrived.
    pub sequence: Vec<usize>,
    /// Seed of the later passes' orders.
    seed: u64,
}

impl ServePlan {
    /// The send order of pass `pass_no`: the same sends as every pass, in
    /// an order of its own drawn from the seed, so a run averages over
    /// which submissions happen to overlap.
    pub fn pass_sequence(&self, pass_no: u64) -> Vec<usize> {
        let mut seq = self.sequence.clone();
        if pass_no > 0 {
            let mut rng =
                Rng::seed_from_u64(self.seed ^ pass_no.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            rng.shuffle(&mut seq);
        }
        seq
    }
}

/// Table I layers whose sampled wtrace body is at least 0.1 MB: layers
/// with a GEMM depth (K) below this are left out.
const MIN_K: usize = 320;

/// The Table I layers sent as inline-wtrace submissions.
pub fn wtrace_layers() -> Vec<usize> {
    all_layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            GemmTcKernel::from_conv(&l.lowered(), SmemPolicy::COnly)
                .padded_dims()
                .2
                >= MIN_K
        })
        .map(|(i, _)| i)
        .collect()
}

/// Registry experiments that simulate in well under a second, for the
/// by-name submissions.
const EXPERIMENTS: [&str; 6] = [
    "smem_policy",
    "ext_implicit",
    "wl_batched_gemm",
    "wl_grouped_conv",
    "wl_kn2row",
    "wl_membound",
];

/// `sample_ctas` overlay of every by-name submission.
const EXPERIMENT_SAMPLE_CTAS: usize = 1;

/// Sends per pass of each inline-wtrace and each by-name submission.
const WTRACE_SENDS: usize = 3;
/// See [`WTRACE_SENDS`].
const EXPERIMENT_SENDS: usize = 4;

/// The serve_mix plan for `seed`: one inline-wtrace submission per layer
/// of [`wtrace_layers`], sent [`WTRACE_SENDS`] times a pass, and one
/// by-name submission per experiment of [`EXPERIMENTS`] with a seeded
/// memory-side overlay (each experiment gets a different (slices, hash)
/// pair), sent [`EXPERIMENT_SENDS`] times; all in seeded order. The cold
/// share is fixed at one send per submission per pass (about 30%).
pub fn serve_plan(seed: u64) -> ServePlan {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5E_87_E0);
    let mut submissions: Vec<SubmitKind> = wtrace_layers()
        .into_iter()
        .map(|layer| SubmitKind::Wtrace { layer })
        .collect();
    let mut sides: Vec<(usize, HashKind)> = [2usize, 4, 8]
        .iter()
        .flat_map(|&n| [(n, HashKind::Mod), (n, HashKind::XorFold)])
        .collect();
    rng.shuffle(&mut sides);
    for (name, (slices, hash)) in EXPERIMENTS.into_iter().zip(sides) {
        submissions.push(SubmitKind::Experiment { name, slices, hash });
    }
    let mut sequence: Vec<usize> = submissions
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let sends = match s {
                SubmitKind::Wtrace { .. } => WTRACE_SENDS,
                SubmitKind::Experiment { .. } => EXPERIMENT_SENDS,
            };
            std::iter::repeat_n(i, sends)
        })
        .collect();
    rng.shuffle(&mut sequence);
    ServePlan {
        submissions,
        sequence,
        seed,
    }
}

/// The request body of one submission.
pub fn submit_body(kind: &SubmitKind) -> Vec<u8> {
    match kind {
        SubmitKind::Wtrace { layer } => {
            let layer = &all_layers()[*layer];
            let kernel = GemmTcKernel::from_conv(&layer.lowered(), SmemPolicy::COnly);
            let cfg = GpuConfig::titan_v().with_sample(SAMPLE_CTAS);
            let ctas = wtrace::simulated_ctas(&cfg, kernel.num_ctas());
            let record = wtrace::KernelRecord::capture(&kernel, &ctas);
            Json::obj()
                .field("wtrace", wtrace::encode(&[record]))
                .build()
                .to_canonical()
                .into_bytes()
        }
        SubmitKind::Experiment { name, slices, hash } => Json::obj()
            .field("experiment", *name)
            .field(
                "options",
                Json::obj()
                    .field("l2_slices", *slices)
                    .field("l2_hash", hash.label())
                    .field("sample_ctas", EXPERIMENT_SAMPLE_CTAS)
                    .build(),
            )
            .build()
            .to_canonical()
            .into_bytes(),
    }
}
