//! Fig. 14: network-level execution time for inference and training.

use super::RunOptions;
use crate::networks::{self, LayerKind, LayerSpec, Network};
use crate::report::{Table, fmt_pct_plain};
use crate::{GpuConfig, GpuSim, layer_run};
use duplo_conv::ConvParams;
use duplo_conv::transposed::TransposedConvParams;
use duplo_core::LhbConfig;
use duplo_kernels::{GemmTcKernel, SmemPolicy};

/// Network-level cycle totals.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network name.
    pub network: Network,
    /// Inference cycles: baseline and Duplo.
    pub infer: (f64, f64),
    /// Training cycles (forward + dX + dW): baseline and Duplo.
    pub train: (f64, f64),
}

impl Row {
    /// Relative execution-time reduction for inference.
    pub fn infer_reduction(&self) -> f64 {
        1.0 - self.infer.1 / self.infer.0
    }

    /// Relative execution-time reduction for training.
    pub fn train_reduction(&self) -> f64 {
        1.0 - self.train.1 / self.train.0
    }
}

/// Backward data-gradient (`dX`) convolution of a layer: the transposed
/// convolution of `dY` with the (channel-swapped) filters. Its lowering
/// produces a duplicated workspace, so Duplo applies.
fn dx_conv(layer: &LayerSpec) -> Option<ConvParams> {
    match &layer.kind {
        LayerKind::Conv(p) => {
            let dy = p.output_shape();
            let t = TransposedConvParams::new(dy, p.input.c, p.fh, p.fw, p.pad, p.stride).ok()?;
            Some(t.equivalent_conv())
        }
        // Backward of a transposed conv is an ordinary strided conv on dY.
        LayerKind::Transposed(t) => {
            let dy = t.output_shape();
            ConvParams::new(dy, t.input.c, t.fh, t.fw, t.pad, t.stride).ok()
        }
    }
}

/// Weight-gradient (`dW`) GEMM dims: `M = fh*fw*C`, `N = filters`,
/// `K = N*OH*OW`. Its `A` operand is a *transposed* workspace in a separate
/// buffer — no duplication pattern the detection unit covers, so Duplo
/// gives no benefit (both configs run the same plain GEMM).
fn dw_dims(layer: &LayerSpec) -> (usize, usize, usize) {
    let p = layer.lowered();
    let (m, n, k) = p.gemm_dims();
    (k, n, m)
}

/// Per-layer cycle contributions, computed independently per layer so the
/// network fans out over the parallel runner.
struct LayerCycles {
    fwd: (f64, f64),
    dx: (f64, f64),
    dw: f64,
}

fn run_network(net: Network, opts: &RunOptions) -> Row {
    let gpu = opts.apply(GpuConfig::titan_v());
    let lhb = LhbConfig::paper_default();
    let layers = networks::layers_of(net);
    let jobs: Vec<(usize, &LayerSpec)> = layers.iter().enumerate().collect();
    let per_layer = crate::runner::par_map_opt(opts, &jobs, |&(i, layer)| {
        let p = layer.lowered();
        let fwd = (
            layer_run(&p, None, &gpu, opts).cycles,
            layer_run(&p, Some(lhb), &gpu, opts).cycles,
        );
        // dX (skipped for the first layer, which needs no input gradient).
        let dx = match if i > 0 { dx_conv(layer) } else { None } {
            Some(dx) => (
                layer_run(&dx, None, &gpu, opts).cycles,
                layer_run(&dx, Some(lhb), &gpu, opts).cycles,
            ),
            None => (0.0, 0.0),
        };
        // dW: plain GEMM, no workspace; identical under both configs but
        // simulated once and charged to both.
        let (m, n, k) = dw_dims(layer);
        let kern = GemmTcKernel::new(m, n, k, SmemPolicy::COnly);
        let dw = GpuSim::with_options(gpu.clone(), opts.clone())
            .run(&kern)
            .cycles;
        LayerCycles { fwd, dx, dw }
    });

    // Sum in layer order: float addition is not associative, so the fold
    // order must not depend on worker completion order.
    let mut infer = (0.0, 0.0);
    let mut train = (0.0, 0.0);
    for lc in &per_layer {
        infer.0 += lc.fwd.0;
        infer.1 += lc.fwd.1;
        train.0 += lc.fwd.0;
        train.1 += lc.fwd.1;
        train.0 += lc.dx.0;
        train.1 += lc.dx.1;
        train.0 += lc.dw;
        train.1 += lc.dw;
    }
    Row {
        network: net,
        infer,
        train,
    }
}

/// Runs the network-level experiment for all three DNNs.
pub fn run(opts: &RunOptions) -> Vec<Row> {
    Network::ALL.iter().map(|n| run_network(*n, opts)).collect()
}

/// Structured result: network-level cycle totals and reductions.
pub fn result(rows: &[Row], opts: &RunOptions) -> crate::results::ExperimentResult {
    use crate::json::Json;
    use crate::results::{ExperimentResult, opts_json};
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("network", r.network.to_string())
                .field("infer_baseline_cycles", r.infer.0)
                .field("infer_duplo_cycles", r.infer.1)
                .field("infer_reduction", r.infer_reduction())
                .field("train_baseline_cycles", r.train.0)
                .field("train_duplo_cycles", r.train.1)
                .field("train_reduction", r.train_reduction())
                .build()
        })
        .collect();
    let n = rows.len().max(1) as f64;
    let summary = Json::obj()
        .field(
            "mean_infer_reduction",
            rows.iter().map(Row::infer_reduction).sum::<f64>() / n,
        )
        .field(
            "mean_train_reduction",
            rows.iter().map(Row::train_reduction).sum::<f64>() / n,
        )
        .field(
            "total_cycles",
            rows.iter().map(|r| r.train.0 + r.train.1).sum::<f64>(),
        )
        .build();
    ExperimentResult::new(
        "fig14_network",
        "Fig. 14 — network execution time reduction",
        opts_json(opts),
        json_rows,
        summary,
    )
}

/// Renders the Fig. 14 table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(
        "Fig. 14 — network execution time reduction (baseline -> Duplo)",
        &["network", "inference", "training"],
    );
    for r in rows {
        t.push_row(vec![
            r.network.to_string(),
            fmt_pct_plain(r.infer_reduction()),
            fmt_pct_plain(r.train_reduction()),
        ]);
    }
    let gi: f64 = rows.iter().map(|r| r.infer_reduction()).sum::<f64>() / rows.len() as f64;
    let gt: f64 = rows.iter().map(|r| r.train_reduction()).sum::<f64>() / rows.len() as f64;
    t.push_row(vec!["mean".into(), fmt_pct_plain(gi), fmt_pct_plain(gt)]);
    t.note("paper: inference -22.7%, training -8.3% (training adds dX/dW GEMMs with less/no duplication)");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;

    #[test]
    fn dx_of_stride1_conv_preserves_input_shape() {
        let l = &networks::yolo()[2]; // 56x56x64 -> 128, s1 p1
        let dx = dx_conv(l).unwrap();
        assert_eq!(dx.output_shape(), l.lowered().input);
    }

    #[test]
    fn dw_dims_swap_m_and_k() {
        let l = &networks::resnet()[1];
        let (m, n, k) = dw_dims(l);
        assert_eq!(m, 3 * 3 * 64);
        assert_eq!(n, 64);
        assert_eq!(k, 8 * 56 * 56);
    }

    #[test]
    fn training_gains_below_inference_gains() {
        // One cheap network-level check with heavy sampling: YOLO.
        let row = run_network(Network::Yolo, &RunOptions::quick());
        assert!(row.infer_reduction() > 0.0, "inference must improve");
        assert!(
            row.train_reduction() <= row.infer_reduction() + 1e-9,
            "training ({:.3}) cannot beat inference ({:.3}) — dW has no duplication",
            row.train_reduction(),
            row.infer_reduction()
        );
    }
}
