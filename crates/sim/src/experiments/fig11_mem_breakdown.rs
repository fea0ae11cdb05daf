//! Fig. 11: breakdown of data services along the memory hierarchy,
//! baseline (B) versus Duplo (D) with a 1024-entry LHB.

use super::{RunOptions, table1_layers};
use crate::report::{Table, fmt_pct_plain};
use crate::{GpuConfig, GpuRunResult, layer_run};
use duplo_core::LhbConfig;

/// Service-share breakdown of one run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Shares {
    /// Fraction of load row-segments served by the LHB.
    pub lhb: f64,
    /// ... by the L1.
    pub l1: f64,
    /// ... by the L2.
    pub l2: f64,
    /// ... by DRAM.
    pub dram: f64,
}

impl Shares {
    fn of(r: &GpuRunResult) -> Shares {
        let s = &r.stats.services;
        let total = s.total_global().max(1) as f64;
        Shares {
            lhb: s.lhb as f64 / total,
            l1: s.l1 as f64 / total,
            l2: s.l2 as f64 / total,
            dram: s.dram as f64 / total,
        }
    }
}

/// One layer's baseline-vs-Duplo breakdown, plus the DRAM traffic delta.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// Baseline shares.
    pub baseline: Shares,
    /// Duplo shares.
    pub duplo: Shares,
    /// Relative change in DRAM bytes (negative = saved).
    pub dram_delta: f64,
    /// Full baseline metrics block ([`crate::results::run_metrics`]).
    pub baseline_metrics: crate::json::Json,
    /// Full Duplo metrics block.
    pub duplo_metrics: crate::json::Json,
}

/// Runs the Fig. 11 reproduction over all Table I layers (one parallel
/// job per layer; each job runs its baseline and Duplo pair).
pub fn run(opts: &RunOptions) -> Vec<Row> {
    let gpu = opts.apply(GpuConfig::titan_v());
    crate::runner::par_map_opt(opts, &table1_layers(), |l| {
        let p = l.lowered();
        let base = layer_run(&p, None, &gpu, opts);
        let duplo = layer_run(&p, Some(LhbConfig::paper_default()), &gpu, opts);
        let dram_delta =
            duplo.stats.mem.dram_bytes as f64 / base.stats.mem.dram_bytes.max(1) as f64 - 1.0;
        Row {
            layer: l.qualified_name(),
            baseline: Shares::of(&base),
            duplo: Shares::of(&duplo),
            dram_delta,
            baseline_metrics: crate::results::run_metrics(&base),
            duplo_metrics: crate::results::run_metrics(&duplo),
        }
    })
}

/// Structured result: service shares, DRAM delta, and the full metrics
/// blocks of both runs.
pub fn result(rows: &[Row], opts: &RunOptions) -> crate::results::ExperimentResult {
    use crate::json::Json;
    use crate::results::{ExperimentResult, opts_json};
    let shares_json = |s: &Shares| {
        Json::obj()
            .field("lhb", s.lhb)
            .field("l1", s.l1)
            .field("l2", s.l2)
            .field("dram", s.dram)
            .build()
    };
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("layer", r.layer.as_str())
                .field("baseline_shares", shares_json(&r.baseline))
                .field("duplo_shares", shares_json(&r.duplo))
                .field("dram_delta", r.dram_delta)
                .field("baseline", r.baseline_metrics.clone())
                .field("duplo", r.duplo_metrics.clone())
                .build()
        })
        .collect();
    let mean_dram = rows.iter().map(|r| r.dram_delta).sum::<f64>() / rows.len().max(1) as f64;
    ExperimentResult::new(
        "fig11_mem_breakdown",
        "Fig. 11 — memory service breakdown, baseline vs Duplo",
        opts_json(opts),
        json_rows,
        Json::obj().field("mean_dram_delta", mean_dram).build(),
    )
}

/// Renders the breakdown table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(
        "Fig. 11 — memory service breakdown, baseline (B) vs Duplo (D)",
        &[
            "layer",
            "B:L1",
            "B:L2",
            "B:DRAM",
            "D:LHB",
            "D:L1",
            "D:L2",
            "D:DRAM",
            "DRAM bytes",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.layer.clone(),
            fmt_pct_plain(r.baseline.l1),
            fmt_pct_plain(r.baseline.l2),
            fmt_pct_plain(r.baseline.dram),
            fmt_pct_plain(r.duplo.lhb),
            fmt_pct_plain(r.duplo.l1),
            fmt_pct_plain(r.duplo.l2),
            fmt_pct_plain(r.duplo.dram),
            format!("{:+.1}%", r.dram_delta * 100.0),
        ]);
    }
    let n = rows.len() as f64;
    let avg_dram: f64 = rows.iter().map(|r| r.dram_delta).sum::<f64>() / n;
    t.note(format!(
        "average DRAM traffic change: {:+.1}% (paper: -26.6%)",
        avg_dram * 100.0
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunOptions;
    use crate::layer_run;
    use crate::networks;

    #[test]
    fn duplo_shifts_service_share_into_lhb() {
        // ResNet C2 has channel count 64 => short duplicate-reuse distance,
        // so even a 3-CTA sample shows the service-share shift clearly.
        let opts = RunOptions {
            sample_ctas: Some(3),
            ..RunOptions::default()
        };
        let gpu = opts.apply(GpuConfig::titan_v());
        let p = networks::resnet()[1].lowered();
        let base = layer_run(&p, None, &gpu, &opts);
        let duplo = layer_run(&p, Some(LhbConfig::paper_default()), &gpu, &opts);
        let bs = Shares::of(&base);
        let ds = Shares::of(&duplo);
        assert_eq!(bs.lhb, 0.0);
        assert!(ds.lhb > 0.1, "expected >10% LHB share, got {:.3}", ds.lhb);
        assert!(
            duplo.stats.mem.dram_bytes <= base.stats.mem.dram_bytes,
            "Duplo must not increase DRAM traffic"
        );
        // Shares sum to 1.
        for s in [bs, ds] {
            assert!((s.lhb + s.l1 + s.l2 + s.dram - 1.0).abs() < 1e-9);
        }
    }
}
