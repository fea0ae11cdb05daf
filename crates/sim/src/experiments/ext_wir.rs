//! Extension study: Duplo versus WIR-style same-address reuse (§IV-B).
//!
//! The paper distinguishes Duplo from prior instruction-elimination work
//! (e.g. warp instruction reuse, Kim & Ro, paper ref. 15) by its ability to eliminate
//! loads of duplicate data at *different* addresses. This experiment makes
//! the comparison quantitative: the same buffer, keyed by address (WIR)
//! versus keyed by workspace identity (Duplo).

use super::{RunOptions, table1_layers};
use crate::report::{Table, fmt_pct, fmt_pct_opt, fmt_pct_plain, gmean};
use crate::{GpuConfig, layer_run};
use duplo_core::LhbConfig;

/// One layer's Duplo-vs-WIR comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// WIR improvement over baseline.
    pub wir_improvement: f64,
    /// Duplo improvement over baseline.
    pub duplo_improvement: f64,
    /// WIR elimination rate (fraction of tensor rows).
    pub wir_elimination: f64,
    /// Duplo elimination rate.
    pub duplo_elimination: f64,
}

/// Runs the comparison (1024 entries each).
pub fn run(opts: &RunOptions) -> Vec<Row> {
    let gpu = opts.apply(GpuConfig::titan_v());
    table1_layers()
        .iter()
        .map(|l| {
            let p = l.lowered();
            let base = layer_run(&p, None, &gpu, opts);
            let wir = layer_run(&p, Some(LhbConfig::wir(1024)), &gpu, opts);
            let duplo = layer_run(&p, Some(LhbConfig::direct_mapped(1024)), &gpu, opts);
            Row {
                layer: l.qualified_name(),
                wir_improvement: base.cycles / wir.cycles - 1.0,
                duplo_improvement: base.cycles / duplo.cycles - 1.0,
                wir_elimination: wir.stats.elimination_rate(),
                duplo_elimination: duplo.stats.elimination_rate(),
            }
        })
        .collect()
}

/// Structured result: per-layer WIR-vs-Duplo comparison.
pub fn result(rows: &[Row], opts: &RunOptions) -> crate::results::ExperimentResult {
    use crate::json::Json;
    use crate::results::{ExperimentResult, opts_json};
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("layer", r.layer.as_str())
                .field("wir_improvement", r.wir_improvement)
                .field("duplo_improvement", r.duplo_improvement)
                .field("wir_elimination", r.wir_elimination)
                .field("duplo_elimination", r.duplo_elimination)
                .build()
        })
        .collect();
    let gw: Vec<f64> = rows.iter().map(|r| 1.0 + r.wir_improvement).collect();
    let gd: Vec<f64> = rows.iter().map(|r| 1.0 + r.duplo_improvement).collect();
    let summary = Json::obj()
        .field("gmean_wir_improvement", gmean(&gw).map(|g| g - 1.0))
        .field("gmean_duplo_improvement", gmean(&gd).map(|g| g - 1.0))
        .build();
    ExperimentResult::new(
        "ext_wir",
        "Ext — Duplo vs WIR-style same-address elimination",
        opts_json(opts),
        json_rows,
        summary,
    )
}

/// Renders the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(
        "EXT — Duplo vs WIR-style same-address elimination (1024 entries)",
        &["layer", "WIR perf", "Duplo perf", "WIR elim", "Duplo elim"],
    );
    for r in rows {
        t.push_row(vec![
            r.layer.clone(),
            fmt_pct(r.wir_improvement),
            fmt_pct(r.duplo_improvement),
            fmt_pct_plain(r.wir_elimination),
            fmt_pct_plain(r.duplo_elimination),
        ]);
    }
    let gw: Vec<f64> = rows.iter().map(|r| 1.0 + r.wir_improvement).collect();
    let gd: Vec<f64> = rows.iter().map(|r| 1.0 + r.duplo_improvement).collect();
    t.push_row(vec![
        "gmean".into(),
        fmt_pct_opt(gmean(&gw).map(|g| g - 1.0)),
        fmt_pct_opt(gmean(&gd).map(|g| g - 1.0)),
        String::new(),
        String::new(),
    ]);
    t.note("§IV-B: prior techniques only catch repeated loads of the same address");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer_run;
    use crate::networks;

    #[test]
    fn duplo_eliminates_more_than_wir() {
        let opts = RunOptions {
            sample_ctas: Some(3),
            ..RunOptions::default()
        };
        let gpu = opts.apply(GpuConfig::titan_v());
        let p = networks::resnet()[1].lowered();
        let wir = layer_run(&p, Some(LhbConfig::wir(1024)), &gpu, &opts);
        let duplo = layer_run(&p, Some(LhbConfig::direct_mapped(1024)), &gpu, &opts);
        assert!(
            duplo.stats.eliminated_loads > wir.stats.eliminated_loads,
            "Duplo ({}) must eliminate more than WIR ({})",
            duplo.stats.eliminated_loads,
            wir.stats.eliminated_loads
        );
        // WIR still catches cross-warp same-address fragment loads.
        assert!(
            wir.stats.eliminated_loads > 0,
            "WIR should catch same-address reuse"
        );
    }
}
