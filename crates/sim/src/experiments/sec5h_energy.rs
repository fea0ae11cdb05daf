//! §V-H: energy reduction and area overhead.

use super::{RunOptions, table1_layers};
use crate::report::{Table, fmt_pct_plain};
use crate::{GpuConfig, layer_run};
use duplo_core::LhbConfig;
use duplo_energy::{AreaModel, EnergyReport};

/// One layer's baseline-vs-Duplo energy.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// Baseline on-chip + DRAM energy (nJ, per simulated share).
    pub baseline_nj: f64,
    /// Duplo energy.
    pub duplo_nj: f64,
    /// Relative saving.
    pub saving: f64,
}

/// Energy result plus the area table.
#[derive(Clone, Debug)]
pub struct Energy {
    /// Per-layer rows.
    pub rows: Vec<Row>,
    /// Mean saving across layers.
    pub mean_saving: f64,
    /// Area overhead fraction per LHB size (entries, fraction of RF).
    pub area: Vec<(usize, f64)>,
}

/// Runs the energy/area assessment with the default 1024-entry LHB (one
/// parallel job per layer; rows stay in catalog order).
pub fn run(opts: &RunOptions) -> Energy {
    let gpu = opts.apply(GpuConfig::titan_v());
    let rows: Vec<Row> = crate::runner::par_map_opt(opts, &table1_layers(), |l| {
        let p = l.lowered();
        let base = layer_run(&p, None, &gpu, opts);
        let duplo = layer_run(&p, Some(LhbConfig::paper_default()), &gpu, opts);
        let be = base.energy();
        let de = duplo.energy();
        Row {
            layer: l.qualified_name(),
            baseline_nj: be.total_nj(),
            duplo_nj: de.total_nj(),
            saving: EnergyReport::saving_over(&de, &be),
        }
    });
    let mean_saving = rows.iter().map(|r| r.saving).sum::<f64>() / rows.len() as f64;
    let area = [256usize, 512, 1024, 2048]
        .iter()
        .map(|&e| {
            let bits = LhbConfig::direct_mapped(e).storage_bits();
            (e, AreaModel::for_lhb_bits(bits).overhead_fraction())
        })
        .collect();
    Energy {
        rows,
        mean_saving,
        area,
    }
}

/// Structured result: per-layer energy plus the area sweep.
pub fn result(e: &Energy, opts: &RunOptions) -> crate::results::ExperimentResult {
    use crate::json::Json;
    use crate::results::{ExperimentResult, opts_json};
    let rows: Vec<Json> = e
        .rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("layer", r.layer.as_str())
                .field("baseline_nj", r.baseline_nj)
                .field("duplo_nj", r.duplo_nj)
                .field("saving", r.saving)
                .build()
        })
        .collect();
    let summary = Json::obj()
        .field("mean_saving", e.mean_saving)
        .field(
            "area_overhead",
            e.area
                .iter()
                .map(|&(entries, frac)| {
                    Json::obj()
                        .field("lhb_entries", entries)
                        .field("rf_fraction", frac)
                        .build()
                })
                .collect::<Vec<_>>(),
        )
        .build();
    ExperimentResult::new(
        "sec5h_energy",
        "Sec. V-H — energy and area, baseline vs Duplo",
        opts_json(opts),
        rows,
        summary,
    )
}

/// Renders the energy and area tables.
pub fn render(e: &Energy) -> String {
    let mut t = Table::new(
        "SEC V-H — energy: baseline vs Duplo (1024-entry LHB)",
        &["layer", "baseline (uJ)", "duplo (uJ)", "saving"],
    );
    for r in &e.rows {
        t.push_row(vec![
            r.layer.clone(),
            format!("{:.1}", r.baseline_nj / 1000.0),
            format!("{:.1}", r.duplo_nj / 1000.0),
            fmt_pct_plain(r.saving),
        ]);
    }
    t.note(format!(
        "mean saving {:.1}% (paper: 34.1%)",
        e.mean_saving * 100.0
    ));
    let mut a = Table::new(
        "SEC V-H — detection-unit area vs register file",
        &["LHB entries", "overhead"],
    );
    for (entries, frac) in &e.area {
        a.push_row(vec![entries.to_string(), fmt_pct_plain(*frac)]);
    }
    a.note("bit-count estimate; paper's McPAT figure for 1024 entries: 0.77% (see EXPERIMENTS.md)");
    format!("{}\n{}", t.render(), a.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer_run;
    use crate::networks;
    use duplo_core::LhbConfig as Lc;

    #[test]
    fn duplo_saves_energy_on_duplication_heavy_layer() {
        let opts = RunOptions {
            sample_ctas: Some(3),
            ..RunOptions::default()
        };
        let gpu = opts.apply(GpuConfig::titan_v());
        let p = networks::resnet()[1].lowered();
        let base = layer_run(&p, None, &gpu, &opts);
        let duplo = layer_run(&p, Some(Lc::paper_default()), &gpu, &opts);
        let saving = EnergyReport::saving_over(&duplo.energy(), &base.energy());
        assert!(
            saving > 0.0,
            "expected positive energy saving, got {saving:.3}"
        );
    }

    #[test]
    fn area_overhead_is_small_and_monotone() {
        let e = Energy {
            rows: vec![],
            mean_saving: 0.0,
            area: [256usize, 1024]
                .iter()
                .map(|&n| {
                    let bits = Lc::direct_mapped(n).storage_bits();
                    (
                        n,
                        duplo_energy::AreaModel::for_lhb_bits(bits).overhead_fraction(),
                    )
                })
                .collect(),
        };
        assert!(e.area[0].1 < e.area[1].1);
        assert!(e.area[1].1 < 0.05, "1024-entry LHB must stay <5% of RF");
    }
}
