//! Fig. 13: performance implications of variable-sized batches.

use super::{RunOptions, table1_layers};
use crate::report::{Table, fmt_pct, fmt_pct_opt, gmean};
use crate::{GpuConfig, layer_run};
use duplo_core::LhbConfig;

/// One layer's Duplo improvement at each batch size.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name.
    pub layer: String,
    /// Improvements at batch 8, 16, 32.
    pub improvements: Vec<f64>,
}

/// The batch sizes of Fig. 13.
pub const BATCHES: [usize; 3] = [8, 16, 32];

/// Runs the batch sweep with the default 1024-entry LHB. The full
/// (layer, batch) grid fans out in parallel; each job runs its
/// baseline/Duplo pair and results regroup in input order.
pub fn run(opts: &RunOptions) -> Vec<Row> {
    let gpu = opts.apply(GpuConfig::titan_v());
    let layers = table1_layers();
    let jobs: Vec<(usize, usize)> = (0..layers.len())
        .flat_map(|li| BATCHES.iter().map(move |&b| (li, b)))
        .collect();
    let results = crate::runner::par_map_opt(opts, &jobs, |&(li, b)| {
        let p = layers[li].with_batch(b).lowered();
        let base = layer_run(&p, None, &gpu, opts);
        let duplo = layer_run(&p, Some(LhbConfig::paper_default()), &gpu, opts);
        base.cycles / duplo.cycles - 1.0
    });

    let mut it = results.into_iter();
    layers
        .iter()
        .map(|l| Row {
            layer: l.qualified_name(),
            improvements: BATCHES
                .iter()
                .map(|_| it.next().expect("one per job"))
                .collect(),
        })
        .collect()
}

/// Structured result: per-layer improvement per batch size.
pub fn result(rows: &[Row], opts: &RunOptions) -> crate::results::ExperimentResult {
    use crate::json::Json;
    use crate::results::{ExperimentResult, opts_json};
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut b = Json::obj().field("layer", r.layer.as_str());
            for (batch, imp) in BATCHES.iter().zip(&r.improvements) {
                b = b.field(&format!("batch_{batch}"), *imp);
            }
            b.build()
        })
        .collect();
    let mut summary = Json::obj();
    for (i, batch) in BATCHES.iter().enumerate() {
        let v: Vec<f64> = rows.iter().map(|r| 1.0 + r.improvements[i]).collect();
        summary = summary.field(
            &format!("gmean_improvement_batch_{batch}"),
            gmean(&v).map(|g| g - 1.0),
        );
    }
    ExperimentResult::new(
        "fig13_batch",
        "Fig. 13 — Duplo improvement vs batch size (1024-entry LHB)",
        opts_json(opts),
        json_rows,
        summary.build(),
    )
}

/// Renders the batch table.
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(
        "Fig. 13 — Duplo improvement vs batch size (1024-entry LHB)",
        &["layer", "batch 8", "batch 16", "batch 32"],
    );
    for r in rows {
        let mut cells = vec![r.layer.clone()];
        cells.extend(r.improvements.iter().map(|v| fmt_pct(*v)));
        t.push_row(cells);
    }
    let mut cells = vec!["gmean".to_string()];
    for i in 0..BATCHES.len() {
        let v: Vec<f64> = rows.iter().map(|r| 1.0 + r.improvements[i]).collect();
        cells.push(fmt_pct_opt(gmean(&v).map(|g| g - 1.0)));
    }
    t.push_row(cells);
    t.note("paper: batch 8 -> 32 loses ~8.2% overall (no duplication across images)");
    t.render()
}

#[cfg(test)]
mod tests {
    use crate::networks;
    use duplo_conv::ids;

    #[test]
    fn batches_do_not_create_cross_image_duplication() {
        // The census confirms the mechanism behind Fig. 13: unique IDs grow
        // linearly with batch, so a fixed LHB covers a shrinking fraction.
        let l = &networks::yolo()[4];
        let c8 = ids::census(&l.with_batch(8).lowered(), 16);
        let c16 = ids::census(&l.with_batch(16).lowered(), 16);
        assert_eq!(c16.unique_elements, 2 * c8.unique_elements);
        assert!((c16.max_hit_rate() - c8.max_hit_rate()).abs() < 1e-9);
    }
}
