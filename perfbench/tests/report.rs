//! Percentile rule, metric names and the benchmark manifest.

use perfbench::report::{END_TO_END, PER_LAYER, valid_name};
use perfbench::stats::percentile;

#[test]
fn percentile_needs_ten_samples_beyond() {
    let v: Vec<f64> = (1..=19).map(f64::from).collect();
    assert_eq!(
        percentile(&v, 0.5),
        None,
        "19 samples: only 9 beyond the median"
    );
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    let p = percentile(&v, 0.5).expect("20 samples: 10 beyond");
    assert_eq!((p.value, p.n), (10.0, 20));
    let v: Vec<f64> = (1..=99).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0.9), None);
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let p = percentile(&v, 0.9).expect("100 samples: 10 beyond p90");
    assert_eq!((p.value, p.n), (90.0, 100));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn metric_names_are_valid_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    assert!(!valid_name("a b"));
    assert!(!valid_name(".x"));
    assert!(!valid_name(""));
}

#[test]
fn manifest_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = duplo_sim::json::parse(&text).expect("manifest parses");
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(duplo_sim::json::Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(duplo_sim::json::Json::as_str)
                        .unwrap()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let emitted: Vec<(String, String)> = list
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, emitted, "{key}");
    }
}
