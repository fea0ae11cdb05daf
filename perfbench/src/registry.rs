//! Snapshots of the program's own counters: the metrics registry
//! (`duplo_sim::metrics::snapshot_json`) and the SM-loop profile.

use duplo_sim::json::Json;
use duplo_sm::LoopProfile;

/// One metric of a registry snapshot.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Full name, labels included.
    pub name: String,
    /// Counter/gauge value, or a histogram's sum.
    pub value: f64,
    /// Histogram bucket `(upper bound, count)` pairs (`f64::INFINITY` for
    /// the overflow bucket); empty for counters and gauges.
    pub buckets: Vec<(f64, u64)>,
}

/// A point-in-time view of the program's counters.
#[derive(Clone, Debug)]
pub struct Registry {
    /// Registry metrics, sorted by name.
    pub entries: Vec<Entry>,
    /// The SM-loop profile.
    pub loop_profile: LoopProfile,
}

impl Registry {
    /// Takes a snapshot.
    pub fn snapshot() -> Registry {
        let doc = duplo_sim::metrics::snapshot_json(false);
        let entries = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.as_str()?.to_string();
                let value = m.get("value").or_else(|| m.get("sum"))?.as_f64()?;
                let buckets = m
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|b| {
                        let le = b.get("le")?.as_str()?;
                        let le = if le == "+Inf" {
                            f64::INFINITY
                        } else {
                            le.parse().ok()?
                        };
                        Some((le, b.get("count")?.as_u64()?))
                    })
                    .collect();
                Some(Entry {
                    name,
                    value,
                    buckets,
                })
            })
            .collect();
        Registry {
            entries,
            loop_profile: duplo_sm::loop_profile(),
        }
    }

    /// The value of metric `name` (0 if absent).
    pub fn value(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map_or(0.0, |e| e.value)
    }

    /// Sum of every metric whose name starts with `prefix` and passes
    /// `keep`.
    pub fn sum(&self, prefix: &str, keep: impl Fn(&str) -> bool) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix) && keep(&e.name))
            .map(|e| e.value)
            .sum()
    }

    /// Per-bucket count increments of histogram `name` since `earlier`.
    pub fn bucket_delta(&self, earlier: &Registry, name: &str) -> Vec<(f64, u64)> {
        let find = |r: &Registry| {
            r.entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.buckets.clone())
                .unwrap_or_default()
        };
        let old = find(earlier);
        find(self)
            .into_iter()
            .enumerate()
            .map(|(i, (le, n))| (le, n - old.get(i).map_or(0, |b| b.1)))
            .collect()
    }
}

/// The `q`-quantile of a bucketed histogram, interpolated linearly inside
/// the bucket that holds it (0 for an empty histogram; the overflow
/// bucket reports its lower bound).
pub fn bucket_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    let mut lo = 0.0;
    for &(hi, n) in buckets {
        let next = seen + n as f64;
        if next >= target && n > 0 {
            if hi.is_infinite() {
                return lo;
            }
            return lo + (hi - lo) * (target - seen) / n as f64;
        }
        seen = next;
        if hi.is_finite() {
            lo = hi;
        }
    }
    lo
}
