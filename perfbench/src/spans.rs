//! In-memory spans recorded from the benchmark's own code around each call
//! into a layer of the program.
//!
//! A span has a name (the layer), a start, an end, a parent and the id of
//! the operation it belongs to. Spans stay in memory until the run ends;
//! [`Spans::self_times`] then subtracts from each span the part of its
//! interval that its children cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use duplo_sim::json::Json;

/// One finished span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (unique within a recorder, never 0).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals from [`Spans::self_times`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed self times (duration minus child coverage), ms.
    pub self_ms: f64,
}

/// A span recorder; a disabled one records nothing and costs one branch.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, to parent child spans (`None` when recording is off).
    pub fn id(&self) -> Option<u64> {
        self.spans.on.then_some(self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.spans.on {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.spans.now_ns(),
        };
        self.spans
            .done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named after `layer` for operation `op`.
    pub fn enter(&self, layer: &'static str, op: u64, parent: Option<u64>) -> Guard<'_> {
        let (id, start_ns) = if self.on {
            (self.next.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Guard {
            spans: self,
            id,
            parent,
            op,
            name: layer,
            start_ns,
        }
    }

    /// Every finished span, ordered by id.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Summed duration of the finished spans named `layer`, ms.
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Durations of the finished spans named `layer`, ms.
    pub fn durations_ms(&self, layer: &str) -> Vec<f64> {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == layer)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-layer totals: a span's self time is its duration minus the
    /// union of its children's intervals (clipped to the span).
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.finished())
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> Json {
        let spans: Vec<Json> = self
            .finished()
            .iter()
            .map(|s| {
                Json::obj()
                    .field("id", s.id)
                    .field("parent", s.parent)
                    .field("op", s.op)
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .build()
            })
            .collect();
        Json::obj().field("spans", Json::Arr(spans)).build()
    }
}

/// [`Spans::self_times`] over an explicit span list.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| union_len(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += (s.dur_ns() - covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}
