//! Cycle-resolved tracing of one SM run.
//!
//! When a [`TraceSpec`] is attached to an [`crate::Sm`] (via
//! [`crate::run_kernel_traced_mode`]), the SM snapshots its counters every
//! `interval` cycles into a compact, append-only timeline and records a
//! begin/end span for every CTA it executes. All buffers are hard-capped:
//! once full, new entries are *counted as dropped* rather than silently
//! truncated, so a consumer can always tell whether the timeline is
//! complete.
//!
//! Samples are cumulative snapshots (not deltas): consumers difference
//! adjacent samples to recover per-window rates, and the final sample —
//! always pushed at run end, even when the periodic buffer is full —
//! equals the end-of-run totals, which higher layers use to cross-check
//! the timeline against [`crate::SmStats`].

/// Tracing parameters for one SM run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceSpec {
    /// Cycles between samples. Must be non-zero.
    pub interval: u64,
    /// Maximum CTA spans recorded before further spans are dropped
    /// (counted in [`SmTraceData::dropped_spans`]).
    pub span_cap: usize,
    /// Maximum periodic samples recorded before further samples are
    /// dropped (counted in [`SmTraceData::dropped_samples`]). The final
    /// end-of-run sample is exempt from the cap.
    pub sample_cap: usize,
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec {
            interval: 1024,
            span_cap: 4096,
            sample_cap: 65536,
        }
    }
}

/// A cumulative counter snapshot taken at one sample point.
///
/// Counter fields are monotone over a run; gauge fields
/// (`mshr_occupancy`, `l2_backlog`, `dram_backlog`) are instantaneous.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SmSample {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// MMA instructions issued so far.
    pub issued_mma: u64,
    /// Tensor-core load instructions issued so far.
    pub issued_tensor_loads: u64,
    /// Other instructions issued so far.
    pub issued_other: u64,
    /// Scheduler slots with no runnable warp.
    pub stall_empty: u64,
    /// Scheduler slots blocked on operand dependencies.
    pub stall_data_dependency: u64,
    /// Scheduler slots blocked on a full LDST queue.
    pub stall_ldst_full: u64,
    /// Scheduler slots blocked on busy tensor cores.
    pub stall_tensor_busy: u64,
    /// Scheduler slots parked at barriers.
    pub stall_barrier: u64,
    /// LDST pipe stall cycles (MSHR full / RF pressure).
    pub ldst_pipe_stalls: u64,
    /// LHB probe hits so far (zero for baseline runs).
    pub lhb_hits: u64,
    /// LHB probe misses so far (zero for baseline runs).
    pub lhb_misses: u64,
    /// Load row-segments served by LHB renaming.
    pub serv_lhb: u64,
    /// Load row-segments served by the L1.
    pub serv_l1: u64,
    /// Load row-segments served by the L2.
    pub serv_l2: u64,
    /// Load row-segments served by DRAM.
    pub serv_dram: u64,
    /// Load row-segments served by shared memory.
    pub serv_shared: u64,
    /// L1 sector hits so far.
    pub l1_hits: u64,
    /// L1 sector misses so far.
    pub l1_misses: u64,
    /// Accesses that reached the L2 slice so far.
    pub l2_accesses: u64,
    /// Accesses that reached DRAM so far.
    pub dram_accesses: u64,
    /// Outstanding MSHR fills at the sample point (gauge).
    pub mshr_occupancy: u64,
    /// MSHR occupancy high-water mark so far.
    pub mshr_peak: u64,
    /// L2-port backlog at the sample point, in cycles (gauge; summed over
    /// slices when the sliced memory side is in use).
    pub l2_backlog: f64,
    /// DRAM-server backlog at the sample point, in cycles (gauge; summed
    /// over slices when the sliced memory side is in use).
    pub dram_backlog: f64,
    /// Worst single-L2-slice backlog at the sample point, in cycles
    /// (gauge; zero on the flat memory side).
    pub slice_backlog_max: f64,
    /// Backlog summed over all L2 slices at the sample point, in cycles
    /// (gauge; zero on the flat memory side).
    pub slice_backlog_sum: f64,
    /// Index of the hottest L2 slice at the sample point (gauge; zero on
    /// the flat memory side). Makes slice camping visible on timelines.
    pub hot_slice: u64,
}

/// One CTA's residency on the SM.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CtaSpan {
    /// CTA index within the kernel launch.
    pub cta: u64,
    /// Cycle at which the CTA was launched onto the SM.
    pub begin: u64,
    /// Cycle at which the CTA's last warp exited.
    pub end: u64,
}

/// The complete trace of one SM run.
#[derive(Clone, Debug, Default)]
pub struct SmTraceData {
    /// Sampling interval the timeline was recorded at.
    pub interval: u64,
    /// Cumulative samples, in cycle order; the last entry is the
    /// end-of-run snapshot.
    pub samples: Vec<SmSample>,
    /// Completed CTA spans, in completion order.
    pub cta_spans: Vec<CtaSpan>,
    /// Periodic samples dropped because `sample_cap` was reached.
    pub dropped_samples: u64,
    /// CTA spans dropped because `span_cap` was reached.
    pub dropped_spans: u64,
}

/// Internal per-SM trace recorder.
#[derive(Debug)]
pub(crate) struct SmTracer {
    pub(crate) spec: TraceSpec,
    pub(crate) data: SmTraceData,
    /// cta_slot -> (cta index, launch cycle) for CTAs still resident.
    pub(crate) open_ctas: std::collections::HashMap<usize, (usize, u64)>,
}

impl SmTracer {
    pub(crate) fn new(spec: TraceSpec) -> SmTracer {
        assert!(spec.interval > 0, "trace interval must be non-zero");
        SmTracer {
            spec,
            data: SmTraceData {
                interval: spec.interval,
                ..SmTraceData::default()
            },
            open_ctas: std::collections::HashMap::new(),
        }
    }

    /// Records a periodic sample, honoring the cap.
    pub(crate) fn push_sample(&mut self, sample: SmSample) {
        if self.data.samples.len() >= self.spec.sample_cap {
            self.data.dropped_samples += 1;
        } else {
            self.data.samples.push(sample);
        }
    }

    /// Records the final end-of-run sample (exempt from the cap so the
    /// timeline always closes on the run totals). Replaces a periodic
    /// sample taken at the same cycle.
    pub(crate) fn push_final_sample(&mut self, sample: SmSample) {
        if self
            .data
            .samples
            .last()
            .is_some_and(|s| s.cycle == sample.cycle)
        {
            *self.data.samples.last_mut().expect("checked") = sample;
        } else {
            self.data.samples.push(sample);
        }
    }

    pub(crate) fn cta_begin(&mut self, cta_slot: usize, cta: usize, cycle: u64) {
        self.open_ctas.insert(cta_slot, (cta, cycle));
    }

    pub(crate) fn cta_end(&mut self, cta_slot: usize, cycle: u64) {
        let Some((cta, begin)) = self.open_ctas.remove(&cta_slot) else {
            return;
        };
        if self.data.cta_spans.len() >= self.spec.span_cap {
            self.data.dropped_spans += 1;
        } else {
            self.data.cta_spans.push(CtaSpan {
                cta: cta as u64,
                begin,
                end: cycle,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_cap_counts_drops_instead_of_truncating_silently() {
        let mut t = SmTracer::new(TraceSpec {
            interval: 16,
            span_cap: 2,
            sample_cap: 8,
        });
        for i in 0..5usize {
            t.cta_begin(0, i, i as u64 * 10);
            t.cta_end(0, i as u64 * 10 + 5);
        }
        assert_eq!(t.data.cta_spans.len(), 2);
        assert_eq!(t.data.dropped_spans, 3);
    }

    #[test]
    fn sample_cap_counts_drops_but_final_sample_always_lands() {
        let mut t = SmTracer::new(TraceSpec {
            interval: 1,
            span_cap: 8,
            sample_cap: 2,
        });
        for c in 1..=4u64 {
            t.push_sample(SmSample {
                cycle: c,
                ..SmSample::default()
            });
        }
        assert_eq!(t.data.samples.len(), 2);
        assert_eq!(t.data.dropped_samples, 2);
        t.push_final_sample(SmSample {
            cycle: 99,
            issued_other: 7,
            ..SmSample::default()
        });
        assert_eq!(t.data.samples.len(), 3);
        assert_eq!(t.data.samples.last().unwrap().cycle, 99);
    }

    #[test]
    fn final_sample_replaces_same_cycle_periodic_sample() {
        let mut t = SmTracer::new(TraceSpec::default());
        t.push_sample(SmSample {
            cycle: 1024,
            issued_other: 1,
            ..SmSample::default()
        });
        t.push_final_sample(SmSample {
            cycle: 1024,
            issued_other: 2,
            ..SmSample::default()
        });
        assert_eq!(t.data.samples.len(), 1);
        assert_eq!(t.data.samples[0].issued_other, 2);
    }
}
