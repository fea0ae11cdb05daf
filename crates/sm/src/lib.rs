//! Cycle-level streaming-multiprocessor (SM) model with tensor cores and
//! the Duplo detection unit wired into the load-store path (paper Fig. 7).
//!
//! The SM executes trace kernels ([`duplo_isa::Kernel`]) with:
//!
//! * four warp schedulers (greedy-then-oldest, Table III) issuing one
//!   instruction per cycle each,
//! * a per-warp scoreboard on architectural fragment registers,
//! * a physical register file with warp-register renaming (row-slot
//!   granularity; Duplo hits bind a destination row to the physical row that
//!   already holds the duplicate),
//! * per-scheduler tensor-core pipelines and load-store units,
//! * an L1/L2/DRAM hierarchy slice (`duplo-mem`) behind the LDST units,
//! * optionally, a [`duplo_core::DetectionUnit`] probed by every
//!   tensor-core-load row-segment, in parallel with the L1 (§IV-B: "Duplo
//!   accesses the LHB and L1 cache in parallel").
//!
//! Entry point: [`run_kernel_mode`] executes a set of CTAs on one simulated SM
//! and returns [`SmStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod ldst;
pub mod regfile;
mod sm;
mod stats;
pub mod trace;
pub mod warp;

pub use config::{SchedulerPolicy, SmConfig};
pub use duplo_mem::SliceStat;
pub use sm::{
    LoopProfile, Sm, loop_profile, run_kernel_mode, run_kernel_traced_mode, simulated_cycles,
};
pub use stats::{ServiceCounts, SmStats, StallBreakdown};
pub use trace::{CtaSpan, SmSample, SmTraceData, TraceSpec};

// `run_kernel_mode` calls are fanned out across threads by the whole-GPU
// simulator: its inputs must be sendable and its result collectable from a
// worker. Compile-time proof, so a stray `Rc`/`RefCell` in a config or
// stats field fails here rather than at the distant call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SmConfig>();
    assert_send_sync::<SmStats>();
    assert_send_sync::<SchedulerPolicy>();
};
