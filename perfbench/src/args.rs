//! Command-line arguments.

/// The three workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table I layers lowered to explicit GEMM over the LHB grid.
    ConvSweep,
    /// Strided streaming kernels on the sliced L2.
    MemStream,
    /// Closed-loop submissions to an in-process `duplo serve`.
    ServeMix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "conv_sweep" => Some(Workload::ConvSweep),
            "mem_stream" => Some(Workload::MemStream),
            "serve_mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvSweep => "conv_sweep",
            Workload::MemStream => "mem_stream",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Minimum length of the timed phase, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// The usage line printed on an argument error.
pub const USAGE: &str = "usage: perfbench --workload conv_sweep|mem_stream|serve_mix \
                         --seed <n> --seconds <n> --trace 0|1";

/// Parses `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an integer, got {value:?}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}
