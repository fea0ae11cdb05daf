//! Zero-dependency leveled logger for the whole Duplo stack.
//!
//! Every stderr line the simulator and experiment harness emit goes
//! through this module, gated on a process-wide [`Level`]:
//!
//! * `DUPLO_LOG=off` — fully silent (CI byte-diff gates need no stderr
//!   filtering),
//! * `DUPLO_LOG=info` — the default: experiment banners, wall-clock and
//!   cache-counter lines, the `run all` heartbeat,
//! * `DUPLO_LOG=debug` — adds per-phase detail (trace export summaries,
//!   runner pool sizing),
//! * `DUPLO_LOG=trace` — adds high-volume per-run detail.
//!
//! The format is deterministic: `[tag] message` for host-side lines
//! (unchanged from the historical ad-hoc `eprintln!` format, so existing
//! grep-based gates keep working), and `[tag @cycle] message` for
//! sim-side lines stamped with the monotonic simulation cycle they refer
//! to. No wall-clock timestamps are ever embedded — two identical runs
//! log identical bytes (modulo lines whose *content* is volatile, such as
//! wall-clock reports, which are confined to info level).
//!
//! Levels resolve in order: an active [`override_level`] guard (tests),
//! then the `DUPLO_LOG` environment variable (parsed once per process),
//! then the [`Level::Info`] default.

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Log verbosity, ordered: a level enables itself and everything below.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// No output at all.
    Off = 0,
    /// Progress lines a user running experiments wants to see (default).
    Info = 1,
    /// Per-phase diagnostics.
    Debug = 2,
    /// High-volume per-run diagnostics.
    Trace = 3,
}

impl Level {
    /// Parses a `DUPLO_LOG` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "info" | "1" => Some(Level::Info),
            "debug" | "2" => Some(Level::Debug),
            "trace" | "3" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Test-only scoped override; `usize::MAX` means "no override".
static LEVEL_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Serializes [`override_level`] scopes so concurrent tests cannot
/// clobber each other's level.
static OVERRIDE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// `DUPLO_LOG` parsed once per process.
static ENV_LEVEL: OnceLock<Level> = OnceLock::new();

fn env_level() -> Level {
    *ENV_LEVEL.get_or_init(|| {
        std::env::var("DUPLO_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info)
    })
}

fn from_usize(v: usize) -> Level {
    match v {
        0 => Level::Off,
        1 => Level::Info,
        2 => Level::Debug,
        _ => Level::Trace,
    }
}

/// The level currently in effect.
pub fn level() -> Level {
    let forced = LEVEL_OVERRIDE.load(Ordering::Acquire);
    if forced != usize::MAX {
        return from_usize(forced);
    }
    env_level()
}

/// Whether lines at `l` are currently emitted. Callers wrap any expensive
/// message construction in this check; the check itself is one atomic load
/// (plus a cached env read).
pub fn enabled(l: Level) -> bool {
    l != Level::Off && l <= level()
}

/// RAII guard from [`override_level`]; restores the previous override on
/// drop.
pub struct LevelOverrideGuard {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for LevelOverrideGuard {
    fn drop(&mut self) {
        LEVEL_OVERRIDE.store(self.prev, Ordering::Release);
    }
}

/// Forces the level for the guard's lifetime (test aid). Guards serialize
/// on a global lock, so concurrent tests queue rather than interleave.
pub fn override_level(l: Level) -> LevelOverrideGuard {
    let lock = OVERRIDE_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let prev = LEVEL_OVERRIDE.swap(l as usize, Ordering::AcqRel);
    LevelOverrideGuard { prev, _lock: lock }
}

fn emit(tag: &str, cycle: Option<u64>, args: fmt::Arguments<'_>) {
    // One locked write per line so concurrent workers never interleave
    // within a line; failures (closed stderr) are ignored.
    let mut err = std::io::stderr().lock();
    let _ = match cycle {
        Some(c) => writeln!(err, "[{tag} @{c}] {args}"),
        None => writeln!(err, "[{tag}] {args}"),
    };
}

/// Logs at `l` with the host-side format `[tag] message`.
pub fn log(l: Level, tag: &str, args: fmt::Arguments<'_>) {
    if enabled(l) {
        emit(tag, None, args);
    }
}

/// Logs at `l` with the cycle-stamped format `[tag @cycle] message`.
pub fn log_at(l: Level, tag: &str, cycle: u64, args: fmt::Arguments<'_>) {
    if enabled(l) {
        emit(tag, Some(cycle), args);
    }
}

/// Info-level host line: `[tag] message`.
pub fn info(tag: &str, args: fmt::Arguments<'_>) {
    log(Level::Info, tag, args);
}

/// Debug-level host line.
pub fn debug(tag: &str, args: fmt::Arguments<'_>) {
    log(Level::Debug, tag, args);
}

/// Trace-level host line.
pub fn trace(tag: &str, args: fmt::Arguments<'_>) {
    log(Level::Trace, tag, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_forms() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("3"), Some(Level::Trace));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_are_ordered_and_off_disables_everything() {
        let _g = override_level(Level::Off);
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Off), "Off is never 'enabled'");
        drop(_g);
        let _g = override_level(Level::Debug);
        assert!(enabled(Level::Info));
        assert!(enabled(Level::Debug));
        assert!(!enabled(Level::Trace));
    }

    #[test]
    fn override_nests_and_restores() {
        let outer = override_level(Level::Trace);
        assert_eq!(level(), Level::Trace);
        drop(outer);
        // Back to env/default resolution.
        let _ = level();
    }
}
