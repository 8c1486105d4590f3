//! The five workloads. Each is built from a size struct — the shipped
//! sizes are the `REFERENCE` constants, tests use tiny ones — and
//! returns an [`Outcome`] the caller turns into metrics.

pub mod epoch;
pub mod ingest;
pub mod plan;
pub mod sim;

use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tagger::fleet::net::chaos::SplitMix64;

/// What every workload is told.
pub struct Ctx {
    /// Generator seed; the measured program only sees generated inputs.
    pub seed: u64,
    /// Length of the timed region. A traced run spends half of it in
    /// the timed loop and up to half re-executing layers.
    pub seconds: f64,
    /// True for the per-layer run.
    pub traced: bool,
    /// Scratch directory for journals (created, and removed on exit, by
    /// the caller).
    pub dir: PathBuf,
}

impl Ctx {
    /// How long the closed loop runs.
    pub fn loop_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// How long the traced run may spend re-executing layers.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted plus end-of-run checks made.
    pub attempted: u64,
    /// Operations and checks that failed, with the reason for each.
    pub failures: Vec<String>,
    /// One duration per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// One latency per timed operation, ms.
    pub op_ms: Vec<f64>,
    /// Units of work the timed region completed (the numerator of
    /// `throughput_per_s`).
    pub work: f64,
    /// Seconds the timed region took (the denominator).
    pub timed_s: f64,
    /// `VmHWM` at the end of the timed region, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs only); anything absent reads 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    pub trace: Recorder,
}

impl Outcome {
    /// Counts one check, recording `why` when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Sets one per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// In a traced loop the first third of the budget runs without span
/// recording, so the same run yields the untraced latency that
/// `trace.overhead_share` is measured against.
pub fn recording(start: Instant, budget: Duration) -> bool {
    start.elapsed() >= budget / 3
}

/// `trace.overhead_share` from the two latency series of one traced loop.
pub fn overhead_share(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = crate::stats::median(untraced_ms);
    if base == 0.0 || traced_ms.is_empty() {
        0.0
    } else {
        crate::stats::median(traced_ms) / base - 1.0
    }
}

/// Derives stream `i` of `seed` (one SplitMix64 step from an offset
/// start), so that neighbouring seeds and indices give unrelated
/// generators.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Runs `f` once and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
