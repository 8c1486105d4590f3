//! Declarative simulation scenarios for the Tagger reproduction: a
//! line-oriented `.scn` DSL describing a fabric, a tagging mode, a
//! workload, a failure schedule and a required block of invariants —
//! plus the machinery to expand one file deterministically into
//! configured simulator runs, sweep it across parameter grids, grade
//! every assert, and render byte-stable reports.
//!
//! The pipeline, module by module:
//!
//! - [`model`] — the parsed scenario AST ([`Scenario`] and friends);
//! - [`parse`] — the `.scn` parser, with [`Span`](tagger_core::Span)-
//!   carrying diagnostics in the house lint style;
//! - [`expand`] — deterministic expansion of a scenario (at one sweep
//!   point) into a ready-to-run [`Experiment`](tagger_sim::Experiment);
//! - [`asserts`] — evaluation of the `assert` block against the
//!   finished [`SimReport`](tagger_sim::SimReport);
//! - [`report`] — per-scenario/per-point suite results with a
//!   byte-stable JSON rendering;
//! - [`schedule`] — named control-plane event mixes for the fleet soak
//!   harness (drawn by `tagger-fleet`'s drill).
//!
//! A minimal scenario:
//!
//! ```text
//! scenario fig10
//! topo clos small
//! tagger bounces 1
//! end 4ms
//! flow H1 H13 via H1 T1 L1 S1 L3 S2 L4 T4 H13
//! flow H9 H1 @20% via H9 T3 L3 S2 L1 S1 L2 T1 H1
//! assert no-deadlock
//! ```
//!
//! The same file with `tagger off` must instead satisfy
//! `assert deadlock-by 4ms` — the paper's Fig. 10 pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod asserts;
pub mod expand;
pub mod model;
pub mod parse;
pub mod report;
pub mod schedule;

pub use asserts::{evaluate, feasibility_verdict, max_pause_ns, AssertOutcome};
pub use expand::{clos_for_hosts, instantiate, points, ExpandError, RunOptions};
pub use model::{
    AssertSpec, Cmp, EventSpec, FlowDecl, Num, Scenario, Sweep, TaggerMode, TimeSpec, WatchdogDecl,
    Workload,
};
pub use parse::{parse, parse_all, IssueCode, ScnIssue};
pub use report::{PointMetrics, PointResult, ScenarioResult, SuiteReport};
pub use schedule::{by_name, library, MixWeights, ScheduleSpec};

/// Parses, expands, runs and grades one scenario text end to end —
/// the runner's and the tests' shared driver.
pub fn run_scenario(text: &str, file: &str, opts: &RunOptions) -> Result<ScenarioResult, ScnIssue> {
    let s = parse(text)?;
    let seed = opts.seed.unwrap_or(s.seed);
    let mut result = ScenarioResult {
        name: s.name.clone(),
        file: file.to_string(),
        seed,
        points: Vec::new(),
        error: None,
    };
    for point in points(&s) {
        match instantiate(&s, &point, opts) {
            Ok(exp) => {
                let (sim_report, _labels) = exp.run();
                let asserts = evaluate(&s, &point, &sim_report);
                result.points.push(PointResult {
                    vars: point,
                    asserts,
                    metrics: PointMetrics::from_report(&sim_report),
                });
            }
            Err(e) => {
                result.error = Some(e.to_string());
                break;
            }
        }
    }
    Ok(result)
}
