//! Evaluation of a scenario's `assert` block against a finished
//! [`SimReport`] — each assert becomes a pass/fail outcome with the
//! actual value spelled out, so a failing sweep point explains itself.

use crate::model::{AssertSpec, Num, Scenario, TaggerMode};
use std::collections::BTreeMap;
use tagger_core::{oracle, Elp, Span};
use tagger_sim::SimReport;

/// One evaluated assert.
#[derive(Clone, Debug)]
pub struct AssertOutcome {
    /// The assert as written (`no-deadlock`, `watchdog-trips == 2`, ...).
    pub label: String,
    /// Where in the `.scn` file it was written.
    pub span: Span,
    /// Whether the run satisfied it.
    pub pass: bool,
    /// The observed value, spelled out (`deadlock detected at 812000 ns`).
    pub detail: String,
}

/// The longest mid-flow stall across all flows, in nanoseconds: for each
/// flow, the longest run of zero-rate samples strictly between its first
/// and last nonzero samples (leading ramp-up and post-completion tails
/// do not count as pauses), times the sample interval.
pub fn max_pause_ns(report: &SimReport) -> u64 {
    let mut worst = 0u64;
    for f in &report.flows {
        let nonzero: Vec<usize> = f
            .rate_series
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i)
            .collect();
        let (Some(&first), Some(&last)) = (nonzero.first(), nonzero.last()) else {
            continue;
        };
        let mut run = 0u64;
        for i in first..=last {
            if f.rate_series[i] > 0.0 {
                run = 0;
            } else {
                run += 1;
                worst = worst.max(run);
            }
        }
    }
    worst * report.sample_interval_ns
}

/// Consults the deadlock-freedom existence oracle for the scenario's
/// ELP at the tag budget its `tagger` mode provides — the static half
/// of `assert feasible` / `assert infeasible` (no simulation involved).
///
/// The ELP is the set of via-pinned flow paths when the scenario pins
/// any, otherwise the bounce family the tagger mode compiles rules for
/// (up-down with `k` bounces for `tagger bounces k`, the 1-bounce
/// policy for controller modes, plain up-down when tagging is off).
/// Checkpoint-sourced fabrics carry no ELP declaration, so feasibility
/// asserts reject them.
pub fn feasibility_verdict(
    s: &Scenario,
    point: &BTreeMap<String, u64>,
) -> Result<oracle::Verdict, String> {
    let resolve = |n: &Num, what: &str| {
        n.resolve(point)
            .ok_or_else(|| format!("unbound sweep variable in {what}"))
    };
    const CHECKPOINT: &str = "feasibility asserts are not supported on checkpoint topologies — \
                              they declare installed tables, not an expected-lossless-path set";
    if s.checkpoint.is_some() {
        return Err(CHECKPOINT.into());
    }
    let (topo, bcube_cfg) = crate::expand::fabric(s, point)?;
    let budget = match &s.tagger {
        TaggerMode::Off | TaggerMode::UnsafeIdentity => 1,
        TaggerMode::Bounces(k) => resolve(k, "tagger bounces")? as usize + 1,
        // Controller modes run the 1-bounce ELP policy: two tags.
        TaggerMode::Controller | TaggerMode::Chaos { .. } => 2,
        TaggerMode::FromCheckpoint => return Err(CHECKPOINT.into()),
    };
    let mut pinned = Vec::new();
    for f in s.flows.iter().filter(|f| !f.via.is_empty()) {
        let nodes: Result<Vec<_>, String> = f
            .via
            .iter()
            .map(|name| {
                topo.node_by_name(name)
                    .ok_or_else(|| format!("unknown node `{name}` in flow via"))
            })
            .collect();
        let path = tagger_routing::Path::new(&topo, nodes?)
            .map_err(|e| format!("flow {}->{}: invalid via path: {e:?}", f.src, f.dst))?;
        pinned.push(path);
    }
    let elp = if !pinned.is_empty() {
        Elp::from_paths(pinned)
    } else if let Some(cfg) = &bcube_cfg {
        Elp::from_paths(tagger_routing::bcube_paths(cfg, &topo, true))
    } else {
        Elp::updown_with_bounces(&topo, budget.saturating_sub(1))
    };
    Ok(oracle::decide(&topo, &elp, Some(budget)))
}

fn outcome(spec: &AssertSpec, span: Span, pass: bool, detail: String) -> AssertOutcome {
    AssertOutcome {
        label: spec.label(),
        span,
        pass,
        detail,
    }
}

/// Evaluates every assert in `s` against `report`. Sweep variables are
/// resolved from `point`; an unbound variable (impossible after
/// validation) evaluates as a failure rather than a panic.
pub fn evaluate(
    s: &Scenario,
    point: &BTreeMap<String, u64>,
    report: &SimReport,
) -> Vec<AssertOutcome> {
    let end_ns = s.end_ns;
    s.asserts
        .iter()
        .map(|(spec, span)| match spec {
            AssertSpec::NoDeadlock => {
                let (pass, detail) = match &report.deadlock {
                    None => (true, "no deadlock".to_string()),
                    Some(d) => (
                        false,
                        format!(
                            "deadlock detected at {} ns (cycle of {} queues)",
                            d.detected_at,
                            d.cycle.len()
                        ),
                    ),
                };
                outcome(spec, *span, pass, detail)
            }
            AssertSpec::DeadlockBy(t) => {
                let Some(deadline) = t.resolve(end_ns, point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                let (pass, detail) = match &report.deadlock {
                    Some(d) if d.detected_at <= deadline => (
                        true,
                        format!(
                            "deadlock detected at {} ns <= {} ns",
                            d.detected_at, deadline
                        ),
                    ),
                    Some(d) => (
                        false,
                        format!(
                            "deadlock detected late, at {} ns > {} ns",
                            d.detected_at, deadline
                        ),
                    ),
                    None => (false, "no deadlock detected".to_string()),
                };
                outcome(spec, *span, pass, detail)
            }
            AssertSpec::WatchdogTrips(cmp, n) => {
                let actual = report.watchdog.as_ref().map_or(0, |w| w.stats.trips);
                let Some(expect) = n.resolve(point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                outcome(
                    spec,
                    *span,
                    cmp.test(actual, expect),
                    format!("{actual} trips (want {} {expect})", cmp.label()),
                )
            }
            AssertSpec::Episodes(cmp, n) => {
                let actual = report.watchdog.as_ref().map_or(0, |w| w.episodes);
                let Some(expect) = n.resolve(point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                outcome(
                    spec,
                    *span,
                    cmp.test(actual, expect),
                    format!("{actual} episodes (want {} {expect})", cmp.label()),
                )
            }
            AssertSpec::Recoveries(cmp, n) => {
                let actual = report.recoveries;
                let Some(expect) = n.resolve(point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                outcome(
                    spec,
                    *span,
                    cmp.test(actual, expect),
                    format!("{actual} recoveries (want {} {expect})", cmp.label()),
                )
            }
            AssertSpec::LosslessDrops(cmp, n) => {
                let actual = report.switch.lossless_drops;
                let Some(expect) = n.resolve(point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                outcome(
                    spec,
                    *span,
                    cmp.test(actual, expect),
                    format!("{actual} lossless drops (want {} {expect})", cmp.label()),
                )
            }
            AssertSpec::MaxPause(t) => {
                let Some(limit) = t.resolve(end_ns, point) else {
                    return outcome(spec, *span, false, "unbound sweep variable".into());
                };
                let actual = max_pause_ns(report);
                outcome(
                    spec,
                    *span,
                    actual <= limit,
                    format!("longest stall {actual} ns (limit {limit} ns)"),
                )
            }
            AssertSpec::Feasible | AssertSpec::Infeasible => {
                let want_feasible = matches!(spec, AssertSpec::Feasible);
                let (pass, detail) = match feasibility_verdict(s, point) {
                    Ok(v) => (v.is_feasible() == want_feasible, v.summary()),
                    Err(e) => (false, e),
                };
                outcome(spec, *span, pass, detail)
            }
            AssertSpec::AttributionMatches => {
                let (pass, detail) = match report.watchdog.as_ref().and_then(|w| w.trigger.as_ref())
                {
                    Some(t) if t.matches_ground_truth => {
                        (true, format!("attributed in {} hops, matches", t.hops))
                    }
                    Some(_) => (false, "attribution disagrees with ground truth".to_string()),
                    None => (false, "no trigger attribution recorded".to_string()),
                };
                outcome(spec, *span, pass, detail)
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn empty_report() -> SimReport {
        SimReport {
            flows: Vec::new(),
            deadlock: None,
            switch: Default::default(),
            no_route_drops: 0,
            recoveries: 0,
            recovery_drops: 0,
            link_down_drops: 0,
            watchdog: None,
            queue_series: Vec::new(),
            end_time_ns: 4_000_000,
            sample_interval_ns: 100_000,
            events_processed: 0,
        }
    }

    #[test]
    fn no_deadlock_passes_on_clean_report() {
        let s = parse("scenario x\nassert no-deadlock\nassert lossless-drops == 0\n").unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(outs.iter().all(|o| o.pass), "{outs:?}");
    }

    #[test]
    fn deadlock_by_fails_without_deadlock() {
        let s = parse("scenario x\nend 4ms\nassert deadlock-by 50%\n").unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(!outs[0].pass);
        assert_eq!(outs[0].detail, "no deadlock detected");
    }

    #[test]
    fn feasibility_asserts_consult_the_oracle() {
        // The Fig. 10 counter-rotating pair at one lossless priority
        // (`tagger off`): provably infeasible.
        let text = "\
scenario x
topo clos small
tagger off
flow H1 H13 via H1 T1 L1 S1 L3 S2 L4 T4 H13
flow H9 H1 via H9 T3 L3 S2 L1 S1 L2 T1 H1
assert infeasible
";
        let s = parse(text).unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(outs[0].pass, "{outs:?}");
        assert!(outs[0].detail.contains("infeasible"), "{}", outs[0].detail);

        // The same pair with a bounce of budget: feasible — and the
        // misasserted direction fails with the oracle's summary.
        let feasible = text
            .replace("tagger off", "tagger bounces 1")
            .replace("assert infeasible", "assert feasible");
        let s = parse(&feasible).unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(outs[0].pass, "{outs:?}");
        let misasserted = text.replace("tagger off", "tagger bounces 1");
        let s = parse(&misasserted).unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(!outs[0].pass, "{outs:?}");
        assert!(outs[0].detail.contains("feasible"), "{}", outs[0].detail);
    }

    #[test]
    fn feasibility_asserts_reject_checkpoint_topologies() {
        let s = parse("scenario x\ncheckpoint fleet.ckpt\nassert feasible\n").unwrap();
        let outs = evaluate(&s, &BTreeMap::new(), &empty_report());
        assert!(!outs[0].pass);
        assert!(
            outs[0].detail.contains("not supported"),
            "{}",
            outs[0].detail
        );
    }

    #[test]
    fn max_pause_ignores_ramp_and_tail() {
        let mut r = empty_report();
        r.flows.push(tagger_sim::FlowReport {
            flow: 0,
            src: tagger_topo::NodeId(0),
            dst: tagger_topo::NodeId(1),
            delivered_bytes: 1,
            delivered_packets: 1,
            ttl_drops: 0,
            wd_drops: 0,
            // 2 leading zeros (ramp), a 3-sample mid stall, 4 trailing
            // zeros (done): only the mid stall counts.
            rate_series: vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        });
        assert_eq!(max_pause_ns(&r), 3 * 100_000);
    }
}
