//! Controller observability: counters, the stage-latency series, and a
//! text report.

use std::fmt::Write as _;
use std::time::Duration;
use tagger_core::Samples;

/// Counters the [`Controller`](crate::Controller) maintains across its
/// lifetime. All counters are cumulative; latencies cover the *stage*
/// step (ELP enumeration + tagging recompute + certification), which is
/// the expensive part of an epoch.
#[derive(Clone, Debug, Default)]
pub struct ControllerMetrics {
    /// Events accepted (malformed events that return an error do not
    /// count).
    pub events: u64,
    /// Epochs staged: a candidate tagging was computed, or reused.
    pub epochs_staged: u64,
    /// Staged epochs whose view the controller had already certified a
    /// snapshot for — the committed one or the one it replaced — and
    /// which reused that snapshot instead of recomputing (each also
    /// counts in [`ControllerMetrics::epochs_staged`]).
    pub stages_reused: u64,
    /// Epochs committed: the candidate passed validation and its deltas
    /// were emitted.
    pub epochs_committed: u64,
    /// Epochs rolled back for any reason.
    pub rollbacks: u64,
    /// Rollbacks caused by Theorem 5.1 verification failure.
    pub verify_failures: u64,
    /// Rollbacks caused by the per-switch TCAM budget.
    pub budget_rejections: u64,
    /// Total rules installed across all committed deltas.
    pub rules_added: u64,
    /// Total rules withdrawn across all committed deltas.
    pub rules_removed: u64,
    /// Southbound install attempts (first tries, retries, rollback and
    /// reconcile installs alike).
    pub install_attempts: u64,
    /// Install attempts that were retries of an earlier failed attempt.
    pub install_retries: u64,
    /// Install attempts the southbound failed (refused, timed out, or
    /// partially applied).
    pub install_failures: u64,
    /// Epochs aborted because a switch exhausted its attempt budget
    /// (each also counts in [`ControllerMetrics::rollbacks`]).
    pub install_aborts: u64,
    /// Successful inverse-delta / reconcile installs that undid or
    /// repaired fleet state.
    pub rollback_installs: u64,
    /// Total backoff the retry schedule imposed (simulated — recorded,
    /// never slept).
    pub install_backoff: Duration,
    /// Link events absorbed by flap damping: transitions that were
    /// coalesced into a neighbouring recompute instead of staging their
    /// own epoch.
    pub flaps_damped: u64,
    /// Watchdog trip events accepted: (switch, port, tag) hops
    /// quarantined out of the ELP.
    pub watchdog_trips: u64,
    /// Trips that carried initial-trigger attribution and quarantined
    /// the attributed trigger hop (cause-directed recovery).
    pub trigger_quarantines: u64,
    /// Trips without attribution that fell back to quarantining the
    /// tripping victim hop (the pre-attribution behaviour).
    pub victim_fallbacks: u64,
    /// Trips whose effective hop was already quarantined — later trips
    /// of an episode collapsing into the existing quarantine.
    pub attribution_dedups: u64,
    /// Watchdog clear events accepted: quarantines lifted.
    pub watchdog_clears: u64,
    /// Checkpoints written to the journal.
    pub checkpoints: u64,
    /// Events replayed from the journal during the most recent crash
    /// recovery.
    pub recovery_replays: u64,
    /// Stage latency of every staged epoch, µs, in staging order:
    /// committed and rolled-back stages alike, recomputed and reused
    /// alike, so it holds [`ControllerMetrics::epochs_staged`] samples.
    pub stage_us: Samples,
}

impl std::ops::AddAssign for ControllerMetrics {
    /// Fleet rollup: counters and cumulative durations add, and the
    /// stage-latency series concatenate, so fleet percentiles are taken
    /// over every fabric's stages.
    fn add_assign(&mut self, rhs: ControllerMetrics) {
        self.events += rhs.events;
        self.epochs_staged += rhs.epochs_staged;
        self.stages_reused += rhs.stages_reused;
        self.epochs_committed += rhs.epochs_committed;
        self.rollbacks += rhs.rollbacks;
        self.verify_failures += rhs.verify_failures;
        self.budget_rejections += rhs.budget_rejections;
        self.rules_added += rhs.rules_added;
        self.rules_removed += rhs.rules_removed;
        self.install_attempts += rhs.install_attempts;
        self.install_retries += rhs.install_retries;
        self.install_failures += rhs.install_failures;
        self.install_aborts += rhs.install_aborts;
        self.rollback_installs += rhs.rollback_installs;
        self.install_backoff += rhs.install_backoff;
        self.flaps_damped += rhs.flaps_damped;
        self.watchdog_trips += rhs.watchdog_trips;
        self.trigger_quarantines += rhs.trigger_quarantines;
        self.victim_fallbacks += rhs.victim_fallbacks;
        self.attribution_dedups += rhs.attribution_dedups;
        self.watchdog_clears += rhs.watchdog_clears;
        self.checkpoints += rhs.checkpoints;
        self.recovery_replays += rhs.recovery_replays;
        self.stage_us += rhs.stage_us;
    }
}

impl std::iter::Sum for ControllerMetrics {
    fn sum<I: Iterator<Item = ControllerMetrics>>(iter: I) -> ControllerMetrics {
        iter.fold(ControllerMetrics::default(), |mut acc, m| {
            acc += m;
            acc
        })
    }
}

impl ControllerMetrics {
    /// Plain-text report, one metric per line.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "controller metrics");
        let _ = writeln!(out, "  events processed    {:>8}", self.events);
        let _ = writeln!(out, "  epochs staged       {:>8}", self.epochs_staged);
        let _ = writeln!(out, "    stages reused     {:>8}", self.stages_reused);
        let _ = writeln!(out, "  epochs committed    {:>8}", self.epochs_committed);
        let _ = writeln!(out, "  rollbacks           {:>8}", self.rollbacks);
        let _ = writeln!(out, "    verify failures   {:>8}", self.verify_failures);
        let _ = writeln!(out, "    budget rejections {:>8}", self.budget_rejections);
        let _ = writeln!(out, "    install aborts    {:>8}", self.install_aborts);
        let _ = writeln!(out, "  rules added         {:>8}", self.rules_added);
        let _ = writeln!(out, "  rules removed       {:>8}", self.rules_removed);
        let _ = writeln!(out, "  install attempts    {:>8}", self.install_attempts);
        let _ = writeln!(out, "    install retries   {:>8}", self.install_retries);
        let _ = writeln!(out, "    install failures  {:>8}", self.install_failures);
        let _ = writeln!(out, "  rollback installs   {:>8}", self.rollback_installs);
        let _ = writeln!(out, "  install backoff     {:>8?}", self.install_backoff);
        let _ = writeln!(out, "  flaps damped        {:>8}", self.flaps_damped);
        let _ = writeln!(out, "  watchdog trips      {:>8}", self.watchdog_trips);
        let _ = writeln!(
            out,
            "    trigger quarantines {:>6}",
            self.trigger_quarantines
        );
        let _ = writeln!(out, "    victim fallbacks  {:>8}", self.victim_fallbacks);
        let _ = writeln!(out, "    attribution dedups{:>8}", self.attribution_dedups);
        let _ = writeln!(out, "  watchdog clears     {:>8}", self.watchdog_clears);
        let _ = writeln!(out, "  checkpoints written {:>8}", self.checkpoints);
        let _ = writeln!(out, "  recovery replays    {:>8}", self.recovery_replays);
        let stage = &self.stage_us;
        let _ = writeln!(
            out,
            "  recompute µs        last {} / mean {} / max {}",
            stage.as_slice().last().copied().unwrap_or(0),
            stage.mean().unwrap_or(0),
            stage.max().unwrap_or(0)
        );
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn report_mentions_every_counter() {
        let mut m = ControllerMetrics {
            events: 7,
            epochs_staged: 6,
            epochs_committed: 5,
            rollbacks: 1,
            budget_rejections: 1,
            ..ControllerMetrics::default()
        };
        m.stage_us.push(3000);
        m.stage_us.push(1000);
        let r = m.report();
        for needle in [
            "events processed",
            "epochs staged",
            "stages reused",
            "epochs committed",
            "rollbacks",
            "verify failures",
            "budget rejections",
            "rules added",
            "rules removed",
            "install attempts",
            "install retries",
            "install failures",
            "install aborts",
            "rollback installs",
            "install backoff",
            "flaps damped",
            "watchdog trips",
            "trigger quarantines",
            "victim fallbacks",
            "attribution dedups",
            "watchdog clears",
            "checkpoints written",
            "recovery replays",
            "recompute",
        ] {
            assert!(r.contains(needle), "report missing {needle:?}:\n{r}");
        }
        assert!(r.contains("last 1000 / mean 2000 / max 3000"), "{r}");
    }

    #[test]
    fn sum_rolls_up_counters_and_latencies() {
        let mut a = ControllerMetrics {
            events: 3,
            epochs_staged: 2,
            epochs_committed: 2,
            rules_added: 10,
            install_backoff: Duration::from_millis(4),
            ..ControllerMetrics::default()
        };
        a.stage_us.push(5000);
        let mut b = ControllerMetrics {
            events: 4,
            epochs_staged: 1,
            epochs_committed: 0,
            rollbacks: 1,
            rules_added: 1,
            install_backoff: Duration::from_millis(1),
            ..ControllerMetrics::default()
        };
        b.stage_us.push(2000);
        let total: ControllerMetrics = [a.clone(), b.clone()].into_iter().sum();
        assert_eq!(total.events, 7);
        assert_eq!(total.epochs_staged, 3);
        assert_eq!(total.epochs_committed, 2);
        assert_eq!(total.rollbacks, 1);
        assert_eq!(total.rules_added, 11);
        assert_eq!(total.install_backoff, Duration::from_millis(5));
        assert_eq!(total.stage_us.as_slice(), &[5000, 2000]);
        // Empty sum is the identity.
        let zero: ControllerMetrics = std::iter::empty().sum();
        assert_eq!(zero.events, 0);
        assert!(zero.stage_us.as_slice().is_empty());
    }
}
