//! Per-queue PFC watchdog: the data-plane safety net.
//!
//! Commodity switches ship a last-line defense the paper assumes away: a
//! watchdog that notices a lossless egress queue stuck in the tx-paused
//! state for longer than any healthy congestion episode and recovers
//! in-band. This module is the clock-agnostic state machine; the
//! simulator drives it with observations (is the queue stuck? is it
//! confirmed to sit on a circular wait?) and applies the recovery action
//! it decides on.
//!
//! The machine per queue:
//!
//! ```text
//!           stuck                window elapsed && confirmed
//!   Idle ---------> Watching ----------------------------------> Trip
//!    ^                |  |                                        |
//!    |   not stuck    |  | window elapsed && !confirmed           v
//!    +----------------+  +--> (suppressed, re-window)        HoldDown
//!    ^                                                            |
//!    |                    hold-down elapsed (Restore)             |
//!    +------------------------------------------------------------+
//! ```
//!
//! The *confirmed* input is the DCFIT-style cycle confirmation: a queue
//! that has been paused past the window but is **not** on a circular
//! wait (heavy incast, slow drain) is suppressed and re-windowed rather
//! than tripped — the false-positive guard. Repeat trips back off
//! exponentially: each consecutive trip doubles the hold-down, so a
//! persistently broken configuration converges to long quarantine
//! periods instead of flapping between demote and restore.

use std::ops::AddAssign;

/// What a tripped watchdog does to its queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WatchdogPolicy {
    /// Drain the queue to the floor: every held packet is dropped and
    /// its PFC accounting released — the classic switch-vendor watchdog.
    Drop,
    /// Demote the queue to the lossy class for the hold-down period
    /// (the paper's §4.4 sentinel-tag escape hatch): held packets are
    /// moved to the lossy queue with their tags stripped, and arrivals
    /// for the queue are redirected likewise until restore. Nothing is
    /// dropped by the watchdog itself.
    #[default]
    Demote,
}

/// Watchdog tuning. All times are in the driving clock's units
/// (nanoseconds in the simulator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long a queue must stay tx-paused-and-loaded before the
    /// watchdog considers tripping.
    pub window_ns: u64,
    /// What a trip does to the queue.
    pub policy: WatchdogPolicy,
    /// Base hold-down after a trip; doubles per consecutive trip.
    pub hold_down_ns: u64,
    /// Cap on the exponential backoff: the hold-down never exceeds
    /// `hold_down_ns << max_backoff_exp`.
    pub max_backoff_exp: u32,
}

impl WatchdogConfig {
    /// A watchdog with the given window, demote policy, and a hold-down
    /// of twice the window.
    pub fn with_window(window_ns: u64) -> WatchdogConfig {
        WatchdogConfig {
            window_ns,
            policy: WatchdogPolicy::Demote,
            hold_down_ns: window_ns.saturating_mul(2),
            max_backoff_exp: 4,
        }
    }

    /// Same, with an explicit policy.
    pub fn with_policy(window_ns: u64, policy: WatchdogPolicy) -> WatchdogConfig {
        WatchdogConfig {
            policy,
            ..WatchdogConfig::with_window(window_ns)
        }
    }

    /// The hold-down imposed by the trip numbered `consecutive` (0 for
    /// the first trip since the last quiet period).
    pub fn hold_down_for(&self, consecutive: u32) -> u64 {
        let exp = consecutive.min(self.max_backoff_exp);
        self.hold_down_ns.saturating_mul(1u64 << exp)
    }
}

impl Default for WatchdogConfig {
    /// 200 µs window — an order of magnitude beyond any PAUSE a healthy
    /// incast holds at the model's thresholds — demote policy, 400 µs
    /// base hold-down, backoff capped at 16×.
    fn default() -> Self {
        WatchdogConfig::with_window(200_000)
    }
}

/// Counters a watchdog deployment accumulates; summed across queues and
/// switches into `SimReport::watchdog`. Arrivals redirected to the lossy
/// class while a queue sat demoted are a switch fact,
/// [`SwitchStats::demoted_redirects`](crate::SwitchStats::demoted_redirects).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Confirmed trips (recovery actions taken).
    pub trips: u64,
    /// Windows that elapsed without cycle confirmation — the incast
    /// false positives the confirmation step absorbed.
    pub suppressions: u64,
    /// Hold-downs that expired and re-armed their queue.
    pub restores: u64,
    /// Packets dropped by [`WatchdogPolicy::Drop`] trips.
    pub drained_packets: u64,
    /// Held packets moved to the lossy class by
    /// [`WatchdogPolicy::Demote`] trips.
    pub demoted_packets: u64,
    /// Trips whose queue held an origin attribution — "I started this"
    /// (the tripping queue's own trigger stamp names itself).
    pub origin_trips: u64,
    /// Trips whose queue inherited its pause from downstream (the
    /// stamp names another queue) — the victim trips cause-directed
    /// recovery redirects.
    pub inherited_trips: u64,
}

impl AddAssign for WatchdogStats {
    fn add_assign(&mut self, rhs: WatchdogStats) {
        self.trips += rhs.trips;
        self.suppressions += rhs.suppressions;
        self.restores += rhs.restores;
        self.drained_packets += rhs.drained_packets;
        self.demoted_packets += rhs.demoted_packets;
        self.origin_trips += rhs.origin_trips;
        self.inherited_trips += rhs.inherited_trips;
    }
}

/// What one poll decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// Nothing to do.
    None,
    /// The window elapsed but the cycle confirmation refuted a deadlock;
    /// the watch was re-windowed instead of tripping.
    Suppressed,
    /// Trip: the caller must apply [`WatchdogConfig::policy`] to the
    /// queue now.
    Trip,
    /// The hold-down expired: the caller must restore the queue to the
    /// lossless class (no-op for the drop policy) — the watchdog is
    /// re-armed.
    Restore,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Queue healthy; `since` is when we last entered this phase (for
    /// backoff decay).
    Idle { since: u64 },
    /// Queue stuck since `since`; trips when the window elapses with
    /// confirmation.
    Watching { since: u64 },
    /// Tripped; the recovery action is in force until `until`.
    HoldDown { until: u64 },
}

/// The per-queue watchdog state machine. Owns no clock and touches no
/// queue: the driver supplies observations and applies verdicts.
#[derive(Clone, Copy, Debug)]
pub struct QueueWatchdog {
    phase: Phase,
    /// Trips since the last full quiet period; indexes the backoff.
    consecutive_trips: u32,
}

impl Default for QueueWatchdog {
    fn default() -> Self {
        QueueWatchdog {
            phase: Phase::Idle { since: 0 },
            consecutive_trips: 0,
        }
    }
}

impl QueueWatchdog {
    /// True while the trip action is in force (the queue is demoted or
    /// being drained).
    pub fn in_hold_down(&self) -> bool {
        matches!(self.phase, Phase::HoldDown { .. })
    }

    /// Trips taken since the last quiet period (drives the backoff).
    pub fn consecutive_trips(&self) -> u32 {
        self.consecutive_trips
    }

    /// Advances the machine to `now`. `stuck` is the raw symptom — the
    /// queue is tx-paused and holds packets; `confirmed` is the cycle
    /// confirmation — the queue sits on a circular PFC wait right now.
    pub fn poll(
        &mut self,
        now: u64,
        stuck: bool,
        confirmed: bool,
        cfg: &WatchdogConfig,
    ) -> WatchdogVerdict {
        match self.phase {
            Phase::Idle { since } => {
                if stuck {
                    self.phase = Phase::Watching { since: now };
                } else if self.consecutive_trips > 0
                    && now.saturating_sub(since) >= cfg.hold_down_ns
                {
                    // A full quiet base-hold-down: the pathology is gone,
                    // forget the backoff history.
                    self.consecutive_trips = 0;
                }
                WatchdogVerdict::None
            }
            Phase::Watching { since } => {
                if !stuck {
                    self.phase = Phase::Idle { since: now };
                    return WatchdogVerdict::None;
                }
                if now.saturating_sub(since) < cfg.window_ns {
                    return WatchdogVerdict::None;
                }
                if !confirmed {
                    // Persistently paused but no circular wait: heavy
                    // congestion. Re-window so a later genuine deadlock
                    // still has to persist a full window.
                    self.phase = Phase::Watching { since: now };
                    return WatchdogVerdict::Suppressed;
                }
                let hold = cfg.hold_down_for(self.consecutive_trips);
                self.consecutive_trips = self.consecutive_trips.saturating_add(1);
                self.phase = Phase::HoldDown {
                    until: now.saturating_add(hold),
                };
                WatchdogVerdict::Trip
            }
            Phase::HoldDown { until } => {
                if now < until {
                    return WatchdogVerdict::None;
                }
                self.phase = Phase::Idle { since: now };
                WatchdogVerdict::Restore
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            window_ns: 100,
            policy: WatchdogPolicy::Demote,
            hold_down_ns: 200,
            max_backoff_exp: 3,
        }
    }

    #[test]
    fn trips_only_after_a_full_confirmed_window() {
        let c = cfg();
        let mut wd = QueueWatchdog::default();
        assert_eq!(wd.poll(0, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(99, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(100, true, true, &c), WatchdogVerdict::Trip);
        assert!(wd.in_hold_down());
    }

    #[test]
    fn recovery_before_the_window_rearms_silently() {
        let c = cfg();
        let mut wd = QueueWatchdog::default();
        wd.poll(0, true, true, &c);
        assert_eq!(wd.poll(50, false, false, &c), WatchdogVerdict::None);
        // The watch restarted: another 99 stuck ns are not enough.
        wd.poll(60, true, true, &c);
        assert_eq!(wd.poll(159, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(160, true, true, &c), WatchdogVerdict::Trip);
    }

    #[test]
    fn unconfirmed_window_suppresses_and_rewindows() {
        let c = cfg();
        let mut wd = QueueWatchdog::default();
        wd.poll(0, true, false, &c);
        assert_eq!(wd.poll(100, true, false, &c), WatchdogVerdict::Suppressed);
        // The suppression re-windowed: confirmation at 150 is only 50ns
        // into the new window, no trip yet.
        assert_eq!(wd.poll(150, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(200, true, true, &c), WatchdogVerdict::Trip);
    }

    #[test]
    fn hold_down_restores_then_backs_off_exponentially() {
        let c = cfg();
        let mut wd = QueueWatchdog::default();
        wd.poll(0, true, true, &c);
        assert_eq!(wd.poll(100, true, true, &c), WatchdogVerdict::Trip);
        // First hold-down is the base 200ns.
        assert_eq!(wd.poll(299, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(300, true, true, &c), WatchdogVerdict::Restore);
        // Still stuck: re-watch, trip again; this hold-down doubles.
        wd.poll(301, true, true, &c);
        assert_eq!(wd.poll(401, true, true, &c), WatchdogVerdict::Trip);
        assert_eq!(wd.poll(800, true, true, &c), WatchdogVerdict::None);
        assert_eq!(wd.poll(801, true, true, &c), WatchdogVerdict::Restore);
        assert_eq!(wd.consecutive_trips(), 2);
    }

    #[test]
    fn backoff_caps_and_decays_after_quiet() {
        let c = cfg();
        assert_eq!(c.hold_down_for(0), 200);
        assert_eq!(c.hold_down_for(3), 1_600);
        assert_eq!(c.hold_down_for(30), 1_600, "capped at max_backoff_exp");
        let mut wd = QueueWatchdog::default();
        wd.poll(0, true, true, &c);
        wd.poll(100, true, true, &c); // trip
        wd.poll(300, false, false, &c); // restore
        assert_eq!(wd.consecutive_trips(), 1);
        // A full quiet base-hold-down later, the history decays.
        wd.poll(400, false, false, &c);
        assert_eq!(wd.consecutive_trips(), 1, "not quiet long enough");
        wd.poll(501, false, false, &c);
        assert_eq!(wd.consecutive_trips(), 0);
    }

    #[test]
    fn stats_sum_across_queues() {
        let mut a = WatchdogStats {
            trips: 1,
            suppressions: 2,
            restores: 1,
            drained_packets: 10,
            demoted_packets: 3,
            origin_trips: 1,
            inherited_trips: 0,
        };
        a += WatchdogStats {
            trips: 2,
            ..WatchdogStats::default()
        };
        assert_eq!(a.trips, 3);
        assert_eq!(a.suppressions, 2);
    }
}
