//! The parsed form of a `.scn` scenario: everything the DSL can say,
//! with sweep variables still symbolic (`$hosts`) until expansion
//! resolves them against a sweep point.

use tagger_core::Span;
use tagger_topo::{ClosConfig, TopoSpec};

/// An integer argument: a literal, or a `$var` resolved from the active
/// sweep point at expansion time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Num {
    /// A literal value.
    Lit(u64),
    /// A sweep variable reference (`$hosts`).
    Var(String),
}

impl From<usize> for Num {
    /// A literal — how a fabric spec's defaults enter a scenario.
    fn from(v: usize) -> Num {
        Num::Lit(v as u64)
    }
}

impl Num {
    /// Resolves against a sweep point. Returns `None` for an unbound
    /// variable (parse validation rejects those up front).
    pub fn resolve(&self, point: &std::collections::BTreeMap<String, u64>) -> Option<u64> {
        match self {
            Num::Lit(v) => Some(*v),
            Num::Var(name) => point.get(name).copied(),
        }
    }
}

/// A time argument: absolute nanoseconds (possibly swept) or a percent
/// of the scenario horizon (`@20%`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeSpec {
    /// Absolute nanoseconds.
    Ns(Num),
    /// Percent of `end` (0–100).
    Pct(u64),
}

impl TimeSpec {
    /// Time zero.
    pub fn zero() -> TimeSpec {
        TimeSpec::Ns(Num::Lit(0))
    }

    /// Resolves to nanoseconds given the horizon and sweep point.
    pub fn resolve(
        &self,
        end_ns: u64,
        point: &std::collections::BTreeMap<String, u64>,
    ) -> Option<u64> {
        match self {
            TimeSpec::Ns(n) => n.resolve(point),
            TimeSpec::Pct(p) => Some(end_ns / 100 * p),
        }
    }
}

/// How the Tagger rule tables are produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TaggerMode {
    /// No tagging: one lossless priority, no rules — the baseline.
    Off,
    /// `clos_tagging` with `k` bounces (BCube topologies compile the
    /// multi-path ELP instead; the bounce count is ignored there).
    Bounces(Num),
    /// Tables managed by a `tagger-ctrl` controller (1-bounce policy):
    /// `fail` events feed the controller and its committed deltas are
    /// applied at the matching `reconverge`.
    Controller,
    /// Controller behind a seeded chaotic southbound (`seed`,
    /// `fail_rate`): the fabric runs whatever the barrier left installed.
    Chaos {
        /// Chaos schedule seed.
        seed: Num,
        /// Refusal rate, 0.0–1.0.
        rate: f64,
    },
    /// The adversarial identity program (`unsafe_identity_rules`) whose
    /// dependency graph contains the Fig. 3 CBD.
    UnsafeIdentity,
    /// Rules come from the `checkpoint` topology source.
    FromCheckpoint,
}

/// One explicit flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowDecl {
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
    /// Start time.
    pub at: TimeSpec,
    /// Byte limit (`None` = persistent).
    pub limit: Option<Num>,
    /// Pinned path (node names, src..dst inclusive); empty = FIB-routed.
    pub via: Vec<String>,
}

/// A named traffic pattern expanded into flows at instantiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `k` sources (first `k` hosts ≠ dst, id order) into one host.
    Incast {
        /// Fan-in.
        k: Num,
        /// Destination host name.
        dst: String,
        /// Start time.
        at: TimeSpec,
    },
    /// One host fanning out to `k` destinations.
    Shuffle {
        /// Source host name.
        src: String,
        /// Fan-out.
        k: Num,
        /// Start time.
        at: TimeSpec,
    },
    /// A seeded derangement over every host (each sends to one other).
    Permutation {
        /// Start time.
        at: TimeSpec,
    },
    /// First `n` hosts, every ordered pair (the shuffle matrix).
    AllToAll {
        /// Participants.
        n: Num,
        /// Start time.
        at: TimeSpec,
    },
    /// `n` random flows with websearch-like (heavy-tailed) sizes.
    Websearch {
        /// Flow count.
        n: Num,
        /// Start time.
        at: TimeSpec,
    },
    /// `n` random flows with hadoop-like (small-shard) sizes.
    Hadoop {
        /// Flow count.
        n: Num,
        /// Start time.
        at: TimeSpec,
    },
}

/// A scheduled network event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventSpec {
    /// Link A–B dies; the FIB degrades to stale-routes-with-local-detours
    /// at the same instant (the §3.2 transient window).
    Fail {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
        /// When.
        at: TimeSpec,
    },
    /// `n` seeded random switch-switch links die at once.
    FailRandom {
        /// How many links.
        n: Num,
        /// When.
        at: TimeSpec,
    },
    /// Link A–B comes back (routing unchanged until `reconverge`).
    Restore {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
        /// When.
        at: TimeSpec,
    },
    /// Routing reconverges: global shortest paths avoiding every link
    /// still down. Controller modes also apply their committed deltas
    /// here.
    Reconverge {
        /// When.
        at: TimeSpec,
    },
    /// Link A–B bounces down/up `times` times, `gap` apart (rolling
    /// link-flap workload). Routing is left alone — flaps model the
    /// pre-reconvergence churn.
    Flap {
        /// One endpoint name.
        a: String,
        /// Other endpoint name.
        b: String,
        /// First down instant.
        at: TimeSpec,
        /// Down/up pairs.
        times: Num,
        /// Time between transitions.
        gap: TimeSpec,
    },
    /// Install a bad route: `sw` forwards `dst`-bound traffic via `via`
    /// from `at` on (the Fig. 11 loop generator).
    Route {
        /// The switch to misprogram.
        sw: String,
        /// Destination host whose traffic is redirected.
        dst: String,
        /// The (adjacent) next hop.
        via: String,
        /// When.
        at: TimeSpec,
    },
    /// Quarantine the `sw`→`nbr` hop: reinstall the tables minus every
    /// rule leaving through it (`mask_hop`).
    Mask {
        /// The switch.
        sw: String,
        /// The neighbour whose port is masked.
        nbr: String,
        /// When.
        at: TimeSpec,
    },
    /// Replay the link events of a control-plane trace file, one trace
    /// line per `gap`, starting at `at`.
    Trace {
        /// Path to the trace, relative to the `.scn` file.
        path: String,
        /// First event instant.
        at: TimeSpec,
        /// Spacing between trace lines.
        gap: TimeSpec,
    },
}

/// Comparison operator in counting asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl Cmp {
    /// Applies the comparison.
    pub fn test(self, actual: u64, expect: u64) -> bool {
        match self {
            Cmp::Eq => actual == expect,
            Cmp::Ge => actual >= expect,
            Cmp::Le => actual <= expect,
        }
    }

    /// Renders the operator.
    pub fn label(self) -> &'static str {
        match self {
            Cmp::Eq => "==",
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
        }
    }
}

/// One `assert` line: the invariant the run must satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssertSpec {
    /// The structural detector never confirms a deadlock.
    NoDeadlock,
    /// A deadlock is confirmed at or before this time.
    DeadlockBy(TimeSpec),
    /// Watchdog trip count compares as given (0 when unarmed is an
    /// unsatisfiable `>= 1`).
    WatchdogTrips(Cmp, Num),
    /// Deadlock episode count (confirmed-SCC formations) compares.
    Episodes(Cmp, Num),
    /// Detect-and-break recovery count compares.
    Recoveries(Cmp, Num),
    /// Lossless drop count compares (the PFC contract check).
    LosslessDrops(Cmp, Num),
    /// No flow's mid-stream stall (consecutive zero-rate samples between
    /// its first and last delivery) exceeds this duration.
    MaxPause(TimeSpec),
    /// The watchdog's initial-trigger attribution matches the
    /// simulator's independent ground truth.
    AttributionMatches,
    /// The existence oracle proves a deadlock-free tagging of the
    /// scenario's ELP fits in the tag budget its `tagger` mode provides
    /// (static — no simulation consulted).
    Feasible,
    /// The existence oracle proves no deadlock-free tagging fits in the
    /// mode's tag budget (static — no simulation consulted).
    Infeasible,
}

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Num::Lit(v) => write!(f, "{v}"),
            Num::Var(name) => write!(f, "${name}"),
        }
    }
}

impl std::fmt::Display for TimeSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSpec::Ns(n) => write!(f, "{n}ns"),
            TimeSpec::Pct(p) => write!(f, "{p}%"),
        }
    }
}

impl AssertSpec {
    /// Renders the assert as written in the DSL (report labels).
    pub fn label(&self) -> String {
        match self {
            AssertSpec::NoDeadlock => "no-deadlock".to_string(),
            AssertSpec::DeadlockBy(t) => format!("deadlock-by {t}"),
            AssertSpec::WatchdogTrips(c, n) => format!("watchdog-trips {} {n}", c.label()),
            AssertSpec::Episodes(c, n) => format!("episodes {} {n}", c.label()),
            AssertSpec::Recoveries(c, n) => format!("recoveries {} {n}", c.label()),
            AssertSpec::LosslessDrops(c, n) => format!("lossless-drops {} {n}", c.label()),
            AssertSpec::MaxPause(t) => format!("max-pause {t}"),
            AssertSpec::AttributionMatches => "attribution matches-ground-truth".to_string(),
            AssertSpec::Feasible => "feasible".to_string(),
            AssertSpec::Infeasible => "infeasible".to_string(),
        }
    }
}

/// Watchdog arming.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogDecl {
    /// Trip window.
    pub window: TimeSpec,
    /// `true` = drop policy, `false` = demote (default).
    pub drop: bool,
}

/// A sweep axis: `sweep hosts 32..1024 step *2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sweep {
    /// Variable name (`$name` references resolve to the point value).
    pub var: String,
    /// Inclusive start.
    pub from: u64,
    /// Inclusive end.
    pub to: u64,
    /// Multiplicative step (`*k`), or additive when `false`.
    pub mul: bool,
    /// Step size.
    pub step: u64,
}

impl Sweep {
    /// The values this axis takes.
    pub fn values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut v = self.from;
        while v <= self.to {
            out.push(v);
            let next = if self.mul {
                v.saturating_mul(self.step)
            } else {
                v.saturating_add(self.step)
            };
            if next <= v {
                break;
            }
            v = next;
        }
        out
    }
}

/// A fully parsed scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (`scenario` directive; defaults to the file stem).
    pub name: String,
    /// Fabric (`topo` directive), unless `checkpoint` names one.
    pub topo: TopoSpec<Num>,
    /// Audit checkpoint the topology and rule tables are loaded from
    /// (`checkpoint` directive), when given.
    pub checkpoint: Option<String>,
    /// Rule-table source.
    pub tagger: TaggerMode,
    /// Where the `tagger` directive names its mode (the whole file when
    /// the scenario has none).
    pub tagger_span: Span,
    /// Seed for workload/failure randomness.
    pub seed: u64,
    /// Horizon in nanoseconds.
    pub end_ns: u64,
    /// Fig. 8 old-tag transition mode when `true`.
    pub old_tag_transition: bool,
    /// Switch buffer override in bytes.
    pub buffer_bytes: Option<Num>,
    /// PFC pause quanta (timer/refresh mode) when set.
    pub pause_quanta: Option<TimeSpec>,
    /// Detect-and-break recovery enabled.
    pub recovery: bool,
    /// PFC watchdog, when armed.
    pub watchdog: Option<WatchdogDecl>,
    /// DCQCN-lite congestion control enabled.
    pub dcqcn: bool,
    /// Explicit flows, in declaration order.
    pub flows: Vec<FlowDecl>,
    /// Workloads, in declaration order.
    pub workloads: Vec<Workload>,
    /// Scheduled events, in declaration order.
    pub events: Vec<EventSpec>,
    /// The assert block, with the span of each line (for lint).
    pub asserts: Vec<(AssertSpec, Span)>,
    /// Sweep axes (cartesian product).
    pub sweeps: Vec<Sweep>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: String::new(),
            topo: ClosConfig::small().into(),
            checkpoint: None,
            tagger: TaggerMode::Off,
            tagger_span: Span::whole_file(),
            seed: 1,
            end_ns: 4_000_000,
            old_tag_transition: false,
            buffer_bytes: None,
            pause_quanta: None,
            recovery: false,
            watchdog: None,
            dcqcn: false,
            flows: Vec::new(),
            workloads: Vec::new(),
            events: Vec::new(),
            asserts: Vec::new(),
            sweeps: Vec::new(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn sweep_values_multiplicative_and_additive() {
        let s = Sweep {
            var: "hosts".into(),
            from: 32,
            to: 1024,
            mul: true,
            step: 2,
        };
        assert_eq!(s.values(), vec![32, 64, 128, 256, 512, 1024]);
        let a = Sweep {
            var: "n".into(),
            from: 1,
            to: 4,
            mul: false,
            step: 1,
        };
        assert_eq!(a.values(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn num_and_time_resolution() {
        let mut point = std::collections::BTreeMap::new();
        point.insert("hosts".to_string(), 64u64);
        assert_eq!(Num::Lit(3).resolve(&point), Some(3));
        assert_eq!(Num::Var("hosts".into()).resolve(&point), Some(64));
        assert_eq!(Num::Var("missing".into()).resolve(&point), None);
        assert_eq!(TimeSpec::Pct(20).resolve(1_000_000, &point), Some(200_000));
        assert_eq!(
            TimeSpec::Ns(Num::Lit(5)).resolve(1_000_000, &point),
            Some(5)
        );
    }
}
