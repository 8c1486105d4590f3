//! Seeded fault injection for the southbound layer.
//!
//! DCFIT-style chaos testing: the same install stream, replayed with the
//! same seed, hits the same faults — so every bug the chaos schedule
//! finds is reproducible from its seed, and CI can pin a seed and assert
//! the controller's invariants hold under it forever.

use crate::southbound::{apply_prefix, Southbound};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::fmt;
use tagger_core::{InstallError, RuleDelta, RuleSet};

/// The fault schedule: per-attempt probabilities of each install
/// pathology. Rates are clamped so their sum stays at or below 0.9,
/// which keeps every retry loop terminating with probability 1 — a
/// southbound that fails *every* attempt forever is not a fault model,
/// it is a dead network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// RNG seed; equal seeds produce equal fault schedules.
    pub seed: u64,
    /// Probability an install attempt is [`InstallError::Refused`]
    /// (nothing applied).
    pub fail_rate: f64,
    /// Probability an attempt is [`InstallError::Timeout`]; half of the
    /// timeouts applied the delta anyway (the ack was lost, not the
    /// update) — the nastiest real-world case.
    pub timeout_rate: f64,
    /// Probability an attempt is [`InstallError::PartialApply`],
    /// applying a uniformly random proper prefix of the delta.
    pub partial_rate: f64,
}

impl ChaosConfig {
    /// A schedule with the given seed and refusal rate and mild default
    /// timeout/partial rates (a tenth of `fail_rate` each), clamped.
    pub fn new(seed: u64, fail_rate: f64) -> Self {
        ChaosConfig {
            seed,
            fail_rate,
            timeout_rate: fail_rate / 10.0,
            partial_rate: fail_rate / 10.0,
        }
        .clamped()
    }

    /// Clamps each rate to `[0, 0.9]` and rescales so the total stays at
    /// or below 0.9.
    pub fn clamped(mut self) -> Self {
        for r in [
            &mut self.fail_rate,
            &mut self.timeout_rate,
            &mut self.partial_rate,
        ] {
            *r = r.clamp(0.0, 0.9);
        }
        let total = self.fail_rate + self.timeout_rate + self.partial_rate;
        if total > 0.9 {
            let scale = 0.9 / total;
            self.fail_rate *= scale;
            self.timeout_rate *= scale;
            self.partial_rate *= scale;
        }
        self
    }

    /// Parses the `--chaos` flag syntax: comma-separated `key=value`
    /// pairs, e.g. `seed=7,fail_rate=0.3,timeout_rate=0.1`. Unset keys
    /// default to seed 0 and rate 0. A rate must be a finite number: a
    /// NaN would survive the clamp and fail every draw's comparison,
    /// silently turning the chaos off.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = ChaosConfig {
            seed: 0,
            fail_rate: 0.0,
            timeout_rate: 0.0,
            partial_rate: 0.0,
        };
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec {pair:?} is not key=value"))?;
            let bad = || format!("chaos {key} wants a number, got {value:?}");
            let rate = || match value.trim().parse::<f64>() {
                Ok(r) if r.is_finite() => Ok(r),
                _ => Err(format!("chaos {key} wants a finite number, got {value:?}")),
            };
            match key.trim() {
                "seed" => cfg.seed = value.trim().parse().map_err(|_| bad())?,
                "fail_rate" => cfg.fail_rate = rate()?,
                "timeout_rate" => cfg.timeout_rate = rate()?,
                "partial_rate" => cfg.partial_rate = rate()?,
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        Ok(cfg.clamped())
    }
}

impl fmt::Display for ChaosConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} fail_rate={:.2} timeout_rate={:.2} partial_rate={:.2}",
            self.seed, self.fail_rate, self.timeout_rate, self.partial_rate
        )
    }
}

/// A [`Southbound`] that injects faults from a seeded schedule while
/// still tracking the exact table state each faulty install leaves
/// behind — refused installs change nothing, lost-ack timeouts may have
/// applied, partial applies land a prefix.
#[derive(Clone, Debug)]
pub struct ChaosSouthbound {
    fleet: RuleSet,
    cfg: ChaosConfig,
    rng: StdRng,
    faults: u64,
}

impl ChaosSouthbound {
    /// A chaotic fleet driven by `cfg`'s schedule.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosSouthbound {
            fleet: RuleSet::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            faults: 0,
        }
    }

    /// The schedule in force.
    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults
    }
}

impl Southbound for ChaosSouthbound {
    fn install(&mut self, _epoch: u64, delta: &RuleDelta) -> Result<(), InstallError> {
        let draw: f64 = self.rng.random();
        let c = self.cfg;
        if draw < c.fail_rate {
            self.faults += 1;
            return Err(InstallError::Refused);
        }
        if draw < c.fail_rate + c.timeout_rate {
            self.faults += 1;
            // Lost ack: the update itself raced the deadline and landed
            // half the time.
            if self.rng.random::<bool>() {
                apply_prefix(&mut self.fleet, delta, delta.len());
            }
            return Err(InstallError::Timeout);
        }
        if draw < c.fail_rate + c.timeout_rate + c.partial_rate && delta.len() > 1 {
            self.faults += 1;
            let applied_ops = self.rng.random_range(0..delta.len());
            apply_prefix(&mut self.fleet, delta, applied_ops);
            return Err(InstallError::PartialApply { applied_ops });
        }
        apply_prefix(&mut self.fleet, delta, delta.len());
        Ok(())
    }

    fn fleet(&self) -> &RuleSet {
        &self.fleet
    }

    fn bootstrap(&mut self, rules: &RuleSet) {
        self.fleet = rules.clone();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tagger_core::{SwitchRule, Tag};
    use tagger_topo::{NodeId, PortId};

    fn delta() -> RuleDelta {
        RuleDelta {
            switch: NodeId(1),
            add: vec![
                SwitchRule {
                    tag: Tag(1),
                    in_port: PortId(0),
                    out_port: PortId(1),
                    new_tag: Tag(1),
                },
                SwitchRule {
                    tag: Tag(1),
                    in_port: PortId(2),
                    out_port: PortId(1),
                    new_tag: Tag(2),
                },
            ],
            remove: vec![],
        }
    }

    #[test]
    fn parse_round_trips_the_flag_syntax() {
        let cfg = ChaosConfig::parse("seed=7,fail_rate=0.3").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.fail_rate - 0.3).abs() < 1e-9);
        assert!(ChaosConfig::parse("seed=x").is_err());
        assert!(ChaosConfig::parse("frobs=1").is_err());
        assert!(ChaosConfig::parse("fail_rate=0.2,bogus").is_err());
    }

    #[test]
    fn non_finite_rates_are_refused_by_key() {
        for (spec, key) in [
            ("seed=7,fail_rate=nan", "fail_rate"),
            ("timeout_rate=inf", "timeout_rate"),
            ("partial_rate=-inf", "partial_rate"),
            ("fail_rate=NaN", "fail_rate"),
        ] {
            let err = ChaosConfig::parse(spec).unwrap_err();
            assert!(err.contains(key) && err.contains("finite"), "{spec}: {err}");
        }
    }

    #[test]
    fn rates_are_clamped_to_guarantee_termination() {
        let cfg = ChaosConfig::parse("fail_rate=1.0,timeout_rate=1.0,partial_rate=1.0").unwrap();
        let total = cfg.fail_rate + cfg.timeout_rate + cfg.partial_rate;
        assert!(
            total <= 0.9 + 1e-9,
            "total fault rate {total} must be <=0.9"
        );
        let lone = ChaosConfig::parse("fail_rate=5.0").unwrap();
        assert!(lone.fail_rate <= 0.9);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ChaosConfig::new(42, 0.5);
        let mut a = ChaosSouthbound::new(cfg);
        let mut b = ChaosSouthbound::new(cfg);
        let d = delta();
        for _ in 0..64 {
            assert_eq!(a.install(1, &d), b.install(1, &d));
        }
        assert_eq!(a.fleet(), b.fleet());
        assert_eq!(a.faults_injected(), b.faults_injected());
        assert!(a.faults_injected() > 0, "0.5 over 64 attempts must fault");
    }

    #[test]
    fn retry_through_faults_eventually_lands_the_delta() {
        let mut sb = ChaosSouthbound::new(ChaosConfig::new(3, 0.6));
        let d = delta();
        let mut attempts = 0;
        while sb.install(1, &d).is_err() {
            attempts += 1;
            assert!(attempts < 1000, "clamped rates must terminate");
        }
        let mut expect = RuleSet::new();
        expect.apply_delta(&d);
        assert_eq!(sb.fleet(), &expect);
    }
}
