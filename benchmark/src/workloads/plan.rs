//! `plan-jellyfish`: offline planning of random-regular fabrics, the
//! paper's Table 5 path. One operation plans and certifies one fabric:
//! `shortest_paths_all_pairs → oracle::decide → Tagging::from_elp →
//! verify → TcamProgram::compile → Auditor::audit → check_elp_lossless`.

use super::{derive_seed, overhead_share, recording, timed, Ctx, Outcome};
use crate::layers::{control_path_layers, tagging_pipeline, PipelineCounts};
use crate::stats::{fnv48, median, peak_rss_mb};
use std::time::Instant;
use tagger::audit::Auditor;
use tagger::core::{decide, Elp, RuleSet, Tagging, Verdict};
use tagger::routing::shortest_paths_all_pairs;
use tagger::topo::{FailureSet, JellyfishConfig, Topology};

/// What the workload is built from.
pub struct PlanSizes {
    /// Switches per fabric.
    pub switches: usize,
    /// Ports per switch; half face servers (Table 5's configuration).
    pub ports: usize,
    /// Distinct fabrics built at set-up; operations cycle through them.
    pub pool: usize,
    /// How many times set-up is performed (the median is reported).
    pub setups: usize,
}

/// The shipped instance: 100 switches of 16 ports, 9,900 switch-pair
/// shortest paths per fabric.
pub const REFERENCE: PlanSizes = PlanSizes {
    switches: 100,
    ports: 16,
    pool: 256,
    setups: 5,
};

/// The seeded fabric pool.
pub fn fabrics(sizes: &PlanSizes, seed: u64) -> Vec<JellyfishConfig> {
    (0..sizes.pool)
        .map(|i| {
            JellyfishConfig::half_servers(sizes.switches, sizes.ports, derive_seed(seed, i as u64))
        })
        .collect()
}

/// One operation. `break_down` additionally re-executes the parts of
/// `from_elp` and a full-install diff as replayed spans.
fn plan_one(
    out: &mut Outcome,
    topo: &Topology,
    op: u64,
    break_down: bool,
) -> Result<(Tagging, PipelineCounts, f64), String> {
    let rec = &mut out.trace;
    let t = Instant::now();
    let span = rec.open(
        if break_down { "op.replay" } else { "op" },
        None,
        op,
        break_down,
    );
    let paths = rec.call("routing.shortest_all_pairs", Some(span), op, || {
        shortest_paths_all_pairs(topo, &FailureSet::none(), 1, false)
    });
    let elp = Elp::from_paths(paths);
    let verdict = rec.call("core.oracle_decide", Some(span), op, || {
        decide(topo, &elp, None)
    });
    let (tagging, counts) = tagging_pipeline(rec, span, op, break_down, break_down, topo, &elp)?;
    let certified = rec.call("audit.audit", Some(span), op, || {
        Auditor::new(topo.clone())
            .audit(0, tagging.rules())
            .is_certified()
    });
    let lossless = rec.call("core.check_elp_lossless", Some(span), op, || {
        tagging.check_elp_lossless(topo, &elp)
    });
    rec.close(span);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if break_down {
        let empty = RuleSet::new();
        rec.replay("core.diff", span, || empty.diff(tagging.rules()));
    }

    // The oracle proves a floor, the construction an upper bound; the
    // two must bracket each other within commodity-switch limits.
    let tags = counts.lossless_tags;
    let bracketed = match &verdict {
        Verdict::Feasible(f) => f.lower_bound_tags <= tags && tags <= 3,
        Verdict::Infeasible(_) => false,
    };
    let ok = bracketed && certified && lossless.is_ok() && !tagging.used_fallback();
    if !break_down {
        out.check(ok, || {
            format!(
                "fabric {op}: oracle {}, {tags} tag(s), certified {certified}, lossless {}, fallback {}",
                verdict.summary(),
                lossless.is_ok(),
                tagging.used_fallback()
            )
        });
    }
    Ok((tagging, counts, ms))
}

/// Runs the workload.
pub fn run(sizes: &PlanSizes, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let configs = fabrics(sizes, ctx.seed);
    let mut pool: Vec<Topology> = Vec::new();
    let mut topo_build_ms = Vec::new();
    for _ in 0..sizes.setups.max(1) {
        let (built, secs) = timed(|| {
            configs
                .iter()
                .map(JellyfishConfig::build)
                .collect::<Vec<_>>()
        });
        out.setup_s.push(secs);
        topo_build_ms.push(secs * 1e3 / configs.len().max(1) as f64);
        pool = built;
    }
    if pool.is_empty() {
        return Err("the fabric pool is empty".into());
    }

    let budget = ctx.loop_budget();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut digest = 0u64;
    let mut paths_planned = 0usize;
    let start = Instant::now();
    let mut op = 0usize;
    while op == 0 || start.elapsed() < budget {
        if ctx.traced {
            out.trace.set_enabled(recording(start, budget));
        }
        let topo = &pool[op % pool.len()];
        let (tagging, counts, ms) = plan_one(&mut out, topo, op as u64, false)?;
        if op == 0 {
            digest = fnv48(tagging.rules().to_table_text(topo).as_bytes());
        }
        paths_planned += counts.elp_paths;
        out.op_ms.push(ms);
        if out.trace.enabled() {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        op += 1;
    }
    out.timed_s = out.op_ms.iter().sum::<f64>() / 1e3;
    out.work = paths_planned as f64;
    out.peak_rss_mb = peak_rss_mb();

    if ctx.traced {
        // Break `from_elp` down on as many fabrics as half the probe
        // budget allows (each costs about two operations).
        out.trace.set_enabled(true);
        let probe = Instant::now();
        let mut counts = Vec::new();
        let mut delta_ops = Vec::new();
        for (i, topo) in pool.iter().enumerate() {
            let (_, c, _) = plan_one(&mut out, topo, i as u64, true)?;
            // Against empty tables every rule is one add.
            delta_ops.push(c.rules as f64);
            counts.push(c);
            if probe.elapsed() >= ctx.probe_budget() / 2 {
                break;
            }
        }
        control_path_layers(&mut out, &counts);
        let values = [
            ("topo.build_ms", median(&topo_build_ms)),
            (
                "routing.shortest_all_pairs_ms",
                out.trace.median_ms("routing.shortest_all_pairs"),
            ),
            (
                "core.oracle_decide_ms",
                out.trace.median_ms("core.oracle_decide"),
            ),
            ("core.delta_ops", median(&delta_ops)),
            ("core.rules_digest", digest as f64),
            (
                "trace.overhead_share",
                overhead_share(&untraced_ms, &traced_ms),
            ),
            (
                "trace.unaccounted_share",
                out.trace.unaccounted_share("op", &[]),
            ),
        ];
        for (name, value) in values {
            out.layer(name, value);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: PlanSizes = PlanSizes {
        switches: 12,
        ports: 6,
        pool: 3,
        setups: 2,
    };

    #[test]
    fn the_same_seed_gives_the_same_fabrics_and_another_seed_others() {
        let text = |seed| {
            fabrics(&TINY, seed)
                .iter()
                .map(|c| c.build().to_dot())
                .collect::<Vec<_>>()
        };
        assert_eq!(text(1), text(1));
        assert_ne!(text(1), text(2));
    }

    #[test]
    fn a_tiny_instance_runs_clean_in_both_modes() {
        for traced in [false, true] {
            let ctx = Ctx {
                seed: 5,
                seconds: 0.2,
                traced,
                dir: std::env::temp_dir(),
            };
            let out = run(&TINY, &ctx).unwrap();
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            assert_eq!(out.attempted, out.op_ms.len() as u64);
            assert!(out.work > 0.0);
            if traced {
                assert!(out.layers["core.oracle_decide_ms"] > 0.0);
                assert!(out.layers["core.alg1_ms"] > 0.0);
                assert!(out.layers["core.rules_digest"] > 0.0);
                assert!(out.layers["trace.unaccounted_share"] < 0.5);
            }
        }
    }
}
