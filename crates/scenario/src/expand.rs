//! Deterministic expansion of a parsed [`Scenario`] into a configured
//! simulator: topology and rule tables from the `tagger` mode, workloads
//! into flow sets, failure/bounce schedules into scripted actions — all
//! seeded, so the same scenario at the same seed builds the same run,
//! byte for byte.

use crate::model::*;
use rand::{rngs::StdRng, seq::SliceRandom, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tagger_core::clos::clos_tagging;
use tagger_core::Span;
use tagger_routing::Fib;
use tagger_sim::experiments::{
    mask_hop, testbed_switch_config, unsafe_identity_rules, Experiment, TESTBED_PFC_DELAY_NS,
};
use tagger_sim::{Action, FlowSpec, SimConfig, Simulator};
use tagger_switch::{SwitchConfig, WatchdogConfig, WatchdogPolicy};
use tagger_topo::{BCubeConfig, ClosConfig, FailureSet, Family, LinkId, NodeId, Topology};

/// Runner-level overrides for one expansion.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Overrides the scenario's `seed` directive.
    pub seed: Option<u64>,
    /// Directory `checkpoint`/`trace` paths resolve against (the `.scn`
    /// file's directory).
    pub base_dir: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: None,
            base_dir: PathBuf::from("."),
        }
    }
}

/// Why an expansion failed (all config-level: the parser accepts the
/// file, but the fabric cannot realize it).
#[derive(Clone, Debug)]
pub struct ExpandError {
    /// The directive to blame, or the whole file when no one line is.
    pub span: Span,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.span.is_whole_file() {
            write!(f, "{}: ", self.span)?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExpandError {}

fn err(message: impl Into<String>) -> ExpandError {
    ExpandError {
        span: Span::whole_file(),
        message: message.into(),
    }
}

/// The `topo clos hosts N` fabric, [`ClosConfig::for_hosts`] — the
/// `sweep hosts` axis.
pub fn clos_for_hosts(hosts: u64) -> ClosConfig {
    ClosConfig::for_hosts(hosts as usize)
}

/// The scenario's fabric at one sweep point — its `topo` spec with the
/// `$var`s resolved, built — and the BCube shape when it names one, for
/// the BCube routing ELP.
pub(crate) fn fabric(
    s: &Scenario,
    point: &BTreeMap<String, u64>,
) -> Result<(Topology, Option<BCubeConfig>), String> {
    let unbound = || "unbound sweep variable in topo".to_string();
    let spec = s
        .topo
        .try_map(|n| n.resolve(point).map(|v| v as usize).ok_or_else(unbound))?;
    let topo = spec.build().map_err(|e| format!("topo: {e}"))?;
    Ok(match (&spec.family, &spec.args[..]) {
        (Family::BCube, &[(n, _), (k, _)]) => (topo, Some(BCubeConfig { n, k })),
        _ => (topo, None),
    })
}

/// The cartesian sweep grid: one `BTreeMap` of variable bindings per
/// point. A scenario without sweeps yields exactly one empty point.
pub fn points(s: &Scenario) -> Vec<BTreeMap<String, u64>> {
    let mut grid: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new()];
    for sweep in &s.sweeps {
        let mut next = Vec::new();
        for point in &grid {
            for v in sweep.values() {
                let mut p = point.clone();
                p.insert(sweep.var.clone(), v);
                next.push(p);
            }
        }
        grid = next;
    }
    grid
}

struct NumCtx<'a> {
    point: &'a BTreeMap<String, u64>,
    end_ns: u64,
}

impl NumCtx<'_> {
    fn num(&self, n: &Num, what: &str) -> Result<u64, ExpandError> {
        n.resolve(self.point)
            .ok_or_else(|| err(format!("unbound sweep variable in {what}")))
    }

    fn time(&self, t: &TimeSpec, what: &str) -> Result<u64, ExpandError> {
        t.resolve(self.end_ns, self.point)
            .ok_or_else(|| err(format!("unbound sweep variable in {what}")))
    }
}

fn node(topo: &Topology, name: &str) -> Result<NodeId, ExpandError> {
    topo.node_by_name(name)
        .ok_or_else(|| err(format!("unknown node `{name}`")))
}

fn link(topo: &Topology, a: &str, b: &str) -> Result<LinkId, ExpandError> {
    let (a_id, b_id) = (node(topo, a)?, node(topo, b)?);
    topo.link_between(a_id, b_id)
        .ok_or_else(|| err(format!("`{a}` and `{b}` are not adjacent")))
}

/// The egress port of `sw` facing `nbr`.
fn port_towards(
    topo: &Topology,
    sw: NodeId,
    nbr: NodeId,
) -> Result<tagger_topo::PortId, ExpandError> {
    topo.port_towards(sw, nbr)
        .ok_or_else(|| err("mask endpoints are not adjacent"))
}

/// Websearch-style flow sizes (heavy tail, bytes).
const WEBSEARCH_BYTES: [u64; 6] = [30_000, 80_000, 200_000, 600_000, 2_000_000, 10_000_000];
/// Hadoop-style flow sizes (small shards, bytes).
const HADOOP_BYTES: [u64; 5] = [10_000, 30_000, 60_000, 120_000, 500_000];

/// Builds the fabric + rules for one point and instantiates the
/// scenario into a ready-to-run [`Experiment`].
pub fn instantiate(
    s: &Scenario,
    point: &BTreeMap<String, u64>,
    opts: &RunOptions,
) -> Result<Experiment, ExpandError> {
    let seed = opts.seed.unwrap_or(s.seed);
    let end_ns = s.end_ns;
    let ctx = NumCtx { point, end_ns };

    // --- Topology + rule tables -------------------------------------
    let mut checkpoint_rules = None;
    let (topo, bcube_cfg) = match &s.checkpoint {
        None => fabric(s, point).map_err(err)?,
        Some(path) => {
            let full = opts.base_dir.join(path);
            let text = std::fs::read_to_string(&full)
                .map_err(|e| err(format!("cannot read checkpoint {}: {e}", full.display())))?;
            let ckpt = tagger_audit::checkpoint::parse(&text)
                .map_err(|e| err(format!("checkpoint {}: {e}", full.display())))?;
            checkpoint_rules = Some(ckpt.rules);
            (ckpt.topo, None)
        }
    };

    // The controller certifies up-down walks; a BCube's routes relay
    // through servers, which that certificate says nothing about.
    if bcube_cfg.is_some() && matches!(s.tagger, TaggerMode::Controller | TaggerMode::Chaos { .. })
    {
        return Err(ExpandError {
            span: s.tagger_span,
            message: "the controller's up-down certificate does not cover BCube's \
                      server-relayed routes; tag this fabric with `tagger bounces N`"
                .into(),
        });
    }

    // Controller modes stage deltas here; `reconverge` applies them.
    let mut controller = None;
    let mut chaos_sb = None;
    let (rules, queues) = match &s.tagger {
        TaggerMode::Off => (None, 1u8),
        TaggerMode::Bounces(k) => {
            let k = ctx.num(k, "tagger bounces")? as usize;
            if let Some(cfg) = &bcube_cfg {
                use tagger_core::{Elp, Tagging};
                let elp = Elp::from_paths(tagger_routing::bcube_paths(cfg, &topo, true));
                let tagging = Tagging::from_elp(&topo, &elp)
                    .map_err(|e| err(format!("bcube tagging: {e:?}")))?;
                let q = tagging.num_lossless_tags_on(&topo) as u8;
                (Some(tagging.rules().clone()), q)
            } else {
                let tagging =
                    clos_tagging(&topo, k).map_err(|e| err(format!("clos tagging: {e:?}")))?;
                (Some(tagging.rules().clone()), (k + 1) as u8)
            }
        }
        TaggerMode::Controller => {
            let ctrl =
                tagger_ctrl::Controller::new(topo.clone(), tagger_ctrl::ElpPolicy::with_bounces(1))
                    .map_err(|e| err(format!("controller bootstrap: {e}")))?;
            let rules = ctrl.committed().rules.clone();
            let q = rules.max_tag().map_or(1, |t| t.0 as u8).max(1);
            controller = Some(ctrl);
            (Some(rules), q)
        }
        TaggerMode::Chaos { seed: cseed, rate } => {
            use tagger_ctrl::Southbound;
            let ctrl =
                tagger_ctrl::Controller::new(topo.clone(), tagger_ctrl::ElpPolicy::with_bounces(1))
                    .map_err(|e| err(format!("controller bootstrap: {e}")))?;
            let rules = ctrl.committed().rules.clone();
            let q = rules.max_tag().map_or(1, |t| t.0 as u8).max(1);
            let mut sb = tagger_ctrl::ChaosSouthbound::new(tagger_ctrl::ChaosConfig::new(
                ctx.num(cseed, "chaos seed")?,
                *rate,
            ));
            sb.bootstrap(&rules);
            controller = Some(ctrl);
            chaos_sb = Some(sb);
            (Some(rules), q)
        }
        TaggerMode::UnsafeIdentity => (Some(unsafe_identity_rules(&topo)), 1),
        TaggerMode::FromCheckpoint => {
            let rules = checkpoint_rules
                .take()
                .ok_or_else(|| err("`tagger` mode is checkpoint but no `checkpoint` directive"))?;
            let q = rules.max_tag().map_or(1, |t| t.0 as u8).max(1);
            (Some(rules), q)
        }
    };
    // Watchdog demotion may need a lossy escape for every priority; the
    // switch model handles that internally, so `queues` stays as tagged.

    // --- SimConfig ---------------------------------------------------
    let mut switch = testbed_switch_config(queues);
    if let Some(b) = &s.buffer_bytes {
        switch.buffer_bytes = ctx.num(b, "buffer")?;
    }
    if s.dcqcn {
        switch = SwitchConfig {
            ecn_threshold_bytes: Some(30_000),
            ..switch
        };
    }
    let cfg = SimConfig {
        switch,
        pfc_extra_delay_ns: TESTBED_PFC_DELAY_NS,
        end_time_ns: end_ns,
        transition: if s.old_tag_transition {
            tagger_switch::TransitionMode::EgressByOldTag
        } else {
            tagger_switch::TransitionMode::EgressByNewTag
        },
        pause_quanta_ns: match &s.pause_quanta {
            Some(t) => Some(ctx.time(t, "pause-quanta")?),
            None => None,
        },
        recovery: s.recovery,
        dcqcn: s.dcqcn.then(tagger_sim::DcqcnConfig::default),
        watchdog: match &s.watchdog {
            Some(wd) => {
                let mut w = WatchdogConfig::with_window(ctx.time(&wd.window, "watchdog window")?);
                if wd.drop {
                    w.policy = WatchdogPolicy::Drop;
                }
                Some(w)
            }
            None => None,
        },
        ..SimConfig::default()
    };

    let fib = Fib::shortest_path(&topo, &FailureSet::none());
    let mut sim = Simulator::new(topo.clone(), fib, rules.clone(), cfg);
    let mut labels = Vec::new();

    // --- Flows -------------------------------------------------------
    for f in &s.flows {
        let src = node(&topo, &f.src)?;
        let dst = node(&topo, &f.dst)?;
        let at = ctx.time(&f.at, "flow start")?;
        let mut spec = FlowSpec::new(src, dst, at);
        if let Some(limit) = &f.limit {
            spec = spec.with_limit(ctx.num(limit, "flow limit")?);
        }
        if !f.via.is_empty() {
            let path: Result<Vec<NodeId>, _> = f.via.iter().map(|n| node(&topo, n)).collect();
            spec = spec.pinned(path?);
        }
        sim.add_flow(spec);
        labels.push(format!("{}->{}", f.src, f.dst));
    }

    // --- Workloads ---------------------------------------------------
    let hosts: Vec<NodeId> = topo.host_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for w in &s.workloads {
        match w {
            Workload::Incast { k, dst, at } => {
                let k = ctx.num(k, "incast fan-in")? as usize;
                let dst_id = node(&topo, dst)?;
                let at = ctx.time(at, "incast start")?;
                for src in hosts.iter().filter(|&&h| h != dst_id).take(k) {
                    sim.add_flow(FlowSpec::new(*src, dst_id, at));
                    labels.push(format!("incast({}->{dst})", topo.node(*src).name));
                }
            }
            Workload::Shuffle { src, k, at } => {
                let k = ctx.num(k, "shuffle fan-out")? as usize;
                let src_id = node(&topo, src)?;
                let at = ctx.time(at, "shuffle start")?;
                for dst in hosts.iter().filter(|&&h| h != src_id).take(k) {
                    sim.add_flow(FlowSpec::new(src_id, *dst, at));
                    labels.push(format!("shuffle({src}->{})", topo.node(*dst).name));
                }
            }
            Workload::Permutation { at } => {
                let at = ctx.time(at, "permutation start")?;
                let mut dsts = hosts.clone();
                loop {
                    dsts.shuffle(&mut rng);
                    if hosts.iter().zip(&dsts).all(|(a, b)| a != b) {
                        break;
                    }
                }
                for (src, dst) in hosts.iter().zip(&dsts) {
                    sim.add_flow(FlowSpec::new(*src, *dst, at));
                    labels.push(format!(
                        "perm({}->{})",
                        topo.node(*src).name,
                        topo.node(*dst).name
                    ));
                }
            }
            Workload::AllToAll { n, at } => {
                let n = (ctx.num(n, "all-to-all size")? as usize).min(hosts.len());
                let at = ctx.time(at, "all-to-all start")?;
                for &src in &hosts[..n] {
                    for &dst in &hosts[..n] {
                        if src != dst {
                            sim.add_flow(FlowSpec::new(src, dst, at));
                            labels.push(format!(
                                "a2a({}->{})",
                                topo.node(src).name,
                                topo.node(dst).name
                            ));
                        }
                    }
                }
            }
            Workload::Websearch { n, at } | Workload::Hadoop { n, at } => {
                let sizes: &[u64] = if matches!(w, Workload::Websearch { .. }) {
                    &WEBSEARCH_BYTES
                } else {
                    &HADOOP_BYTES
                };
                let tag = if matches!(w, Workload::Websearch { .. }) {
                    "websearch"
                } else {
                    "hadoop"
                };
                let n = ctx.num(n, "matrix flow count")?;
                let at = ctx.time(at, "matrix start")?;
                for _ in 0..n {
                    let src = hosts[rng.random_range(0..hosts.len())];
                    let dst = loop {
                        let d = hosts[rng.random_range(0..hosts.len())];
                        if d != src {
                            break d;
                        }
                    };
                    let bytes = sizes[rng.random_range(0..sizes.len())];
                    sim.add_flow(FlowSpec::new(src, dst, at).with_limit(bytes));
                    labels.push(format!(
                        "{tag}({}->{})",
                        topo.node(src).name,
                        topo.node(dst).name
                    ));
                }
            }
        }
    }

    // --- Events ------------------------------------------------------
    schedule_events(
        s, &ctx, &topo, &mut sim, rules, controller, chaos_sb, &mut rng, opts,
    )?;

    Ok(Experiment { sim, labels })
}

/// Resolved event, ready for time-ordering.
enum Resolved {
    Fail(LinkId),
    Restore(LinkId),
    Reconverge,
    FlapLeg(LinkId, bool),
    Route(NodeId, NodeId, NodeId),
    Mask(NodeId, tagger_topo::PortId),
}

/// One link transition through the controller, when the scenario has
/// one: behind the chaos southbound if there is one (`reconverge` then
/// ships whatever tables the fleet holds), otherwise plan-only with the
/// committed deltas held back for `reconverge`.
fn controller_reacts(
    controller: &mut Option<tagger_ctrl::Controller>,
    chaos_sb: &mut Option<tagger_ctrl::ChaosSouthbound>,
    event: &tagger_ctrl::CtrlEvent,
    pending_deltas: &mut Vec<tagger_core::RuleDelta>,
) -> Result<(), ExpandError> {
    let Some(ctrl) = controller else {
        return Ok(());
    };
    let batch = std::slice::from_ref(event);
    let outcome = match chaos_sb {
        Some(sb) => ctrl.handle_batch_via(batch, sb, &tagger_ctrl::InstallPolicy::default()),
        None => ctrl.handle_batch(batch),
    }
    .map_err(|e| err(format!("controller: {e}")))?;
    if let (None, Some(report)) = (chaos_sb, outcome.committed()) {
        pending_deltas.extend(report.deltas.iter().cloned());
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn schedule_events(
    s: &Scenario,
    ctx: &NumCtx<'_>,
    topo: &Topology,
    sim: &mut Simulator,
    rules: Option<tagger_core::RuleSet>,
    mut controller: Option<tagger_ctrl::Controller>,
    mut chaos_sb: Option<tagger_ctrl::ChaosSouthbound>,
    rng: &mut StdRng,
    opts: &RunOptions,
) -> Result<(), ExpandError> {
    // Resolve every event into (time, Resolved) first, then process in
    // time order with running failure/override/rule state.
    let mut timeline: Vec<(u64, usize, Resolved)> = Vec::new();
    let mut seq = 0usize;
    let mut push = |timeline: &mut Vec<(u64, usize, Resolved)>, t: u64, r: Resolved| {
        timeline.push((t, seq, r));
        seq += 1;
    };

    for e in &s.events {
        match e {
            EventSpec::Fail { a, b, at } => {
                let l = link(topo, a, b)?;
                push(&mut timeline, ctx.time(at, "fail")?, Resolved::Fail(l));
            }
            EventSpec::FailRandom { n, at } => {
                let n = ctx.num(n, "fail random")? as usize;
                let t = ctx.time(at, "fail random")?;
                let mut trunks: Vec<LinkId> = topo
                    .link_ids()
                    .filter(|&l| {
                        let lk = topo.link(l);
                        topo.node(lk.a.node).kind == tagger_topo::NodeKind::Switch
                            && topo.node(lk.b.node).kind == tagger_topo::NodeKind::Switch
                    })
                    .collect();
                trunks.shuffle(rng);
                for &l in trunks.iter().take(n) {
                    push(&mut timeline, t, Resolved::Fail(l));
                }
            }
            EventSpec::Restore { a, b, at } => {
                let l = link(topo, a, b)?;
                push(
                    &mut timeline,
                    ctx.time(at, "restore")?,
                    Resolved::Restore(l),
                );
            }
            EventSpec::Reconverge { at } => {
                push(
                    &mut timeline,
                    ctx.time(at, "reconverge")?,
                    Resolved::Reconverge,
                );
            }
            EventSpec::Flap {
                a,
                b,
                at,
                times,
                gap,
            } => {
                let l = link(topo, a, b)?;
                let t0 = ctx.time(at, "flap")?;
                let times = ctx.num(times, "flap count")?;
                let gap = ctx.time(gap, "flap gap")?.max(1);
                for i in 0..times {
                    let down_at = t0 + i * 2 * gap;
                    push(&mut timeline, down_at, Resolved::FlapLeg(l, true));
                    push(&mut timeline, down_at + gap, Resolved::FlapLeg(l, false));
                }
            }
            EventSpec::Route { sw, dst, via, at } => {
                let r = Resolved::Route(node(topo, sw)?, node(topo, dst)?, node(topo, via)?);
                push(&mut timeline, ctx.time(at, "route")?, r);
            }
            EventSpec::Mask { sw, nbr, at } => {
                let sw_id = node(topo, sw)?;
                let port = port_towards(topo, sw_id, node(topo, nbr)?)?;
                push(
                    &mut timeline,
                    ctx.time(at, "mask")?,
                    Resolved::Mask(sw_id, port),
                );
            }
            EventSpec::Trace { path, at, gap } => {
                let full = opts.base_dir.join(path);
                let text = std::fs::read_to_string(&full)
                    .map_err(|e| err(format!("cannot read trace {}: {e}", full.display())))?;
                let mut t = ctx.time(at, "trace")?;
                let gap = ctx.time(gap, "trace gap")?.max(1);
                let events = tagger_ctrl::parse_trace(topo, &text)
                    .map_err(|e| err(format!("trace {}: {e}", full.display())))?;
                for ev in events {
                    match ev {
                        tagger_ctrl::CtrlEvent::LinkDown(l) => {
                            push(&mut timeline, t, Resolved::Fail(l));
                            t += gap;
                        }
                        tagger_ctrl::CtrlEvent::LinkUp(l) => {
                            push(&mut timeline, t, Resolved::Restore(l));
                            t += gap;
                        }
                        // ELP edits, watchdog trips and resyncs are
                        // control-plane-only; the data-plane replay
                        // skips them.
                        _ => {}
                    }
                }
            }
        }
    }

    timeline.sort_by_key(|&(t, i, _)| (t, i));

    // Running state.
    let mut failures = FailureSet::none();
    let mut overrides: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
    let mut installed = rules;
    let mut pending_deltas: Vec<tagger_core::RuleDelta> = Vec::new();

    for (t, _, ev) in timeline {
        match ev {
            Resolved::Fail(l) => {
                failures.fail(l);
                sim.at(t, Action::FailLink { link: l });
                // Pre-reconvergence: stale routes with local detours —
                // the paper's §3.2 transient window.
                sim.at(t, Action::ReplaceFib(Fib::local_reroute(topo, &failures)));
                let down = tagger_ctrl::CtrlEvent::LinkDown(l);
                controller_reacts(&mut controller, &mut chaos_sb, &down, &mut pending_deltas)?;
            }
            Resolved::Restore(l) => {
                failures.restore(l);
                sim.at(t, Action::RestoreLink { link: l });
                let up = tagger_ctrl::CtrlEvent::LinkUp(l);
                controller_reacts(&mut controller, &mut chaos_sb, &up, &mut pending_deltas)?;
            }
            Resolved::Reconverge => {
                let mut fib = Fib::shortest_path(topo, &failures);
                for &(sw, dst, via) in &overrides {
                    fib.set_override_towards(topo, sw, dst, via);
                }
                sim.at(t, Action::ReplaceFib(fib));
                // Controller modes ship their staged table update with
                // the routing convergence, as the real rollout does.
                if let Some(sb) = chaos_sb.as_ref() {
                    use tagger_ctrl::Southbound;
                    let fleet = sb.fleet().clone();
                    installed = Some(fleet.clone());
                    sim.at(t, Action::ReplaceRules(fleet));
                } else if !pending_deltas.is_empty() {
                    sim.at(
                        t,
                        Action::ApplyRuleDeltas(std::mem::take(&mut pending_deltas)),
                    );
                    if let Some(ctrl) = controller.as_ref() {
                        installed = Some(ctrl.committed().rules.clone());
                    }
                }
            }
            Resolved::FlapLeg(l, down) => {
                if down {
                    sim.at(t, Action::FailLink { link: l });
                } else {
                    sim.at(t, Action::RestoreLink { link: l });
                }
            }
            Resolved::Route(sw, dst, via) => {
                overrides.push((sw, dst, via));
                let mut fib = Fib::shortest_path(topo, &failures);
                for &(sw, dst, via) in &overrides {
                    fib.set_override_towards(topo, sw, dst, via);
                }
                sim.at(t, Action::ReplaceFib(fib));
            }
            Resolved::Mask(sw, port) => {
                let base = installed
                    .as_ref()
                    .ok_or_else(|| err("`mask` needs installed rule tables (tagger not off)"))?;
                let masked = mask_hop(base, sw, port);
                installed = Some(masked.clone());
                sim.at(t, Action::ReplaceRules(masked));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn clos_for_hosts_scales() {
        assert_eq!(clos_for_hosts(16).num_hosts(), 16);
        assert_eq!(clos_for_hosts(1024).num_hosts(), 1024);
        assert_eq!(clos_for_hosts(1).num_hosts(), 4); // floor of 1/ToR
    }

    #[test]
    fn points_cartesian() {
        let s =
            parse("scenario g\nsweep a 1..2 step +1\nsweep b 4..8 step *2\nassert no-deadlock\n")
                .unwrap();
        let pts = points(&s);
        assert_eq!(pts.len(), 2 * 2, "a in [1,2] x b in [4,8]");
        assert_eq!(pts[0]["a"], 1);
        assert_eq!(pts[0]["b"], 4);
        assert_eq!(pts[3]["a"], 2);
        assert_eq!(pts[3]["b"], 8);
    }

    #[test]
    fn fig10_scn_deadlocks_like_the_builder() {
        let text = "\
scenario fig10
topo clos small
tagger off
end 4ms
flow H1 H13 via H1 T1 L1 S1 L3 S2 L4 T4 H13
flow H9 H1 @20% via H9 T3 L3 S2 L1 S1 L2 T1 H1
assert deadlock-by 4ms
";
        let s = parse(text).unwrap();
        let exp = instantiate(&s, &BTreeMap::new(), &RunOptions::default()).unwrap();
        let (report, labels) = exp.run();
        assert_eq!(labels.len(), 2);
        assert!(report.deadlock.is_some(), "expected the Fig. 10 deadlock");
    }

    #[test]
    fn tagger_bounces_prevents_the_same_deadlock() {
        let text = "\
scenario fig10_tagger
topo clos small
tagger bounces 1
end 4ms
flow H1 H13 via H1 T1 L1 S1 L3 S2 L4 T4 H13
flow H9 H1 @20% via H9 T3 L3 S2 L1 S1 L2 T1 H1
assert no-deadlock
";
        let s = parse(text).unwrap();
        let exp = instantiate(&s, &BTreeMap::new(), &RunOptions::default()).unwrap();
        let (report, _) = exp.run();
        assert!(report.deadlock.is_none());
        assert_eq!(report.switch.lossless_drops, 0);
    }

    #[test]
    fn the_controller_refuses_an_unranked_fabric_at_instantiation() {
        let text = "scenario flat_ctrl\ntopo jellyfish switches=16 ports=6 seed=7\n\
                    tagger controller\nassert no-deadlock\n";
        let s = parse(text).expect("the scenario parses; the fabric is built at expansion");
        let Err(e) = instantiate(&s, &BTreeMap::new(), &RunOptions::default()) else {
            panic!("a controller bootstrapped on a fabric without layers");
        };
        assert!(e.message.starts_with("controller bootstrap: "), "{e}");
        assert!(e.message.contains("switch J1 has no layer"), "{e}");
        assert!(e.span.is_whole_file());
        // A BCube's switches sit on levels, so the closed form would
        // bootstrap there; but its routes relay through servers, so both
        // controller modes are refused at the `tagger` line.
        for (mode, word) in [("controller", 10), ("chaos 3 0.1", 5)] {
            let text =
                format!("scenario bcube_ctrl\ntopo bcube 2 1\ntagger {mode}\nassert no-deadlock\n");
            let s = parse(&text).unwrap();
            let Err(e) = instantiate(&s, &BTreeMap::new(), &RunOptions::default()) else {
                panic!("`tagger {mode}` bootstrapped on a BCube");
            };
            assert_eq!(e.span, Span::new(3, 8, word), "{e}");
            assert!(e.to_string().starts_with("3:8: "), "{e}");
            assert!(e.message.contains("`tagger bounces N`"), "{e}");
        }
    }

    #[test]
    fn workload_expansion_is_seed_deterministic() {
        let text = "\
scenario perm
topo clos small
tagger bounces 1
seed 7
end 1ms
workload permutation
workload websearch 5
assert no-deadlock
";
        let s = parse(text).unwrap();
        let a = instantiate(&s, &BTreeMap::new(), &RunOptions::default()).unwrap();
        let b = instantiate(&s, &BTreeMap::new(), &RunOptions::default()).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.labels.len(), 16 + 5);
    }
}
