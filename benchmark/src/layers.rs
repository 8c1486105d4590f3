//! Layer probes shared by the workloads: re-executions of the control
//! path's private stages on the inputs an operation saw, and micro-loops
//! over the wire codec and the trace parser. Everything here calls
//! public functions only and records what it calls as spans.

use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tagger::audit::Auditor;
use tagger::core::tcam::{Compression, TcamProgram};
use tagger::core::{
    apply_assignment, greedy_assignment, tag_by_hop_count, Elp, RuleSet, TaggedGraph, Tagging,
};
use tagger::ctrl::{
    parse_trace, Controller, CtrlEvent, ElpPolicy, InstallPolicy, Journal, ReliableSouthbound,
};
use tagger::fleet::net::wire::{Decoder, Msg};
use tagger::topo::Topology;

/// Sizes seen along one pass of the tagging pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineCounts {
    /// Paths in the ELP.
    pub elp_paths: usize,
    /// Tagged-graph nodes after Algorithm 1 (0 unless broken down).
    pub brute_nodes: usize,
    /// Tagged-graph edges after Algorithm 1 (0 unless broken down).
    pub brute_edges: usize,
    /// Rules in the final tables.
    pub rules: usize,
    /// Lossless tags the tagging uses.
    pub lossless_tags: usize,
}

/// The public-API mirror of `ctrl::stage` after ELP enumeration:
/// `from_elp → verify → TcamProgram::compile`, each a child span of
/// `parent`. With `break_down`, Algorithm 1, Algorithm 2 and the rule
/// build are run once more as replayed children of the `core.from_elp`
/// span, which leaves that span's self time equal to the repair fixpoint
/// plus closure certification.
pub fn tagging_pipeline(
    rec: &mut Recorder,
    parent: SpanId,
    op: u64,
    replayed: bool,
    break_down: bool,
    topo: &Topology,
    elp: &Elp,
) -> Result<(Tagging, PipelineCounts), String> {
    let span = |rec: &mut Recorder, name: &'static str| rec.open(name, Some(parent), op, replayed);

    let id = span(rec, "core.from_elp");
    let tagging = Tagging::from_elp(topo, elp);
    rec.close(id);
    let tagging = tagging.map_err(|e| format!("from_elp: {e:?}"))?;
    let mut counts = PipelineCounts {
        elp_paths: elp.len(),
        rules: tagging.rules().num_rules(),
        lossless_tags: tagging.num_lossless_tags_on(topo),
        ..PipelineCounts::default()
    };
    if break_down {
        let brute: TaggedGraph = rec.replay("core.alg1", id, || tag_by_hop_count(topo, elp));
        let merged = rec.replay("core.alg2", id, || {
            apply_assignment(&brute, &greedy_assignment(topo, &brute))
        });
        let rules = rec.replay("core.rules_build", id, || {
            RuleSet::from_graph_resolving(topo, &merged)
        });
        black_box(rules);
        counts.brute_nodes = brute.num_nodes();
        counts.brute_edges = brute.num_edges();
    }

    let id = span(rec, "core.verify");
    let verified = tagging.graph().verify();
    rec.close(id);
    verified.map_err(|e| format!("verify: {e:?}"))?;

    let id = span(rec, "core.tcam_compile");
    black_box(TcamProgram::compile(
        topo,
        tagging.rules(),
        Compression::Joint,
    ));
    rec.close(id);
    Ok((tagging, counts))
}

/// A second controller fed the same events as the measured fabric, with
/// every private stage of the control path re-executed through public
/// functions and recorded as replayed spans:
///
/// ```text
/// parent ─ ctrl.handle_batch ─ routing.elp_enumerate
///        │                   ├ core.from_elp ─ core.alg1, core.alg2, core.rules_build
///        │                   ├ core.verify, core.tcam_compile, core.diff
///        ├ ctrl.journal_record
///        ├ audit.audit
///        └ ctrl.journal_checkpoint (every fourth step, as the fabric does)
/// ```
pub struct Shadow {
    ctrl: Controller,
    policy: ElpPolicy,
    southbound: ReliableSouthbound,
    journal: Journal,
    auditor: Auditor,
    steps: u64,
    /// `CommitReport::recompute` of every committed step, ms.
    pub stage_ms: Vec<f64>,
    /// Rule add/remove operations in every step's diff.
    pub delta_ops: Vec<f64>,
    /// Sizes seen in every step.
    pub counts: Vec<PipelineCounts>,
}

impl Shadow {
    /// Boots the shadow on `topo` with a scratch journal at `journal`.
    pub fn boot(topo: &Topology, policy: ElpPolicy, journal: &Path) -> Result<Shadow, String> {
        use tagger::ctrl::Southbound as _;
        let ctrl =
            Controller::with_budget(topo.clone(), policy, None).map_err(|e| e.to_string())?;
        let mut southbound = ReliableSouthbound::new();
        southbound.bootstrap(&ctrl.committed().rules);
        Ok(Shadow {
            policy,
            southbound,
            journal: Journal::create(journal).map_err(|e| e.to_string())?,
            auditor: Auditor::new(topo.clone()),
            ctrl,
            steps: 0,
            stage_ms: Vec::new(),
            delta_ops: Vec::new(),
            counts: Vec::new(),
        })
    }

    /// Re-executes one event of operation `op` under `parent`.
    pub fn step(
        &mut self,
        rec: &mut Recorder,
        parent: SpanId,
        op: u64,
        event: &CtrlEvent,
    ) -> Result<(), String> {
        let prev = self.ctrl.committed().rules.clone();
        let batch = std::slice::from_ref(event);

        let handle = rec.open("ctrl.handle_batch", Some(parent), op, true);
        let outcome =
            self.ctrl
                .handle_batch_via(batch, &mut self.southbound, &InstallPolicy::default());
        rec.close(handle);
        let outcome = outcome.map_err(|e| e.to_string())?;
        if let Some(report) = outcome.committed() {
            self.stage_ms.push(report.recompute.as_secs_f64() * 1e3);
        }

        let topo = self.ctrl.topo().clone();
        let elp = rec.replay("routing.elp_enumerate", handle, || {
            self.policy.elp_for(&topo, self.ctrl.state())
        });
        let (tagging, counts) = tagging_pipeline(rec, handle, op, true, true, &topo, &elp)?;
        let deltas = rec.replay("core.diff", handle, || prev.diff(tagging.rules()));
        self.delta_ops
            .push(deltas.iter().map(|d| d.len()).sum::<usize>() as f64);
        self.counts.push(counts);

        let epoch = self.ctrl.committed().epoch;
        let audit = rec.open("audit.audit", Some(parent), op, true);
        let certified = self.auditor.audit(epoch, tagging.rules()).is_certified();
        rec.close(audit);
        if !certified {
            return Err(format!("shadow epoch {epoch} failed its audit"));
        }

        let journal = rec.open("ctrl.journal_record", Some(parent), op, true);
        let recorded = self
            .journal
            .record_event(&topo, event)
            .and_then(|()| self.journal.record_outcome(&outcome, 1));
        rec.close(journal);
        recorded.map_err(|e| e.to_string())?;

        self.steps += 1;
        if self.steps.is_multiple_of(4) {
            let id = rec.open("ctrl.journal_checkpoint", Some(parent), op, true);
            let done = self.journal.checkpoint(&mut self.ctrl);
            rec.close(id);
            done.map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Median of one count over the shadow's steps.
pub fn median_count(counts: &[PipelineCounts], pick: impl Fn(&PipelineCounts) -> usize) -> f64 {
    median(&counts.iter().map(|c| pick(c) as f64).collect::<Vec<_>>())
}

/// Sets the layer values every control-path workload derives from its
/// spans and its shadow's counts.
pub fn control_path_layers(out: &mut crate::workloads::Outcome, counts: &[PipelineCounts]) {
    let rec = &out.trace;
    let ms = |name: &str| rec.median_ms(name);
    let paths = median_count(counts, |c| c.elp_paths);
    let per_path = |ms: f64| if paths > 0.0 { ms * 1e6 / paths } else { 0.0 };
    let (enumerate_ms, alg1_ms) = (ms("routing.elp_enumerate"), ms("core.alg1"));
    let values = [
        ("routing.elp_enumerate_ms", enumerate_ms),
        ("routing.elp_paths", paths),
        ("routing.enumerate_ns_per_path", per_path(enumerate_ms)),
        ("core.alg1_ms", alg1_ms),
        ("core.alg1_ns_per_path", per_path(alg1_ms)),
        ("core.alg2_ms", ms("core.alg2")),
        ("core.rules_build_ms", ms("core.rules_build")),
        ("core.from_elp_ms", ms("core.from_elp")),
        (
            "core.repair_certify_ms",
            rec.median_self_ms("core.from_elp"),
        ),
        ("core.verify_ms", ms("core.verify")),
        ("core.tcam_compile_ms", ms("core.tcam_compile")),
        ("core.diff_ms", ms("core.diff")),
        ("core.brute_nodes", median_count(counts, |c| c.brute_nodes)),
        ("core.brute_edges", median_count(counts, |c| c.brute_edges)),
        ("core.rules", median_count(counts, |c| c.rules)),
        (
            "core.lossless_tags",
            median_count(counts, |c| c.lossless_tags),
        ),
        ("ctrl.handle_batch_ms", ms("ctrl.handle_batch")),
        ("ctrl.journal_record_us", ms("ctrl.journal_record") * 1e3),
        ("ctrl.journal_checkpoint_ms", ms("ctrl.journal_checkpoint")),
        ("audit.audit_ms", ms("audit.audit")),
    ];
    for (name, value) in values {
        out.layer(name, value);
    }
}

/// Median `parse_trace` time per line, µs, over `lines` (the part after
/// `fabric:`).
pub fn parse_trace_us(topo: &Topology, lines: &[&str]) -> f64 {
    let samples: Vec<f64> = lines
        .iter()
        .map(|line| {
            let t = Instant::now();
            let _ = black_box(parse_trace(topo, black_box(line)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `(encode, decode)` ns per event line: `Msg::encode` on one side,
/// `Decoder::extend` + `next_frame` + `Msg::decode` on the other, over
/// the workload's own lines in 4 KiB reads like the server's.
pub fn wire_codec_ns(lines: &[String]) -> (f64, f64) {
    if lines.is_empty() {
        return (0.0, 0.0);
    }
    let t = Instant::now();
    let mut bytes = Vec::new();
    for (seq, line) in lines.iter().enumerate() {
        bytes.extend(Msg::Event { line: line.clone() }.encode(seq as u64));
    }
    let encode = t.elapsed();

    let t = Instant::now();
    let mut decoder = Decoder::new();
    let mut decoded = 0usize;
    for chunk in bytes.chunks(4096) {
        decoder.extend(chunk);
        while let Some(frame) = decoder.next_frame() {
            if black_box(Msg::decode(&frame)).is_ok() {
                decoded += 1;
            }
        }
    }
    let decode = t.elapsed();
    assert_eq!(decoded, lines.len(), "the codec lost a frame");
    let per = |d: std::time::Duration| d.as_nanos() as f64 / lines.len() as f64;
    (per(encode), per(decode))
}
