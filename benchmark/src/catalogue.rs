//! The benchmark's names: every workload and metric, with its unit,
//! direction, regression bound and one-line reason. `BENCHMARK.json` at
//! the repo root states the same names for the driver; a test below
//! keeps the two in step.

/// One workload.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// What one operation is, and what `throughput_per_s` counts.
    pub operation: &'static str,
    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
}

/// One metric.
pub struct Metric {
    /// `<name>` for end-to-end metrics, `<module>.<metric>` per layer.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline's median the metric may worsen by before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What it measures and which end-to-end metric it should move.
    pub about: &'static str,
}

impl Metric {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn better(&self) -> &'static str {
        if self.lower_is_better {
            "lower"
        } else {
            "higher"
        }
    }
}

/// Below this many seconds a `setup_s` difference is never a
/// regression, whatever the relative bound says.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Per-layer metrics that must repeat exactly between two runs of the
/// same seed: a speed-up may not change what was computed.
pub const EXACT: [&str; 3] = ["core.rules_digest", "sim.stats_digest", "sim.events"];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "epoch-clos-b1",
        operation: "one link event ingested, committed and audited; throughput counts events",
        why: "Failure reaction on a 22-switch 1-bounce Clos, one event in flight: ELP enumeration and Algorithm 1 do almost all the work; journal, install and audit almost none.",
    },
    Workload {
        name: "ingest-storm",
        operation: "one 192-line batch delivered by one send_lines call; throughput counts events delivered exactly once and drained",
        why: "The same ctrl/fleet code used the opposite way: thousands of cheap damped chaos-retried epochs over loopback TCP, where frame round trips, locks and journal syncs dominate.",
    },
    Workload {
        name: "plan-jellyfish",
        operation: "one 100-switch Jellyfish fabric planned and certified; throughput counts ELP paths",
        why: "Table 5's general-graph path: the existence oracle, Algorithm 2 merges, closure certification and the independent audit do the work; bounce enumeration does none.",
    },
    Workload {
        name: "sim-incast",
        operation: "one run of a 256-host four-way 64-to-1 incast scenario; throughput counts simulator events",
        why: "PFC-heavy simulation: PAUSE/RESUME transitions, trigger stamps and wait-for-graph scans on every congested hop.",
    },
    Workload {
        name: "sim-permutation",
        operation: "one run of a 512-host permutation scenario; throughput counts simulator events",
        why: "The same sim/switch code with almost no pauses, so per-packet admit/dequeue/forward cost dominates; a PFC-path gain that taxes plain forwarding shows here.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: Some(bound),
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound: None,
        about,
    }
}

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", true, 0.25, "median seconds one set-up takes: topology build, epoch-0 bootstrap, input generation, server start, warm-up operations"),
    e2e("throughput_per_s", "1/s", false, 0.25, "work completed per second of the timed region; the unit of work is fixed per workload"),
    e2e("latency_ms_p50", "ms", true, 0.25, "median latency of one operation"),
    e2e("latency_ms_p90", "ms", true, 0.25, "90th-percentile latency of one operation"),
    e2e("peak_rss_mb", "MiB", true, 0.2, "VmHWM of the workload process at the end of the timed region"),
];

pub const PER_LAYER: [Metric; 61] = [
    layer("topo.build_ms", "ms", true, "topology construction; moves setup_s on all workloads"),
    layer("routing.elp_enumerate_ms", "ms", true, "ElpPolicy::elp_for; moves latency_ms_p50 on epoch-clos-b1 (predicted 35%), nothing on plan-jellyfish"),
    layer("routing.elp_paths", "count", true, "paths in the ELP of the median operation"),
    layer("routing.enumerate_ns_per_path", "ns", true, "ELP enumeration time per path produced"),
    layer("routing.shortest_all_pairs_ms", "ms", true, "shortest_paths_all_pairs; moves throughput_per_s on plan-jellyfish only"),
    layer("routing.fib_build_ms", "ms", true, "Fib::shortest_path; moves setup_s on sim-*"),
    layer("core.alg1_ms", "ms", true, "tag_by_hop_count; moves latency_ms_p50 on epoch-clos-b1 (predicted 40%), throughput_per_s on plan-jellyfish (4%)"),
    layer("core.alg1_ns_per_path", "ns", true, "Algorithm 1 time per ELP path"),
    layer("core.alg2_ms", "ms", true, "greedy_assignment + apply_assignment; predicted <3% on epoch-clos-b1"),
    layer("core.rules_build_ms", "ms", true, "RuleSet::from_graph_resolving; predicted <3% on epoch-clos-b1"),
    layer("core.from_elp_ms", "ms", true, "Tagging::from_elp, the whole pipeline"),
    layer("core.repair_certify_ms", "ms", true, "from_elp minus Algorithm 1, Algorithm 2 and rule build: repair fixpoint + closure verify (predicted 20% on epoch-clos-b1)"),
    layer("core.verify_ms", "ms", true, "TaggedGraph::verify (Theorem 5.1)"),
    layer("core.tcam_compile_ms", "ms", true, "TcamProgram::compile with joint compression"),
    layer("core.diff_ms", "ms", true, "RuleSet::diff against the previous epoch's tables"),
    layer("core.oracle_decide_ms", "ms", true, "oracle::decide; moves throughput_per_s and latency_ms_p50 on plan-jellyfish (predicted 85%), nothing else"),
    layer("core.brute_nodes", "count", true, "tagged-graph nodes after Algorithm 1"),
    layer("core.brute_edges", "count", true, "tagged-graph edges after Algorithm 1"),
    layer("core.rules", "count", true, "match-action rules in the final tables"),
    layer("core.delta_ops", "count", true, "rule add/remove operations in the diff of the median operation"),
    layer("core.lossless_tags", "count", true, "lossless tags the final tagging uses"),
    layer("core.rules_digest", "fnv48", true, "FNV-1a of the final to_table_text; must repeat exactly"),
    layer("ctrl.parse_trace_us", "us", true, "parse_trace per line; moves throughput_per_s on ingest-storm"),
    layer("ctrl.stage_ms", "ms", true, "CommitReport::recompute; moves latency_ms_* on epoch-clos-b1, throughput_per_s on ingest-storm"),
    layer("ctrl.handle_batch_ms", "ms", true, "Controller::handle_batch_via on a shadow controller fed the same events"),
    layer("ctrl.events_per_epoch", "ratio", false, "events ingested per epoch staged: the useful-work ratio damping buys"),
    layer("ctrl.install_attempts", "count", true, "southbound install attempts"),
    layer("ctrl.install_retries", "count", true, "southbound installs retried after a chaos fault"),
    layer("ctrl.rollbacks", "count", true, "epochs rolled back"),
    layer("ctrl.journal_record_us", "us", true, "Journal::record_event + record_outcome, each one sync_data; moves throughput_per_s on ingest-storm"),
    layer("ctrl.journal_checkpoint_ms", "ms", true, "Journal::checkpoint"),
    layer("audit.audit_ms", "ms", true, "Auditor::audit; predicted 1% everywhere it runs"),
    layer("fleet.ingest_line_us", "us", true, "Fleet::ingest_line (Fleet::ingest on epoch-clos-b1)"),
    layer("fleet.drain_cycle_ms", "ms", true, "one fair drain cycle"),
    layer("fleet.queue_rejections", "count", true, "ingest attempts refused by a full queue"),
    layer("fleet.commits", "count", false, "epochs committed"),
    layer("fleet.inproc_events_per_s", "1/s", false, "the workload's events replayed in-process, no sockets: the fleet drain ceiling"),
    layer("net.encode_ns", "ns", true, "Msg::encode per event line"),
    layer("net.decode_ns", "ns", true, "Decoder::extend/next_frame + Msg::decode per event line"),
    layer("net.deliver_s", "s", true, "first send until every client has been acknowledged"),
    layer("net.drain_tail_s", "s", true, "Server::shutdown: stop, join, drain what is queued"),
    layer("net.frames", "count", true, "frames the server decoded"),
    layer("net.backpressure_hits", "count", true, "Backpressure replies the clients absorbed"),
    layer("net.resends", "count", true, "events resent after a lost or late reply"),
    layer("net.reconnects", "count", true, "reconnects the clients survived"),
    layer("net.front_share", "ratio", true, "1 - in-process time per event / TCP time per event: what the network front costs"),
    layer("scenario.parse_us", "us", true, "scenario::parse; moves setup_s on sim-*"),
    layer("scenario.instantiate_ms", "ms", true, "scenario::instantiate; moves setup_s on sim-*"),
    layer("scenario.evaluate_us", "us", true, "scenario::evaluate"),
    layer("sim.run_s", "s", true, "Experiment::run of the median operation"),
    layer("sim.events", "count", true, "SimReport::events_processed of the first scenario; must repeat exactly"),
    layer("sim.ns_per_event", "ns", true, "host time per simulator event over the whole loop; moves throughput_per_s on sim-*"),
    layer("sim.pauses_sent", "count", true, "PFC PAUSE frames in the first scenario; per event it separates the two sim workloads"),
    layer("sim.delivered_bytes", "bytes", false, "bytes delivered in the first scenario"),
    layer("sim.wheel_ns_per_op", "ns", true, "TimingWheel push or pop at link-serialisation deltas"),
    layer("sim.stats_digest", "fnv48", true, "FNV-1a over the first scenario's PointMetrics; must repeat exactly"),
    layer("switch.admit_ns", "ns", true, "SwitchState::admit; moves throughput_per_s on sim-permutation"),
    layer("switch.dequeue_ns", "ns", true, "SwitchState::dequeue; moves throughput_per_s on sim-permutation"),
    layer("switch.on_pfc_ns", "ns", true, "SwitchState::on_pfc on frames emitted by crossing the pause threshold; moves throughput_per_s on sim-incast"),
    layer("trace.overhead_share", "ratio", true, "median traced operation latency over untraced, minus 1"),
    layer("trace.unaccounted_share", "ratio", true, "share of an operation no child span covers"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Renders what `tagger-perf list` prints.
pub fn render_list() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "  {:<18} {}\n  {:<18} operation: {}",
            w.name, w.why, "", w.operation
        );
    }
    for (title, metrics) in [
        ("end-to-end metrics", &END_TO_END[..]),
        ("per-layer metrics", &PER_LAYER[..]),
    ] {
        let _ = writeln!(out, "{title}");
        for m in metrics {
            let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
            let _ = writeln!(
                out,
                "  {:<30} {:<6} {:<6}{bound}  {}",
                m.name,
                m.unit,
                m.better(),
                m.about
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_states_the_same_names_units_and_bounds() {
        let json = include_str!("../../BENCHMARK.json");
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better(),
                m.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("{\"name\": ").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|m| m.name == *e)));
    }
}
