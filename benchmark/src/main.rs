//! `tagger-perf` — the repo benchmark.
//!
//! ```text
//! tagger-perf run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! tagger-perf list
//! tagger-perf compare A.json B.json
//! ```
//!
//! `run` executes one workload in this process, prints every metric by
//! name with its unit, merges the record into the result set at `--out`
//! (default `benchmark/out/results.json`) and ends its standard output
//! with the one-line JSON record the benchmark driver reads. With
//! `--trace 1` it reports the per-layer metrics and writes the spans to
//! `benchmark/out/trace-<workload>.jsonl`; end-to-end numbers always come
//! from the untraced run. `benchmark/run.sh` is the front door.

mod catalogue;
mod compare;
mod layers;
mod results;
mod stats;
mod trace;
mod workloads;

use catalogue::{END_TO_END, PER_LAYER};
use results::{Env, ResultSet, RunResult};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

const USAGE: &str = "usage: tagger-perf run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       tagger-perf list\n       tagger-perf compare A.json B.json";

/// Where results, traces and journals go: inside the checkout, because
/// the benchmark may read and write nowhere else.
const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: Path::new(OUT_DIR).join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if catalogue::workload(&parsed.workload).is_none() {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(parsed)
}

fn dispatch(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    use workloads::{epoch, ingest, plan, sim};
    match workload {
        "epoch-clos-b1" => epoch::run(&epoch::REFERENCE, ctx),
        "ingest-storm" => ingest::run(&ingest::REFERENCE, ctx),
        "plan-jellyfish" => plan::run(&plan::REFERENCE, ctx),
        "sim-incast" => sim::run(&sim::INCAST, ctx),
        "sim-permutation" => sim::run(&sim::PERMUTATION, ctx),
        other => Err(format!("no workload {other}")),
    }
}

/// Turns what a workload measured into the metrics of its mode.
fn summarise(args: &RunArgs, outcome: &Outcome) -> RunResult {
    let metrics = if args.traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = outcome.layers.get(m.name).copied().unwrap_or(0.0);
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => stats::median(&outcome.setup_s),
            "throughput_per_s" if outcome.timed_s > 0.0 => outcome.work / outcome.timed_s,
            "latency_ms_p50" => stats::percentile(&outcome.op_ms, 50.0),
            "latency_ms_p90" => stats::percentile(&outcome.op_ms, 90.0),
            "peak_rss_mb" => outcome.peak_rss_mb,
            _ => 0.0,
        };
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), value(m.name), m.unit.to_string()))
            .collect()
    };
    RunResult {
        workload: args.workload.clone(),
        traced: args.traced,
        seed: args.seed,
        attempted: outcome.attempted.max(1),
        failed: (outcome.failures.len() as u64).min(outcome.attempted.max(1)),
        samples: outcome.op_ms.len() as u64,
        metrics,
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let scratch = out_dir.join(format!("journal-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        dir: scratch.clone(),
    };
    let outcome = dispatch(&args.workload, &ctx);
    std::fs::remove_dir_all(&scratch).ok();
    let outcome = outcome?;

    for why in &outcome.failures {
        eprintln!("tagger-perf: FAILED {why}");
    }
    let result = summarise(&args, &outcome);
    print!("{}", result.render_table());
    if !args.traced {
        let n = outcome.op_ms.len();
        match stats::highest_supported_percentile(n) {
            Some(p) => println!("  {n} latency samples support percentiles up to p{p}"),
            None => println!(
                "  {n} latency samples support no percentile (fewer than ten beyond the median)"
            ),
        }
    } else {
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        outcome
            .trace
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            outcome.trace.spans().len(),
            path.display()
        );
    }

    let mut set = ResultSet::load(&args.out)?;
    set.insert(result.clone());
    std::fs::write(&args.out, set.render(&Env::capture(out_dir)))
        .map_err(|e| format!("{}: {e}", args.out.display()))?;

    println!("{}", result.driver_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare needs exactly two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(base)?, &load(new)?);
    print!("{}", compare::render(&rows));
    Ok(if rows.iter().any(|r| r.breach) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_sets(rest),
        Some((cmd, [])) if cmd == "list" => {
            print!("{}", catalogue::render_list());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    done.unwrap_or_else(|e| {
        eprintln!("tagger-perf: {e}");
        ExitCode::from(2)
    })
}
