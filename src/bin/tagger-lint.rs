//! `tagger-lint` — pre-deployment static analysis for Tagger artifacts.
//!
//! ```text
//! tagger-lint check <file...> [--format human|json] [--elp updown|bounces=K]
//!                   [--budget N] [--no-audit] [--topo SPEC]
//! tagger-lint explain <code>
//! ```
//!
//! `check` lints checkpoint (`.ckpt`), trace (`.trace`), scenario
//! (`.scn`) and topology-spec (`.topo`) files — the kind is sniffed
//! from content, so misnamed files still work — and exits non-zero iff
//! at least one error-severity diagnostic was emitted. Checkpoints and
//! topology specs carry their own topology; scenarios declare theirs;
//! traces are resolved against the fabric `--topo` names (a
//! [`tagger::topo::TopoSpec`], default `clos small` as for
//! `tagger-fleetd replay`). `--elp` additionally
//! checks that every expected lossless path stays lossless under a
//! checkpoint's tables; `--no-audit` skips the independent-auditor
//! cross-check. `--budget N` overrides the
//! lossless-tag budget the feasibility oracle (T0701/T0702) checks
//! against — default is the spec's `priorities` directive, else the
//! 8-class hardware ceiling. `--format json` emits the byte-stable
//! structured report for CI and editors.
//!
//! `explain` prints the one-line description of a diagnostic code.

use std::process::ExitCode;

use tagger::cli::{get_opt, parse_args, topo_spec};
use tagger::lint::{codes, lint_files, render_json, ElpSpec, LintOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: tagger-lint <check|explain> ...");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "check" => cmd_check(rest),
        "explain" => cmd_explain(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let (files, flags) = parse_args(
        rest,
        usize::MAX,
        &["format", "elp", "budget", "topo"],
        &["no-audit"],
    )?;
    if files.is_empty() {
        return Err("usage: tagger-lint check <file...>".into());
    }
    let elp = match flags.get("elp").map(String::as_str) {
        None => None,
        Some("updown") => Some(ElpSpec::UpDown),
        Some(spec) => match spec.strip_prefix("bounces=") {
            Some(k) => {
                Some(ElpSpec::Bounces(k.parse().map_err(|_| {
                    format!("--elp bounces wants a number, got {k:?}")
                })?))
            }
            None => return Err(format!("--elp wants `updown` or `bounces=K`, got {spec:?}")),
        },
    };
    let trace_topo = topo_spec(&flags)?
        .build()
        .map_err(|e| format!("--topo: {e}"))?;
    let opts = LintOptions {
        elp,
        audit_cross_check: !flags.contains_key("no-audit"),
        trace_topo,
        tag_budget: get_opt(&flags, "budget")?,
    };
    let report = lint_files(&files, &opts);
    match flags.get("format").map(String::as_str) {
        None | Some("human") => print!("{}", report.render_human()),
        Some("json") => print!("{}", render_json(&report)),
        Some(other) => return Err(format!("--format wants `human` or `json`, got {other:?}")),
    }
    Ok(if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_explain(rest: &[String]) -> Result<ExitCode, String> {
    let (positional, _) = parse_args(rest, 1, &[], &[])?;
    let [code] = &positional[..] else {
        return Err("usage: tagger-lint explain <code>".into());
    };
    match codes::describe(code) {
        Some(description) => {
            println!("{code}: {description}");
            Ok(ExitCode::SUCCESS)
        }
        None => Err(format!("unknown diagnostic code {code:?}")),
    }
}
