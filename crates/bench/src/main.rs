//! # bench — the experiment harness: one binary, one parser
//!
//! * `bench exp <name>|all` — one [`EXPERIMENTS`] entry per table/figure
//!   of the paper, extension and ablation; `all` prints the document
//!   `results/all_experiments.md` holds (`fig5`/`fig6` also write CSVs).
//! * `bench trace [--smoke]` — traces and metrics under
//!   `results/traces/`; `--smoke` runs a small configuration and asserts
//!   what CI relies on ([`smoke_check`]).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage.
//! The verification suite is `cargo test` (crate `raidx-verify`).

mod exp_ablations;
mod exp_degraded;
mod exp_fault;
mod exp_fig5;
mod exp_fig6;
mod exp_fig7;
mod exp_latency;
mod exp_layouts;
mod exp_mixed;
mod exp_reliability;
mod exp_scalability;
mod exp_table2;
mod exp_table3;
mod exp_trace;
mod exp_utilization;
mod harness;

use std::process::ExitCode;

use exp_trace::{render_summary, run_all, smoke_check, TraceConfig};

/// `(name, heading, body)`: `exp <name>` prints the body; `exp all`
/// prints it under `## <heading>`.
type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in `exp all` order.
const EXPERIMENTS: [Experiment; 14] = [
    ("layouts", "Layout maps (Figures 1 & 3)", exp_layouts::render_all),
    ("table2", "Table 2 (analytic model)", || exp_table2::render(16)),
    ("fig5", "Figure 5 (parallel I/O bandwidth)", exp_fig5::report),
    ("table3", "Table 3 (1 vs 16 clients)", || exp_table3::render(&exp_table3::run())),
    ("fig6", "Figure 6 (Andrew benchmark)", exp_fig6::report),
    ("fig7", "Figure 7 (striped checkpointing)", || exp_fig7::render(&exp_fig7::run_sweep())),
    ("reliability", "Reliability under multiple failures", exp_reliability::render),
    ("fault_tolerance", "Fault tolerance (Section 6)", exp_fault::render),
    ("latency", "Per-operation latency distributions", || {
        exp_latency::render(&exp_latency::run_sweep())
    }),
    ("mixed_workload", "Mixed transaction workload", || exp_mixed::render(&exp_mixed::run_sweep())),
    ("degraded_perf", "Degraded-mode performance", || {
        exp_degraded::render(&exp_degraded::run_all())
    }),
    ("utilization", "Resource utilization (serverless vs central)", exp_utilization::render),
    ("scalability", "Scalability beyond the prototype", || {
        exp_scalability::render(&exp_scalability::run_sweep())
    }),
    ("ablations", "Ablations", exp_ablations::render_all),
];

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    /// An [`EXPERIMENTS`] name, or `all`.
    Exp(&'static str),
    /// `trace`, with `--smoke` picking [`TraceConfig::smoke`] over the
    /// default.
    Trace { smoke: bool },
}

fn usage() -> String {
    format!(
        "usage: bench exp <name>|all
       bench trace [--smoke]
experiments: {}, all",
        EXPERIMENTS.map(|e| e.0).join(", ")
    )
}

/// The error for an argument no subcommand takes; `--help` asks for usage.
fn unexpected(arg: &str) -> String {
    match arg {
        "--help" | "-h" => usage(),
        _ => format!("unknown argument `{arg}` (try --help)"),
    }
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// Parse the arguments after the program name; every error is a usage
/// error (exit 2).
fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let sub = args.next().ok_or_else(usage)?;
    match sub.as_str() {
        "exp" => {
            let name = value(&mut args, "exp")?;
            let Some(name) = EXPERIMENTS.iter().map(|e| e.0).chain(["all"]).find(|n| *n == name)
            else {
                return Err(format!("unknown experiment `{name}`\n{}", usage()));
            };
            match args.next() {
                Some(extra) => Err(unexpected(&extra)),
                None => Ok(Command::Exp(name)),
            }
        }
        "trace" => match (args.next(), args.next()) {
            (None, _) => Ok(Command::Trace { smoke: false }),
            (Some(flag), None) if flag == "--smoke" => Ok(Command::Trace { smoke: true }),
            (Some(flag), None) => Err(unexpected(&flag)),
            (Some(_), Some(extra)) => Err(unexpected(&extra)),
        },
        _ => Err(unexpected(&sub)),
    }
}

fn exp(name: &str) -> ExitCode {
    let all = name == "all";
    if all {
        println!("# RAID-x reproduction — experiment results\n");
    }
    for (_, heading, body) in EXPERIMENTS.iter().filter(|e| all || e.0 == name) {
        if all {
            println!("## {heading}");
        }
        println!("{}", body());
    }
    ExitCode::SUCCESS
}

fn trace(cfg: &TraceConfig, smoke: bool) -> ExitCode {
    let runs = match run_all(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace export failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", render_summary(&runs));
    if smoke {
        if let Err(msg) = smoke_check(&runs) {
            eprintln!("bench trace --smoke: FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        println!("bench trace --smoke: OK");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Command::Exp(name)) => exp(name),
        Ok(Command::Trace { smoke }) => {
            let cfg = if smoke { TraceConfig::smoke() } else { TraceConfig::default() };
            trace(&cfg, smoke)
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parse_accepts_every_subcommand_and_flag() {
        for (line, want) in [
            ("exp all", Command::Exp("all")),
            ("exp fault_tolerance", Command::Exp("fault_tolerance")),
            ("trace", Command::Trace { smoke: false }),
            ("trace --smoke", Command::Trace { smoke: true }),
        ] {
            assert_eq!(parse_str(line), Ok(want), "{line}");
        }
    }

    #[test]
    fn parse_rejects_bad_command_lines() {
        let bad = ["", "experiments", "--help", "exp", "exp fig8", "exp fig5 extra", "verify"];
        let bad_trace = ["trace --clients 4", "trace --smoke --smoke", "trace --pass x"];
        for line in bad.into_iter().chain(bad_trace) {
            assert!(parse_str(line).is_err(), "`{line}` parsed");
        }
    }

    /// Every `exp <name>` the docs cite (so every `bench -- exp <name>`)
    /// names an entry, and every entry is cited.
    #[test]
    fn doc_references_name_registry_entries() {
        let read = |doc: &str| {
            let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
            std::fs::read_to_string(path).expect("doc missing")
        };
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let mut cited = BTreeSet::new();
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            for rest in read(doc).split("exp ").skip(1) {
                let name: String =
                    rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                // `exp <name>|all` in a usage line has no name token.
                if !name.is_empty() && name != "all" {
                    assert!(names.contains(name.as_str()), "{doc}: `exp {name}` is no entry");
                    cited.insert(name);
                }
            }
        }
        assert!(names.iter().all(|n| cited.contains(*n)), "uncited: {names:?} vs {cited:?}");
    }
}
