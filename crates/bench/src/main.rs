//! # bench — the experiment harness: one binary, one parser
//!
//! * `bench exp <name>|all` — one [`EXPERIMENTS`] entry per table/figure
//!   of the paper, extension and ablation; `all` prints the document
//!   `results/all_experiments.md` holds (`fig5`/`fig6` also write CSVs).
//! * `bench verify [--pass <name>]... [--list-passes] [--json <path>]` —
//!   the `raidx_verify` passes; `--pass` (repeatable) selects a subset.
//! * `bench trace [--smoke] [--clients N] [--repeats N] [--out DIR]` —
//!   traces and metrics under `results/traces/`; `--smoke` runs a small
//!   configuration and asserts what CI relies on ([`smoke_check`]).
//!
//! Flags may come in any order. Exit codes: 0 clean, 1 findings, 2 usage.

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
use raidx_verify::report::{self, PassReport};
use raidx_verify::{run_pass, PASSES};

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
    ("degraded_perf", "Degraded-mode and rebuild-under-load performance", || {
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
    /// The selected passes (none = every pass).
    Verify { passes: Vec<&'static str>, list: bool, json: Option<String> },
    /// `--smoke` and the overrides of the base [`TraceConfig`].
    Trace { smoke: bool, clients: Option<usize>, repeats: Option<usize>, out: Option<String> },
}

fn usage() -> String {
    format!(
        "usage: bench exp <name>|all
       bench verify [--pass <name>]... [--list-passes] [--json <path>]
       bench trace [--smoke] [--clients N] [--repeats N] [--out DIR]
experiments: {}, all\npasses: {}",
        EXPERIMENTS.map(|e| e.0).join(", "),
        PASSES.map(|p| p.0).join(", ")
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

fn number(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let n = value(args, flag)?;
    n.parse().map_err(|e| format!("{flag}: invalid number `{n}`: {e}"))
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
        "verify" => {
            let (mut passes, mut list, mut json) = (Vec::new(), false, None);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--list-passes" | "--list_passes" => list = true,
                    "--pass" => {
                        let name = value(&mut args, "--pass")?.replace('_', "-");
                        let Some(&(pass, _)) = PASSES.iter().find(|p| p.0 == name) else {
                            return Err(format!("unknown pass `{name}`\n{}", usage()));
                        };
                        passes.push(pass);
                    }
                    "--json" => json = Some(value(&mut args, "--json")?),
                    _ => return Err(unexpected(&arg)),
                }
            }
            Ok(Command::Verify { passes, list, json })
        }
        "trace" => {
            let (mut smoke, mut clients, mut repeats, mut out) = (false, None, None, None);
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--smoke" => smoke = true,
                    "--clients" => clients = Some(number(&mut args, "--clients")?),
                    "--repeats" => repeats = Some(number(&mut args, "--repeats")?),
                    "--out" => out = Some(value(&mut args, "--out")?),
                    _ => return Err(unexpected(&arg)),
                }
            }
            Ok(Command::Trace { smoke, clients, repeats, out })
        }
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

fn verify(passes: &[&str], list: bool, json: Option<&str>) -> ExitCode {
    if list {
        let width = PASSES.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, desc) in PASSES {
            println!("{name:width$}  {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let (mut failures, mut checks, mut total, mut slowest) = (0, 0, 0.0, ("", 0.0));
    let mut reports: Vec<PassReport> = Vec::new();
    for (name, _) in PASSES.iter().filter(|p| passes.is_empty() || passes.contains(&p.0)) {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock spent per pass is reporting, not simulation."
        )]
        let t0 = std::time::Instant::now();
        let mut p = run_pass(name);
        let secs = t0.elapsed().as_secs_f64();
        p.secs = Some(secs);
        total += secs;
        if secs >= slowest.1 {
            slowest = (name, secs);
        }
        print!("{}", p.render());
        println!("   ({secs:.2}s)\n");
        failures += p.failures();
        checks += p.checks.len();
        reports.push(p);
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(path, report::render_json(&reports)) {
            eprintln!("--json {path}: write failed: {e}");
            return ExitCode::from(2);
        }
        println!("json report written to {path}");
    }
    println!("timing: {total:.2}s total, slowest pass {} ({:.2}s)", slowest.0, slowest.1);
    if failures == 0 {
        println!("bench verify: all {checks} checks passed across {} passes", reports.len());
        ExitCode::SUCCESS
    } else {
        println!("bench verify: {failures}/{checks} checks FAILED");
        ExitCode::FAILURE
    }
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
        Ok(Command::Verify { passes, list, json }) => verify(&passes, list, json.as_deref()),
        Ok(Command::Trace { smoke, clients, repeats, out }) => {
            let mut cfg = if smoke { TraceConfig::smoke() } else { TraceConfig::default() };
            cfg.clients = clients.unwrap_or(cfg.clients);
            cfg.repeats = repeats.unwrap_or(cfg.repeats);
            cfg.out_dir = out.unwrap_or(cfg.out_dir);
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

    fn verify_cmd(passes: &[&'static str], list: bool, json: Option<&str>) -> Command {
        Command::Verify { passes: passes.to_vec(), list, json: json.map(String::from) }
    }

    fn trace_cmd(smoke: bool, n: Option<usize>, out: Option<&str>) -> Command {
        Command::Trace { smoke, clients: n, repeats: n, out: out.map(String::from) }
    }

    #[test]
    fn parse_accepts_every_subcommand_and_flag() {
        for (line, want) in [
            ("exp all", Command::Exp("all")),
            ("exp fault_tolerance", Command::Exp("fault_tolerance")),
            ("verify", verify_cmd(&[], false, None)),
            ("verify --list-passes", verify_cmd(&[], true, None)),
            ("verify --pass model_check --list_passes", verify_cmd(&["model-check"], true, None)),
            ("verify --json o --pass perf-smoke", verify_cmd(&["perf-smoke"], false, Some("o"))),
            ("trace", trace_cmd(false, None, None)),
            ("trace --smoke", trace_cmd(true, None, None)),
            ("trace --clients 4 --smoke --repeats 4 --out d", trace_cmd(true, Some(4), Some("d"))),
        ] {
            assert_eq!(parse_str(line), Ok(want), "{line}");
        }
    }

    #[test]
    fn parse_rejects_bad_command_lines() {
        let bad = ["", "experiments", "--help", "exp", "exp fig8", "exp fig5 extra", "verify -h"];
        let bad_flags = ["verify --pass", "verify --pass linearizability", "verify --json"];
        let bad_trace = ["trace --clients", "trace --repeats -1", "trace --out", "trace --pass x"];
        for line in bad.into_iter().chain(bad_flags).chain(bad_trace) {
            assert!(parse_str(line).is_err(), "`{line}` parsed");
        }
    }

    /// Every `exp <name>` the docs cite (so every `bench -- exp <name>`)
    /// names an entry, and every entry is cited.
    #[test]
    fn doc_references_name_registry_entries() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        let mut cited = BTreeSet::new();
        for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
            let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).expect("doc missing");
            for rest in text.split("exp ").skip(1) {
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
