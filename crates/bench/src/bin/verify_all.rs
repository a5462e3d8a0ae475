//! Run the `raidx-verify` passes and exit non-zero on any finding.
//!
//! ```text
//! cargo run -p bench --bin verify_all [-- --pass <name>]... [-- --list-passes] [-- --json <path>]
//! ```
//!
//! The eleven passes, their registry ([`PASSES`]) and the dispatcher
//! ([`run_pass`]) live in `raidx_verify` (see its crate docs); this
//! binary is argument parsing, per-pass timing and printing.
//!
//! `--pass <name>` (repeatable, hyphens and underscores interchangeable)
//! runs only the named passes — the one way to run less than the whole
//! suite, which has no reduced mode (every pass at full size is 2–3 s);
//! `--list-passes` prints the registry (stable order) and exits;
//! `--json <path>` additionally writes every pass's checks as
//! machine-readable JSON (stable schema: pass, rule, message, ok).
//! Each pass reports its wall-clock time.

use raidx_verify::report::{self, PassReport};
use raidx_verify::{run_pass, PASSES};

fn pass_names() -> Vec<&'static str> {
    PASSES.iter().map(|&(n, _)| n).collect()
}

struct Cli {
    passes: Vec<String>,
    list: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli { passes: Vec::new(), list: false, json: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-passes" | "--list_passes" => cli.list = true,
            "--pass" => {
                // Accept underscores as separators too (`--pass
                // crash_consistency` names the same pass).
                let name = args.next().ok_or("--pass requires a name")?.replace('_', "-");
                if !pass_names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown pass `{name}`; available: {}",
                        pass_names().join(", ")
                    ));
                }
                cli.passes.push(name);
            }
            "--json" => {
                cli.json = Some(args.next().ok_or("--json requires a path")?);
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: verify_all [--pass <name>]... [--list-passes] [--json <path>]\npasses: {}",
                    pass_names().join(", ")
                ));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if cli.list {
        let width = PASSES.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, desc) in PASSES {
            println!("{name:width$}  {desc}");
        }
        return;
    }
    let selected: Vec<&str> = if cli.passes.is_empty() {
        pass_names()
    } else {
        pass_names().into_iter().filter(|n| cli.passes.iter().any(|p| p == n)).collect()
    };
    let mut failures = 0;
    let mut checks = 0;
    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut reports: Vec<PassReport> = Vec::new();
    for name in &selected {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock spent per pass is reporting, not simulation."
        )]
        let t0 = std::time::Instant::now();
        let mut p = run_pass(name);
        let secs = t0.elapsed().as_secs_f64();
        p.secs = Some(secs);
        timings.push((name, secs));
        print!("{}", p.render());
        println!("   ({secs:.2}s)\n");
        failures += p.failures();
        checks += p.checks.len();
        reports.push(p);
    }
    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, report::render_json(&reports)) {
            eprintln!("--json {path}: write failed: {e}");
            std::process::exit(2);
        }
        println!("json report written to {path}");
    }
    let total: f64 = timings.iter().map(|(_, s)| s).sum();
    let slowest = timings.iter().max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((name, secs)) = slowest {
        println!("timing: {total:.2}s total, slowest pass {name} ({secs:.2}s)");
    }
    if failures == 0 {
        println!("verify_all: all {checks} checks passed across {} passes", selected.len());
    } else {
        println!("verify_all: {failures}/{checks} checks FAILED");
        std::process::exit(1);
    }
}
