//! Command line of the repository benchmark; `run.sh` builds and calls it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use benchmark::compare::compare;
use benchmark::json;
use benchmark::metrics::{manifest_json, RUN_SECONDS};
use benchmark::report::{contract_line, load_results, render_table, results_json, workload_json};
use benchmark::runner::{run_workload, RunOptions};
use benchmark::workload::specs;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                 [--smoke] [--out-dir DIR] [--baseline]
       benchmark compare A.json B.json
       benchmark manifest

Without --workload every workload runs, each in a process of its own, and
the results go to DIR/results.json (--baseline: to BASELINE.json beside
DIR, the committed copy; refused with --smoke). With --workload one
workload runs here and the last line printed is the driver's JSON object.
--trace adds traced repetitions and the layer ledger, and writes
DIR/trace_<workload>.json. --smoke shrinks every workload for a quick
local check (1 warm-up + 2 repetitions).";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    baseline: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        baseline: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => a.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                a.seed = value(&mut i, flag)?.parse().map_err(|_| "--seed: not a number")?
            }
            "--seconds" => {
                a.seconds = value(&mut i, flag)?.parse().map_err(|_| "--seconds: not a number")?;
                if !(1..=120).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 120".into());
                }
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => (a.trace, i) = (false, i + 1),
                Some("1") => (a.trace, i) = (true, i + 1),
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--baseline" => a.baseline = true,
            "--out-dir" => a.out_dir = PathBuf::from(value(&mut i, flag)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.smoke && a.baseline {
        return Err("--smoke results are not comparable and cannot become the baseline".into());
    }
    Ok(a)
}

fn run_file(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("run_{workload}_t{}.json", u8::from(trace)))
}

fn write(path: &Path, text: &str) {
    let made = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = made.and_then(|()| std::fs::write(path, text)) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

/// Run one workload in this process and end with the driver's line.
fn run_one(a: &Args, name: &str) -> ExitCode {
    let Some(spec) = specs(a.smoke).into_iter().find(|s| s.name == name) else {
        eprintln!("benchmark: unknown workload `{name}`");
        return ExitCode::from(2);
    };
    let opts = RunOptions { seed: a.seed, seconds: a.seconds, trace: a.trace, smoke: a.smoke };
    let out = run_workload(&spec, &opts);
    print!("{}", render_table(&out.result));
    write(&run_file(&a.out_dir, name, a.trace), &workload_json(&out.result));
    if let Some(trace) = &out.trace_json {
        if !sim_core::export::json_is_valid(trace) {
            eprintln!("benchmark: trace of {name} is not valid JSON");
            return ExitCode::from(1);
        }
        let path = a.out_dir.join(format!("trace_{name}.json"));
        write(&path, trace);
        println!(
            "   ledger: layer self times account for all but {:.3}% of driver.wall_ms; spans in {}",
            out.ledger_gap_pct,
            path.display()
        );
    }
    println!("{}", contract_line(&out.result, a.trace));
    ExitCode::SUCCESS
}

/// Run every workload, each in a child process, and gather the results.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for spec in specs(a.smoke) {
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--seed", &a.seed.to_string()])
                .args([
                    "--seconds",
                    &a.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out-dir")
                .arg(&a.out_dir);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let path = run_file(&a.out_dir, spec.name, trace);
            let _ = std::fs::remove_file(&path);
            // The child's last line is the PR driver's object; people
            // reading this mode's output want the tables above it.
            let ran = cmd.output().is_ok_and(|o| {
                let text = String::from_utf8_lossy(&o.stdout);
                let table = text.trim_end().rsplit_once('\n').map_or("", |(table, _)| table);
                println!("{table}");
                o.status.success()
            });
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let correct = json::parse(&text).ok().and_then(|v| v.get("correct")?.as_bool());
            if !ran || correct != Some(true) {
                eprintln!("benchmark: {} (trace {}) FAILED", spec.name, u8::from(trace));
                all_correct = false;
            }
            if !text.is_empty() {
                if trace { &mut traced } else { &mut plain }.push(text);
            }
        }
    }
    let path = if a.baseline {
        a.out_dir.parent().unwrap_or(Path::new(".")).join("BASELINE.json")
    } else {
        a.out_dir.join("results.json")
    };
    write(&path, &results_json(a.seed, a.seconds, a.smoke, &plain, &traced));
    println!("results written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        load_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let c = compare(&ra, &rb);
            print!("{}", c.table);
            if c.regressed {
                println!("REGRESSED: a `worse` row, a changed work count or a rise in fail_ratio");
                ExitCode::from(1)
            } else {
                println!("no regression");
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => return run_compare(&argv[1], &argv[2]),
        Some("manifest") if argv.len() == 1 => {
            print!("{}", manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help" | "compare" | "manifest") => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    }
}
