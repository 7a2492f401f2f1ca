//! The repo's benchmark: four closed-loop workloads through the `Session`
//! facade, checked against an in-harness oracle, with a traced second pass
//! that times calls into each layer. See `benchmark/README.md`.

mod compare;
mod gen;
mod json;
mod oracle;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::RunConfig;

const USAGE: &str = "\
usage: qdk-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
                     [--smoke] [--repeat N] [--out FILE] [--data-dir DIR] [--results-dir DIR]
       qdk-benchmark --compare BASE.json CHANGE.json

workloads: univ_read, describe_mix, churn_durable, bulk_closure, all
  --seconds S   size of the timed phase (op counts are rate x S; default 20)
  --trace       traced pass: per-layer metrics and results/trace-<workload>.jsonl
  --smoke       same code paths at 1/20 of the op counts, one set-up
  --repeat N    run each workload N times and write the set to --out
  --compare     judge CHANGE against BASE, one row per (metric, workload)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    data_dir: PathBuf,
    results_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        repeat: 0,
        out: None,
        data_dir: PathBuf::from("benchmark/results/data"),
        results_dir: PathBuf::from("benchmark/results"),
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--data-dir" => a.data_dir = PathBuf::from(value("a directory")?),
            "--results-dir" => a.results_dir = PathBuf::from(value("a directory")?),
            "--smoke" => a.smoke = true,
            "--compare" => {
                a.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            // Both `--trace` and the driver's `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.compare.is_none() && a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn result_path(results_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    results_dir.join(format!(
        "last-{workload}{}.json",
        if trace { "-trace" } else { "" }
    ))
}

/// Runs one workload in this process: prints the report, stores the full
/// result, and prints the driver's one-line result last.
fn run_one(a: &Args) -> Result<(), String> {
    let cfg = RunConfig {
        seed: a.seed,
        seconds: if a.smoke { a.seconds / 20.0 } else { a.seconds },
        trace: a.trace,
        setup_reps: if a.smoke { 1 } else { 5 },
        data_dir: a.data_dir.clone(),
        results_dir: a.results_dir.clone(),
    };
    std::fs::create_dir_all(&cfg.results_dir)
        .map_err(|e| format!("{}: {e}", cfg.results_dir.display()))?;
    let outcome = workloads::run(&a.workload, &cfg)?;
    print!("{}", outcome.render());
    let line = outcome.driver_line()?;
    let path = result_path(&cfg.results_dir, &a.workload, a.trace);
    std::fs::write(&path, format!("{}\n", outcome.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}

/// Runs each selected workload in a process of its own (so peak memory is
/// per workload), `repeat` times, and returns the stored results.
fn run_children(a: &Args, names: &[&str], repeat: usize) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for rep in 0..repeat {
        for name in names {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                name,
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ]);
            cmd.args(["--trace", if a.trace { "1" } else { "0" }]);
            cmd.arg("--data-dir")
                .arg(&a.data_dir)
                .arg("--results-dir")
                .arg(&a.results_dir);
            if a.smoke {
                cmd.arg("--smoke");
            }
            // The child's report goes straight to our stdout; wait for it.
            let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
            if !status.success() {
                return Err(format!("{name} (repeat {rep}) exited with {status}"));
            }
            let path = result_path(&a.results_dir, name, a.trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            results.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(results)
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some((base, change)) = &a.compare {
        let read = |p: &Path| -> Result<Json, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        let verdict = compare::compare(&read(base)?, &read(change)?);
        print!("{}", verdict.table);
        return Ok(!verdict.regressed);
    }
    if a.workload != "all" && a.repeat == 0 {
        // An incorrect run is reported in the result line, not by the exit
        // code.
        return run_one(a).map(|()| true);
    }
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let runs = run_children(a, &names, a.repeat.max(1))?;
    let correct = runs
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    if let Some(out) = &a.out {
        let set = Json::obj([
            ("environment", compare::environment()),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(out, format!("{set}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("{} written", out.display());
    }
    Ok(correct)
}

fn main() -> ExitCode {
    // The session default parallelism and sink read these; a benchmark run
    // must not depend on what the calling shell happened to export.
    std::env::remove_var("QDK_TRACE");
    std::env::remove_var("QDK_TEST_THREADS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
