//! `e2e_bench`: the repository's benchmark. One command measures batch
//! prediction queries and the serving tier end to end (tracing off) and layer
//! by layer (a traced pass), checks every output against an independent
//! reference run, and prints every metric by name. See `README.md` beside
//! this package for the definitions and `BENCHMARK.json` for the contract.
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one pass
//! e2e_bench run [--workload NAME]... [--seed N] [--seconds S] [--runs R] [--out FILE]
//! e2e_bench compare A.json B.json
//! ```

mod batch;
mod check;
mod compare;
mod inputs;
mod json;
mod metrics;
mod serve;
mod span;
mod stats;

use inputs::Sizes;
use json::Json;
use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// One pass over one workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics, nothing recorded inside the timed
    /// region. `true`: the per-layer pass with spans.
    pub trace: bool,
    pub sizes: Sizes,
    /// Where trace and temporary files go.
    pub out_dir: PathBuf,
}

/// Result, trace and temporary files go inside the package (the benchmark
/// runs from the root of a checkout), so a run writes nowhere else.
fn out_dir() -> PathBuf {
    PathBuf::from("e2e_bench").join("out")
}

pub fn write_trace(args: &RunArgs, tracer: &span::Tracer) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().render()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{:<20} trace: {} spans in {}",
        args.workload,
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// Repeat `set_up` (given the repetition's index) as `Sizes` asks, timing
/// each; returns the last result and every duration in seconds. The previous
/// result is dropped before the next repetition starts.
pub fn repeat_set_up<T>(
    sizes: &Sizes,
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    const MAX_SETUPS: usize = 12;
    let mut seconds = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let ready = set_up(seconds.len())?;
        seconds.push(t.elapsed().as_secs_f64());
        let enough = seconds.len() >= sizes.min_setups.max(1)
            && (seconds.iter().sum::<f64>() >= sizes.setup_budget_s || seconds.len() >= MAX_SETUPS);
        if enough {
            return Ok((ready, seconds));
        }
    }
}

/// Peak resident set of this process so far, from the kernel's own account.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn measure(args: &RunArgs) -> Result<Outcome, String> {
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{}'; one of {names:?}",
            args.workload
        ));
    }
    let mut outcome = if args.workload.starts_with("batch.") {
        batch::run(args)?
    } else {
        serve::run(args)?
    };
    if !args.trace {
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        outcome.set("peak_rss_mb", rss, 1);
    }
    Ok(outcome)
}

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
    allow_pins: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        runs: 1,
        smoke: false,
        allow_pins: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => cli.workloads.push(value()?.clone()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => cli.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => cli.trace = value()? == "1",
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--allow-pins" => cli.allow_pins = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) || cli.runs == 0 {
        return Err("--seconds must be in (0, 60] and --runs at least 1".into());
    }
    Ok(cli)
}

/// `RAVEN_*` variables pin alternative implementations process-wide; a
/// benchmark of what a user gets by default must not run under one unnoticed.
fn refuse_pins(cli: &Cli) -> Result<(), String> {
    let pins: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RAVEN_"))
        .collect();
    if pins.is_empty() || cli.allow_pins {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {pins:?} set; unset them or pass --allow-pins"
        ))
    }
}

/// One workload, one pass, in this process: what the contract's driver runs.
fn single(cli: &Cli) -> Result<(), String> {
    let [workload] = cli.workloads.as_slice() else {
        return Err("give exactly one --workload (or use the `run` subcommand)".into());
    };
    let args = RunArgs {
        workload: workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sizes: if cli.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        out_dir: out_dir(),
    };
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("{workload:<20} why: {}", w.why);
    }
    let outcome = measure(&args)?;
    let defs = if cli.trace { PER_LAYER } else { END_TO_END };
    outcome.print(workload, defs);
    println!("{}", outcome.result_json(defs).render());
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run one pass in a child process (a clean allocator and its own peak RSS),
/// echo what it prints and return the result object of its last line.
fn child_pass(cli: &Cli, workload: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    if cli.allow_pins {
        command.arg("--allow-pins");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !output.status.success() {
        return Err(format!("the {workload} pass exited with {}", output.status));
    }
    Json::parse(last).map_err(|e| format!("the {workload} pass printed no result: {e}"))
}

/// Every workload (or those named), each in child processes: `--runs`
/// end-to-end passes, then one shorter traced pass. Writes the results file.
fn run_all(cli: &Cli) -> Result<(), String> {
    let names: Vec<&str> = if cli.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        cli.workloads.iter().map(String::as_str).collect()
    };
    let rev = command_output("git", &["rev-parse", "--short", "HEAD"]);
    let env = Json::obj([
        ("git_rev", Json::str(&rev)),
        ("rustc", Json::str(command_output("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "loadavg",
            Json::str(
                std::fs::read_to_string("/proc/loadavg")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        (
            "pool_workers",
            Json::Num(raven_columnar::WorkerPool::global().worker_count() as f64),
        ),
        (
            "server_workers",
            Json::Num(raven_serve::ServerConfig::default().worker_threads as f64),
        ),
        (
            "degree_of_parallelism",
            Json::str("2 on batch.join_star, 1 elsewhere"),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("runs", Json::Num(cli.runs as f64)),
        ("smoke", Json::Bool(cli.smoke)),
    ]);

    let count = |result: &Json, key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut workloads = Vec::new();
    let mut failed = 0.0;
    for name in names {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut attempted = 0.0;
        for _ in 0..cli.runs {
            let result = child_pass(cli, name, cli.seconds, false)?;
            for (def, values) in END_TO_END.iter().zip(&mut values) {
                let value = result.get("metrics").and_then(|m| m.get(def.name));
                values.push(
                    value
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                );
            }
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        }
        let traced = child_pass(cli, name, (cli.seconds / 2.0).max(1.0), true)?;
        failed += count(&traced, "failed");
        let end_to_end = END_TO_END.iter().zip(values).map(|(def, values)| {
            (
                def.name,
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("median", Json::Num(stats::median(&values))),
                    ("spread", Json::Num(stats::quartile_spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        });
        workloads.push((
            name,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("end_to_end", Json::obj(end_to_end)),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let results = Json::obj([("env", env), ("workloads", Json::obj(workloads))]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("results-{rev}.json")));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, results.render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    if failed > 0.0 {
        return Err(format!(
            "{failed} operations failed or returned a wrong result"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: e2e_bench compare A.json B.json".into()),
        },
        Some("run") => parse_flags(&args[1..])
            .and_then(|cli| refuse_pins(&cli).map(|()| cli))
            .and_then(|cli| run_all(&cli).map(|()| true)),
        _ => parse_flags(&args)
            .and_then(|cli| refuse_pins(&cli).map(|()| cli))
            .and_then(|cli| single(&cli).map(|()| true)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn names_in_the_code_equal_those_in_benchmark_json() {
        let contract = benchmark_json();
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            contract
                .get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|e| fields.iter().map(|f| field(e, f).to_string()).collect())
                .collect()
        };
        let own = |defs: &[metrics::MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|d| vec![d.name.into(), d.unit.into(), d.better.into()])
                .collect()
        };
        assert_eq!(
            listed("end_to_end", &["name", "unit", "better"]),
            own(END_TO_END)
        );
        assert_eq!(
            listed("per_layer", &["name", "unit", "better"]),
            own(PER_LAYER)
        );
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.into(), w.why.into()])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        let bounds: Vec<f64> = contract
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|d| d.bound).collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name) && seen.insert(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    /// Every workload end to end at smoke size, both passes, outputs checked.
    #[test]
    fn smoke_run_of_all_seven_workloads_passes_its_checks() {
        let started = std::time::Instant::now();
        for w in WORKLOADS {
            for trace in [false, true] {
                let outcome = measure(&RunArgs {
                    workload: w.name.into(),
                    seed: 3,
                    seconds: if w.name.starts_with("serve.") {
                        1.0
                    } else {
                        0.3
                    },
                    trace,
                    sizes: Sizes::smoke(),
                    out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
                })
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(outcome.attempted >= 1, "{}", w.name);
                assert_eq!(
                    outcome.failed, 0,
                    "{} trace={trace}: {:?}",
                    w.name, outcome.notes
                );
                let defs = if trace { PER_LAYER } else { END_TO_END };
                if !trace {
                    for d in defs {
                        assert!(
                            outcome.get(d.name).is_some_and(|v| v > 0.0),
                            "{} {}",
                            w.name,
                            d.name
                        );
                    }
                }
                let printed = outcome.result_json(defs);
                assert_eq!(printed.get("metrics").unwrap().as_obj().len(), defs.len());
                assert_eq!(printed.get("correct"), Some(&Json::Bool(true)));
            }
        }
        assert!(
            started.elapsed().as_secs() < 20,
            "smoke took {:?}",
            started.elapsed()
        );
    }
}
