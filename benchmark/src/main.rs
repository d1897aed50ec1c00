//! `orthobench`: the repo's benchmark. See `benchmark/README.md`.

mod bench;
mod check;
mod compare;
mod json;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Opts, RUN_SECONDS};

/// The benchmark's directory, relative to the repo root it runs from.
const BENCH_DIR: &str = "benchmark";

const USAGE: &str = "usage:
  orthobench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--repeat R]
  orthobench compare A/ B/
  orthobench expected
Run from the repository root (benchmark/run.sh does).";

/// Removes every `ORTHOPT_*` variable, so no knob of the caller's shell
/// leaks into a measurement, and returns what it removed.
fn clear_engine_env() -> Vec<String> {
    let mut cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ORTHOPT_"))
        .collect();
    cleared.sort();
    for k in &cleared {
        std::env::remove_var(k);
    }
    cleared
}

struct Cli {
    opts: Opts,
    all: bool,
    repeat: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            workload: String::new(),
            seed: 1,
            seconds: RUN_SECONDS,
            trace: true,
            smoke: false,
            out: Path::new(BENCH_DIR).join("out"),
        },
        all: true,
        repeat: 1,
    };
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => {
                cli.opts.workload = value()?.clone();
                cli.all = false;
            }
            "--seed" => cli.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                cli.opts.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--smoke" => cli.opts.smoke = true,
            "--out" => cli.opts.out = PathBuf::from(value()?),
            "--repeat" => {
                let v = value()?;
                cli.repeat = v.parse().ok().filter(|r| *r > 0).ok_or_else(|| bad(v))?;
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    // Traced unless told otherwise; a smoke run is untraced unless told
    // otherwise, because the traced pass plans Q2 again and CI wants it
    // under 30 s.
    cli.opts.trace = trace.unwrap_or(!cli.opts.smoke);
    Ok(cli)
}

/// Every workload in a fresh process each, so one's heap, plan cache
/// and peak RSS cannot colour the next.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for r in 0..cli.repeat {
        let out = if cli.repeat > 1 {
            cli.opts.out.join(format!("run{r}"))
        } else {
            cli.opts.out.clone()
        };
        for name in workload::NAMES {
            println!("# workload {name} seed {} run {r}", cli.opts.seed);
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &cli.opts.seed.to_string()])
                .args(["--seconds", &cli.opts.seconds.to_string()])
                .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if cli.opts.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            ok &= child.status().map_err(|e| e.to_string())?.success();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let cleared = clear_engine_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench_dir = Path::new(BENCH_DIR);
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new("BENCHMARK.json"), Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        Some("expected") => check::generate_expected(bench_dir).map(|()| true),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_cli(&args).and_then(|cli| {
            if cli.all {
                run_all(&cli)
            } else {
                // Spill files stay inside the checkout.
                std::env::set_var("ORTHOPT_SPILL_DIR", cli.opts.out.join("spill"));
                bench::run_workload(&cli.opts, &cleared, bench_dir)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("orthobench: {e}");
            ExitCode::from(2)
        }
    }
}
