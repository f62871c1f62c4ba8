//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and ends with one JSON result line;
//! `perfbench manifest` prints `BENCHMARK.json`, `perfbench digests`
//! prints the committed sweep digest file, and `perfbench serve-capacity`
//! measures the throughput `serve-mix`'s offered rate is derived from.
//! `perfbench setup-probe <workload>` is the child process `setup_s`
//! times.

use std::process::ExitCode;

use mcd_perfbench::report::{manifest, Outcome, END_TO_END, PER_LAYER};
use mcd_perfbench::{record_replay, serve_mix, sweep, Ctx, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload sweep|record-replay|serve-mix \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench manifest|digests|serve-capacity";

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: mcd_perfbench::report::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("not a number"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some("digests") => {
            print!("{}", sweep::committed_digests());
            return ExitCode::SUCCESS;
        }
        Some("serve-capacity") => {
            return match serve_mix::capacity(DEFAULT_SEED) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: serve-capacity: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("setup-probe") => {
            let workload = args.get(1).map_or("", String::as_str);
            return match mcd_perfbench::setup_probe(workload) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: setup-probe: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let (workload, ctx) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match workload.as_str() {
        "sweep" => sweep::run(&ctx),
        "record-replay" => record_replay::run(&ctx),
        "serve-mix" => serve_mix::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {workload}  seed {}  {} s  {}",
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "untraced" }
    );
    println!("model accuracy: unvalidated (no hardware reference in the repository)");
    for line in &outcome.lines {
        println!("{line}");
    }
    let catalog = if ctx.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for m in catalog {
        let v = outcome.values.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<38} {v:>14.6} {}", m.name, m.unit);
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!("{}", outcome.result_json(catalog));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
