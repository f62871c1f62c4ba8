//! The repository benchmark: three workloads driven through the crates'
//! public APIs, each checked for correct output, timed end to end with
//! tracing off, and timed layer by layer in a separate traced run.

pub mod digest;
pub mod http;
pub mod layers;
pub mod record_replay;
pub mod report;
pub mod serve_mix;
pub mod stats;
pub mod sweep;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use report::Outcome;

/// The seed at which the sweep's committed digests apply.
pub const DEFAULT_SEED: u64 = 1;

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// A run stops starting new units of work after this many times its
/// `--seconds`, so a badly regressed program still exits in time.
pub const CAP_FACTOR: f64 = 4.0;

/// The longest any run may keep starting new work, seconds.
pub const CAP_S: f64 = 150.0;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Ctx {
    /// How many rounds a closed-loop workload runs: `--seconds` divided
    /// by the round's wall on the reference machine. The count depends on
    /// `--seconds` only, never on how fast the program is, so every run
    /// measures the same work and takes its tail at the same percentile.
    pub fn rounds(&self, reference_round_s: f64) -> u64 {
        (self.seconds / reference_round_s).round().max(1.0) as u64
    }

    /// Whether a run that started at `start` has passed its safety cap.
    pub fn capped(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() > (self.seconds * CAP_FACTOR).min(CAP_S)
    }
}

/// `setup_s`: the median, over [`SETUP_REPEATS`] fresh processes, of the
/// time from spawning this binary as `perfbench setup-probe <workload>`
/// until it reports that the workload's first unit of work could begin
/// (see [`setup_probe`]). Process start, loading and the workload's own
/// set-up are all inside; tear-down is not. A probe that fails counts as
/// a failed operation.
pub fn median_setup(out: &mut Outcome, workload: &str) -> f64 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.check(false, || {
                format!("{workload}: cannot locate the binary: {e}")
            });
            return 0.0;
        }
    };
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let child = Command::new(&exe)
            .args(["setup-probe", workload])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                out.check(false, || {
                    format!("{workload}: set-up probe did not start: {e}")
                });
                continue;
            }
        };
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let s = start.elapsed().as_secs_f64();
        let status = child.wait();
        let ok = read.is_ok() && line == "ready\n" && status.as_ref().is_ok_and(|s| s.success());
        out.check(ok, || {
            format!("{workload}: set-up probe failed: {line:?} {status:?}")
        });
        if ok {
            samples.push(s);
        }
    }
    if samples.is_empty() {
        return 0.0;
    }
    stats::median(&samples)
}

/// The child side of [`median_setup`]: sets `workload` up, prints
/// `ready` once its first unit of work could begin, then tears it down.
pub fn setup_probe(workload: &str) -> Result<(), String> {
    let ready = || {
        let mut stdout = std::io::stdout();
        writeln!(stdout, "ready")
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())
    };
    match workload {
        "sweep" => {
            let set = sweep::setup();
            ready()?;
            drop(set);
        }
        "record-replay" => {
            let set = record_replay::setup();
            ready()?;
            drop(set);
        }
        "serve-mix" => {
            let (server, conns) = serve_mix::setup()?;
            ready()?;
            drop(conns);
            server.shutdown().map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}
