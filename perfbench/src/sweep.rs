//! `sweep`: the paper's evaluation shape — every registry benchmark under
//! the full-speed baseline and every bake-off scheme — as a closed loop
//! on a two-worker `RunSet`, repeated in a fixed number of rounds (one
//! fresh seed each).

use std::sync::Arc;
use std::time::Instant;

use mcd_bench::error::RunError;
use mcd_bench::runner::{controller_for, run_sharded, RunConfig, RunSet, Scheme};
use mcd_sim::trace::TraceSink;
use mcd_sim::{DomainId, Machine, SimResult};
use mcd_workloads::{registry, BenchmarkSpec, TraceGenerator};

use crate::digest::{digest, parse_digest_file, render_digest_file};
use crate::layers::{record_run, Spans, TimedController, TimedGen, TimedSink};
use crate::report::Outcome;
use crate::stats::{median, tail_at, tail_percentile, Rng};
use crate::Ctx;

/// Workers the sweep's closed loop runs on.
pub const JOBS: usize = 2;

/// Wall of one untraced round on the reference machine (2 vCPUs), which
/// sets the round count: 20 rounds (2 040 runs, tail at p99) in 30 s.
pub const REFERENCE_ROUND_S: f64 = 1.5;

/// The digests of round 0 at the default seed, committed so a change
/// that alters any simulated statistic fails the benchmark.
const COMMITTED: &str = include_str!("../digests/sweep-seed1.txt");

/// Every (benchmark, scheme) item of one round, benchmark-major with the
/// baseline first.
pub fn items() -> Vec<(BenchmarkSpec, Scheme)> {
    let mut out = Vec::new();
    for spec in registry::all() {
        out.push((spec.clone(), Scheme::Baseline));
        for scheme in Scheme::BAKEOFF {
            out.push((spec.clone(), scheme));
        }
    }
    out
}

/// The run configuration of round `round`: the quick evaluation size
/// with the default sharding and a seed drawn from the benchmark seed.
pub fn round_cfg(seed: u64, round: u64) -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.seed = Rng::new(seed, &format!("sweep/{round}")).next_u64() >> 16;
    cfg
}

fn label(spec: &BenchmarkSpec, scheme: Scheme, cfg: &RunConfig) -> String {
    format!("{}|{}|seed={}", spec.name, scheme.name(), cfg.seed)
}

/// One controlled run built by hand, so the generator and controllers
/// can be wrapped in timing spans. Untraced runs never come here: they go
/// through the program's own `RunSet::run`.
fn simulate_traced(
    spec: &BenchmarkSpec,
    scheme: Scheme,
    cfg: &RunConfig,
    sink: &mut dyn TraceSink,
    spans: &Arc<Spans>,
) -> Result<SimResult, RunError> {
    let start = Instant::now();
    let mut timed = TimedSink::new(sink, spans);
    let result = run_sharded(
        cfg.shard_ops,
        None,
        || {
            let g = TraceGenerator::try_new(spec, cfg.ops, cfg.seed).map_err(RunError::Workload)?;
            let g = TimedGen::new(g, Arc::clone(spans));
            let mut m = Machine::try_new(cfg.sim.clone(), g)?;
            for &d in &DomainId::BACKEND {
                if let Some(c) = controller_for(scheme, d, cfg) {
                    let c = TimedController::new(c, scheme, Arc::clone(spans));
                    m = m.with_controller(d, Box::new(c));
                }
            }
            Ok(m)
        },
        &mut timed,
    );
    drop(timed);
    record_run(spans, start);
    result
}

/// One executed item.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// Run label.
    pub label: String,
    /// Result digest (0 for a failed run).
    pub digest: u64,
    /// Whether the run returned a result.
    pub ok: bool,
    /// Host wall of the simulation, ms.
    pub wall_ms: f64,
    /// Submission → start, ms.
    pub queue_ms: f64,
    /// Simulated instructions.
    pub instructions: u64,
    /// Whether the scheme attached controllers.
    pub controlled: bool,
    /// Engine events processed.
    pub events: u64,
    /// Cycles the event core skipped.
    pub skipped: u64,
}

/// One round's runs plus its wall.
#[derive(Debug)]
pub struct Round {
    /// Every item, in input order.
    pub runs: Vec<RunOut>,
    /// Submission → last completion, ms.
    pub wall_ms: f64,
}

/// Runs one round of `items` under `cfg`. Baselines go through the
/// set's memo (as every experiment's do), controlled runs through
/// `RunSet::run` (or the span-wrapped machine when `spans` is given);
/// after the round, each controlled run is normalized against its
/// memoized baseline.
pub fn round(
    rs: &RunSet,
    items: &[(BenchmarkSpec, Scheme)],
    cfg: &RunConfig,
    spans: Option<&Arc<Spans>>,
) -> Round {
    let submit = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let runs = rs.par(items.to_vec(), |(spec, scheme)| {
        let start = Instant::now();
        let result = match spans {
            _ if scheme == Scheme::Baseline => rs.baseline(spec.name, cfg).map(|r| (*r).clone()),
            None => rs.run(spec.name, scheme, cfg),
            Some(spans) => rs.run_custom(&label(&spec, scheme, cfg), |sink| {
                simulate_traced(&spec, scheme, cfg, sink, spans)
            }),
        };
        let end = Instant::now();
        let (digest, instructions, events, skipped) = match &result {
            Ok(r) => (
                digest(r),
                r.instructions,
                r.metrics.events_processed,
                r.metrics.cycles_skipped,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        RunOut {
            label: label(&spec, scheme, cfg),
            digest,
            ok: result.is_ok(),
            wall_ms: ms(start, end),
            queue_ms: ms(submit, start),
            instructions,
            controlled: scheme != Scheme::Baseline,
            events,
            skipped,
        }
    });
    let wall_ms = submit.elapsed().as_secs_f64() * 1e3;
    // Normalization, as the experiments do it: every controlled run asks
    // the memo for its baseline (a hit; the round's baseline items
    // filled it).
    for (spec, scheme) in items.iter().filter(|(_, s)| *s != Scheme::Baseline) {
        if let (Ok(base), Some(run)) = (
            rs.baseline(spec.name, cfg),
            runs.iter().find(|r| r.label == label(spec, *scheme, cfg)),
        ) {
            std::hint::black_box(base.instructions + run.instructions);
        }
    }
    Round { runs, wall_ms }
}

/// Compares round 0 at the default seed against the committed digests.
fn check_committed(out: &mut Outcome, runs: &[RunOut]) {
    let committed = parse_digest_file(COMMITTED);
    let ok = committed.len() == runs.len()
        && committed
            .iter()
            .zip(runs)
            .all(|((l, d), r)| *l == r.label && *d == r.digest);
    out.check(ok, || {
        "sweep: round-0 digests at the default seed differ from perfbench/digests/sweep-seed1.txt"
            .to_string()
    });
}

/// The committed digest file's content, regenerated (round 0, seed 1).
pub fn committed_digests() -> String {
    let rs = RunSet::new(JOBS);
    let r = round(&rs, &items(), &round_cfg(crate::DEFAULT_SEED, 0), None);
    let pairs: Vec<(String, u64)> = r.runs.into_iter().map(|r| (r.label, r.digest)).collect();
    render_digest_file(
        "sweep round 0 at seed 1: label digest (perfbench digests regenerates this file)",
        &pairs,
    )
}

/// Set-up: the worker pool and the item list — everything before the
/// first run can be submitted.
pub fn setup() -> (RunSet, Vec<(BenchmarkSpec, Scheme)>) {
    (RunSet::new(JOBS), items())
}

/// The `sweep` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = crate::median_setup(&mut out, "sweep");
    let (rs, items) = setup();
    // Traced rounds get their own set: sharing the plain set's baseline
    // memo would turn their baseline runs into hits.
    let rs_traced = RunSet::new(JOBS);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let spans = Arc::new(Spans::default());
    let planned = ctx.rounds(REFERENCE_ROUND_S);
    let mut round_no = 0;
    while round_no < planned && !(round_no > 0 && ctx.capped(start)) {
        let cfg = round_cfg(ctx.seed, round_no);
        let plain = round(&rs, &items, &cfg, None);
        for r in &plain.runs {
            out.check(r.ok, || format!("sweep: run {} failed", r.label));
        }
        if round_no == 0 && ctx.seed == crate::DEFAULT_SEED {
            check_committed(&mut out, &plain.runs);
        }
        if ctx.trace {
            let t = round(&rs_traced, &items, &cfg, Some(&spans));
            let same = t.runs.len() == plain.runs.len()
                && t.runs
                    .iter()
                    .zip(&plain.runs)
                    .all(|(a, b)| a.digest == b.digest);
            out.check(same, || {
                format!("sweep: traced digests differ from untraced in round {round_no}")
            });
            traced.push(t);
        }
        rounds.push(plain);
        round_no += 1;
    }
    let peak = crate::stats::peak_rss_mb();

    let walls: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.runs.iter().map(|x| x.wall_ms))
        .collect();
    // Rates and medians are taken per round and their median reported,
    // so a stretch of slow host time in a minority of rounds does not
    // move them.
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mips = over_rounds(&|r| {
        r.runs.iter().map(|x| x.instructions).sum::<u64>() as f64 / r.wall_ms / 1e3
    });
    let p50 = over_rounds(&|r| median(&r.runs.iter().map(|x| x.wall_ms).collect::<Vec<_>>()));
    let slowest = over_rounds(&|r| r.runs.iter().map(|x| x.wall_ms).fold(0.0, f64::max));
    // The percentile the planned run count supports, even if the cap cut
    // the run short, so the figure always means the same thing.
    let t = tail_at(&walls, tail_percentile(planned as usize * items.len()));
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak);
    out.set("sim_mips", mips);
    out.set("op_p50_ms", p50);
    out.set("op_tail_ms", t.value);
    out.set("side_ms", slowest);
    out.set(
        "goodput_per_s",
        over_rounds(&|r| r.runs.len() as f64 / (r.wall_ms / 1e3)),
    );
    out.line(format!(
        "sweep: {} of {planned} rounds x {} runs ({} benchmarks x baseline + {} schemes), {} workers",
        rounds.len(),
        items.len(),
        items.len() / (Scheme::BAKEOFF.len() + 1),
        Scheme::BAKEOFF.len(),
        JOBS
    ));
    out.line(format!(
        "  sim_mips        {mips:.4} MIPS  (median over rounds)"
    ));
    out.line(format!(
        "  run_p50_ms      {p50:.4} ms  (median over rounds)"
    ));
    out.line(format!(
        "  run_tail_ms     {:.4} ms  (p{}, {} of {} samples beyond)",
        t.value, t.percentile, t.beyond, t.samples
    ));
    out.line(format!(
        "  slowest_run_ms  {slowest:.4} ms  (median over rounds)"
    ));

    if ctx.trace {
        layers(&mut out, &rs_traced, &rounds, &traced, &spans);
    }
    out
}

/// Per-layer figures from the traced rounds.
fn layers(out: &mut Outcome, rs: &RunSet, plain: &[Round], traced: &[Round], spans: &Spans) {
    use std::sync::atomic::Ordering::Relaxed;
    let controlled: Vec<&RunOut> = traced
        .iter()
        .flat_map(|r| &r.runs)
        .filter(|r| r.controlled)
        .collect();
    let instr: u64 = controlled.iter().map(|r| r.instructions).sum();
    let events: u64 = controlled.iter().map(|r| r.events).sum();
    let skipped: u64 = controlled.iter().map(|r| r.skipped).sum();
    let self_ns = spans.run.ns.load(Relaxed).saturating_sub(spans.child_ns()) as f64;
    out.set("workloads.gen_ns_per_op", spans.generator.ns_per_call());
    out.set("sim.self_ns_per_instr", self_ns / instr.max(1) as f64);
    out.set("sim.self_ns_per_event", self_ns / events.max(1) as f64);
    out.set("sim.events_per_instr", events as f64 / instr.max(1) as f64);
    out.set(
        "sim.skipped_per_event",
        skipped as f64 / events.max(1) as f64,
    );
    let adaptive = spans.controller(Scheme::Adaptive);
    let calls = adaptive.calls.load(Relaxed);
    out.set("core.adaptive_ns_per_call", adaptive.ns_per_call());
    out.set("core.adaptive_calls", calls as f64);
    out.set(
        "core.adaptive_action_ratio",
        adaptive.actions.load(Relaxed) as f64 / calls.max(1) as f64,
    );
    for (scheme, name) in [
        (Scheme::Pid, "baselines.pid_ns_per_call"),
        (Scheme::AttackDecay, "baselines.attack_decay_ns_per_call"),
        (Scheme::IntegralGain, "baselines.integral_gain_ns_per_call"),
        (Scheme::FeedbackDvs, "baselines.feedback_dvs_ns_per_call"),
    ] {
        out.set(name, spans.controller(scheme).ns_per_call());
    }
    let queue: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.runs.iter().map(|x| x.queue_ms))
        .collect();
    out.set("bench.queue_wait_ms", median(&queue));
    let busy: f64 = traced
        .iter()
        .flat_map(|r| r.runs.iter().map(|x| x.wall_ms))
        .sum();
    let wall: f64 = traced.iter().map(|r| r.wall_ms).sum();
    out.set("bench.worker_busy_frac", busy / (wall * JOBS as f64));
    // Every simulation the traced set executed is a controlled run or a
    // baseline the memo computed; every other baseline request was a hit.
    let stats = rs.stats();
    let computed = stats.runs.saturating_sub(controlled.len() as u64);
    out.set(
        "bench.baseline_memo_hit_ratio",
        stats.baseline_requests.saturating_sub(computed) as f64
            / stats.baseline_requests.max(1) as f64,
    );
    let plain_wall: f64 = plain.iter().take(traced.len()).map(|r| r.wall_ms).sum();
    out.set("span.overhead_ratio", wall / plain_wall);
    let clock = crate::layers::clock_read_ns();
    out.set("span.clock_read_ns", clock);
    out.line(format!(
        "  traced: {} rounds; clock read {clock:.1} ns, paid twice per span \
         (generator spans {:.0} calls, {:.1} ns each)",
        traced.len(),
        spans.generator.calls.load(Relaxed) as f64,
        spans.generator.ns_per_call()
    ));
}
