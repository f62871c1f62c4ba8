//! `record-replay`: the forensics path. Each round records a small
//! adaptive sweep with anchors (short `shard_ops`), encodes it as
//! `.mcdt`, reads the catalog back, and replays a seeded sample of
//! episodes from their nearest anchors.

use std::time::Instant;

use mcd_adaptive::AdaptiveConfig;
use mcd_bench::error::RunError;
use mcd_bench::replay::replay_episode;
use mcd_bench::runner::{build_machine, controller_for, run_sharded, RunConfig, RunSet, Scheme};
use mcd_bench::trace_analyze::episodes_report;
use mcd_sim::{DomainId, Machine, SimResult};
use mcd_trace::{
    catalog_episodes, read_anchor_at, read_index, read_mcdt, write_mcdt, Episode, RunRecording,
};
use mcd_workloads::{adversarial, registry, BenchmarkSpec, TraceGenerator, VariabilityClass};

use crate::digest::digest;
use crate::report::Outcome;
use crate::stats::{median, tail_at, tail_percentile, Rng};
use crate::Ctx;

/// Workers for recording and replay.
pub const JOBS: usize = 2;
/// Shard length: short enough that every run carries several anchors.
pub const SHARD_OPS: u64 = 10_000;
/// Episodes replayed per round.
pub const REPLAYS_PER_ROUND: usize = 64;
/// Wall of one untraced round on the reference machine (2 vCPUs), which
/// sets the round count: 12 rounds (768 replays, tail at p95) in 30 s.
pub const REFERENCE_ROUND_S: f64 = 2.5;
/// Size of the worst-episode listing the analysis renders.
pub const WORST: usize = 10;
/// Times the analysis repeats per round (it is a pure function of the
/// file bytes; repeating it gives `side_ms` enough samples).
pub const ANALYZE_REPEATS: usize = 5;

/// What one round records: every fast-varying registry benchmark under
/// the adaptive scheme (replayable: they go through `RunSet::run`, which
/// attaches replay specs) plus the adversarial phase storm, whose custom
/// run carries no spec and is recorded and decoded but never replayed.
pub fn recorded_set() -> (Vec<&'static str>, BenchmarkSpec) {
    let fast = registry::by_variability(VariabilityClass::Fast)
        .into_iter()
        .map(|b| b.name)
        .collect();
    let relay = AdaptiveConfig::for_domain(DomainId::Int);
    (fast, adversarial::phase_storm(relay.t_m0, relay.t_l0))
}

/// The run configuration of round `round`.
pub fn round_cfg(seed: u64, round: u64) -> RunConfig {
    let mut cfg = RunConfig::quick().with_shard_ops(SHARD_OPS);
    cfg.seed = Rng::new(seed, &format!("record/{round}")).next_u64() >> 16;
    cfg
}

/// The episodes a round replays: a seeded sample (with replacement) of
/// the global ordinals of episodes in replayable runs.
pub fn replay_sample(index: &mcd_trace::TraceIndex, seed: u64, round: u64) -> Vec<usize> {
    let mut eligible = Vec::new();
    let mut k = 0;
    for run in &index.runs {
        for _ in &run.episodes {
            if run.spec.is_some() {
                eligible.push(k);
            }
            k += 1;
        }
    }
    if eligible.is_empty() {
        return eligible;
    }
    let mut rng = Rng::new(seed, &format!("replay/{round}"));
    (0..REPLAYS_PER_ROUND)
        .map(|_| eligible[rng.below(eligible.len())])
        .collect()
}

fn storm_run(
    spec: &BenchmarkSpec,
    cfg: &RunConfig,
    sink: &mut dyn mcd_sim::TraceSink,
) -> Result<SimResult, RunError> {
    run_sharded(
        cfg.shard_ops,
        None,
        || {
            let g = TraceGenerator::try_new(spec, cfg.ops, cfg.seed).map_err(RunError::Workload)?;
            let mut m = Machine::try_new(cfg.sim.clone(), g)?;
            for &d in &DomainId::BACKEND {
                if let Some(c) = controller_for(Scheme::Adaptive, d, cfg) {
                    m = m.with_controller(d, c);
                }
            }
            Ok(m)
        },
        sink,
    )
}

/// Records the round's runs on `rs`, returning their digests in input
/// order and the simulated instruction count.
fn record(rs: &RunSet, cfg: &RunConfig) -> Result<(Vec<u64>, u64, u64, u64), RunError> {
    let (fast, storm) = recorded_set();
    let mut items: Vec<Option<&'static str>> = fast.into_iter().map(Some).collect();
    items.push(None);
    let results = rs.par(items, |item| match item {
        Some(name) => rs.run(name, Scheme::Adaptive, cfg),
        None => rs.run_custom("phase_storm|adaptive", |sink| storm_run(&storm, cfg, sink)),
    });
    let mut digests = Vec::new();
    let (mut instr, mut events, mut skipped) = (0, 0, 0);
    for r in results {
        let r = r?;
        digests.push(digest(&r));
        instr += r.instructions;
        events += r.metrics.events_processed;
        skipped += r.metrics.cycles_skipped;
    }
    Ok((digests, instr, events, skipped))
}

/// The analysis a forensics user runs first: decode the file (which
/// cross-checks events against the index), read the catalog, and render
/// the worst-N listing.
fn analyze(bytes: &[u8]) -> Result<(mcd_trace::McdtFile, String), String> {
    let file = read_mcdt(bytes).map_err(|e| e.to_string())?;
    let index = read_index(bytes).map_err(|e| e.to_string())?;
    let catalog: Vec<(String, Vec<Episode>)> = index
        .runs
        .into_iter()
        .map(|r| (r.label, r.episodes))
        .collect();
    Ok((file, episodes_report(&catalog, WORST)))
}

/// Whether two catalogs agree on everything but file offsets (an
/// in-memory catalog has none).
fn same_catalog(a: &[Episode], b: &[Episode]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            Episode {
                block_offset: 0,
                ..*x
            } == Episode {
                block_offset: 0,
                ..*y
            }
        })
}

/// One round's measurements.
#[derive(Debug, Default)]
struct Round {
    record_ms: f64,
    encode_ms: f64,
    analyze_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    replay_phase_ms: f64,
    instructions: u64,
    events_processed: u64,
    skipped: u64,
    trace_events: u64,
    episodes: u64,
    bytes: u64,
    digests: Vec<u64>,
    queue_ms: Vec<f64>,
    busy_ms: f64,
    decode_ms: f64,
    index_ms: f64,
    unrecorded_ms: f64,
    snap: Vec<(f64, f64, usize)>,
}

/// Runs one round; `probes` adds the per-layer measurements, taken on
/// the same file after the round's own work.
fn round(out: &mut Outcome, seed: u64, round_no: u64, probes: bool) -> Round {
    let cfg = round_cfg(seed, round_no);
    let mut r = Round::default();
    let start = Instant::now();
    let rs = RunSet::new(JOBS).with_tracing();
    let recorded = record(&rs, &cfg);
    r.record_ms = start.elapsed().as_secs_f64() * 1e3;
    out.check(recorded.is_ok(), || {
        format!(
            "record-replay: recording failed: {:?}",
            recorded.as_ref().err()
        )
    });
    let Ok((digests, instr, events, skipped)) = recorded else {
        return r;
    };
    r.digests = digests;
    r.instructions = instr;
    r.events_processed = events;
    r.skipped = skipped;
    let recordings: Vec<RunRecording> = rs.drain_recordings().expect("tracing is on");
    r.trace_events = recordings.iter().map(|x| x.events.len() as u64).sum();

    let t = Instant::now();
    let bytes = write_mcdt(&recordings);
    r.encode_ms = t.elapsed().as_secs_f64() * 1e3;
    r.bytes = bytes.len() as u64;

    let mut analysis = None;
    for _ in 0..ANALYZE_REPEATS {
        let t = Instant::now();
        let a = analyze(&bytes);
        r.analyze_ms.push(t.elapsed().as_secs_f64() * 1e3);
        analysis = Some(a);
    }
    let index =
        match analysis.expect("analysis ran") {
            Ok((file, report)) => {
                out.check(file.runs == recordings, || {
                    "record-replay: decoded runs differ from the recordings".to_string()
                });
                let catalog_ok =
                    file.index.runs.iter().zip(&recordings).all(|(ix, rec)| {
                        same_catalog(&ix.episodes, &catalog_episodes(&rec.events))
                    }) && file.index.runs.len() == recordings.len();
                out.check(catalog_ok, || {
                    "record-replay: index catalog differs from the catalog of the events"
                        .to_string()
                });
                out.check(report.contains("Episode catalog"), || {
                    "record-replay: worst-N report did not render".to_string()
                });
                file.index
            }
            Err(e) => {
                out.check(false, || format!("record-replay: analysis failed: {e}"));
                return r;
            }
        };
    r.episodes = index.episode_count() as u64;

    let sample = replay_sample(&index, seed, round_no);
    out.check(!sample.is_empty(), || {
        "record-replay: no replayable episode".to_string()
    });
    let submit = Instant::now();
    let replays = rs.par(sample, |k| {
        let t = Instant::now();
        let o = replay_episode(&bytes, k);
        (
            k,
            o.map(|o| o.byte_identical),
            (t - submit).as_secs_f64() * 1e3,
            t.elapsed().as_secs_f64() * 1e3,
        )
    });
    r.replay_phase_ms = submit.elapsed().as_secs_f64() * 1e3;
    for (k, verdict, queued, wall) in replays {
        let ok = matches!(verdict, Ok(true));
        out.check(ok, || {
            format!("record-replay: episode {k} replay: {verdict:?}")
        });
        r.replay_ms.push(wall);
        r.queue_ms.push(queued);
        r.busy_ms += wall;
    }

    if probes {
        let t = Instant::now();
        std::hint::black_box(read_mcdt(&bytes).map(|f| f.runs.len()).unwrap_or(0));
        r.decode_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(read_index(&bytes).map(|i| i.runs.len()).unwrap_or(0));
        r.index_ms = t.elapsed().as_secs_f64() * 1e3;
        r.snap = snapshot_probe(out, &bytes, &index);
        // The same runs without a recorder, right after the recorded ones
        // so both see the same host: RunSet::run on a set with tracing off.
        let t = Instant::now();
        match record(&RunSet::new(JOBS), &cfg) {
            Ok((digests, ..)) => out.check(digests == r.digests, || {
                "record-replay: unrecorded digests differ from recorded".to_string()
            }),
            Err(e) => out.check(false, || {
                format!("record-replay: unrecorded run failed: {e}")
            }),
        }
        r.unrecorded_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    r
}

/// Restores every anchor of the file's replayable runs into a freshly
/// built machine and snapshots it again: restore and save time, size,
/// and the round trip must reproduce the anchor's bytes.
fn snapshot_probe(
    out: &mut Outcome,
    bytes: &[u8],
    index: &mcd_trace::TraceIndex,
) -> Vec<(f64, f64, usize)> {
    let mut samples = Vec::new();
    for run in index.runs.iter().filter(|r| r.spec.is_some()) {
        let spec = run.spec.as_deref().expect("filtered");
        let Ok((bench, scheme, cfg)) = mcd_bench::replay::parse_replay_spec(spec) else {
            out.check(false, || format!("record-replay: bad replay spec {spec}"));
            continue;
        };
        for aref in run.anchors.iter().filter(|a| a.retired > 0) {
            let anchor = read_anchor_at(bytes, aref.offset);
            let machine = build_machine(&bench, scheme, &cfg);
            let (Ok(anchor), Ok(mut machine)) = (anchor, machine) else {
                out.check(false, || {
                    "record-replay: anchor or machine unavailable".to_string()
                });
                continue;
            };
            let t = Instant::now();
            let restored = machine.restore(&anchor.snapshot);
            let restore_us = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            let again = machine.snapshot();
            let save_us = t.elapsed().as_secs_f64() * 1e6;
            out.check(restored.is_ok() && again == anchor.snapshot, || {
                format!(
                    "record-replay: anchor at {} of {} does not round-trip",
                    aref.retired, run.label
                )
            });
            samples.push((save_us, restore_us, again.len()));
        }
    }
    samples
}

/// Set-up: the recording run set and the recorded workload set.
pub fn setup() -> (RunSet, Vec<&'static str>, BenchmarkSpec) {
    let (fast, storm) = recorded_set();
    (RunSet::new(JOBS).with_tracing(), fast, storm)
}

/// The `record-replay` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = crate::median_setup(&mut out, "record-replay");
    let start = Instant::now();
    let planned = ctx.rounds(REFERENCE_ROUND_S);
    let mut plain = Vec::new();
    let mut round_no = 0;
    while round_no < planned && !(round_no > 0 && ctx.capped(start)) {
        plain.push(round(&mut out, ctx.seed, round_no, ctx.trace));
        round_no += 1;
    }
    let peak = crate::stats::peak_rss_mb();
    // A round whose recording or analysis failed has already counted as
    // a failure and has no timings.
    plain.retain(|r| !r.replay_ms.is_empty());
    if plain.is_empty() {
        out.check(false, || "record-replay: no round completed".to_string());
        return out;
    }
    let replay_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.replay_ms.iter().copied())
        .collect();
    let events: u64 = plain.iter().map(|r| r.trace_events).sum();
    let bytes: u64 = plain.iter().map(|r| r.bytes).sum();
    // The percentile the planned replay count supports, even if the cap
    // cut the run short, so the figure always means the same thing.
    let t = tail_at(
        &replay_ms,
        tail_percentile(planned as usize * REPLAYS_PER_ROUND),
    );
    // Rates and medians are taken per round and their median reported,
    // so a stretch of slow host time in a minority of rounds does not
    // move them.
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let mips = over_rounds(&|r| r.instructions as f64 / r.record_ms / 1e3);
    let replay_p50 = over_rounds(&|r| median(&r.replay_ms));
    let analyze = over_rounds(&|r| median(&r.analyze_ms));
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak);
    out.set("sim_mips", mips);
    out.set("op_p50_ms", replay_p50);
    out.set("op_tail_ms", t.value);
    out.set("side_ms", analyze);
    out.set(
        "goodput_per_s",
        over_rounds(&|r| r.replay_ms.len() as f64 / (r.replay_phase_ms / 1e3)),
    );
    out.line(format!(
        "record-replay: {} of {planned} rounds; {} events, {} episodes, {} bytes of .mcdt per round (median)",
        plain.len(),
        median(
            &plain
                .iter()
                .map(|r| r.trace_events as f64)
                .collect::<Vec<_>>()
        ),
        median(&plain.iter().map(|r| r.episodes as f64).collect::<Vec<_>>()),
        median(&plain.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
    ));
    out.line(format!(
        "  sim_mips (recording)   {mips:.4} MIPS  (median over rounds)"
    ));
    out.line(format!(
        "  trace_bytes_per_event  {:.4} bytes",
        bytes as f64 / events.max(1) as f64
    ));
    out.line(format!(
        "  analyze_ms             {analyze:.4} ms  (median over rounds)"
    ));
    out.line(format!(
        "  replay_p50_ms          {replay_p50:.4} ms  (median over rounds)"
    ));
    out.line(format!(
        "  replay_tail_ms         {:.4} ms  (p{}, {} of {} samples beyond)",
        t.value, t.percentile, t.beyond, t.samples
    ));
    if ctx.trace {
        layers(&mut out, &plain);
    }
    out
}

/// Per-layer figures from the rounds and their probes. Nothing here is
/// wrapped in spans, so `span.overhead_ratio` stays 0.
fn layers(out: &mut Outcome, rounds: &[Round]) {
    let sum = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let events = sum(&|r| r.trace_events as f64).max(1.0);
    let instr = sum(&|r| r.instructions as f64).max(1.0);
    let engine_events = sum(&|r| r.events_processed as f64).max(1.0);
    out.set("sim.events_per_instr", engine_events / instr);
    out.set(
        "sim.skipped_per_event",
        sum(&|r| r.skipped as f64) / engine_events,
    );
    let snaps: Vec<&(f64, f64, usize)> = rounds.iter().flat_map(|r| &r.snap).collect();
    if !snaps.is_empty() {
        out.set(
            "snap.save_us",
            median(&snaps.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        out.set(
            "snap.restore_us",
            median(&snaps.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        out.set(
            "snap.bytes",
            median(&snaps.iter().map(|s| s.2 as f64).collect::<Vec<_>>()),
        );
    }
    out.set(
        "trace.record_overhead_ratio",
        sum(&|r| r.record_ms) / sum(&|r| r.unrecorded_ms),
    );
    out.set(
        "trace.encode_ns_per_event",
        sum(&|r| r.encode_ms) * 1e6 / events,
    );
    out.set(
        "trace.decode_ns_per_event",
        sum(&|r| r.decode_ms) * 1e6 / events,
    );
    out.set(
        "trace.index_ms",
        median(&rounds.iter().map(|r| r.index_ms).collect::<Vec<_>>()),
    );
    out.set(
        "trace.events",
        median(
            &rounds
                .iter()
                .map(|r| r.trace_events as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "trace.episodes",
        median(&rounds.iter().map(|r| r.episodes as f64).collect::<Vec<_>>()),
    );
    out.set("trace.bytes_per_event", sum(&|r| r.bytes as f64) / events);
    let queue: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.queue_ms.iter().copied())
        .collect();
    if !queue.is_empty() {
        out.set("bench.queue_wait_ms", median(&queue));
    }
    out.set(
        "bench.worker_busy_frac",
        sum(&|r| r.busy_ms) / (sum(&|r| r.replay_phase_ms) * JOBS as f64),
    );
    let replay: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.replay_ms.iter().copied())
        .collect();
    let decode: Vec<f64> = rounds.iter().map(|r| r.decode_ms).collect();
    if !replay.is_empty() {
        out.set(
            "bench.replay_decode_share",
            median(&decode) / median(&replay),
        );
    }
    out.set("span.clock_read_ns", crate::layers::clock_read_ns());
}
