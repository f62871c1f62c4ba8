//! The replay contract: `repro trace replay` of **any** catalogued
//! episode must reproduce the original trace slice byte for byte. This
//! suite records sharded sweeps to `.mcdt` and replays their episodes,
//! covering cold starts (onset before the first anchor), warm anchor
//! restores, end-of-run segments and runs deep inside a multi-run file —
//! plus the typed refusals for out-of-range ordinals, spec-less
//! recordings and corrupted bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mcd_bench::replay::{replay_episode, ReplayOutcome};
use mcd_bench::runner::{RunConfig, RunSet, Scheme};
use mcd_trace::{read_index, read_mcdt, wire_identical, write_mcdt, McdtFile, RunRecording};

/// Records one sharded, traced run and returns its recordings.
fn recordings(benchmark: &str, scheme: Scheme, ops: u64, shard: u64) -> Vec<RunRecording> {
    let rs = RunSet::new(2).with_tracing();
    let cfg = RunConfig::quick().with_ops(ops).with_shard_ops(shard);
    rs.run(benchmark, scheme, &cfg).expect("run succeeds");
    rs.drain_recordings().expect("tracing on")
}

/// Records one sharded, traced sweep and returns its `.mcdt` bytes.
fn record(benchmark: &str, scheme: Scheme, ops: u64, shard: u64) -> Vec<u8> {
    write_mcdt(&recordings(benchmark, scheme, ops, shard))
}

/// Three sharded adaptive runs with a spec-less run between the first
/// two, so replays must seek past whole runs (and past a run they could
/// not replay) to reach their own.
fn multi_run_recording() -> Vec<u8> {
    let mut runs = recordings("gzip", Scheme::Adaptive, 8_000, 2_000);
    runs.extend(
        recordings("art", Scheme::Adaptive, 6_000, 2_000)
            .into_iter()
            .map(|mut r| {
                r.spec = None;
                r
            }),
    );
    runs.extend(recordings("mcf", Scheme::Adaptive, 8_000, 2_000));
    runs.extend(recordings("swim", Scheme::Adaptive, 8_000, 2_000));
    write_mcdt(&runs)
}

/// The replay's verdict must be the one the per-event JSON comparison
/// gives, on the real segment and on a one-event-short copy of it.
fn assert_comparators_agree(file: &McdtFile, k: usize, outcome: &ReplayOutcome) {
    let run = file
        .runs
        .iter()
        .find(|r| r.label == outcome.run_label)
        .expect("the replayed run is in the file");
    let recorded =
        &run.events[outcome.start_event_index as usize..outcome.end_event_index as usize];
    let json_identical = |a: &[mcd_trace::TraceEvent], b: &[mcd_trace::TraceEvent]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_json() == y.to_json())
    };
    let replayed = &outcome.replayed[..];
    let short = &replayed[..replayed.len().saturating_sub(1)];
    for (a, b) in [(replayed, recorded), (short, recorded)] {
        assert_eq!(
            wire_identical(a, b),
            json_identical(a, b),
            "episode {k}: the wire and JSON comparisons disagree"
        );
    }
    assert_eq!(outcome.byte_identical, json_identical(replayed, recorded));
}

#[test]
fn every_catalogued_episode_replays_byte_identically() {
    let bytes = record("gzip", Scheme::Adaptive, 20_000, 4_000);
    let file = read_mcdt(&bytes).expect("file decodes");
    let total = file.index.episode_count();
    assert!(total > 0, "an adaptive run has episodes");
    let mut cold = 0usize;
    let mut warm = 0usize;
    for k in 0..total {
        let outcome = replay_episode(&bytes, k).unwrap_or_else(|e| {
            panic!("episode {k}/{total} failed to replay: {e}");
        });
        assert!(
            outcome.byte_identical,
            "episode {k}/{total} diverged: run {} segment [{}, {})",
            outcome.run_label, outcome.start_event_index, outcome.end_event_index,
        );
        assert!(!outcome.replayed.is_empty(), "episode {k} replayed nothing");
        assert_comparators_agree(&file, k, &outcome);
        match outcome.anchor_retired {
            None => cold += 1,
            Some(_) => warm += 1,
        }
    }
    assert!(cold > 0, "episodes before the first anchor start cold");
    assert!(warm > 0, "episodes after an anchor restore from it");
}

#[test]
fn unsharded_recordings_replay_whole_runs_cold() {
    // No sharding -> no anchors: every episode replays the entire run
    // from a cold start, and must still match byte for byte.
    let bytes = record("swim", Scheme::Adaptive, 12_000, 0);
    let file = read_mcdt(&bytes).expect("file decodes");
    assert!(file.index.runs.iter().all(|r| r.anchors.is_empty()));
    let total = file.index.episode_count();
    assert!(total > 0);
    // Whole-run cold replays are identical work per episode; one from
    // each end of the catalog keeps the suite fast.
    for k in [0, total - 1] {
        let outcome = replay_episode(&bytes, k).expect("replays");
        assert!(outcome.byte_identical, "episode {k} diverged");
        assert_comparators_agree(&file, k, &outcome);
        assert_eq!(outcome.anchor_retired, None);
        assert_eq!(outcome.start_event_index, 0);
    }
}

#[test]
fn out_of_range_ordinals_are_typed_errors() {
    let bytes = record("gzip", Scheme::Adaptive, 8_000, 4_000);
    let total = read_index(&bytes).expect("index decodes").episode_count();
    let e = replay_episode(&bytes, total + 10).expect_err("out of range");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("out of range"), "{e}");
}

#[test]
fn recordings_without_a_replay_spec_are_refused() {
    // Hand-build a recording the way `trace convert` does from JSONL:
    // events only, no spec, no anchors.
    let rs = RunSet::new(1).with_tracing();
    let cfg = RunConfig::quick().with_ops(8_000).with_shard_ops(4_000);
    rs.run("gzip", Scheme::Adaptive, &cfg)
        .expect("run succeeds");
    let stripped: Vec<RunRecording> = rs
        .drain_recordings()
        .expect("tracing on")
        .into_iter()
        .map(|mut r| {
            r.spec = None;
            r.anchors.clear();
            r
        })
        .collect();
    let bytes = write_mcdt(&stripped);
    let total = read_index(&bytes).expect("index decodes").episode_count();
    assert!(total > 0);
    let e = replay_episode(&bytes, 0).expect_err("no spec, no replay");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("no replay spec"), "{e}");
}

#[test]
fn first_and_last_episodes_of_every_run_in_a_multi_run_file_replay() {
    let bytes = multi_run_recording();
    let file = read_mcdt(&bytes).expect("file decodes");
    let runs = &file.index.runs;
    assert!(runs.len() >= 4, "{} runs recorded", runs.len());
    assert!(runs[1].spec.is_none() && runs[1].event_count > 0);
    let mut first = 0;
    let mut replayed_runs = 0;
    for run in runs {
        let n = run.episodes.len();
        if run.spec.is_some() && n > 0 {
            assert!(!run.anchors.is_empty(), "run {:?} is sharded", run.label);
            for k in [first, first + n - 1] {
                let outcome = replay_episode(&bytes, k).expect("replays");
                assert_eq!(outcome.run_label, run.label);
                assert!(
                    outcome.byte_identical,
                    "episode {k} of run {:?} diverged: segment [{}, {})",
                    run.label, outcome.start_event_index, outcome.end_event_index
                );
                assert_comparators_agree(&file, k, &outcome);
            }
            replayed_runs += 1;
        }
        first += n;
    }
    assert!(replayed_runs >= 3, "{replayed_runs} replayable runs");
    // The spec-less run in the middle is refused, not replayed.
    let e = replay_episode(&bytes, runs[0].episodes.len()).expect_err("spec-less run");
    assert!(e.to_string().contains("no replay spec"), "{e}");
}

#[test]
fn a_flipped_bit_anywhere_fails_loudly_or_leaves_the_replay_unchanged() {
    let bytes = multi_run_recording();
    let index = read_index(&bytes).expect("index decodes");
    // A warm, mid-run episode of the last run: its replay reads the
    // index, one anchor, and that run's blocks past skipped anchors.
    let before: usize = index.runs[..index.runs.len() - 1]
        .iter()
        .map(|r| r.episodes.len())
        .sum();
    let last = index.runs.last().expect("runs");
    let ei = last
        .episodes
        .iter()
        .position(|e| {
            let anchors_before = last
                .anchors
                .iter()
                .filter(|a| a.retired > 0 && a.event_index <= e.onset_event_index)
                .count();
            anchors_before >= 2
                && last
                    .anchors
                    .iter()
                    .any(|a| a.event_index > e.close_event_index)
        })
        .expect("a warm mid-run episode");
    let k = before + ei;
    let base = replay_episode(&bytes, k).expect("unflipped replay");
    assert!(base.byte_identical && base.anchor_retired.is_some());

    const FLIPS: usize = 512;
    let (mut failed, mut unchanged) = (0, 0);
    for i in 0..FLIPS {
        let at = i * bytes.len() / FLIPS;
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << (i % 8);
        let result = catch_unwind(AssertUnwindSafe(|| replay_episode(&flipped, k)))
            .unwrap_or_else(|_| panic!("replay panicked with bit {} of byte {at} flipped", i % 8));
        match result {
            Err(e) => {
                assert_eq!(e.kind(), "config-invalid", "byte {at}: {e}");
                failed += 1;
            }
            Ok(outcome) => {
                assert!(
                    outcome == base,
                    "byte {at}: a flipped replay differs from the unflipped one"
                );
                unchanged += 1;
            }
        }
    }
    // Both arms are exercised: the replay's own bytes fail loudly, other
    // runs' bytes and skipped snapshots do not matter.
    assert!(
        failed > 0 && unchanged > 0,
        "{failed} failed, {unchanged} unchanged"
    );
}
