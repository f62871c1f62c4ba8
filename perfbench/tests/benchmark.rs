//! The benchmark's own tests: tail selection, reproducible inputs, digest
//! stability, and the manifest it renders.

use std::sync::Arc;

use mcd_bench::runner::RunSet;
use mcd_perfbench::digest::parse_digest_file;
use mcd_perfbench::layers::Spans;
use mcd_perfbench::record_replay::{self, replay_sample, REPLAYS_PER_ROUND};
use mcd_perfbench::report::{manifest, Outcome, END_TO_END, PER_LAYER};
use mcd_perfbench::serve_mix::{schedule, Class, Scheduled, COLD_SHARE, HIT_SHARE, RATE_PER_S};
use mcd_perfbench::stats::{beyond, median, tail, tail_at, tail_percentile, Rng};
use mcd_perfbench::{sweep, Ctx, DEFAULT_SEED};
use mcd_trace::{Episode, RunIndex, TraceIndex};

fn ramp(n: usize) -> Vec<f64> {
    // Descending, so selection cannot rely on input order.
    (0..n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let t = tail(&ramp(1000));
    assert_eq!((t.percentile, t.beyond, t.value), (99, 10, 989.0));
    let t = tail(&ramp(999));
    assert_eq!((t.percentile, t.beyond), (95, 49));
    let t = tail(&ramp(200));
    assert_eq!((t.percentile, t.beyond, t.value), (95, 10, 189.0));
    let t = tail(&ramp(199));
    assert_eq!((t.percentile, t.beyond), (90, 19));
    let t = tail(&ramp(100));
    assert_eq!((t.percentile, t.beyond, t.value), (90, 10, 89.0));
}

#[test]
fn a_thin_tail_reports_the_maximum_as_percentile_zero() {
    let t = tail(&ramp(99));
    assert_eq!(
        (t.percentile, t.beyond, t.value, t.samples),
        (0, 0, 98.0, 99)
    );
    assert_eq!(tail(&[3.0]).value, 3.0);
}

#[test]
fn a_pinned_percentile_holds_when_fewer_samples_arrive() {
    // A capped run with 999 samples instead of the planned 1 000 still
    // reports p99, not the p95 the smaller count alone would pick.
    let t = tail_at(&ramp(999), tail_percentile(1000));
    assert_eq!((t.percentile, t.value, t.samples), (99, 989.0, 999));
    assert_eq!(tail_at(&ramp(50), 0).value, 49.0);
}

#[test]
fn every_workload_takes_its_tail_at_a_percentile_fixed_by_its_seconds() {
    let ctx = |seconds| Ctx {
        seed: 7,
        seconds,
        trace: false,
    };
    let runs =
        |seconds| ctx(seconds).rounds(sweep::REFERENCE_ROUND_S) as usize * sweep::items().len();
    let replays = |seconds| {
        ctx(seconds).rounds(record_replay::REFERENCE_ROUND_S) as usize * REPLAYS_PER_ROUND
    };
    let cold = |seconds| {
        schedule(7, "plain", seconds)
            .iter()
            .filter(|s| s.class == Class::Cold)
            .count()
    };
    assert_eq!((runs(30.0), tail_percentile(runs(30.0))), (2040, 99));
    assert_eq!((replays(30.0), tail_percentile(replays(30.0))), (768, 95));
    assert_eq!((cold(30.0), tail_percentile(cold(30.0))), (180, 90));
    assert_eq!(ctx(0.1).rounds(sweep::REFERENCE_ROUND_S), 1);
}

#[test]
fn beyond_counts_use_exact_integer_ranks() {
    assert_eq!(beyond(1000, 99), 10);
    assert_eq!(beyond(100, 99), 1);
    assert_eq!(beyond(1, 90), 0);
    assert_eq!(beyond(0, 90), 0);
}

#[test]
fn median_matches_pythons_statistics_median() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn the_arrival_schedule_is_a_pure_function_of_the_seed() {
    let a = schedule(7, "plain", 30.0);
    assert_eq!(a, schedule(7, "plain", 30.0));
    assert_ne!(a, schedule(8, "plain", 30.0));
    assert_ne!(a, schedule(7, "capacity", 30.0));
    assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "arrivals ascend");
    assert!(a.last().expect("arrivals").at.as_secs_f64() < 30.0);
    // Every seed offers exactly the configured load.
    assert_eq!(a.len(), (RATE_PER_S * 30.0) as usize);
    assert_eq!(schedule(8, "plain", 30.0).len(), a.len());
    // Every seed also gets exactly each class's share of the requests.
    let count = |s: &[Scheduled], c: Class| s.iter().filter(|r| r.class == c).count();
    let b = schedule(8, "plain", 30.0);
    for (class, share) in [(Class::Cold, COLD_SHARE), (Class::Hit, HIT_SHARE)] {
        assert_eq!(count(&a, class), (a.len() as f64 * share).round() as usize);
        assert_eq!(count(&a, class), count(&b, class));
    }
    assert!(count(&a, Class::Stream) > 0);
    // Fresh requests never reuse a seed, so they can never be cache hits.
    let mut fresh: Vec<u64> = a
        .iter()
        .filter(|r| r.class != Class::Hit)
        .map(|r| r.seed)
        .collect();
    let n = fresh.len();
    fresh.sort_unstable();
    fresh.dedup();
    assert_eq!(fresh.len(), n);
}

fn episode(i: u64) -> Episode {
    Episode {
        domain: 0,
        onset_event_index: i,
        onset_ps: i,
        close_event_index: i + 1,
        close_ps: i + 1,
        reaction_ps: Some(1),
        relay_resets: 0,
        block_offset: 0,
    }
}

fn run_index(label: &str, spec: Option<&str>, episodes: u64) -> RunIndex {
    RunIndex {
        label: label.to_string(),
        spec: spec.map(str::to_string),
        start_offset: 0,
        event_count: 0,
        anchors: Vec::new(),
        episodes: (0..episodes).map(episode).collect(),
    }
}

#[test]
fn the_episode_sample_is_seeded_and_skips_spec_less_runs() {
    let index = TraceIndex {
        runs: vec![
            run_index("a", Some("{}"), 5),
            run_index("storm", None, 4),
            run_index("b", Some("{}"), 3),
        ],
    };
    let s = replay_sample(&index, 3, 0);
    assert_eq!(s, replay_sample(&index, 3, 0));
    assert_ne!(s, replay_sample(&index, 3, 1));
    assert_eq!(s.len(), REPLAYS_PER_ROUND);
    // Global ordinals 5..9 belong to the spec-less run.
    assert!(s.iter().all(|&k| k < 5 || (9..12).contains(&k)), "{s:?}");
    let empty = TraceIndex {
        runs: vec![run_index("storm", None, 4)],
    };
    assert!(replay_sample(&empty, 3, 0).is_empty());
}

#[test]
fn rng_streams_are_independent_and_reproducible() {
    let mut a = Rng::new(1, "x");
    let mut b = Rng::new(1, "x");
    let mut c = Rng::new(1, "y");
    let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
    assert_eq!(va, vb);
    assert_ne!(va, vc);
}

#[test]
fn sweep_digests_are_stable_traced_or_not() {
    // The first benchmark's six runs of round 0 at the default seed: the
    // committed digests, reproduced both plain and through the layer
    // wrappers.
    let cfg = sweep::round_cfg(DEFAULT_SEED, 0);
    let items: Vec<_> = sweep::items().into_iter().take(6).collect();
    let rs = RunSet::new(2);
    let plain = sweep::round(&rs, &items, &cfg, None);
    // One baseline item, five controlled runs each normalizing against
    // it: six simulations and six baseline requests, five of them hits.
    let stats = rs.stats();
    assert_eq!((stats.runs, stats.baseline_requests), (6, 6));
    let spans = Arc::new(Spans::default());
    let traced = sweep::round(&RunSet::new(2), &items, &cfg, Some(&spans));
    let committed = parse_digest_file(include_str!("../digests/sweep-seed1.txt"));
    for ((p, t), (label, digest)) in plain.runs.iter().zip(&traced.runs).zip(&committed) {
        assert!(p.ok && t.ok, "{label} failed");
        assert_eq!(&p.label, label);
        assert_eq!(p.digest, *digest, "{label}: plain digest moved");
        assert_eq!(t.digest, *digest, "{label}: traced digest differs");
    }
    assert!(
        spans.generator.ns_per_call() > 0.0,
        "generator spans recorded"
    );
}

#[test]
fn the_committed_manifest_is_the_rendered_one() {
    assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names are used once");
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn the_result_line_has_every_metric_and_counts_failures() {
    let mut out = Outcome::default();
    out.check(true, String::new);
    out.check(false, || "boom".to_string());
    out.set("setup_s", 0.5);
    let line = out.result_json(&END_TO_END);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {")
    );
    for m in END_TO_END {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{line}"
        );
    }
    assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
}
