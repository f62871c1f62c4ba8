//! File-level `.mcdt` properties: encode→decode is the identity on
//! recordings, the footer index equals the streamed index, anchors are
//! randomly addressable, one run's segments read alone equal the full
//! decode, and corruption anywhere is detected.

use std::ops::Range;

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent, TraceSink};

use mcd_trace::{
    catalog_episodes, read_anchor_at, read_index, read_mcdt, read_segment, render_jsonl,
    wire_identical, write_mcdt, Anchor, BinarySink, RunIndex, RunRecording, EVENTS_PER_BLOCK,
};

fn enter(t: u64, domain: DomainId) -> TraceEvent {
    TraceEvent::Controller {
        domain,
        event: CtrlEvent::WindowEnter {
            at: TimePs::new(t),
            signal: SignalKind::Occupancy,
            value: (t as f64) / 7.0,
            occupancy: (t % 17) as u32,
            dir: StepDir::Down,
        },
    }
}

fn step(t: u64, domain: DomainId) -> TraceEvent {
    TraceEvent::FreqStep {
        at: TimePs::new(t),
        domain,
        from: OpIndex(50),
        to: OpIndex(46),
        from_mhz: 887.5,
        to_mhz: 875.0,
        from_mv: 1_087.5,
        to_mv: 1_075.0,
    }
}

fn histogram(t: u64, domain: DomainId, samples: u64) -> TraceEvent {
    TraceEvent::QueueHistogram {
        at: TimePs::new(t),
        domain,
        samples,
        counts: (0..8).map(|i| (samples * 3 + i) % 11).collect(),
    }
}

fn sample_runs() -> Vec<RunRecording> {
    // Run 0: long enough to span multiple event blocks, with two anchors.
    let mut events = Vec::new();
    for i in 0..(EVENTS_PER_BLOCK + 100) {
        let t = 1_000 + i * 250;
        events.push(match i % 3 {
            0 => enter(t, DomainId::Int),
            1 => step(t + 10, DomainId::Int),
            _ => histogram(t + 20, DomainId::Fp, i),
        });
    }
    let anchors = vec![
        Anchor {
            event_index: 0,
            retired: 0,
            snapshot: vec![1, 2, 3],
        },
        Anchor {
            event_index: EVENTS_PER_BLOCK / 2,
            retired: 40_000,
            snapshot: vec![9; 1_024],
        },
    ];
    vec![
        RunRecording {
            label: "fig9|adaptive|ops=600000|seed=1".into(),
            spec: Some("{\"benchmark\":\"gzip\",\"scheme\":\"adaptive\"}".into()),
            events,
            anchors,
        },
        RunRecording {
            label: "fig9|baseline|ops=600000|seed=1".into(),
            spec: None,
            events: vec![enter(10, DomainId::Ls), step(400, DomainId::Ls)],
            anchors: Vec::new(),
        },
    ]
}

#[test]
fn encode_decode_is_the_identity_on_recordings() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let file = read_mcdt(&bytes).expect("well-formed file decodes");
    assert_eq!(file.runs.len(), runs.len());
    for (got, want) in file.runs.iter().zip(&runs) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.spec, want.spec);
        assert_eq!(got.events, want.events);
        assert_eq!(got.anchors.len(), want.anchors.len());
        for (ga, wa) in got.anchors.iter().zip(&want.anchors) {
            assert_eq!(ga.event_index, wa.event_index);
            assert_eq!(ga.retired, wa.retired);
            assert_eq!(ga.snapshot, wa.snapshot);
        }
    }
}

#[test]
fn footer_index_matches_streamed_catalog() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let full = read_mcdt(&bytes).expect("file decodes");
    assert_eq!(index, full.index);
    for (ri, run) in index.runs.iter().enumerate() {
        assert_eq!(run.label, runs[ri].label);
        assert_eq!(run.event_count, runs[ri].events.len() as u64);
        // The indexed episodes equal the in-memory catalog, offsets aside.
        let expected = catalog_episodes(&runs[ri].events);
        assert_eq!(run.episodes.len(), expected.len());
        for (got, want) in run.episodes.iter().zip(&expected) {
            assert_eq!(got.domain, want.domain);
            assert_eq!(got.onset_event_index, want.onset_event_index);
            assert_eq!(got.onset_ps, want.onset_ps);
            assert_eq!(got.close_event_index, want.close_event_index);
            assert_eq!(got.close_ps, want.close_ps);
            assert_eq!(got.reaction_ps, want.reaction_ps);
            assert_eq!(got.relay_resets, want.relay_resets);
            assert!(
                got.block_offset > 0,
                "episode block offset must point into the file"
            );
        }
    }
}

#[test]
fn anchors_are_randomly_addressable_via_the_index() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let refs = &index.runs[0].anchors;
    assert_eq!(refs.len(), 2);
    for (ar, want) in refs.iter().zip(&runs[0].anchors) {
        let anchor = read_anchor_at(&bytes, ar.offset).expect("anchor decodes");
        assert_eq!(anchor.event_index, want.event_index);
        assert_eq!(anchor.retired, want.retired);
        assert_eq!(anchor.snapshot, want.snapshot);
    }
}

#[test]
fn episode_block_offsets_address_the_onset_block() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    for run in &index.runs {
        for ep in &run.episodes {
            // The byte at the episode's block offset is an events-block
            // kind tag: decoding a block there must succeed.
            assert_eq!(
                bytes[ep.block_offset as usize], 0x02,
                "offset points at an events block"
            );
        }
    }
}

#[test]
fn every_flipped_byte_in_a_block_is_detected() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    // The second run's blocks (run start, one events block) end where
    // the index begins: flip every bit of every byte of them — kind,
    // length, payload and CRC — and the full decode must fail each time.
    let from = index.runs[1].start_offset as usize;
    let to = u64::from_le_bytes(bytes[bytes.len() - 16..][..8].try_into().unwrap()) as usize;
    assert!(to > from);
    for at in from..to {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << bit;
            assert!(
                read_mcdt(&corrupt).is_err(),
                "flipped bit {bit} of byte {at} went undetected"
            );
        }
    }
    // Truncation loses the footer.
    assert!(read_mcdt(&bytes[..bytes.len() - 4]).is_err());
    // Garbage is rejected outright.
    assert!(read_mcdt(b"not a trace").is_err());
}

/// Every range worth reading in a run: all pairs of its anchor
/// boundaries (plus 0 and the run's end).
fn anchor_bounded_ranges(run: &RunIndex) -> Vec<Range<u64>> {
    let mut cuts: Vec<u64> = run.anchors.iter().map(|a| a.event_index).collect();
    cuts.extend([0, run.event_count]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut ranges = Vec::new();
    for (i, &a) in cuts.iter().enumerate() {
        for &b in &cuts[i..] {
            ranges.push(a..b);
        }
    }
    ranges
}

fn assert_segments_match(bytes: &[u8], ranges: impl Fn(&RunIndex) -> Vec<Range<u64>>) {
    let index = read_index(bytes).expect("index decodes");
    let full = read_mcdt(bytes).expect("file decodes");
    for (run, decoded) in index.runs.iter().zip(&full.runs) {
        for range in ranges(run) {
            let got = read_segment(bytes, run, range.clone()).unwrap_or_else(|e| {
                panic!("run {:?} segment {range:?}: {e}", run.label);
            });
            let want = &decoded.events[range.start as usize..range.end as usize];
            assert_eq!(got, want, "run {:?} segment {range:?}", run.label);
        }
    }
}

#[test]
fn segments_equal_the_matching_slice_of_the_full_decode() {
    let bytes = write_mcdt(&sample_runs());
    assert_segments_match(&bytes, anchor_bounded_ranges);
    // Ranges that start and stop inside blocks, including ones that
    // cross the first EVENTS_PER_BLOCK boundary.
    let b = EVENTS_PER_BLOCK;
    assert_segments_match(&bytes, |run| {
        if run.event_count <= b {
            return vec![1..run.event_count, 0..1];
        }
        vec![b - 1..b + 1, b - 300..b + 50, 17..b + 99, b..b, 5..6]
    });
}

#[test]
fn a_run_without_anchors_and_the_implicit_run_read_as_segments() {
    let runs = sample_runs();
    assert!(runs[1].anchors.is_empty());
    let bytes = write_mcdt(&runs[1..]);
    assert_segments_match(&bytes, |run| vec![0..run.event_count, 1..2, 0..0]);

    // An engine-driven sink that never names its run gets one implicit
    // unnamed run; its events span several blocks and an anchor.
    let mut sink = BinarySink::new();
    for (i, ev) in runs[0].events.iter().enumerate() {
        if i == 1_000 {
            sink.record_anchor(7, &[4; 32]);
        }
        sink.record(ev);
    }
    let bytes = sink.finish();
    let index = read_index(&bytes).expect("index decodes");
    assert_eq!(index.runs.len(), 1);
    assert_eq!(index.runs[0].label, "");
    assert_segments_match(&bytes, |run| {
        let mut ranges = anchor_bounded_ranges(run);
        ranges.push(999..EVENTS_PER_BLOCK + 3);
        ranges
    });
}

#[test]
fn segments_past_the_run_or_against_a_wrong_index_are_named_errors() {
    let bytes = write_mcdt(&sample_runs());
    let index = read_index(&bytes).expect("index decodes");
    let run = &index.runs[1];
    let e = read_segment(&bytes, run, 0..run.event_count + 1).expect_err("past the end");
    assert!(e.to_string().contains("outside run"), "{e}");
    #[allow(clippy::reversed_empty_ranges)]
    let e = read_segment(&bytes, run, 2..1).expect_err("inverted range");
    assert!(e.to_string().contains("outside run"), "{e}");

    // An index entry claiming more events than the stream holds.
    let mut longer = run.clone();
    longer.event_count += 5;
    let e = read_segment(&bytes, &longer, 0..longer.event_count).expect_err("run ends early");
    assert!(e.to_string().contains("before segment end"), "{e}");

    // An entry whose offset or label does not match the run start.
    let mut relabeled = run.clone();
    relabeled.label.push('x');
    let e = read_segment(&bytes, &relabeled, 0..1).expect_err("label mismatch");
    assert!(e.to_string().contains("index entry"), "{e}");
    let mut shifted = run.clone();
    shifted.start_offset += 1;
    assert!(read_segment(&bytes, &shifted, 0..1).is_err());

    // An anchor the table does not list (or lists at another position),
    // and a listed anchor the stream does not hold.
    let mut unlisted = index.runs[0].clone();
    unlisted.anchors[1].event_index += 1;
    let e = read_segment(&bytes, &unlisted, 0..unlisted.event_count).expect_err("stray anchor");
    assert!(e.to_string().contains("anchor table"), "{e}");
    let mut phantom = index.runs[0].clone();
    let mut extra = phantom.anchors[1];
    extra.event_index += 10;
    extra.offset += 1;
    phantom.anchors.push(extra);
    let e = read_segment(&bytes, &phantom, 0..phantom.event_count).expect_err("phantom anchor");
    assert!(e.to_string().contains("the stream holds"), "{e}");
}

#[test]
fn mcdt_of_rendered_jsonl_round_trips_to_identical_text() {
    let runs = sample_runs();
    let labeled: Vec<(String, Vec<TraceEvent>)> = runs
        .iter()
        .map(|r| (r.label.clone(), r.events.clone()))
        .collect();
    let text = render_jsonl(&labeled);
    let bytes = write_mcdt(&runs);
    let decoded = read_mcdt(&bytes).expect("decodes");
    let relabeled: Vec<(String, Vec<TraceEvent>)> = decoded
        .runs
        .iter()
        .map(|r| (r.label.clone(), r.events.clone()))
        .collect();
    assert_eq!(
        render_jsonl(&relabeled),
        text,
        "mcdt → JSONL must be byte-identical"
    );
    // And the binary form is materially smaller than the text form.
    assert!(
        bytes.len() * 2 < text.len(),
        "binary ({}) should be at most half the JSONL ({})",
        bytes.len(),
        text.len()
    );
}

/// Event variant `kind` (every `TraceEvent` and `CtrlEvent` shape) at
/// time `t`, its `f64` fields taken in declaration order from `x`; also
/// returns how many `f64` fields the variant has.
fn variant(kind: usize, t: u64, x: [f64; 4]) -> (TraceEvent, usize) {
    let at = TimePs::new(t);
    let ctrl = |event| TraceEvent::Controller {
        domain: DomainId::Fp,
        event,
    };
    let (signal, dir) = (SignalKind::Delta, StepDir::Up);
    match kind {
        0 => (
            ctrl(CtrlEvent::WindowEnter {
                at,
                signal,
                value: x[0],
                occupancy: 3,
                dir,
            }),
            1,
        ),
        1 => (
            ctrl(CtrlEvent::WindowExit {
                at,
                signal,
                value: x[0],
                occupancy: 2,
            }),
            1,
        ),
        2 => (
            ctrl(CtrlEvent::RelayArm {
                at,
                signal,
                dir,
                remaining: x[0],
            }),
            1,
        ),
        3 => (ctrl(CtrlEvent::RelayFire { at, signal, dir }), 0),
        4 => (
            ctrl(CtrlEvent::RelayReset {
                at,
                signal,
                why: ResetReason::Acted,
            }),
            0,
        ),
        5 => (
            TraceEvent::FreqStep {
                at,
                domain: DomainId::Int,
                from: OpIndex(5),
                to: OpIndex(6),
                from_mhz: x[0],
                to_mhz: x[1],
                from_mv: x[2],
                to_mv: x[3],
            },
            4,
        ),
        _ => (histogram(t, DomainId::Ls, 9), 0),
    }
}

const VARIANTS: usize = 7;

#[test]
fn wire_comparison_flags_every_one_ulp_sign_time_and_length_change() {
    let x = [1.5, 800.0, 1_050.0, 987.654_321];
    let time = |k: usize| 1_000 + 10 * k as u64;
    let base: Vec<TraceEvent> = (0..VARIANTS).map(|k| variant(k, time(k), x).0).collect();
    assert!(wire_identical(&base, &base));
    let mut fields = 0;
    for k in 0..VARIANTS {
        let with = |t: u64, x: [f64; 4]| {
            let mut s = base.clone();
            s[k] = variant(k, t, x).0;
            s
        };
        let t = time(k);
        for j in 0..variant(k, t, x).1 {
            for ulp in [1i64, -1] {
                let mut y = x;
                y[j] = f64::from_bits(x[j].to_bits().wrapping_add_signed(ulp));
                assert!(
                    !wire_identical(&base, &with(t, y)),
                    "1-ulp change of f64 field {j} of variant {k}"
                );
            }
            let (mut pos, mut neg) = (x, x);
            pos[j] = 0.0;
            neg[j] = -0.0;
            // `==` on events cannot tell the zeros apart; the wire can.
            assert_eq!(with(t, pos), with(t, neg));
            assert!(
                !wire_identical(&with(t, pos), &with(t, neg)),
                "0.0 vs -0.0 in f64 field {j} of variant {k}"
            );
            fields += 1;
        }
        for shifted in [t + 1, t - 1] {
            assert!(
                !wire_identical(&base, &with(shifted, x)),
                "1 ps shift of variant {k}"
            );
        }
    }
    assert_eq!(fields, 7, "every f64 field of every variant was perturbed");
    assert!(!wire_identical(&base, &base[..VARIANTS - 1]));
    assert!(!wire_identical(&base[..1], &[]));
    assert!(wire_identical(&[], &[]));
}
