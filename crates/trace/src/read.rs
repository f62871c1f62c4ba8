//! Decoders: the full-file reader, the O(1) footer→index path, the
//! random-access anchor reader, and the one-run segment reader.

use std::ops::Range;

use crate::codec::{decode_event, get_opt_str, get_str, read_block, read_frame, Frame, Reader};
use crate::{
    block, err, Anchor, AnchorRef, Episode, RunIndex, RunRecording, TraceCodecError, TraceEvent,
    TraceIndex, FOOTER_LEN, FOOTER_MAGIC, MAGIC,
};

/// A fully decoded `.mcdt` file: the event streams plus the index as
/// written (the reader cross-checks them against each other).
#[derive(Debug, Clone, PartialEq)]
pub struct McdtFile {
    /// The decoded runs, in file order.
    pub runs: Vec<RunRecording>,
    /// The trailing index, as stored.
    pub index: TraceIndex,
}

fn footer_index_offset(bytes: &[u8]) -> Result<usize, TraceCodecError> {
    if bytes.len() < MAGIC.len() + FOOTER_LEN {
        return Err(err(format!(
            "{} bytes is too short for a .mcdt file",
            bytes.len()
        )));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(err("missing MCDT1 header magic"));
    }
    let tail = &bytes[bytes.len() - FOOTER_LEN..];
    if &tail[8..] != FOOTER_MAGIC {
        return Err(err("missing MCDTEND1 footer magic (truncated file?)"));
    }
    let offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    let offset = usize::try_from(offset).map_err(|_| err("index offset overflows usize"))?;
    if offset < MAGIC.len() || offset >= bytes.len() - FOOTER_LEN {
        return Err(err(format!("index offset {offset} out of bounds")));
    }
    Ok(offset)
}

fn decode_episode(r: &mut Reader<'_>) -> Result<Episode, TraceCodecError> {
    let domain = usize::from(r.u8()?);
    if domain > 2 {
        return Err(err(format!(
            "bad back-end domain index {domain} in episode"
        )));
    }
    let onset_event_index = r.varint()?;
    let onset_ps = r.varint()?;
    let close_event_index = r.varint()?;
    let close_ps = r.varint()?;
    let reaction_ps = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        b => return Err(err(format!("bad reaction flag {b}"))),
    };
    let relay_resets = r.varint()?;
    let block_offset = r.varint()?;
    Ok(Episode {
        domain,
        onset_event_index,
        onset_ps,
        close_event_index,
        close_ps,
        reaction_ps,
        relay_resets,
        block_offset,
    })
}

fn decode_index(payload: &[u8]) -> Result<TraceIndex, TraceCodecError> {
    let mut r = Reader::new(payload);
    let n = r.varint()?;
    let mut runs = Vec::new();
    for _ in 0..n {
        let label = get_str(&mut r)?;
        let spec = get_opt_str(&mut r)?;
        let start_offset = r.varint()?;
        let event_count = r.varint()?;
        let na = r.varint()?;
        let mut anchors = Vec::new();
        for _ in 0..na {
            anchors.push(AnchorRef {
                event_index: r.varint()?,
                retired: r.varint()?,
                offset: r.varint()?,
            });
        }
        let ne = r.varint()?;
        let mut episodes = Vec::new();
        for _ in 0..ne {
            episodes.push(decode_episode(&mut r)?);
        }
        runs.push(RunIndex {
            label,
            spec,
            start_offset,
            event_count,
            anchors,
            episodes,
        });
    }
    if !r.is_empty() {
        return Err(err("trailing bytes after index payload"));
    }
    Ok(TraceIndex { runs })
}

/// Reads only the trailing index: footer seek, one block decode — O(index
/// size), independent of how many events the file holds.
pub fn read_index(bytes: &[u8]) -> Result<TraceIndex, TraceCodecError> {
    let offset = footer_index_offset(bytes)?;
    let mut r = Reader::at(bytes, offset)?;
    let (kind, payload) = read_block(&mut r)?;
    if kind != block::INDEX {
        return Err(err(format!(
            "block at index offset has kind {kind:#04x}, not index"
        )));
    }
    decode_index(payload)
}

fn decode_anchor(payload: &[u8]) -> Result<Anchor, TraceCodecError> {
    let mut r = Reader::new(payload);
    let event_index = r.varint()?;
    let retired = r.varint()?;
    let len = usize::try_from(r.varint()?).map_err(|_| err("snapshot length overflows usize"))?;
    let snapshot = r.take(len)?.to_vec();
    if !r.is_empty() {
        return Err(err("trailing bytes after anchor payload"));
    }
    Ok(Anchor {
        event_index,
        retired,
        snapshot,
    })
}

/// Random-access read of one anchor block at a file offset taken from the
/// index ([`AnchorRef::offset`]).
pub fn read_anchor_at(bytes: &[u8], offset: u64) -> Result<Anchor, TraceCodecError> {
    let offset = usize::try_from(offset).map_err(|_| err("anchor offset overflows usize"))?;
    let mut r = Reader::at(bytes, offset)?;
    let (kind, payload) = read_block(&mut r)?;
    if kind != block::ANCHOR {
        return Err(err(format!(
            "block at offset {offset} has kind {kind:#04x}, not anchor"
        )));
    }
    decode_anchor(payload)
}

/// The one walk over a file's framed blocks, from a block boundary up to
/// the index block. Both the full decoder and the segment reader step
/// through the stream with it; each decides which frames to CRC-check.
struct Blocks<'a> {
    r: Reader<'a>,
}

impl<'a> Blocks<'a> {
    /// Walks `bytes` from `from` to the index offset the footer names.
    fn at(bytes: &'a [u8], from: usize) -> Result<Self, TraceCodecError> {
        let index_offset = footer_index_offset(bytes)?;
        Ok(Blocks {
            r: Reader::at(&bytes[..index_offset], from)?,
        })
    }

    /// The next block and its file offset, or `None` at the index.
    fn next(&mut self) -> Result<Option<(usize, Frame<'a>)>, TraceCodecError> {
        if self.r.is_empty() {
            return Ok(None);
        }
        let offset = self.r.pos();
        let frame = read_frame(&mut self.r)?;
        match frame.kind {
            block::RUN_START | block::EVENTS | block::ANCHOR => Ok(Some((offset, frame))),
            block::INDEX => Err(err("index block before the footer offset")),
            other => Err(err(format!("unknown block kind {other:#04x}"))),
        }
    }
}

fn decode_run_start(payload: &[u8]) -> Result<(String, Option<String>), TraceCodecError> {
    let mut p = Reader::new(payload);
    Ok((get_str(&mut p)?, get_opt_str(&mut p)?))
}

/// Decodes one EVENTS payload into `out`: the first `skip` events are
/// decoded only to carry `prev_t` forward, then at most `take` are kept.
/// Returns how many events the block holds.
fn decode_events(
    payload: &[u8],
    prev_t: &mut u64,
    skip: u64,
    take: u64,
    out: &mut Vec<TraceEvent>,
) -> Result<u64, TraceCodecError> {
    let mut p = Reader::new(payload);
    let count = p.varint()?;
    let stop = count.min(skip.saturating_add(take));
    for i in 0..stop {
        let ev = decode_event(&mut p, prev_t)?;
        if i >= skip {
            out.push(ev);
        }
    }
    if stop == count && !p.is_empty() {
        return Err(err("trailing bytes after events payload"));
    }
    Ok(count)
}

/// Decodes events `range` of one run, reading only that run's blocks up
/// to the segment's end: a seek to [`RunIndex::start_offset`], then a
/// walk from its `RUN_START` (timestamp deltas carry across the run's
/// blocks). Every block decoded is CRC-checked; ANCHOR blocks are
/// stepped over without reading their snapshots, but each must sit at an
/// offset the run's anchor table lists for the current event position.
/// A range past the run's end, a run-start label or spec that disagrees
/// with the index, or a run that ends early is an error.
pub fn read_segment(
    bytes: &[u8],
    run: &RunIndex,
    range: Range<u64>,
) -> Result<Vec<TraceEvent>, TraceCodecError> {
    let Range { start, end } = range;
    if start > end || end > run.event_count {
        return Err(err(format!(
            "segment [{start}, {end}) is outside run {:?} of {} events",
            run.label, run.event_count
        )));
    }
    let from = usize::try_from(run.start_offset).map_err(|_| err("run offset overflows usize"))?;
    let mut blocks = Blocks::at(bytes, from)?;
    match blocks.next()? {
        Some((_, frame)) if frame.kind == block::RUN_START => {
            let (label, spec) = decode_run_start(frame.payload()?)?;
            if label != run.label || spec != run.spec {
                return Err(err(format!(
                    "run start at offset {from} names {label:?}, but the index entry is {:?}",
                    run.label
                )));
            }
        }
        _ => return Err(err(format!("no run start at offset {from}"))),
    }
    let ended = |pos: u64| {
        err(format!(
            "run {:?} ends at event {pos}, before segment end {end}",
            run.label
        ))
    };
    // Every event takes at least three wire bytes, so a corrupt count
    // cannot ask for more room than the file could fill.
    let room = (end - start).min(bytes.len() as u64 / 3);
    let mut out = Vec::with_capacity(usize::try_from(room).unwrap_or(0));
    let (mut pos, mut prev_t, mut anchors_seen) = (0u64, 0u64, 0usize);
    while pos < end {
        let Some((offset, frame)) = blocks.next()? else {
            return Err(ended(pos));
        };
        match frame.kind {
            block::EVENTS => {
                let skip = start.saturating_sub(pos);
                let take = end - pos.max(start);
                pos += decode_events(frame.payload()?, &mut prev_t, skip, take, &mut out)?;
            }
            block::ANCHOR => {
                let listed = run
                    .anchors
                    .iter()
                    .any(|a| a.offset == offset as u64 && a.event_index == pos);
                if !listed {
                    return Err(err(format!(
                        "anchor block at offset {offset} (event {pos}) is not in run {:?}'s anchor table",
                        run.label
                    )));
                }
                anchors_seen += 1;
            }
            _ => return Err(ended(pos)),
        }
    }
    // Every anchor the table places before `end` sits before an event
    // the walk decoded, so the walk must have stepped over all of them.
    let listed = run.anchors.iter().filter(|a| a.event_index < end).count();
    if anchors_seen != listed {
        return Err(err(format!(
            "run {:?}: the anchor table lists {listed} anchor(s) before event {end}, the stream holds {anchors_seen}",
            run.label
        )));
    }
    Ok(out)
}

/// Decodes the whole file, verifying every block CRC and cross-checking
/// the stream against the trailing index.
pub fn read_mcdt(bytes: &[u8]) -> Result<McdtFile, TraceCodecError> {
    let mut blocks = Blocks::at(bytes, MAGIC.len())?;
    let mut runs: Vec<RunRecording> = Vec::new();
    let mut prev_t = 0u64;
    while let Some((_, frame)) = blocks.next()? {
        let payload = frame.payload()?;
        if frame.kind == block::RUN_START {
            let (label, spec) = decode_run_start(payload)?;
            runs.push(RunRecording {
                label,
                spec,
                events: Vec::new(),
                anchors: Vec::new(),
            });
            prev_t = 0;
            continue;
        }
        if runs.is_empty() {
            // An engine-driven sink opens one implicit unnamed run.
            runs.push(RunRecording {
                label: String::new(),
                spec: None,
                events: Vec::new(),
                anchors: Vec::new(),
            });
        }
        let run = runs.last_mut().expect("pushed above");
        if frame.kind == block::EVENTS {
            decode_events(payload, &mut prev_t, 0, u64::MAX, &mut run.events)?;
        } else {
            run.anchors.push(decode_anchor(payload)?);
        }
    }
    let index = read_index(bytes)?;
    if index.runs.len() != runs.len() {
        return Err(err(format!(
            "index lists {} runs but the stream holds {}",
            index.runs.len(),
            runs.len()
        )));
    }
    for (ri, (run, idx)) in runs.iter().zip(&index.runs).enumerate() {
        if run.label != idx.label {
            return Err(err(format!(
                "run {ri}: stream label {:?} != index label {:?}",
                run.label, idx.label
            )));
        }
        if run.events.len() as u64 != idx.event_count {
            return Err(err(format!(
                "run {ri}: stream holds {} events, index says {}",
                run.events.len(),
                idx.event_count
            )));
        }
        if run.anchors.len() != idx.anchors.len() {
            return Err(err(format!(
                "run {ri}: stream holds {} anchors, index says {}",
                run.anchors.len(),
                idx.anchors.len()
            )));
        }
    }
    Ok(McdtFile { runs, index })
}
