//! Bit-exact fingerprints of simulated results. Simulated statistics are
//! deterministic, so the benchmark never reports them as metrics; it
//! checks them instead.

use mcd_sim::SimResult;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over `words`, little-endian.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// The digest of one run: instructions, per-domain cycles, energy (as
/// IEEE bits, so any rounding change shows), the event core's work
/// counters and every domain's frequency steps.
pub fn digest(r: &SimResult) -> u64 {
    let mut words = vec![
        r.instructions,
        r.total_energy().as_joules().to_bits(),
        r.metrics.events_processed,
        r.metrics.cycles_skipped,
    ];
    words.extend(r.domains.iter().map(|d| d.cycles));
    words.extend(r.metrics.freq_steps_up);
    words.extend(r.metrics.freq_steps_down);
    fnv(words)
}

/// Parses a committed digest file: one `label digest-hex` pair per line,
/// `#` comments allowed.
pub fn parse_digest_file(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (label, hex) = l.rsplit_once(' ')?;
            Some((label.trim().to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Renders digests in the committed file's format.
pub fn render_digest_file(header: &str, digests: &[(String, u64)]) -> String {
    let mut out = format!("# {header}\n");
    for (label, d) in digests {
        out.push_str(&format!("{label} {d:016x}\n"));
    }
    out
}
