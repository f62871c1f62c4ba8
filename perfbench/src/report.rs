//! The metric catalog (the single source `BENCHMARK.json` is rendered
//! from) and the result line every run ends with.

use std::collections::BTreeMap;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The workloads and why each exists (NOTES.md has the long form).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep",
        "every registry benchmark x baseline + bake-off schemes on RunSet::new(2): generator, engine, controllers and pool do the work",
    ),
    (
        "record-replay",
        "adaptive sweep recorded to .mcdt with anchors, catalogued and replayed: recording, codec, snapshots and replay do the work",
    ),
    (
        "serve-mix",
        "open-loop Poisson mix of cold, cache-hit and streamed /run requests: executor, cache and fan-out used in opposite ways",
    ),
];

/// End-to-end metrics. Every workload reports every one; the meaning of
/// the generic ones per workload is in NOTES.md.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("sim_mips", "MIPS", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_tail_ms", "ms", "lower", 0.25),
    e2e("side_ms", "ms", "lower", 0.25),
    e2e("goodput_per_s", "1/s", "higher", 0.25),
];

/// Per-layer metrics from the traced run. A layer a workload does not
/// exercise (or that cannot be observed from outside on it) reads 0.
pub const PER_LAYER: [Metric; 36] = [
    layer("workloads.gen_ns_per_op", "ns", "lower"),
    layer("sim.self_ns_per_instr", "ns", "lower"),
    layer("sim.self_ns_per_event", "ns", "lower"),
    layer("sim.events_per_instr", "count", "lower"),
    layer("sim.skipped_per_event", "count", "higher"),
    layer("core.adaptive_ns_per_call", "ns", "lower"),
    layer("core.adaptive_calls", "count", "lower"),
    layer("core.adaptive_action_ratio", "ratio", "lower"),
    layer("baselines.pid_ns_per_call", "ns", "lower"),
    layer("baselines.attack_decay_ns_per_call", "ns", "lower"),
    layer("baselines.integral_gain_ns_per_call", "ns", "lower"),
    layer("baselines.feedback_dvs_ns_per_call", "ns", "lower"),
    layer("snap.save_us", "us", "lower"),
    layer("snap.restore_us", "us", "lower"),
    layer("snap.bytes", "bytes", "lower"),
    layer("trace.record_overhead_ratio", "ratio", "lower"),
    layer("trace.encode_ns_per_event", "ns", "lower"),
    layer("trace.decode_ns_per_event", "ns", "lower"),
    layer("trace.index_ms", "ms", "lower"),
    layer("trace.events", "count", "lower"),
    layer("trace.episodes", "count", "lower"),
    layer("trace.bytes_per_event", "bytes", "lower"),
    layer("bench.queue_wait_ms", "ms", "lower"),
    layer("bench.worker_busy_frac", "ratio", "higher"),
    layer("bench.baseline_memo_hit_ratio", "ratio", "higher"),
    layer("bench.replay_decode_share", "ratio", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.coalesced", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.stream_events", "count", "lower"),
    layer("serve.client_minus_server_ms", "ms", "lower"),
    layer("serve.generator_late_ms", "ms", "lower"),
    layer("serve.hit_tail_ms", "ms", "lower"),
    layer("serve.stream_first_event_ms", "ms", "lower"),
    layer("span.clock_read_ns", "ns", "lower"),
    layer("span.overhead_ratio", "ratio", "lower"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, replays, requests, checks).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (the workload's own metric names,
    /// tail percentiles and sample counts).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation and whether it went right.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `catalog` with its unit.
    pub fn result_json(&self, catalog: &[Metric]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// `BENCHMARK.json`, rendered from the catalog above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
