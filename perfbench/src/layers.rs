//! Timing spans around the program's public layer entry points, recorded
//! from the benchmark's own code: the trace generator as an iterator,
//! each controller through `DvfsController`, and the trace sink. Every
//! wrapper forwards every trait method, so a wrapped run produces the
//! same `SimResult` and the same event stream as an unwrapped one — the
//! traced run's digests prove it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcd_bench::runner::Scheme;
use mcd_sim::trace::{CtrlEvent, TraceEvent, TraceSink};
use mcd_sim::{ControllerCtx, DvfsAction, DvfsController, QueueSample, SnapshotSource};
use mcd_snap::{SnapReader, SnapResult, SnapWriter};
use mcd_workloads::MicroOp;

/// Busy time and call count of one span family, summed over threads.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Nanoseconds inside the span.
    pub ns: AtomicU64,
    /// Times the span was entered.
    pub calls: AtomicU64,
    /// Calls that produced work downstream (controller actions).
    pub actions: AtomicU64,
}

impl SpanTotals {
    fn add(&self, ns: u64, calls: u64, actions: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.actions.fetch_add(actions, Ordering::Relaxed);
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed);
        if calls == 0 {
            0.0
        } else {
            self.ns.load(Ordering::Relaxed) as f64 / calls as f64
        }
    }
}

/// Every span family one traced sweep records.
#[derive(Debug, Default)]
pub struct Spans {
    /// Whole simulations (`run_sharded` calls) of wrapped runs.
    pub run: SpanTotals,
    /// `TraceGenerator::next`.
    pub generator: SpanTotals,
    /// `TraceSink::record`.
    pub sink: SpanTotals,
    /// `DvfsController::on_sample`, one slot per scheme in
    /// [`Scheme::BAKEOFF`] order.
    pub controllers: [SpanTotals; 5],
}

impl Spans {
    /// The controller slot of `scheme`.
    pub fn controller(&self, scheme: Scheme) -> &SpanTotals {
        let i = Scheme::BAKEOFF
            .iter()
            .position(|&s| s == scheme)
            .expect("controllers are bake-off schemes");
        &self.controllers[i]
    }

    /// Time spent inside child spans of the run span.
    pub fn child_ns(&self) -> u64 {
        let ctrl: u64 = self
            .controllers
            .iter()
            .map(|c| c.ns.load(Ordering::Relaxed))
            .sum();
        self.generator.ns.load(Ordering::Relaxed) + self.sink.ns.load(Ordering::Relaxed) + ctrl
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The trace generator, timed per `next` call. Totals are flushed once,
/// when the machine drops its generator.
pub struct TimedGen<G> {
    inner: G,
    ns: u64,
    calls: u64,
    totals: Arc<Spans>,
}

impl<G> TimedGen<G> {
    /// Wraps `inner`, charging its time to `totals.generator`.
    pub fn new(inner: G, totals: Arc<Spans>) -> Self {
        TimedGen {
            inner,
            ns: 0,
            calls: 0,
            totals,
        }
    }
}

impl<G: Iterator<Item = MicroOp>> Iterator for TimedGen<G> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let t = Instant::now();
        let op = self.inner.next();
        self.ns += elapsed_ns(t);
        self.calls += 1;
        op
    }
}

impl<G: SnapshotSource> SnapshotSource for TimedGen<G> {
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.inner.load_state(r)
    }
}

impl<G> Drop for TimedGen<G> {
    fn drop(&mut self) {
        self.totals.generator.add(self.ns, self.calls, 0);
    }
}

/// A controller timed per `on_sample` call.
#[derive(Debug)]
pub struct TimedController {
    inner: Box<dyn DvfsController>,
    scheme: Scheme,
    ns: u64,
    calls: u64,
    actions: u64,
    totals: Arc<Spans>,
}

impl TimedController {
    /// Wraps `inner` (built for `scheme`), charging its time to the
    /// scheme's controller slot.
    pub fn new(inner: Box<dyn DvfsController>, scheme: Scheme, totals: Arc<Spans>) -> Self {
        TimedController {
            inner,
            scheme,
            ns: 0,
            calls: 0,
            actions: 0,
            totals,
        }
    }
}

impl DvfsController for TimedController {
    fn on_sample(&mut self, ctx: &ControllerCtx<'_>, sample: QueueSample) -> Option<DvfsAction> {
        let t = Instant::now();
        let action = self.inner.on_sample(ctx, sample);
        self.ns += elapsed_ns(t);
        self.calls += 1;
        self.actions += u64::from(action.is_some());
        action
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    // Relay events and snapshot state live in the inner controller; a
    // wrapper that kept the defaults would silently drop both.
    fn drain_events(&mut self, out: &mut Vec<CtrlEvent>) {
        self.inner.drain_events(out);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.inner.load_state(r)
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        self.totals
            .controller(self.scheme)
            .add(self.ns, self.calls, self.actions);
    }
}

/// A trace sink timed per `record` call.
pub struct TimedSink<'a> {
    inner: &'a mut dyn TraceSink,
    ns: u64,
    calls: u64,
    totals: &'a Spans,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`, charging its time to `totals.sink`.
    pub fn new(inner: &'a mut dyn TraceSink, totals: &'a Spans) -> Self {
        TimedSink {
            inner,
            ns: 0,
            calls: 0,
            totals,
        }
    }
}

impl TraceSink for TimedSink<'_> {
    // The engine asks before it builds an event: forwarding keeps a
    // disabled sink's runs free of events a `NullSink` run never builds.
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        let t = Instant::now();
        self.inner.record(event);
        self.ns += elapsed_ns(t);
        self.calls += 1;
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        self.inner.record_anchor(retired, snapshot);
    }
}

impl Drop for TimedSink<'_> {
    fn drop(&mut self) {
        self.totals.sink.add(self.ns, self.calls, 0);
    }
}

/// Charges one whole run to the run span.
pub fn record_run(totals: &Spans, start: Instant) {
    totals.run.add(elapsed_ns(start), 1, 0);
}

/// What one `Instant::now()` costs on this host, nanoseconds: the median
/// over batches of back-to-back reads. Every span pays about two of
/// these, which inflates short spans (a generated op is ~80 ns).
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut last = t;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - t).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}
