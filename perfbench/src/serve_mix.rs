//! `serve-mix`: an open-loop Poisson mix against an in-process
//! `mcd_serve::Server`. Three request classes use the service's layers in
//! opposite ways: `cold` (a fresh-seed `energy-breakdown`: executor and
//! engine), `hit` (a fingerprint that already completed: cache only) and
//! `stream` (a fresh-seed `?stream=1`: executor, engine and fan-out).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcd_bench::runner::RunConfig;
use mcd_serve::{ServeConfig, Server, ServerHandle};

use crate::http::{json_f64, json_u64, Conn};
use crate::report::Outcome;
use crate::stats::{median, tail, Rng};
use crate::Ctx;

/// Offered load, requests per second (all classes).
pub const RATE_PER_S: f64 = 12.0;
/// The share of the mix's measured saturation throughput
/// (`perfbench serve-capacity`) that [`RATE_PER_S`] offers.
pub const UTILIZATION: f64 = 0.5;
/// Length of the schedule `perfbench serve-capacity` sends closed-loop.
pub const CAPACITY_SECONDS: f64 = 20.0;
/// Share of the offered load that is cold; the rest is hits and streams.
pub const COLD_SHARE: f64 = 0.5;
/// Share of hits.
pub const HIT_SHARE: f64 = 0.3;
/// Instructions per simulation of a cold request (and of the warm set).
pub const OPS: u64 = 10_000;
/// Instructions per simulation of a streamed request: every simulated
/// event becomes one streamed line (about two per instruction), so a
/// full-size stream would swamp the two-core mix with fan-out alone.
pub const STREAM_OPS: u64 = 2_500;
/// Fingerprints completed before the window opens; hits repeat these.
pub const WARM_SET: usize = 8;
/// The fixed latency limit `goodput_per_s` counts completions within.
pub const LIMIT_MS: f64 = 150.0;
/// Slices the window is cut into by scheduled send time. The p50s and
/// `sim_mips` are the median over the slices, so a stretch of slow host
/// time in a minority of them does not move the figures.
pub const SLICES: usize = 6;
/// A request not answered within this long counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(20);

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fresh seed, plain `/run`.
    Cold,
    /// A warm-set fingerprint, plain `/run`.
    Hit,
    /// Fresh seed, `/run?stream=1`.
    Stream,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Offset from the window's start at which it is due.
    pub at: Duration,
    /// Its class.
    pub class: Class,
    /// Simulation seed (a fresh one, or a warm-set seed for hits).
    pub seed: u64,
}

/// The `/run` body for `seed` at `ops` instructions per simulation.
pub fn body(seed: u64, ops: u64) -> String {
    format!("{{\"experiment\": \"energy-breakdown\", \"seed\": {seed}, \"ops\": {ops}}}")
}

impl Class {
    /// Instructions per simulation for this class.
    pub fn ops(self) -> u64 {
        if self == Class::Stream {
            STREAM_OPS
        } else {
            OPS
        }
    }
}

/// The warm set's seeds.
pub fn warm_seeds(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, "serve/warm");
    (0..WARM_SET).map(|_| rng.next_u64() >> 16).collect()
}

/// The seeded arrival schedule of one window of `seconds`: a Poisson
/// process at [`RATE_PER_S`] conditioned on its expected count (that
/// many arrival times drawn uniformly over the window, then sorted), so
/// every seed offers exactly the same load. The classes are exactly
/// their shares of that count, shuffled, so every seed also yields the
/// same number of samples per class and a tail is always taken at the
/// same percentile. Cold and streamed requests get fresh seeds.
pub fn schedule(seed: u64, window: &str, seconds: f64) -> Vec<Scheduled> {
    let warm = warm_seeds(seed);
    let mut rng = Rng::new(seed, &format!("serve/{window}"));
    let n = (RATE_PER_S * seconds).round() as usize;
    let cold = (n as f64 * COLD_SHARE).round() as usize;
    let hit = (n as f64 * HIT_SHARE).round() as usize;
    let mut classes: Vec<Class> = (0..n)
        .map(|i| match i {
            i if i < cold => Class::Cold,
            i if i < cold + hit => Class::Hit,
            _ => Class::Stream,
        })
        .collect();
    for i in (1..n).rev() {
        classes.swap(i, rng.below(i + 1));
    }
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .zip(classes)
        .map(|(t, class)| Scheduled {
            at: Duration::from_secs_f64(t),
            class,
            seed: match class {
                Class::Hit => warm[rng.below(warm.len())],
                Class::Cold | Class::Stream => rng.next_u64() >> 16,
            },
        })
        .collect()
}

/// Threads available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The server configuration: `workers × inner_jobs ≤ nproc`.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        inner_jobs: 1,
        queue_cap: 64,
        cache_cap: 8192,
        base_cfg: RunConfig::quick(),
        run_timeout: TIMEOUT,
        ..ServeConfig::default()
    }
}

/// One completed (or failed) request.
#[derive(Debug)]
struct Done {
    class: Class,
    at: Duration,
    seed: u64,
    ok: bool,
    error: String,
    latency_ms: f64,
    late_ms: f64,
    first_event_ms: Option<f64>,
    stream_events: usize,
    body: Vec<u8>,
}

/// Runs `schedule` open-loop from at most `nproc` client connections.
fn drive(addr: SocketAddr, schedule: &[Scheduled]) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let mut conn = Conn::new(addr, TIMEOUT);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = schedule.get(i) else { break };
                    let due = t0 + req.at;
                    // Polled, not slept, like every wait of the client
                    // (see `crate::http`).
                    while Instant::now() < due {
                        std::thread::yield_now();
                    }
                    let sent = Instant::now();
                    let path = if req.class == Class::Stream {
                        "/run?stream=1"
                    } else {
                        "/run"
                    };
                    let result = conn.request("POST", path, &body(req.seed, req.class.ops()));
                    let end = Instant::now();
                    let ms = |t: Instant| (t - due).as_secs_f64() * 1e3;
                    let d = match result {
                        Ok(r) => Done {
                            class: req.class,
                            at: req.at,
                            seed: req.seed,
                            ok: r.status == 200,
                            error: format!("status {}", r.status),
                            latency_ms: ms(end),
                            late_ms: ms(sent),
                            first_event_ms: r.first_chunk.map(ms),
                            stream_events: r.chunks,
                            body: r.body,
                        },
                        Err(e) => Done {
                            class: req.class,
                            at: req.at,
                            seed: req.seed,
                            ok: false,
                            error: e.to_string(),
                            latency_ms: ms(end),
                            late_ms: ms(sent),
                            first_event_ms: None,
                            stream_events: 0,
                            body: Vec::new(),
                        },
                    };
                    done.lock().expect("results lock poisoned").push(d);
                }
            });
        }
    });
    done.into_inner().expect("results lock poisoned")
}

/// `/metrics?format=json` counters this workload reads.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    run_requests: u64,
    cache_hits: u64,
    coalesced: u64,
    shed: u64,
    stream_events: u64,
}

fn counters(conn: &mut Conn) -> Counters {
    let text = conn
        .request("GET", "/metrics?format=json", "")
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    let get = |k: &str| json_u64(&text, k).unwrap_or(0);
    Counters {
        run_requests: get("run_requests"),
        cache_hits: get("cache_hits"),
        coalesced: get("coalesced"),
        shed: get("shed"),
        stream_events: get("stream_events"),
    }
}

/// Set-up: the server up and every client connection open and answered.
pub fn setup() -> Result<(ServerHandle, Vec<Conn>), String> {
    let server = Server::start(serve_config()).map_err(|e| e.to_string())?;
    let mut conns = Vec::new();
    for _ in 0..nproc() {
        let mut c = Conn::new(server.addr(), TIMEOUT);
        let r = c
            .request("GET", "/healthz", "")
            .map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/healthz answered {}", r.status));
        }
        conns.push(c);
    }
    Ok((server, conns))
}

/// One window's results.
struct Window {
    done: Vec<Done>,
    seconds: f64,
    before: Counters,
    after: Counters,
}

fn window(out: &mut Outcome, addr: SocketAddr, sched: &[Scheduled]) -> Window {
    let mut probe = Conn::new(addr, TIMEOUT);
    let before = counters(&mut probe);
    let start = Instant::now();
    let done = drive(addr, sched);
    // The window runs from its start to its last response, so goodput is
    // charged for any drain past the schedule's end.
    let seconds = start.elapsed().as_secs_f64();
    let after = counters(&mut probe);
    for d in &done {
        out.check(d.ok, || {
            format!(
                "serve-mix: {:?} seed {} failed: {}",
                d.class, d.seed, d.error
            )
        });
    }
    Window {
        done,
        seconds,
        before,
        after,
    }
}

/// Server-side wall of every simulated (cold or streamed) response, s:
/// the service demand the offered load put on the workers.
fn server_wall_s(done: &[Done]) -> f64 {
    done.iter()
        .filter(|d| d.ok && d.class != Class::Hit)
        .filter_map(|d| json_f64(&String::from_utf8_lossy(&d.body), "wall_s"))
        .sum()
}

/// Starts a server and completes the warm set: the fingerprints hits
/// repeat, and the bodies they must reproduce byte for byte.
fn warm_server(out: &mut Outcome, seed: u64) -> Option<(ServerHandle, HashMap<u64, Vec<u8>>)> {
    let (server, conns) = match setup() {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("serve-mix: set-up failed: {e}"));
            return None;
        }
    };
    drop(conns);
    let mut reference = HashMap::new();
    let mut conn = Conn::new(server.addr(), TIMEOUT);
    for seed in warm_seeds(seed) {
        match conn.request("POST", "/run", &body(seed, OPS)) {
            Ok(r) if r.status == 200 => {
                reference.insert(seed, r.body);
            }
            other => out.check(false, || {
                format!("serve-mix: warm-up seed {seed} failed: {other:?}")
            }),
        }
    }
    Some((server, reference))
}

/// `perfbench serve-capacity`: the mix's saturation throughput. The
/// requests of a [`CAPACITY_SECONDS`] schedule (same classes, same
/// shares) are all due at once, so each of the `nproc` connections sends
/// its next request as soon as its last one is answered. [`RATE_PER_S`]
/// is [`UTILIZATION`] of the figure this printed on the reference
/// machine.
pub fn capacity(seed: u64) -> Result<String, String> {
    let mut out = Outcome::default();
    let Some((server, _)) = warm_server(&mut out, seed) else {
        return Err(out.failures.join("; "));
    };
    let mut sched = schedule(seed, "capacity", CAPACITY_SECONDS);
    for s in &mut sched {
        s.at = Duration::ZERO;
    }
    let w = window(&mut out, server.addr(), &sched);
    server.shutdown().map_err(|e| e.to_string())?;
    if !out.correct() {
        return Err(out.failures.join("; "));
    }
    let rate = w.done.len() as f64 / w.seconds;
    Ok(format!(
        "serve-mix capacity: {} requests in {:.2} s closed-loop from {} connections: \
         {rate:.2} req/s; server busy {:.0} %\n\
         offered rate at {UTILIZATION} of it: {:.2} req/s (RATE_PER_S = {RATE_PER_S})\n",
        w.done.len(),
        w.seconds,
        nproc(),
        100.0 * server_wall_s(&w.done) / (w.seconds * nproc() as f64),
        rate * UTILIZATION,
    ))
}

/// Checks every response against the plain body for its fingerprint:
/// hits against the warm body, cold and streamed runs (their final
/// line) against a plain repeat, which the cache answers.
fn verify(out: &mut Outcome, addr: SocketAddr, reference: &HashMap<u64, Vec<u8>>, done: &[Done]) {
    let mut conn = Conn::new(addr, TIMEOUT);
    for d in done.iter().filter(|d| d.ok) {
        let plain = match reference.get(&d.seed) {
            Some(b) => b.clone(),
            None => match conn.request("POST", "/run", &body(d.seed, d.class.ops())) {
                Ok(r) if r.status == 200 => r.body,
                other => {
                    out.check(false, || {
                        format!("serve-mix: repeat of seed {} failed: {other:?}", d.seed)
                    });
                    continue;
                }
            },
        };
        out.check(plain == d.body, || {
            format!(
                "serve-mix: {:?} body for seed {} differs from its plain repeat",
                d.class, d.seed
            )
        });
    }
}

fn pick<'a>(
    done: impl IntoIterator<Item = &'a Done>,
    class: Class,
    f: impl Fn(&Done) -> Option<f64>,
) -> Vec<f64> {
    done.into_iter()
        .filter(|d| d.class == class && d.ok)
        .filter_map(f)
        .collect()
}

/// The median over [`SLICES`] equal slices of a `seconds` schedule of
/// `f` of each slice's requests (slices where `f` gives nothing are
/// left out).
fn over_slices(done: &[Done], seconds: f64, f: impl Fn(&[&Done]) -> Option<f64>) -> f64 {
    let per = seconds / SLICES as f64;
    let values: Vec<f64> = (0..SLICES)
        .filter_map(|k| {
            let slice: Vec<&Done> = done
                .iter()
                .filter(|d| ((d.at.as_secs_f64() / per) as usize).min(SLICES - 1) == k)
                .collect();
            f(&slice)
        })
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The median latency of `class` among `slice`'s requests.
fn p50(slice: &[&Done], class: Class) -> Option<f64> {
    let v = pick(slice.iter().copied(), class, |d| Some(d.latency_ms));
    (!v.is_empty()).then(|| median(&v))
}

/// The `serve-mix` workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = crate::median_setup(&mut out, "serve-mix");
    let Some((server, reference)) = warm_server(&mut out, ctx.seed) else {
        return out;
    };
    let addr = server.addr();
    let w = window(&mut out, addr, &schedule(ctx.seed, "plain", ctx.seconds));
    let peak = crate::stats::peak_rss_mb();
    verify(&mut out, addr, &reference, &w.done);
    if let Err(e) = server.shutdown() {
        out.check(false, || format!("serve-mix: shutdown failed: {e}"));
    }

    let cold = pick(&w.done, Class::Cold, |d| Some(d.latency_ms));
    let hit = pick(&w.done, Class::Hit, |d| Some(d.latency_ms));
    let first = pick(&w.done, Class::Stream, |d| d.first_event_ms);
    let mips = over_slices(&w.done, ctx.seconds, |slice| {
        let (mut instr, mut wall_s) = (0u64, 0.0);
        for d in slice.iter().filter(|d| d.class == Class::Cold && d.ok) {
            let text = String::from_utf8_lossy(&d.body);
            instr += json_u64(&text, "instructions").unwrap_or(0);
            wall_s += json_f64(&text, "wall_s").unwrap_or(0.0);
        }
        (wall_s > 0.0).then(|| instr as f64 / wall_s / 1e6)
    });
    let cold_p50 = over_slices(&w.done, ctx.seconds, |s| p50(s, Class::Cold));
    let hit_p50 = over_slices(&w.done, ctx.seconds, |s| p50(s, Class::Hit));
    let good = w
        .done
        .iter()
        .filter(|d| d.ok && d.latency_ms <= LIMIT_MS)
        .count();
    if cold.is_empty() || hit.is_empty() || first.is_empty() {
        out.check(false, || {
            "serve-mix: a request class completed no request".to_string()
        });
        return out;
    }
    let cold_tail = tail(&cold);
    let hit_tail = tail(&hit);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak);
    out.set("sim_mips", mips);
    out.set("op_p50_ms", cold_p50);
    out.set("op_tail_ms", cold_tail.value);
    out.set("side_ms", hit_p50);
    out.set("goodput_per_s", good as f64 / w.seconds);
    out.line(format!(
        "serve-mix: {} requests in {:.1} s at {RATE_PER_S}/s offered ({} cold, {} hit, {} stream); \
         server {} workers x 1 inner job, {} client connections; server busy {:.0} %",
        w.done.len(),
        w.seconds,
        cold.len(),
        hit.len(),
        first.len(),
        nproc(),
        nproc(),
        100.0 * server_wall_s(&w.done) / (w.seconds * nproc() as f64),
    ));
    out.line(format!(
        "  cold_p50_ms            {cold_p50:.4} ms  (median over {SLICES} slices)"
    ));
    out.line(format!(
        "  cold_tail_ms           {:.4} ms  (p{}, {} of {} samples beyond)",
        cold_tail.value, cold_tail.percentile, cold_tail.beyond, cold_tail.samples
    ));
    out.line(format!(
        "  hit_p50_ms             {hit_p50:.4} ms  (median over {SLICES} slices)"
    ));
    out.line(format!(
        "  hit_tail_ms            {:.4} ms  (p{}, {} of {} samples beyond)",
        hit_tail.value, hit_tail.percentile, hit_tail.beyond, hit_tail.samples
    ));
    out.line(format!("  stream_first_event_ms  {:.4} ms", median(&first)));
    out.line(format!(
        "  goodput_rps            {:.4} 1/s  (within {LIMIT_MS} ms)",
        good as f64 / w.seconds
    ));

    // The service has no spans of the benchmark's own, so there is no
    // traced window: the layer figures come from this window's counters
    // and client-side timing, and `span.overhead_ratio` stays 0.
    if ctx.trace {
        let delta = |f: fn(&Counters) -> u64| f(&w.after).saturating_sub(f(&w.before)) as f64;
        out.set(
            "serve.cache_hit_ratio",
            delta(|c| c.cache_hits) / delta(|c| c.run_requests).max(1.0),
        );
        out.set("serve.coalesced", delta(|c| c.coalesced));
        out.set("serve.shed", delta(|c| c.shed));
        out.set("serve.stream_events", delta(|c| c.stream_events));
        let gap = pick(&w.done, Class::Cold, |d| {
            Some(d.latency_ms - json_f64(&String::from_utf8_lossy(&d.body), "wall_s")? * 1e3)
        });
        if !gap.is_empty() {
            out.set("serve.client_minus_server_ms", median(&gap));
        }
        let late: Vec<f64> = w.done.iter().map(|d| d.late_ms).collect();
        out.set(
            "serve.generator_late_ms",
            late.iter().sum::<f64>() / late.len().max(1) as f64,
        );
        out.set("serve.stream_first_event_ms", median(&first));
        out.set("serve.hit_tail_ms", hit_tail.value);
        out.set("span.clock_read_ns", crate::layers::clock_read_ns());
        let events: usize = w.done.iter().map(|d| d.stream_events).sum();
        out.line(format!("  {events} stream events received by clients"));
    }
    out
}
