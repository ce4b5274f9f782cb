//! The serving phase: the trained model behind `NetServer` on loopback,
//! driven by an open-loop generator over two connections, with hot reloads
//! between two snapshots sent on a third, admin connection by the driving
//! thread (a reload on a load connection would stall that connection's
//! schedule for the whole load of the snapshot).
//!
//! Each connection thread owns a fixed schedule (constant spacing at half
//! the step's rate, the two connections offset by half a period). A request
//! is sent when it is due, or at once if the connection is behind; its
//! latency runs from when it was due, so a stall is charged to every
//! request it delays. The connections are blocking, so overload shows as
//! generator lag, never as a growing server queue.

use crate::report::{median, quantile};
use crate::timing::{ModelCounters, TimedModel};
use crate::trace::{SpanId, Tracer};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_net::{Answer, ClientConfig, NetClient, NetServer, NetServerConfig, Request};
use nscaching_serve::{CacheConfig, CacheStats, KnowledgeServer, QueryScratch, TopKQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections (and generator threads).
const CONNECTIONS: usize = 2;
/// `k` of every top-k request.
const TOP_K: u32 = 10;
/// Highest error ratio a passing rate step may have.
const SLO_ERROR_RATIO: f64 = 0.01;
/// Largest growth of the generator's lag (last quarter of a step against
/// the first) a passing step may have, milliseconds.
const SLO_LAG_GROWTH_MS: f64 = 1.0;
/// Ratio between neighbouring rates of the ladder.
const LADDER_RATIO: f64 = 1.08;
/// Grid points skipped per coarse ladder step.
const COARSE_STRIDE: usize = 5;
/// Ladder steps per run, coarse and fine together.
const MAX_LADDER_STEPS: usize = 8;
/// Every this many requests per connection is checked against an
/// in-process reference, up to a bounded number per step so the
/// benchmark's own memory does not grow with the rate.
const CHECK_EVERY: u64 = 8;
const MAX_CHECKS_PER_STEP: usize = 128;

/// Distinct top-k keys drawn from the evaluation splits: 16× the default
/// result cache of 256 answers.
const KEYS: usize = 4096;
/// Time between reloads.
const RELOAD_EVERY: Duration = Duration::from_millis(500);
/// Reloads sent after the load has stopped, one every `IDLE_RELOAD_GAP`.
const IDLE_RELOADS: usize = 20;
const IDLE_RELOAD_GAP: Duration = Duration::from_millis(20);
/// How long after a reload's reply the cache's hit ratio counts as "right
/// after the reload".
const POST_RELOAD_WINDOW: Duration = Duration::from_millis(50);
/// How often the driving thread samples the server's queue depth and
/// checks whether a reload is due.
const POLL: Duration = Duration::from_millis(2);

/// The serving half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Rate of the fixed-rate step that reports p50/p99, requests/s.
    pub nominal_rate: f64,
    /// Lowest rate of the ladder, requests/s.
    pub ladder_base: f64,
    /// Latency limit on the p99 of a passing rate step, milliseconds.
    pub slo_p99_ms: f64,
}

/// What kind of request an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    TopK,
    Score,
    Rank,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::TopK => "net.request.top_k",
            Kind::Score => "net.request.score",
            Kind::Rank => "net.request.rank",
        }
    }
}

/// One finished query.
struct Sample {
    kind: Kind,
    ok: bool,
    latency_ms: f32,
    lag_ms: f32,
}

/// A reply kept for checking: the request, its answer and which snapshot
/// could have served it.
struct Check {
    request: Request,
    answer: Answer,
    /// Serving state before the send and after the reply (see [`Served`]).
    before: u64,
    after: u64,
}

/// Which snapshot is being served: a counter bumped when a reload is sent
/// and again when its reply arrives. Even values are stable: `(v / 2) % 2`
/// is 0 for snapshot B (served first) and 1 for A. Odd values mean a reload
/// is in flight and either snapshot may answer.
struct Served(AtomicU64);

impl Served {
    fn read(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    fn bump(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Zipf(1.0) over a shuffled list of top-k keys.
struct KeyDist {
    keys: Vec<TopKQuery>,
    cdf: Vec<f64>,
}

impl KeyDist {
    fn new(triples: &[Triple], count: usize, seed: u64) -> Self {
        let mut keys: Vec<TopKQuery> = triples
            .iter()
            .flat_map(|t| {
                [
                    TopKQuery::tails(t.head, t.relation, TOP_K),
                    TopKQuery::heads(t.tail, t.relation, TOP_K),
                ]
            })
            .collect();
        keys.sort_by_key(|q| (q.relation, q.entity, q.direction == CorruptionSide::Head));
        keys.dedup();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        keys.truncate(count);
        let mut total = 0.0;
        let cdf = (0..keys.len())
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect::<Vec<_>>();
        let cdf = cdf.iter().map(|c| c / total).collect();
        Self { keys, cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> TopKQuery {
        let u: f64 = rng.gen();
        let i = self.cdf.partition_point(|&c| c < u);
        self.keys[i.min(self.keys.len() - 1)]
    }
}

fn draw_request(rng: &mut StdRng, keys: &KeyDist, triples: &[Triple]) -> (Kind, Request) {
    let roll: f64 = rng.gen();
    if roll < 0.8 {
        return (Kind::TopK, Request::TopK(keys.draw(rng)));
    }
    let t = triples[rng.gen_range(0..triples.len())];
    if roll < 0.9 {
        (
            Kind::Score,
            Request::Score {
                head: t.head,
                relation: t.relation,
                tail: t.tail,
            },
        )
    } else {
        let side = if rng.gen::<bool>() {
            CorruptionSide::Head
        } else {
            CorruptionSide::Tail
        };
        (
            Kind::Rank,
            Request::Rank {
                head: t.head,
                relation: t.relation,
                tail: t.tail,
                side,
            },
        )
    }
}

/// Shared, read-only context of the generator threads.
struct Ctx<'a> {
    addr: std::net::SocketAddr,
    keys: &'a KeyDist,
    triples: &'a [Triple],
    served: &'a Served,
    engine: &'a KnowledgeServer,
    snapshots: [String; 2],
    trace: bool,
}

/// What one connection saw during one step.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    checks: Vec<Check>,
    spans: Vec<(&'static str, Instant, Instant)>,
}

/// Per-connection state that outlives a step.
struct Conn {
    client: NetClient,
    rng: StdRng,
    sent: u64,
}

/// The admin connection's reload schedule and what it observed.
struct Reloader {
    client: NetClient,
    next: Instant,
    reload_ms: Vec<f64>,
    failed: u64,
    /// Cache (hits, lookups) at the last reload, until the window closes.
    window: Option<(Instant, (u64, u64))>,
    /// Σ (hits, lookups) over the windows right after reloads.
    post_reload: (u64, u64),
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl Reloader {
    /// Send a reload now and return its round trip, milliseconds; `None`
    /// (and one more failure) if it failed.
    fn reload(&mut self, ctx: &Ctx) -> Option<f64> {
        let target = ((ctx.served.read() / 2 + 1) % 2) as usize;
        let request = Request::Reload {
            path: ctx.snapshots[target].clone(),
        };
        ctx.served.bump();
        let sent = Instant::now();
        let result = self.client.call(&request);
        let replied = Instant::now();
        ctx.served.bump();
        if ctx.trace {
            self.spans.push(("net.request.reload", sent, replied));
        }
        match result {
            Ok(reply) if reply.answer == Answer::Reloaded => {
                Some((replied - sent).as_secs_f64() * 1e3)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }

    /// Send the reload that is due, if any, and close a finished window.
    fn tick(&mut self, ctx: &Ctx) {
        let now = Instant::now();
        if let Some((opened, start)) = self.window {
            if now - opened >= POST_RELOAD_WINDOW {
                let (hits, total) = lookups(&ctx.engine.cache_stats());
                self.post_reload.0 += hits - start.0;
                self.post_reload.1 += total - start.1;
                self.window = None;
            }
        }
        if now < self.next {
            return;
        }
        if let Some(ms) = self.reload(ctx) {
            self.reload_ms.push(ms);
        }
        let replied = Instant::now();
        self.window = Some((replied, lookups(&ctx.engine.cache_stats())));
        // A reload that ran late does not make the next ones bunch up.
        self.next = (self.next + RELOAD_EVERY).max(replied);
    }
}

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Lower this thread's timer slack from the default 50 µs to 1 µs, so a
/// generator thread wakes when a request is due rather than up to 50 µs
/// later — on a 0.1 ms round trip that slack would otherwise be a large,
/// noisy share of every latency.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the slack
    // in nanoseconds) and only changes this thread's timer slack; a failure
    // is reported through the return value, which is ignored here.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

fn lookups(stats: &CacheStats) -> (u64, u64) {
    (stats.hits, stats.hits + stats.misses)
}

fn run_connection(
    ctx: &Ctx,
    conn: &mut Conn,
    index: usize,
    rate: f64,
    duration: Duration,
) -> ConnLog {
    let mut log = ConnLog::default();
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
    let step_start = Instant::now();
    let mut due = step_start + period.mul_f64(index as f64 / CONNECTIONS as f64);
    let end = step_start + duration;
    while due < end {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (kind, request) = draw_request(&mut conn.rng, ctx.keys, ctx.triples);
        let before = ctx.served.read();
        let sent = Instant::now();
        let result = conn.client.call(&request);
        let replied = Instant::now();
        let after = ctx.served.read();
        conn.sent += 1;
        let ok = match result {
            Ok(reply) => {
                if conn.sent.is_multiple_of(CHECK_EVERY) && log.checks.len() < MAX_CHECKS_PER_STEP {
                    log.checks.push(Check {
                        request,
                        answer: reply.answer,
                        before,
                        after,
                    });
                }
                true
            }
            Err(_) => false,
        };
        log.samples.push(Sample {
            kind,
            ok,
            latency_ms: (replied - due).as_secs_f32() * 1e3,
            lag_ms: sent.saturating_duration_since(due).as_secs_f32() * 1e3,
        });
        if ctx.trace {
            log.spans.push((kind.span_name(), due, replied));
        }
        due += period;
    }
    log
}

/// Outcome of one rate step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepResult {
    pub rate: f64,
    pub sent: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub lag_p99_ms: f64,
    /// Largest growth of a connection's lag over the step: mean lag of its
    /// last quarter of requests minus that of its first quarter.
    pub lag_growth_ms: f64,
    /// p99 within the SLO, errors within [`SLO_ERROR_RATIO`], lag growth
    /// within [`SLO_LAG_GROWTH_MS`].
    pub passed: bool,
}

/// Everything the serving phase measured.
#[derive(Debug, Default)]
pub struct ServeOutcome {
    pub nominal: StepResult,
    pub ladder: Vec<StepResult>,
    pub qps_at_slo: f64,
    pub sent: u64,
    pub failed: u64,
    pub checked: u64,
    pub mismatched: u64,
    pub reload_ms: Vec<f64>,
    /// The reloads sent during the nominal step, under the same load in
    /// every run.
    pub nominal_reload_ms: Vec<f64>,
    /// The reloads sent after the load stopped, on an otherwise idle server.
    pub idle_reload_ms: Vec<f64>,
    pub reload_failed: u64,
    pub load_ms: f64,
    pub cache: CacheStats,
    pub post_reload_hit_ratio: f64,
    pub stale: u64,
    /// Server-side latency per opcode (top_k, score, rank, reload): p50, p99 µs.
    pub server_us: [(f64, f64); 4],
    /// Client top-k p50 over the whole phase, µs.
    pub client_topk_p50_us: f64,
    pub shed: u64,
    pub deadline_exceeded: u64,
    pub degraded_fraction: f64,
    pub queue_depth_max: u64,
    /// Seconds the decorated model served before the first reload replaced it.
    pub decorated_s: f64,
}

fn summarize(rate: f64, slo_p99_ms: f64, logs: &[ConnLog]) -> StepResult {
    let samples: Vec<&Sample> = logs.iter().flat_map(|l| l.samples.iter()).collect();
    let latencies: Vec<f64> = samples.iter().map(|s| f64::from(s.latency_ms)).collect();
    let lags: Vec<f64> = samples.iter().map(|s| f64::from(s.lag_ms)).collect();
    let failed = samples.iter().filter(|s| !s.ok).count();
    let lag_growth_ms = logs
        .iter()
        .map(|l| {
            let q = l.samples.len() / 4;
            if q == 0 {
                return 0.0;
            }
            let mean =
                |s: &[Sample]| s.iter().map(|x| f64::from(x.lag_ms)).sum::<f64>() / s.len() as f64;
            mean(&l.samples[l.samples.len() - q..]) - mean(&l.samples[..q])
        })
        .fold(0.0, f64::max);
    let sent = samples.len();
    let p99_ms = quantile(&latencies, 0.99);
    StepResult {
        rate,
        sent,
        failed,
        p50_ms: median(&latencies),
        p99_ms,
        lag_p99_ms: quantile(&lags, 0.99),
        lag_growth_ms,
        passed: sent > 0
            && p99_ms <= slo_p99_ms
            && (failed as f64) <= SLO_ERROR_RATIO * sent as f64
            && lag_growth_ms <= SLO_LAG_GROWTH_MS,
    }
}

/// Load a snapshot into a model, optionally decorated.
fn load(path: &Path, counters: Option<&Arc<ModelCounters>>) -> Box<dyn nscaching_models::KgeModel> {
    let model = nscaching_serve::load_model(path)
        .and_then(|s| s.into_model())
        .expect("snapshot written by the training phase loads");
    match counters {
        Some(c) => Box::new(TimedModel::new(model, Arc::clone(c))),
        None => model,
    }
}

/// The served answer for `request` from `engine`, computed in process.
fn reference(
    engine: &KnowledgeServer,
    request: &Request,
    scratch: &mut QueryScratch,
) -> Option<Answer> {
    match request {
        Request::TopK(query) => engine
            .top_k(query, scratch)
            .ok()
            .map(|a| Answer::TopK(a.to_vec())),
        Request::Score {
            head,
            relation,
            tail,
        } => engine
            .score(&Triple::new(*head, *relation, *tail))
            .ok()
            .map(Answer::Score),
        Request::Rank {
            head,
            relation,
            tail,
            side,
        } => engine
            .rank(&Triple::new(*head, *relation, *tail), *side, scratch)
            .ok()
            .map(Answer::Rank),
        _ => None,
    }
}

/// Count the checked replies that match neither admissible snapshot.
fn check_replies(checks: &[Check], snapshots: &[PathBuf; 2]) -> (u64, u64) {
    // Index 0 is snapshot B (served first), index 1 snapshot A.
    let engines = [&snapshots[1], &snapshots[0]]
        .map(|p| KnowledgeServer::with_cache(load(p, None), CacheConfig::with_capacity(0)));
    let mut scratch = QueryScratch::default();
    let mut mismatched = 0;
    for check in checks {
        let stable = check.before == check.after && check.before % 2 == 0;
        let candidates: &[usize] = if stable {
            if (check.before / 2) % 2 == 0 {
                &[0]
            } else {
                &[1]
            }
        } else {
            &[0, 1]
        };
        let matched = candidates.iter().any(|&i| {
            reference(&engines[i], &check.request, &mut scratch).as_ref() == Some(&check.answer)
        });
        if !matched {
            mismatched += 1;
        }
    }
    (checks.len() as u64, mismatched)
}

/// Bind the server on the final snapshot and drive the nominal step, the
/// rate ladder and the reloads to the idle server, calling
/// `before_idle_reload` before each of those, once the server has been idle
/// for `IDLE_RELOAD_GAP`. `snapshots` are `[A, B]`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &ServeSpec,
    snapshots: &[PathBuf; 2],
    triples: &[Triple],
    seed: u64,
    seconds: f64,
    counters: Option<&Arc<ModelCounters>>,
    tracer: Option<(&Tracer, SpanId)>,
    before_idle_reload: &mut dyn FnMut(),
) -> ServeOutcome {
    let mut out = ServeOutcome::default();
    let loading = Instant::now();
    let model = load(&snapshots[1], counters);
    out.load_ms = loading.elapsed().as_secs_f64() * 1e3;
    let engine = KnowledgeServer::with_cache(model, CacheConfig::default());
    let server = NetServer::bind("127.0.0.1:0", engine.clone(), NetServerConfig::default())
        .expect("loopback listener binds");
    let keys = KeyDist::new(triples, KEYS, seed);
    let served = Served(AtomicU64::new(0));
    let absolute = |p: &PathBuf| {
        std::fs::canonicalize(p)
            .expect("snapshot exists")
            .to_string_lossy()
            .into_owned()
    };
    let ctx = Ctx {
        addr: server.addr(),
        keys: &keys,
        triples,
        served: &served,
        engine: &engine,
        // Reload target 0 is B, 1 is A (see `Served`).
        snapshots: [absolute(&snapshots[1]), absolute(&snapshots[0])],
        trace: tracer.is_some(),
    };
    let client_config = ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    };
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|c| Conn {
            client: NetClient::new(
                ctx.addr,
                ClientConfig {
                    seed: seed ^ c as u64,
                    ..client_config
                },
            ),
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c as u64)),
            sent: 0,
        })
        .collect();
    let phase_start = Instant::now();
    let mut reloader = Reloader {
        client: NetClient::new(ctx.addr, client_config),
        next: phase_start + RELOAD_EVERY,
        reload_ms: Vec::new(),
        failed: 0,
        window: None,
        post_reload: (0, 0),
        spans: Vec::new(),
    };

    let nominal_s = seconds * 0.5;
    let step_s = seconds * 0.06;
    let mut all_checks = Vec::new();
    let mut topk_latencies = Vec::new();
    let mut queue_max = 0;
    let mut step = |rate: f64,
                    duration: f64,
                    out: &mut ServeOutcome,
                    reloader: &mut Reloader|
     -> (StepResult, Vec<f64>) {
        let started = Instant::now();
        let logs: Vec<ConnLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        precise_sleeps();
                        run_connection(ctx, conn, i, rate, Duration::from_secs_f64(duration))
                    })
                })
                .collect();
            while !handles.iter().all(|h| h.is_finished()) {
                queue_max = queue_max.max(server.stats().in_flight);
                reloader.tick(&ctx);
                std::thread::sleep(POLL);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let result = summarize(rate, spec.slo_p99_ms, &logs);
        let topk: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.samples.iter())
            .filter(|s| s.kind == Kind::TopK && s.ok)
            .map(|s| f64::from(s.latency_ms))
            .collect();
        let span = tracer.map(|(t, parent)| {
            (
                t,
                t.record("serve.step", Some(parent), started, Instant::now()),
            )
        });
        for log in logs {
            out.sent += log.samples.len() as u64;
            out.failed += log.samples.iter().filter(|s| !s.ok).count() as u64;
            all_checks.extend(log.checks);
            if let Some((tracer, span)) = span {
                tracer.extend(log.spans, span);
            }
        }
        if let Some((tracer, span)) = span {
            tracer.extend(std::mem::take(&mut reloader.spans), span);
        }
        (result, topk)
    };

    let (nominal, nominal_topk) = step(spec.nominal_rate, nominal_s, &mut out, &mut reloader);
    out.nominal = nominal;
    topk_latencies.extend(nominal_topk);
    let nominal_reloads = reloader.reload_ms.len();

    // Coarse pass over every COARSE_STRIDE-th grid rate until one fails,
    // then the grid rates between the last pass and that failure.
    let rate_at = |k: usize| spec.ladder_base * LADDER_RATIO.powi(k as i32);
    let mut best: Option<usize> = None;
    let mut k = 0;
    let mut failed_at = None;
    while out.ladder.len() < MAX_LADDER_STEPS {
        let (result, topk) = step(rate_at(k), step_s, &mut out, &mut reloader);
        topk_latencies.extend(topk);
        out.ladder.push(result);
        if !result.passed {
            failed_at = Some(k);
            break;
        }
        best = Some(k);
        k += COARSE_STRIDE;
    }
    if let (Some(fail), Some(pass)) = (failed_at, best) {
        for k in (pass + 1..fail).take(MAX_LADDER_STEPS - out.ladder.len()) {
            let (result, topk) = step(rate_at(k), step_s, &mut out, &mut reloader);
            topk_latencies.extend(topk);
            out.ladder.push(result);
            if !result.passed {
                break;
            }
            best = Some(k);
        }
    }
    out.qps_at_slo = best.map_or(0.0, rate_at);

    // Reloads with no load beside them: their round trip is the reload's
    // own work (snapshot load, swap, cache invalidation) and one loopback
    // call, without the queueing behind requests that the reloads above see
    // and that varies with how loaded the host is.
    let idle_started = Instant::now();
    for _ in 0..IDLE_RELOADS {
        std::thread::sleep(IDLE_RELOAD_GAP);
        before_idle_reload();
        out.idle_reload_ms.extend(reloader.reload(&ctx));
    }
    if let Some((tracer, parent)) = tracer {
        let span = tracer.record(
            "serve.idle_reloads",
            Some(parent),
            idle_started,
            Instant::now(),
        );
        tracer.extend(std::mem::take(&mut reloader.spans), span);
    }

    let (hits, total) = reloader.post_reload;
    out.post_reload_hit_ratio = if total > 0 {
        hits as f64 / total as f64
    } else {
        0.0
    };
    out.decorated_s = RELOAD_EVERY
        .as_secs_f64()
        .min(phase_start.elapsed().as_secs_f64());
    out.sent += (reloader.reload_ms.len() + out.idle_reload_ms.len()) as u64 + reloader.failed;
    out.failed += reloader.failed;
    out.reload_failed = reloader.failed;
    out.nominal_reload_ms = reloader.reload_ms[..nominal_reloads].to_vec();
    out.reload_ms = reloader.reload_ms;
    out.client_topk_p50_us = median(&topk_latencies) * 1e3;
    out.queue_depth_max = queue_max;
    out.cache = engine.cache_stats();
    let registry = server.registry();
    out.stale = registry
        .counter_value("nsc_serve_stale_invalidations_total", &[])
        .unwrap_or(0);
    for (slot, op) in ["top_k", "score", "rank", "reload"].iter().enumerate() {
        let hist = registry.histogram_with("nsc_net_request_latency_us", &[("op", op)]);
        out.server_us[slot] = (hist.quantile(0.5) as f64, hist.quantile(0.99) as f64);
    }
    let stats = server.shutdown();
    out.shed = stats.shed;
    out.deadline_exceeded = stats.deadline_exceeded;
    out.degraded_fraction = stats.degraded_fraction();
    let (checked, mismatched) = check_replies(&all_checks, snapshots);
    out.checked = checked;
    out.mismatched = mismatched;
    out
}
