//! The workloads and the metrics each run reports.

use crate::reference::ReferenceKernel;
use crate::report::{median, peak_rss_mb, quantile, tail_quantile, trimmed_mean, Metrics};
use crate::serve::{self, ServeOutcome, ServeSpec};
use crate::timing::{BatchMarks, ModelCounters};
use crate::trace::{render, Tracer};
use crate::train::{self, Instruments, SamplerSpec, TrainOutcome, TrainSpec};
use nscaching_datagen::BenchmarkFamily;
use nscaching_obs::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Mini-batch size of every workload (the experiment binaries' setting).
pub const BATCH_SIZE: usize = 256;

/// Share of the mini-batch times cut from each end before
/// `train_examples_per_s` averages them. The host alternates between a fast
/// and a slow speed every few seconds, so within one run the batch times
/// are bimodal. Any single quantile then jumps from one mode to the other as
/// the share of the run the host spent fast crosses that quantile; the mean
/// moves smoothly with the share, and the trim keeps rare stalls out
/// (README.md, "Trimmed mean").
const BATCH_TRIM: f64 = 0.1;

/// Units of the reference kernel timed after every epoch and after serving.
const REFERENCE_UNITS: usize = 6;
/// Units of the reference kernel timed before each reload to the idle
/// server; `reload_p50_ms` is scaled by these alone, since the host's speed
/// while it serves can differ from its speed while the run trains.
const RELOAD_REFERENCE_UNITS: usize = 2;

/// One workload: a training run followed by a serving phase on its result.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub train: TrainSpec,
    pub serve: ServeSpec,
    /// Time of one unit of the reference kernel, on this workload's table
    /// shape, that the timings are scaled to, seconds. Roughly the unit's
    /// time on the baseline host in a fast phase; any fixed value would do,
    /// since it only scales the metrics.
    pub reference_unit_s: f64,
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "nscaching-transe-seq",
        train: TrainSpec {
            family: BenchmarkFamily::Wn18rr,
            scale: 0.1,
            dim: 32,
            sampler: SamplerSpec::NsCaching { n1: 50, n2: 50 },
            epochs: 50,
            setup_every: 2,
            eval_max: None,
            eval_threads: 1,
            target_mrr: 0.032,
        },
        serve: ServeSpec {
            nominal_rate: 2000.0,
            ladder_base: 3000.0,
            slo_p99_ms: 2.0,
        },
        reference_unit_s: 0.002,
    },
    Workload {
        name: "serve-zipf-reload",
        train: TrainSpec {
            family: BenchmarkFamily::Fb15k237,
            scale: 1.0,
            dim: 64,
            sampler: SamplerSpec::Bernoulli,
            epochs: 14,
            setup_every: 2,
            eval_max: Some(200),
            eval_threads: 2,
            target_mrr: 0.009,
        },
        serve: ServeSpec {
            nominal_rate: 400.0,
            ladder_base: 400.0,
            slo_p99_ms: 5.0,
        },
        reference_unit_s: 0.006,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A finished run: the result line's fields plus human-readable lines.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub lines: Vec<String>,
}

/// Where a run keeps its snapshots; removed when the run ends.
struct SnapshotDir(PathBuf);

impl SnapshotDir {
    fn new(workload: &str) -> Self {
        let dir = Path::new(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("snapshot directory under the working directory");
        Self(dir)
    }

    fn snapshots(&self) -> [PathBuf; 2] {
        [self.0.join("a.snap"), self.0.join("b.snap")]
    }
}

impl Drop for SnapshotDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds once empty
        }
    }
}

/// Run `workload` once. With `traced`, the run also trains an undecorated
/// copy first, to check the traced trajectory against it bit for bit and to
/// price the tracing.
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let dir = SnapshotDir::new(workload.name);
    let snapshots = dir.snapshots();
    if traced {
        run_traced(workload, seed, seconds, &snapshots)
    } else {
        run_untraced(workload, seed, seconds, &snapshots)
    }
}

fn run_untraced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    snapshots: &[PathBuf; 2],
) -> RunResult {
    let spec = &workload.train;
    // Further set-up repetitions run between epochs and after serving, so
    // they sample the host over the whole run; each runs in a child process
    // and so never adds to this process's memory. The reference kernel runs
    // at the same points (README.md, "Host-speed reference").
    let clock = BatchMarks::default();
    let mut setup = train::setup(spec, seed, Some(&clock), None, None);
    let mut setup_s = vec![setup.setup_s];
    let mut reference = ReferenceKernel::new(setup.dataset.num_entities(), spec.dim);
    let mut reference_s = Vec::new();
    let mut reload_reference_s = Vec::new();
    // One untimed unit first brings the kernel's table back into the cache,
    // so the timed units do not depend on how much of the cache the program
    // used before them.
    let mut time_reference = |into: &mut Vec<f64>, units| {
        reference.time_unit();
        into.extend((0..units).map(|_| reference.time_unit()));
    };
    let outcome = train::run_epochs(
        spec,
        &mut setup.trainer,
        Some(&clock),
        &snapshots[0],
        &snapshots[1],
        None,
        &mut |epoch| {
            time_reference(&mut reference_s, REFERENCE_UNITS);
            if (epoch + 1) % spec.setup_every == 0 {
                setup_s.push(setup_in_child(workload, seed));
            }
        },
    );
    let trained_rss = peak_rss_mb();
    let mut lines = describe(workload, &setup.dataset, seed);
    let triples = train::query_triples(&setup.dataset);
    drop(setup);
    let serve = serve::run(
        &workload.serve,
        snapshots,
        &triples,
        seed,
        seconds,
        None,
        None,
        &mut || time_reference(&mut reload_reference_s, RELOAD_REFERENCE_UNITS),
    );
    // The kernel's RSS counters are approximate, so a later read can come
    // out a little lower; the peak is the larger.
    let peak_rss = peak_rss_mb().max(trained_rss);
    time_reference(&mut reference_s, REFERENCE_UNITS);
    setup_s.push(setup_in_child(workload, seed));
    lines.push(format!(
        "memory: VmHWM {trained_rss:.1} MB after set-up and training, {peak_rss:.1} MB after serving"
    ));
    lines.extend(serve_lines(&serve));
    lines.push(format!(
        "train: epoch_s={:?} eval_s={:?} mrr={:?}",
        outcome.epoch_s, outcome.eval_s, outcome.mrr
    ));
    lines.push(format!("setup: repetitions_s={setup_s:?}"));
    // Lower quartile, median, trimmed mean and tail of the repeated timings.
    for (name, samples) in [
        ("setup_s", &setup_s),
        ("train batch_s", &outcome.batch_s),
        ("reference unit_s", &reference_s),
    ] {
        let (label, q) = match tail_quantile(samples.len()) {
            ("p50", _) => ("max", 1.0),
            tail => tail,
        };
        lines.push(format!(
            "{name}: n={} p25={} p50={} trimmed_mean={} {label}={}",
            samples.len(),
            quantile(samples, 0.25),
            median(samples),
            trimmed_mean(samples, BATCH_TRIM),
            quantile(samples, q)
        ));
    }

    // The gated timings are scaled to the reference host speed; the
    // measured values are printed beside them.
    let host_speed = workload.reference_unit_s / trimmed_mean(&reference_s, BATCH_TRIM);
    let reload_host_speed =
        workload.reference_unit_s / trimmed_mean(&reload_reference_s, BATCH_TRIM);
    let setup_median = median(&setup_s);
    let train_rate = BATCH_SIZE as f64 / trimmed_mean(&outcome.batch_s, BATCH_TRIM);
    let reload_median = median(&serve.idle_reload_ms);
    // Printed only: on a shared two-core host the run-to-run spread of most
    // of these is wider than any bound the benchmark may set (README.md).
    let mut shown = Metrics::default();
    shown.put_n("host_speed", host_speed, "ratio", reference_s.len());
    shown.put_n(
        "reload_host_speed",
        reload_host_speed,
        "ratio",
        reload_reference_s.len(),
    );
    shown.put_n("setup_s_unscaled", setup_median, "s", setup_s.len());
    shown.put_n(
        "train_examples_per_s_unscaled",
        train_rate,
        "1/s",
        outcome.batch_s.len(),
    );
    shown.put_n(
        "reload_p50_ms_unscaled",
        reload_median,
        "ms",
        serve.idle_reload_ms.len(),
    );
    shown.put_n(
        "reload_under_load_p50_ms",
        median(&serve.nominal_reload_ms),
        "ms",
        serve.nominal_reload_ms.len(),
    );
    shown.put(
        "time_to_target_s",
        outcome.time_to_target_s.unwrap_or(0.0),
        "s",
    );
    shown.put_n(
        "final_mrr",
        outcome.final_mrr(),
        "ratio",
        outcome.eval_queries as usize,
    );
    shown.put_n(
        "final_hits_at_10",
        outcome.final_hits_at_10,
        "%",
        outcome.eval_queries as usize,
    );
    shown.put_n(
        "serve_p50_ms",
        serve.nominal.p50_ms,
        "ms",
        serve.nominal.sent,
    );
    shown.put_n(
        "serve_p99_ms",
        serve.nominal.p99_ms,
        "ms",
        serve.nominal.sent,
    );
    shown.put_n(
        "serve_qps_at_slo",
        serve.qps_at_slo,
        "1/s",
        serve.ladder.len(),
    );
    shown.put_n(
        "serve_error_ratio",
        serve.failed as f64 / serve.sent.max(1) as f64,
        "ratio",
        serve.sent as usize,
    );
    for metric in shown.items() {
        lines.push(format!(
            "metric (not gated) {} = {} {} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        ));
    }

    let mut m = Metrics::default();
    m.put_n("setup_s", setup_median * host_speed, "s", setup_s.len());
    m.put_n(
        "train_examples_per_s",
        train_rate / host_speed,
        "1/s",
        outcome.batch_s.len(),
    );
    m.put_n(
        "reload_p50_ms",
        reload_median * reload_host_speed,
        "ms",
        serve.idle_reload_ms.len(),
    );
    m.put("peak_rss_mb", peak_rss, "MB");
    finish(workload, &outcome, &serve, None, m, lines)
}

fn run_traced(workload: &Workload, seed: u64, seconds: f64, snapshots: &[PathBuf; 2]) -> RunResult {
    let spec = &workload.train;
    // The undecorated reference run, same seed.
    let mut bare = train::setup(spec, seed, None, None, None);
    let reference = train::run_epochs(
        spec,
        &mut bare.trainer,
        None,
        &snapshots[0],
        &snapshots[1],
        None,
        &mut |_| {},
    );
    drop(bare);

    let tracer = Tracer::new();
    let root = tracer.open("run", None);
    let instruments = Instruments::new();
    let mut setup = train::setup(spec, seed, None, Some(&instruments), Some((&tracer, root)));
    let train_span = tracer.open("train", Some(root));
    let outcome = train::run_epochs(
        spec,
        &mut setup.trainer,
        None,
        &snapshots[0],
        &snapshots[1],
        Some((&tracer, train_span)),
        &mut |_| {},
    );
    tracer.close(train_span);
    let triples = train::query_triples(&setup.dataset);
    drop(setup.trainer);
    let serve_counters = Arc::new(ModelCounters::default());
    let serve_span = tracer.open("serve", Some(root));
    let serve = serve::run(
        &workload.serve,
        snapshots,
        &triples,
        seed,
        seconds,
        Some(&serve_counters),
        Some((&tracer, serve_span)),
        &mut || {},
    );
    tracer.close(serve_span);
    tracer.close(root);

    let same_trajectory =
        bits(&reference.mrr) == bits(&outcome.mrr) && bits(&reference.loss) == bits(&outcome.loss);
    let mut lines = describe(workload, &setup.dataset, seed);
    lines.push(format!(
        "check: traced trajectory {} the untraced one (final_mrr {} vs {})",
        if same_trajectory {
            "matches"
        } else {
            "DIFFERS FROM"
        },
        outcome.final_mrr(),
        reference.final_mrr()
    ));
    let mut m = Metrics::default();
    m.put("datagen.generate_s", setup.generate_s, "s");
    m.put("kg.train_data_s", setup.train_data_s, "s");
    core_metrics(&mut m, spec, &outcome, &instruments);
    model_metrics(&mut m, &instruments.model, &serve_counters, &serve);
    train_metrics(&mut m, &outcome, &instruments.registry);
    eval_metrics(&mut m, &outcome);
    serve_metrics(&mut m, &serve);
    m.put(
        "serve.snapshot_save_ms",
        median(&outcome.save_s) * 1e3,
        "ms",
    );
    m.put(
        "trace.overhead",
        outcome.train_s / reference.train_s,
        "ratio",
    );
    m.put("trace.spans", tracer.spans().len() as f64, "count");
    lines.extend(serve_lines(&serve));

    let out_dir = Path::new(".perfbench_out");
    let trace_path = out_dir.join(format!("trace-{}-seed{seed}.tsv", workload.name));
    match std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&trace_path, render(&tracer.spans())))
    {
        Ok(()) => lines.push(format!("trace written to {}", trace_path.display())),
        Err(e) => lines.push(format!("trace not written: {e}")),
    }
    finish(workload, &outcome, &serve, Some(same_trajectory), m, lines)
}

/// Run one set-up in a fresh child process (this program with
/// `--setup-only 1`) and return the time it reports, seconds.
fn setup_in_child(workload: &Workload, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--workload", workload.name, "--seed", &seed.to_string()])
        .args(["--setup-only", "1"])
        .output()
        .expect("start a set-up repetition");
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse() {
        Ok(seconds) if out.status.success() => seconds,
        _ => panic!(
            "set-up repetition failed ({}): {stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

/// One set-up of `workload`, timed; what `--setup-only 1` prints.
pub fn setup_only(workload: &Workload, seed: u64) -> f64 {
    train::setup(&workload.train, seed, None, None, None).setup_s
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn describe(workload: &Workload, dataset: &nscaching_kg::Dataset, seed: u64) -> Vec<String> {
    vec![format!(
        "workload {} seed {seed}: {} entities, {} relations, {} train, {} valid, {} test; \
         available_parallelism {}",
        workload.name,
        dataset.num_entities(),
        dataset.num_relations(),
        dataset.train.len(),
        dataset.valid.len(),
        dataset.test.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )]
}

fn serve_lines(serve: &ServeOutcome) -> Vec<String> {
    let mut lines = Vec::new();
    let (label, q) = tail_quantile(serve.nominal.sent);
    for (name, step) in std::iter::once(("nominal", &serve.nominal))
        .chain(serve.ladder.iter().map(|s| ("ladder", s)))
    {
        lines.push(format!(
            "serve {name} {:.0}/s: n={} p50={:.4}ms p99={:.4}ms lag_p99={:.4}ms \
             lag_growth={:.4}ms failed={} {}",
            step.rate,
            step.sent,
            step.p50_ms,
            step.p99_ms,
            step.lag_p99_ms,
            step.lag_growth_ms,
            step.failed,
            if step.passed { "pass" } else { "FAIL" }
        ));
    }
    lines.push(format!(
        "serve: nominal tail percentile with >=10 samples beyond is {label} ({q}); \
         qps_at_slo={:.1} reloads={} (failed {}) reload_p50={:.3}ms checked={} mismatched={}",
        serve.qps_at_slo,
        serve.reload_ms.len(),
        serve.reload_failed,
        median(&serve.reload_ms),
        serve.checked,
        serve.mismatched
    ));
    lines
}

fn finish(
    workload: &Workload,
    outcome: &TrainOutcome,
    serve: &ServeOutcome,
    same_trajectory: Option<bool>,
    mut metrics: Metrics,
    mut lines: Vec<String>,
) -> RunResult {
    let reached = outcome.time_to_target_s.is_some();
    if !reached {
        lines.push(format!(
            "FAILED: filtered MRR never reached the target {} (trajectory {:?})",
            workload.train.target_mrr, outcome.mrr
        ));
    }
    let deterministic = same_trajectory.unwrap_or(true);
    let epochs = outcome.epoch_s.len() as u64;
    // Operations: each epoch, each evaluation, each serve request and, in a
    // traced run, the trajectory comparison.
    let attempted = 2 * epochs + serve.sent + u64::from(same_trajectory.is_some());
    let failed = serve.failed + serve.mismatched + u64::from(!reached) + u64::from(!deterministic);
    let correct = reached && deterministic && serve.mismatched == 0 && serve.reload_failed == 0;
    if same_trajectory.is_some() {
        metrics.put("bench.sent", serve.sent as f64, "count");
        metrics.put(
            "bench.succeeded",
            (serve.sent - serve.failed) as f64,
            "count",
        );
        metrics.put("bench.failed", failed as f64, "count");
        metrics.put("bench.checked", serve.checked as f64, "count");
        metrics.put("bench.mismatched", serve.mismatched as f64, "count");
        metrics.put("bench.gen_lag_ms_p99", serve.nominal.lag_p99_ms, "ms");
    }
    lines.push(format!(
        "operations: attempted={attempted} succeeded={} failed={failed}",
        attempted - failed
    ));
    for metric in metrics.items() {
        lines.push(format!(
            "metric {} = {} {} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        ));
    }
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    }
}

fn core_metrics(m: &mut Metrics, spec: &TrainSpec, outcome: &TrainOutcome, inst: &Instruments) {
    let s = &inst.sampler;
    m.put("core.sample_calls", s.sample.calls() as f64, "count");
    m.put("core.sample_s", s.sample.seconds(), "s");
    m.put("core.update_calls", s.update.calls() as f64, "count");
    m.put("core.update_s", s.update.seconds(), "s");
    m.put("core.update_self_s", s.update_self_seconds(), "s");
    let n1 = match spec.sampler {
        SamplerSpec::NsCaching { n1, .. } => n1 as f64,
        SamplerSpec::Bernoulli => 0.0,
    };
    let refreshes = s.refreshes.load(Ordering::Relaxed) as f64;
    let changed = outcome.changed_cache_elements as f64;
    m.put(
        "core.refresh_change_ratio",
        if refreshes * n1 > 0.0 {
            changed / (refreshes * n1)
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "core.nonzero_loss_ratio",
        outcome.nonzero_loss_ratio,
        "ratio",
    );
    m.put("core.repeat_ratio", outcome.repeat_ratio, "ratio");
    m.put(
        "core.cache_bytes",
        s.cache_bytes.load(Ordering::Relaxed) as f64,
        "B",
    );
}

fn model_metrics(
    m: &mut Metrics,
    train: &ModelCounters,
    serve: &ModelCounters,
    out: &ServeOutcome,
) {
    let candidates = train.candidates_scored();
    m.put(
        "models.score_candidates_calls",
        train.score_candidates.calls() as f64,
        "count",
    );
    m.put("models.candidates_scored", candidates as f64, "count");
    m.put(
        "models.ns_per_candidate",
        if candidates > 0 {
            train.score_candidates.seconds() * 1e9 / candidates as f64
        } else {
            0.0
        },
        "ns",
    );
    m.put(
        "models.score_all_calls",
        train.score_all.calls() as f64,
        "count",
    );
    m.put("models.score_all_s", train.score_all.seconds(), "s");
    m.put(
        "models.grad_emit_calls",
        train.grad_emit.calls() as f64,
        "count",
    );
    m.put("models.grad_emit_s", train.grad_emit.seconds(), "s");
    m.put("models.score_calls", train.score.calls() as f64, "count");
    m.put("models.score_s", train.score.seconds(), "s");
    m.put(
        "models.serve_score_all_calls",
        serve.score_all.calls() as f64,
        "count",
    );
    m.put("models.serve_score_all_s", serve.score_all.seconds(), "s");
    m.put("models.serve_decorated_s", out.decorated_s, "s");
}

fn train_metrics(m: &mut Metrics, outcome: &TrainOutcome, registry: &MetricsRegistry) {
    m.put("train.epoch_s", outcome.train_s, "s");
    for (phase, prefix) in [
        ("sample_score", "train.sample_score"),
        ("shard", "train.shard"),
        ("merge", "train.merge"),
        ("apply", "optim.apply"),
    ] {
        let snap = registry
            .histogram_with("nsc_train_phase_us", &[("phase", phase)])
            .snapshot();
        m.put(format!("{prefix}_s"), snap.sum as f64 * 1e-6, "s");
        m.put(format!("{prefix}_p50_us"), snap.p50 as f64, "us");
        m.put(format!("{prefix}_p99_us"), snap.p99 as f64, "us");
    }
    let apply = m.get("optim.apply_s").unwrap_or(0.0);
    m.put("optim.apply_share", apply / outcome.train_s, "ratio");
    m.put(
        "train.overlap_ratio",
        registry
            .gauge_value("nsc_train_pipeline_overlap_ratio", &[])
            .unwrap_or(0.0),
        "ratio",
    );
    m.put(
        "train.shard_imbalance",
        registry
            .gauge_value("nsc_train_shard_imbalance", &[])
            .unwrap_or(0.0),
        "ratio",
    );
}

fn eval_metrics(m: &mut Metrics, outcome: &TrainOutcome) {
    let eval_s: f64 = outcome.eval_s.iter().sum();
    let calls = outcome.eval_s.len() as f64;
    let triples = outcome.eval_queries as f64 / 2.0 * calls;
    m.put("eval.calls", calls, "count");
    m.put("eval.s", eval_s, "s");
    m.put("eval.triples", triples, "count");
    m.put("eval.us_per_triple", eval_s * 1e6 / triples, "us");
    m.put("eval.share", eval_s / (eval_s + outcome.train_s), "ratio");
}

fn serve_metrics(m: &mut Metrics, serve: &ServeOutcome) {
    m.put("serve.hit_ratio", serve.cache.hit_rate(), "ratio");
    m.put("serve.misses", serve.cache.misses as f64, "count");
    m.put("serve.rejections", serve.cache.rejections as f64, "count");
    m.put("serve.stale", serve.stale as f64, "count");
    m.put(
        "serve.post_reload_hit_ratio",
        serve.post_reload_hit_ratio,
        "ratio",
    );
    m.put("serve.load_ms", serve.load_ms, "ms");
    for (slot, op) in ["topk", "score", "rank", "reload"].iter().enumerate() {
        m.put(
            format!("net.server_us_p50.{op}"),
            serve.server_us[slot].0,
            "us",
        );
        m.put(
            format!("net.server_us_p99.{op}"),
            serve.server_us[slot].1,
            "us",
        );
    }
    m.put(
        "net.transport_us_p50",
        serve.client_topk_p50_us - serve.server_us[0].0,
        "us",
    );
    m.put("net.shed", serve.shed as f64, "count");
    m.put(
        "net.deadline_exceeded",
        serve.deadline_exceeded as f64,
        "count",
    );
    m.put("net.degraded_fraction", serve.degraded_fraction, "ratio");
    m.put("net.queue_depth_max", serve.queue_depth_max as f64, "count");
}
