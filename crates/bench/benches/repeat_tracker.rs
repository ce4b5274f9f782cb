//! Bench: per-draw cost and table memory of the Figure 7(a) repeat tracker
//! (`nscaching_train::RepeatTracker`) at the shape of the `serve-zipf-reload`
//! benchmark workload's training phase.
//!
//! Run with `cargo bench -p nscaching-bench --bench repeat_tracker`.
//!
//! Workload: the fb15k237 analogue at full scale — 14,541 entities, 237
//! relations, 272,115 Bernoulli-style negatives per epoch (one per training
//! triple: head or tail replaced by a uniform entity), 14 epochs, the
//! trainer's default 20-epoch window. Each epoch's draws are generated
//! before its clock starts, so the measured time is `record` for every draw
//! plus `ratio` and `end_epoch` at the boundary — exactly what the trainer
//! calls.
//!
//! Records the `repeat_tracker` section of `BENCH_gradients.json`:
//! nanoseconds per draw (median of the runs, whole run and last epoch) and
//! the peak heap bytes the tracker held, counted by a wrapping global
//! allocator. The per-epoch ratio bits are folded into a digest that is
//! hard-asserted against a pinned constant, so a tracker that drifts from
//! the window definition fails the bench. There is no wall-clock gate.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching_kg::Triple;
use nscaching_math::seeded_rng;
use nscaching_train::RepeatTracker;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const NUM_ENTITIES: u32 = 14_541;
const NUM_RELATIONS: u32 = 237;
const DRAWS_PER_EPOCH: usize = 272_115;
const EPOCHS: usize = 14;
const WINDOW: usize = 20;
const RUNS: usize = 3;
const SEED: u64 = 0x007e_9ea7;

/// FNV-1a 64 over the little-endian bytes of every epoch's ratio bits.
const RATIO_DIGEST: u64 = 0x171c_d01f_fe5d_d800;

/// Live and peak heap bytes.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The training triples: one Bernoulli negative is drawn from each per
/// epoch.
fn positives() -> Vec<Triple> {
    let mut rng = seeded_rng(SEED);
    (0..DRAWS_PER_EPOCH)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..NUM_ENTITIES),
                rng.gen_range(0..NUM_RELATIONS),
                rng.gen_range(0..NUM_ENTITIES),
            )
        })
        .collect()
}

/// Fill `draws` with epoch `epoch`'s negatives: head or tail of every
/// positive replaced by a uniform entity.
fn fill_epoch(positives: &[Triple], epoch: usize, draws: &mut Vec<Triple>) {
    let mut rng = seeded_rng(SEED ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    draws.clear();
    draws.extend(positives.iter().map(|p| {
        let entity = rng.gen_range(0..NUM_ENTITIES);
        if rng.gen_range(0..2u32) == 0 {
            Triple::new(entity, p.relation, p.tail)
        } else {
            Triple::new(p.head, p.relation, entity)
        }
    }));
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One full run's measurements.
struct Run {
    ns_per_draw: f64,
    last_epoch_ns_per_draw: f64,
    peak_table_bytes: usize,
    digest: u64,
    final_ratio: f64,
}

fn run(positives: &[Triple], draws: &mut Vec<Triple>) -> Run {
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(baseline, Ordering::Relaxed);
    let mut tracker = RepeatTracker::new(WINDOW);
    let mut total_s = 0.0;
    let mut last_epoch_s = 0.0;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut final_ratio = 0.0;
    for epoch in 0..EPOCHS {
        fill_epoch(positives, epoch, draws);
        // The draw buffer is reused, so it never counts as tracker memory.
        let live_before = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.fetch_max(live_before, Ordering::Relaxed);
        let start = Instant::now();
        for &negative in draws.iter() {
            tracker.record(black_box(negative));
        }
        let ratio = tracker.ratio();
        tracker.end_epoch();
        let seconds = start.elapsed().as_secs_f64();
        total_s += seconds;
        last_epoch_s = seconds;
        digest = fnv1a(digest, ratio.to_bits());
        final_ratio = ratio;
    }
    let peak_table_bytes = PEAK_BYTES.load(Ordering::Relaxed) - baseline;
    drop(tracker);
    Run {
        ns_per_draw: total_s * 1e9 / (EPOCHS * DRAWS_PER_EPOCH) as f64,
        last_epoch_ns_per_draw: last_epoch_s * 1e9 / DRAWS_PER_EPOCH as f64,
        peak_table_bytes,
        digest,
        final_ratio,
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn measure_and_record(_c: &mut Criterion) {
    let positives = positives();
    let mut draws = Vec::with_capacity(DRAWS_PER_EPOCH);
    let runs: Vec<Run> = (0..RUNS).map(|_| run(&positives, &mut draws)).collect();
    let first = &runs[0];
    for r in &runs {
        assert_eq!(r.digest, first.digest, "runs of one stream must agree");
        assert_eq!(r.peak_table_bytes, first.peak_table_bytes);
    }
    let ns_per_draw = median(runs.iter().map(|r| r.ns_per_draw).collect());
    let last_epoch_ns = median(runs.iter().map(|r| r.last_epoch_ns_per_draw).collect());
    let peak_mb = first.peak_table_bytes as f64 / 1e6;
    println!(
        "repeat_tracker: {ns_per_draw:.1} ns/draw (last epoch {last_epoch_ns:.1} ns), \
         peak table {peak_mb:.1} MB, ratio digest {:#018x}, final ratio {:.6}",
        first.digest, first.final_ratio
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"num_entities\": {NUM_ENTITIES},\n    \"num_relations\": {NUM_RELATIONS},\n    \"draws_per_epoch\": {DRAWS_PER_EPOCH},\n    \"epochs\": {EPOCHS},\n    \"window\": {WINDOW},\n    \"stream\": \"one Bernoulli-style negative per random training triple per epoch (head or tail replaced by a uniform entity)\"\n  }},\n  \"runs\": {RUNS},\n  \"ns_per_draw\": {ns_per_draw:.1},\n  \"last_epoch_ns_per_draw\": {last_epoch_ns:.1},\n  \"peak_table_bytes\": {},\n  \"final_repeat_ratio\": {:.9},\n  \"ratio_digest\": \"{:#018x}\",\n  \"note\": \"median over runs; the clock covers record for every draw plus ratio and end_epoch, not the generation of the draws. Peak table bytes are heap bytes held by the tracker, counted by a wrapping global allocator. The digest of the per-epoch ratio bits is asserted against a pinned constant; there is no wall-clock gate\"\n}}",
        first.peak_table_bytes, first.final_ratio, first.digest
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gradients.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "gradients", "repeat_tracker", &section)
    {
        eprintln!("could not record BENCH_gradients.json at {path:?}: {e}");
    }

    assert_eq!(
        first.digest, RATIO_DIGEST,
        "the per-epoch repeat ratios moved: the tracker no longer matches the window definition"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = measure_and_record
}
criterion_main!(benches);
