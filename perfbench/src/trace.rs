//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it. Spans are
//! appended to one vector while the run lasts and written out when it ends;
//! nothing is formatted or written on the measured path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `train.epoch` or `net.request.top_k`.
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
}

/// Collects spans; cheap to share by reference across threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished interval and return its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent,
        };
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserve an id for a span whose children are recorded before it ends;
    /// [`Tracer::close`] fills in its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Set the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let end = self.micros(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].end_us = end;
    }

    /// Append spans gathered elsewhere (e.g. per generator thread) under
    /// `parent`.
    pub fn extend(&self, batch: Vec<(&'static str, Instant, Instant)>, parent: SpanId) {
        let converted: Vec<Span> = batch
            .into_iter()
            .map(|(name, start, end)| Span {
                name,
                start_us: self.micros(start),
                end_us: self.micros(end),
                parent: Some(parent),
            })
            .collect();
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .extend(converted);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Each span's self time: its duration minus the part of it covered by the
/// union of its children's intervals (children may overlap, e.g. requests
/// of two connections under one rate step).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_us, span.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = span.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_us - span.start_us - covered).max(0.0)
        })
        .collect()
}

/// The trace as text: a per-name summary (count, total and self time) and
/// then one line per span.
pub fn render(spans: &[Span]) -> String {
    let selfs = self_times_us(spans);
    let mut summary: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for (span, self_us) in spans.iter().zip(&selfs) {
        let entry = summary.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_us - span.start_us;
        entry.2 += self_us;
    }
    let mut out = String::from("# name\tcount\ttotal_us\tself_us\n");
    for (name, (count, total, own)) in &summary {
        let _ = writeln!(out, "# {name}\t{count}\t{total:.1}\t{own:.1}");
    }
    out.push_str("id\tname\tstart_us\tend_us\tparent\tself_us\n");
    for (id, (span, self_us)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{}\t{:.1}\t{:.1}\t{parent}\t{self_us:.1}",
            span.name, span.start_us, span.end_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("step", 0.0, 100.0, None),
            span("req", 10.0, 30.0, Some(0)),
            span("req", 20.0, 40.0, Some(0)),
            span("req", 90.0, 120.0, Some(0)),
        ];
        let selfs = self_times_us(&spans);
        // Children cover 10..40 and 90..100 inside the parent.
        assert_eq!(selfs[0], 60.0);
        assert_eq!(selfs[1], 20.0);
    }
}
