//! The benchmark's own span recorder. Spans are taken around calls into
//! each layer's public functions, kept in memory and written out once at
//! the end of a traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `partition`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in nanoseconds since the recorder was created (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Round or request id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store, shared by the solve workers of one round.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Close `id` now.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id` in nanoseconds.
    pub fn nanos(&self, id: SpanId) -> u64 {
        self.lock()[id].nanos()
    }

    /// Per-name totals: `(calls, total duration, self time)` in
    /// nanoseconds. Self time is a span's duration minus the part of it
    /// its children cover; children that ran in parallel are merged so
    /// overlapping time is subtracted once.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = covered(&mut children[i], s.start, s.end);
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total += s.nanos();
            t.self_time += s.nanos().saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        f.flush()
    }
}

/// Time of `[start, end)` covered by the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Aggregate of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, ns.
    pub total: u64,
    /// Summed self time, ns.
    pub self_time: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once() {
        let mut iv = vec![(10, 30), (20, 40), (50, 60)];
        assert_eq!(covered(&mut iv, 0, 100), 40);
        let mut clipped = vec![(0, 200)];
        assert_eq!(covered(&mut clipped, 0, 100), 100);
    }
}
