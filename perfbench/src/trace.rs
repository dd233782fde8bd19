//! The benchmark's own span recorder: the traced run wraps each call into
//! a layer's public API in a span, keeps every span in memory, and writes
//! them out once at the end. Self time is a span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::now;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder (its id).
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the top-level span this one belongs to: every span of one
    /// operation (a fit, a draw, a request, a replay) shares it.
    pub op: usize,
    /// Layer-qualified name, e.g. `core.train`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records nested spans when enabled; always measures. A disabled
/// recorder still returns each call's duration (the untraced run needs
/// those for its end-to-end metrics) but keeps nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled` selects whether spans are kept.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the wall time it took, in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let op = parent.map_or(id, |p| self.spans[p].op);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let secs = start.elapsed().as_secs_f64();
        self.spans[id].end_ns = self.now_ns();
        (out, secs)
    }

    /// Nanoseconds from the recorder's creation to `t` (0 if earlier).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds a span measured elsewhere (a client thread's request phases)
    /// under `parent`, or under the currently open span when `parent` is
    /// `None`. Returns its id (meaningless when disabled).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        if !self.enabled {
            return id;
        }
        let parent = parent.or_else(|| self.open.last().copied());
        let op = parent.map_or(id, |p| self.spans[p].op);
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (calls, total seconds, self seconds).
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[s.id]);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.time("outer", |t| {
            t.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 0);
        let st = t.self_times();
        let (calls, total, own) = st["outer"];
        assert_eq!(calls, 1);
        assert!(own < total, "outer self time must exclude the child");
        assert!(st["inner"].2 >= 0.004);
    }

    #[test]
    fn disabled_tracer_measures_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
