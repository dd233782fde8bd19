//! RAII span guards with parent/child nesting.
//!
//! A span opens when [`crate::ObsHandle::span`] is called and closes,
//! exactly once, at [`SpanGuard::finish`] or when the guard drops; the
//! finished record lands in a bounded ring. Nesting is tracked per thread:
//! the span on top of the calling thread's stack when a new span opens
//! becomes its parent. A disabled handle returns an inert guard — no clock
//! read, no allocation, no thread-local traffic.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock;

/// A finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the process (never 0).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Span name (phase or route label).
    pub name: Cow<'static, str>,
    /// Small dense id of the thread that ran the span.
    pub tid: u64,
    /// Start, nanoseconds on the [`clock`] timeline.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached key/value arguments (e.g. `status`, `column`).
    pub args: Vec<(&'static str, String)>,
}

/// Bounded sink of finished spans (oldest dropped on overflow).
#[derive(Debug)]
pub(crate) struct SpanSink {
    ring: Mutex<VecDeque<SpanRecord>>,
    cap: usize,
    dropped: AtomicU64,
}

impl SpanSink {
    pub(crate) fn new(cap: usize) -> Self {
        SpanSink {
            ring: Mutex::new(VecDeque::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, rec: SpanRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    pub(crate) fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Dense per-thread id, assigned on first span use.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Stack of open span ids on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for an open span. Dropping it records the span.
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<SpanActive>,
}

#[derive(Debug)]
struct SpanActive {
    sink: Arc<SpanSink>,
    name: Cow<'static, str>,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// An inert guard (disabled observability).
    pub(crate) fn inert() -> Self {
        SpanGuard { state: None }
    }

    pub(crate) fn open(sink: Arc<SpanSink>, name: Cow<'static, str>) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let tid = TID.with(|t| *t);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard {
            state: Some(SpanActive {
                sink,
                name,
                id,
                parent,
                tid,
                start_ns: clock::now_nanos(),
                args: Vec::new(),
            }),
        }
    }

    /// Attach a key/value argument (shows up under `args` in the trace).
    pub fn arg(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(s) = &mut self.state {
            s.args.push((key, value.into()));
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// Closes the span now and returns the duration it recorded. An inert
    /// guard returns [`Duration::ZERO`] without reading the clock.
    pub fn finish(mut self) -> Duration {
        Duration::from_nanos(self.close())
    }

    /// The one close path shared by [`SpanGuard::finish`] and `Drop`:
    /// records the span (once — the state is taken) and returns its
    /// duration in nanoseconds, or 0 for an inert or already-closed guard.
    fn close(&mut self) -> u64 {
        let Some(s) = self.state.take() else { return 0 };
        let end = clock::now_nanos();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // pop up to and including this span; tolerates out-of-order
            // drops from moved guards without poisoning the stack
            if let Some(pos) = open.iter().rposition(|&id| id == s.id) {
                open.truncate(pos);
            }
        });
        let dur_ns = end.saturating_sub(s.start_ns);
        s.sink.push(SpanRecord {
            id: s.id,
            parent: s.parent,
            name: s.name,
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns,
            args: s.args,
        });
        dur_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(sink: &Arc<SpanSink>, name: &'static str) -> SpanGuard {
        SpanGuard::open(Arc::clone(sink), Cow::Borrowed(name))
    }

    #[test]
    fn nesting_links_parent_to_child() {
        let sink = Arc::new(SpanSink::new(16));
        {
            let _outer = open(&sink, "outer");
            {
                let mut inner = open(&sink, "inner");
                inner.arg("k", "v");
            }
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.tid, outer.tid);
        assert_eq!(inner.args, vec![("k", "v".to_string())]);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn threads_interleave_without_cross_linking() {
        let sink = Arc::new(SpanSink::new(64));
        let mut roots = vec![];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    let _root = SpanGuard::open(Arc::clone(&sink), Cow::Borrowed("root"));
                    for _ in 0..3 {
                        let _child = SpanGuard::open(Arc::clone(&sink), Cow::Borrowed("child"));
                    }
                });
            }
        });
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 16);
        for s in spans.iter().filter(|s| s.name == "root") {
            assert_eq!(s.parent, 0);
            roots.push((s.id, s.tid));
        }
        // every child's parent is the root that ran on the same thread
        for s in spans.iter().filter(|s| s.name == "child") {
            let (root_id, root_tid) = *roots.iter().find(|(id, _)| *id == s.parent).unwrap();
            assert_eq!(root_id, s.parent);
            assert_eq!(root_tid, s.tid);
        }
        // four distinct threads, four distinct tids
        let mut tids: Vec<u64> = roots.iter().map(|(_, t)| *t).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let sink = Arc::new(SpanSink::new(2));
        for _ in 0..5 {
            let _s = open(&sink, "s");
        }
        assert_eq!(sink.snapshot().len(), 2);
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn inert_guard_records_nothing() {
        let mut g = SpanGuard::inert();
        g.arg("k", "v");
        assert!(!g.is_active());
        drop(g);
    }

    #[test]
    fn finish_returns_the_recorded_duration_once() {
        assert_eq!(SpanGuard::inert().finish(), Duration::ZERO);

        let sink = Arc::new(SpanSink::new(16));
        let outer = open(&sink, "outer");
        let inner = open(&sink, "inner");
        let dur = inner.finish();
        // finished spans leave the nesting stack: the next one is a
        // sibling of `inner`, not its child
        let sibling = open(&sink, "sibling");
        drop(sibling);
        drop(outer);

        let spans = sink.snapshot();
        assert_eq!(
            spans.len(),
            3,
            "finish must not record a second time at drop"
        );
        let rec = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(dur, Duration::from_nanos(rec.dur_ns));
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sibling.parent, outer.id);
    }
}
