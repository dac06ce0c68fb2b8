//! Spans of the traced repetition.
//!
//! Tracing lives entirely in the benchmark: the transport handed to
//! `StrategyClient` is wrapped so every `call`/`cast` it makes records a
//! span under the span of the publish/resolve that caused it. Spans stay
//! in a per-thread buffer while the repetition runs and are written out
//! afterwards. A `StrategyClient` runs its plan on the caller's own
//! thread, so a thread-local "current operation" links children to their
//! parent without touching the program.

use geometa_core::protocol::{RegistryRequest, RegistryResponse};
use geometa_core::transport::RegistryTransport;
use geometa_sim::topology::SiteId;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`; `parent` is the
/// `id` of the span that caused this one (0 for an operation's own span).
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier of the operation (unique per traced repetition).
    pub op: u64,
    /// Identifier of this span.
    pub id: u64,
    /// `id` of the causing span; 0 at the root.
    pub parent: u64,
    /// Layer boundary: `publish`/`resolve` (`core.client`), `call`/`cast`
    /// (`net.client`), or a cell label on `sim_figures`.
    pub name: Cow<'static, str>,
    /// Target site of a `call`/`cast`; -1 elsewhere.
    pub target: i32,
    /// Nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Nanoseconds since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// This thread's id prefix and how many spans it has started.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// `(op, span id)` of the operation this thread is executing.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Spans recorded by this thread, drained by [`take_spans`].
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// A span id no other thread hands out: a per-thread prefix in the high
/// bits, the thread's own running count in the low 40.
fn next_id() -> u64 {
    static THREADS: AtomicU64 = AtomicU64::new(1);
    IDS.with(|ids| {
        let (mut prefix, count) = ids.get();
        if prefix == 0 {
            prefix = THREADS.fetch_add(1, Ordering::Relaxed) << 40;
        }
        ids.set((prefix, count + 1));
        prefix | (count + 1)
    })
}

/// Run `body` as one operation, recording its span and making it the
/// parent of every transport span `body` causes on this thread.
pub fn in_op<R>(name: impl Into<Cow<'static, str>>, body: impl FnOnce() -> R) -> R {
    let id = next_id();
    CURRENT.with(|c| c.set((id, id)));
    let start_ns = now_ns();
    let out = body();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set((0, 0)));
    record(Span {
        op: id,
        id,
        parent: 0,
        name: name.into(),
        target: -1,
        start_ns,
        end_ns,
    });
    out
}

fn record(span: Span) {
    BUFFER.with(|b| b.borrow_mut().push(span));
}

/// Drain the calling thread's spans.
pub fn take_spans() -> Vec<Span> {
    BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// A transport that records a span around every `call` and `cast` of the
/// transport it wraps.
pub struct Traced<T> {
    inner: Arc<T>,
}

impl<T> Traced<T> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<T>) -> Traced<T> {
        Traced { inner }
    }
}

impl<T: RegistryTransport> Traced<T> {
    fn child<R>(&self, name: &'static str, target: SiteId, body: impl FnOnce() -> R) -> R {
        let (op, parent) = CURRENT.with(Cell::get);
        let start_ns = now_ns();
        let out = body();
        let end_ns = now_ns();
        // Transport use outside an operation (set-up, verification) is
        // not part of the trace.
        if op != 0 {
            record(Span {
                op,
                id: next_id(),
                parent,
                name: name.into(),
                target: i32::from(target.0),
                start_ns,
                end_ns,
            });
        }
        out
    }
}

impl<T: RegistryTransport> RegistryTransport for Traced<T> {
    fn call(&self, target: SiteId, req: RegistryRequest) -> RegistryResponse {
        self.child("call", target, || self.inner.call(target, req))
    }

    fn cast(&self, target: SiteId, req: RegistryRequest) {
        self.child("cast", target, || self.inner.cast(target, req))
    }

    fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn refresh_membership(&self) -> Option<(u64, Vec<SiteId>)> {
        self.inner.refresh_membership()
    }
}

/// Write `spans` as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"target\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.id, s.parent, s.name, s.target, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// What the spans of a traced repetition say about `core.client` and
/// `net.client`.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Median publish span minus its `call`/`cast` children, µs.
    pub publish_self_us: f64,
    /// Median resolve span minus its `call` children, µs.
    pub resolve_self_us: f64,
    /// Median `call` span, µs.
    pub call_p50_us: f64,
    /// 90th-percentile `call` span, µs.
    pub call_p90_us: f64,
    /// Mean `cast` span, ns.
    pub cast_ns: f64,
    /// `call` spans per publish, `call` spans per resolve, `cast` spans
    /// per publish.
    pub calls_per_publish: f64,
    /// See [`Self::calls_per_publish`].
    pub calls_per_resolve: f64,
    /// See [`Self::calls_per_publish`].
    pub casts_per_publish: f64,
    /// Sum of operation spans in ns (for `bench.span_sum_gap`).
    pub op_span_sum_ns: u64,
    /// Child spans whose parent is not an operation span of the same
    /// operation; must be 0.
    pub orphans: usize,
}

/// Summarise the spans of the live workloads: self time is a span's
/// duration minus the part its children cover (children of one operation
/// run back to back on one thread, so their durations simply add).
pub fn summarise(spans: &[Span]) -> SpanSummary {
    use std::collections::HashMap;
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    let mut calls = Vec::new();
    let (mut cast_sum, mut casts) = (0u64, 0u64);
    let roots: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.id, s))
        .collect();
    let mut orphans = 0;
    // Children counted by (operation name, child name).
    let mut kinds: HashMap<(&str, &str), f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        match roots.get(&s.parent) {
            Some(root) if root.op == s.op => {
                *kinds.entry((&root.name, &s.name)).or_default() += 1.0;
            }
            _ => orphans += 1,
        }
        *children_ns.entry(s.parent).or_default() += s.duration_ns();
        if s.name == "call" {
            calls.push(s.duration_ns());
        } else {
            cast_sum += s.duration_ns();
            casts += 1;
        }
    }
    let mut self_ns: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut op_span_sum_ns = 0;
    for root in roots.values() {
        op_span_sum_ns += root.duration_ns();
        let covered = children_ns.get(&root.id).copied().unwrap_or(0);
        self_ns
            .entry(root.name.as_ref())
            .or_default()
            .push(root.duration_ns().saturating_sub(covered));
    }
    let p50_us = |v: Option<&mut Vec<u64>>| {
        v.map_or(0.0, |v| {
            v.sort_unstable();
            crate::stats::percentile(v, 0.5) / 1e3
        })
    };
    calls.sort_unstable();
    let per_op = |op: &str, child: &str| {
        let ops = self_ns.get(op).map_or(1, Vec::len).max(1);
        kinds.get(&(op, child)).copied().unwrap_or(0.0) / ops as f64
    };
    SpanSummary {
        calls_per_publish: per_op("publish", "call"),
        calls_per_resolve: per_op("resolve", "call"),
        casts_per_publish: per_op("publish", "cast"),
        publish_self_us: p50_us(self_ns.get_mut("publish")),
        resolve_self_us: p50_us(self_ns.get_mut("resolve")),
        call_p50_us: crate::stats::percentile(&calls, 0.5) / 1e3,
        call_p90_us: crate::stats::percentile(&calls, 0.9) / 1e3,
        cast_ns: if casts == 0 {
            0.0
        } else {
            cast_sum as f64 / casts as f64
        },
        op_span_sum_ns,
        orphans,
    }
}
