//! The observability layer: deterministic structured query traces and a
//! shared metrics registry, dependency-free.
//!
//! The paper's §7 experiments report only end-to-end elapsed time per
//! site; this crate makes every layer of a query observable — UR plan
//! steps, logical rewrites, VPS handle invocations, navigation steps,
//! fetch attempts with their retry/breaker/budget disposition, repair
//! events, and cache hits — as a span tree ([`QueryTrace`]) stamped with
//! the *simulated* clock, plus monotone counters and latency histograms
//! ([`MetricsRegistry`]). Because webworld is deterministic, a trace is
//! a complete, diffable description of execution: per seed it is
//! byte-identical run to run, which is what the golden-trace tests
//! assert.
//!
//! Both halves ride in one clone-cheap handle, [`Obs`], threaded down
//! the layer stack exactly like `BudgetTracker`. The default handle is
//! fully disabled and costs one branch per instrumentation point.

mod metrics;
pub mod sync;
mod trace;

pub use metrics::{
    Histogram, HistogramSnapshot, Metric, MetricsRegistry, MetricsSnapshot, LATENCY_BOUNDS_MS,
    METRICS,
};
pub use trace::{QueryTrace, Span, SpanHandle, SpanKind, TraceSink, QUERY_TRACK};

use std::sync::Arc;
use std::time::Duration;

/// The handle threaded through `UrPlan → LogicalLayer → VpsCatalog →
/// SiteNavigator → Browser`: an optional trace sink plus an optional
/// metrics registry. [`Obs::default`] is the disabled handle.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    pub sink: TraceSink,
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Obs {
    /// Fully disabled: the hot path pays one branch per touch point.
    pub fn none() -> Obs {
        Obs::default()
    }

    /// Tracing and metrics both live (fresh sink, fresh registry).
    pub fn full() -> Obs {
        Obs { sink: TraceSink::enabled(), metrics: Some(Arc::new(MetricsRegistry::new())) }
    }

    /// Counters only — what the timing harness attaches per run.
    pub fn metrics_only(registry: Arc<MetricsRegistry>) -> Obs {
        Obs { sink: TraceSink::disabled(), metrics: Some(registry) }
    }

    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled() || self.metrics.is_some()
    }

    /// True when spans should be built — callers guard label formatting
    /// behind this so the disabled path never allocates.
    pub fn tracing(&self) -> bool {
        self.sink.is_enabled()
    }

    pub fn count(&self, metric: Metric) {
        if let Some(r) = &self.metrics {
            r.inc(metric);
        }
    }

    pub fn count_n(&self, metric: Metric, n: u64) {
        if let Some(r) = &self.metrics {
            r.add(metric, n);
        }
    }

    pub fn observe_fetch_latency(&self, latency: Duration) {
        if let Some(r) = &self.metrics {
            r.observe_fetch_latency(latency);
        }
    }
}

/// What a traced query hands back next to the answer: the
/// finished span tree and a final metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct QueryObservation {
    pub trace: QueryTrace,
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let obs = Obs::none();
        let h = obs.sink.begin(QUERY_TRACK, SpanKind::Query, "q", Vec::new());
        obs.sink.end(h);
        obs.count(Metric::Fetches);
        assert!(!obs.is_enabled());
        assert!(obs.sink.finish().is_empty());
    }

    #[test]
    fn spans_nest_per_track_and_renumber_deterministically() {
        let sink = TraceSink::enabled();
        let root = sink.begin(QUERY_TRACK, SpanKind::Query, "q", Vec::new());
        // A site track interleaved with a query-track child.
        let site = sink.begin("www.example.com", SpanKind::NavRun, "cars", Vec::new());
        sink.advance("www.example.com", Duration::from_millis(5));
        sink.event("www.example.com", SpanKind::Fetch, "GET /", Vec::new());
        let child = sink.begin(QUERY_TRACK, SpanKind::Handle, "cars", Vec::new());
        sink.end(child);
        sink.end(site);
        sink.end(root);
        let trace = sink.finish();
        // Query track first, then the site track; root is span 0.
        assert_eq!(trace.spans[0].kind, SpanKind::Query);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].kind, SpanKind::Handle);
        assert_eq!(trace.spans[1].parent, Some(0));
        let nav = trace.of_kind(SpanKind::NavRun)[0];
        assert_eq!(nav.parent, Some(0), "site roots hang off the query span");
        assert_eq!(nav.end, Duration::from_millis(5), "open span closed at final track clock");
        let fetch = trace.of_kind(SpanKind::Fetch)[0];
        assert_eq!(fetch.parent, Some(nav.id));
        assert_eq!(fetch.start, Duration::from_millis(5));
    }

    #[test]
    fn renders_are_deterministic() {
        let build = || {
            let sink = TraceSink::enabled();
            let root = sink.begin(QUERY_TRACK, SpanKind::Query, "q", Vec::new());
            sink.advance(QUERY_TRACK, Duration::from_micros(1234));
            sink.event(
                QUERY_TRACK,
                SpanKind::Rewrite,
                "cars",
                vec![("from", "a \"b\"".to_string())],
            );
            sink.end(root);
            sink.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.render_tree(), b.render_tree());
        assert_eq!(a.render_jsonl(), b.render_jsonl());
        assert!(a.render_tree().contains("rewrite cars [1.234ms..1.234ms] from=a \"b\""));
        assert!(a.render_jsonl().contains("\"from\":\"a \\\"b\\\"\""));
    }

    #[test]
    fn metrics_snapshots_merge_and_render() {
        let reg = MetricsRegistry::new();
        reg.inc(Metric::Fetches);
        reg.add(Metric::TuplesEmitted, 7);
        reg.observe_fetch_latency(Duration::from_millis(3));
        let mut snap = reg.snapshot();
        assert_eq!(snap.get(Metric::Fetches), 1);
        assert_eq!(snap.get(Metric::TuplesEmitted), 7);
        let other = reg.snapshot();
        snap.merge(&other);
        assert_eq!(snap.get(Metric::TuplesEmitted), 14);
        assert_eq!(snap.fetch_latency.count, 2);
        let table = snap.render();
        assert!(table.contains("tuples_emitted"));
        assert!(table.contains("<=5ms"));
    }
}
