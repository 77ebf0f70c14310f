//! Golden-trace regression tests.
//!
//! Because the simulated Web is deterministic and every trace timestamp
//! comes from the *simulated* clock, the rendered trace of a query is a
//! complete, byte-stable description of execution at a given seed: plan
//! steps, rewrites, handle invocations, navigation steps, fetches and
//! their dispositions, in order, with timings. These tests pin the §7
//! query's trace at three seeds against checked-in snapshots, so any
//! change to planning, navigation, caching, or the resilience machinery
//! that alters observable execution shows up as a readable trace diff —
//! not as a silent behaviour change.
//!
//! Regenerate the snapshots after an *intentional* change with:
//!
//! ```bash
//! WEBBASE_BLESS=1 cargo test --test trace_golden
//! ```

use std::path::PathBuf;
use webbase::{Engine, LatencyModel, QueryObservation, QueryOptions};

/// The §7 experiment's query shape — `make=ford AND model=escort` over
/// the used-car webbase — expressed as a structured-UR query so the
/// trace exercises all three layers (plan → logical → VPS → navigation).
const GOLDEN_QUERY: &str = "UsedCarUR(make='ford', model='escort', year, price)";

fn snapshot_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/trace_seed{seed}.txt"))
}

fn traced(seed: u64) -> QueryObservation {
    let engine = Engine::build_demo(seed, 400, LatencyModel::lan());
    let out = engine
        .query_isolated("golden", GOLDEN_QUERY, QueryOptions::traced())
        .expect("the golden query runs");
    out.observation.expect("traced queries carry an observation")
}

fn rendered_trace(seed: u64) -> String {
    traced(seed).trace.render_tree()
}

fn golden(seed: u64) {
    let rendered = rendered_trace(seed);
    // Determinism first: two independently built webbases at the same
    // seed must render byte-identical traces. A golden file is useless
    // if the trace isn't reproducible.
    assert_eq!(
        rendered,
        rendered_trace(seed),
        "seed {seed}: trace is not byte-deterministic across runs"
    );
    let path = snapshot_path(seed);
    if std::env::var("WEBBASE_BLESS").is_ok() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {} ({e}); regenerate with WEBBASE_BLESS=1", path.display())
    });
    assert_eq!(
        rendered, expected,
        "seed {seed}: trace diverged from the golden snapshot; if the change is \
         intentional, regenerate with WEBBASE_BLESS=1 cargo test --test trace_golden"
    );
}

#[test]
fn golden_trace_seed_11() {
    golden(11);
}

#[test]
fn golden_trace_seed_23() {
    golden(23);
}

#[test]
fn golden_trace_seed_47() {
    golden(47);
}

#[test]
fn golden_traces_have_the_expected_shape() {
    // Shape checks that hold at any seed, so snapshot regeneration can't
    // silently bless a gutted trace: one root query span, a plan span,
    // at least one object with logical → handle → nav-run → fetch below.
    let obs = traced(11);
    let trace = &obs.trace;
    for kind in [
        webbase::SpanKind::Query,
        webbase::SpanKind::Plan,
        webbase::SpanKind::Object,
        webbase::SpanKind::Logical,
        webbase::SpanKind::Handle,
        webbase::SpanKind::NavRun,
        webbase::SpanKind::Nav,
        webbase::SpanKind::Fetch,
    ] {
        assert!(!trace.of_kind(kind).is_empty(), "no {kind:?} spans in the golden trace");
    }
    // The JSON rendering carries the same spans, one per line.
    assert_eq!(trace.render_jsonl().lines().count(), trace.spans.len());
}
