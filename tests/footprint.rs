//! Per-query work follows the plan's footprint, not the corpus.
//!
//! A query session builds one site navigator per distinct site whose
//! relation it actually runs — never one per mapped site — and planning
//! enumerates compatible sets only over the alternatives the query can
//! use. Both counts are deterministic work counters
//! ([`QueryOutcome::navigators_built`], `UrPlanner::sets_enumerated`),
//! so this battery stays stable in CI where wall time would not: a
//! session or a planner that went back to walking the whole corpus
//! would fail here at 200 sites while still passing at 20.

mod common;

use std::collections::BTreeSet;
use webbase::{Corpus, Engine, EngineConfig, QueryOptions, QueryOutcome, SpanKind};
use webbase_ur::query::parse_query;
use webbase_webworld::generate::GenCorpus;
use webbase_webworld::prelude::LatencyModel;

/// Distinct sites whose relations ran, read off the trace: every real
/// invocation opens a handle span naming its site (memo hits carry no
/// site — they build nothing).
fn sites_invoked(out: &QueryOutcome) -> BTreeSet<String> {
    let obs = out.observation.as_ref().expect("traced query");
    obs.trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Handle)
        .filter_map(|s| s.field("site").map(str::to_string))
        .collect()
}

/// Navigators built by each of the first `probes` sites' exemplar
/// queries, isolated and shared, on a `sites`-site corpus.
fn navigators_per_query(sites: usize, probes: usize) -> Vec<(usize, usize)> {
    let gen = GenCorpus::generate(common::seed(), sites);
    let engine = Engine::build_corpus(
        gen.web(LatencyModel::lan()),
        Corpus::generated(&gen),
        EngineConfig::default(),
    )
    .expect("generated corpus builds");
    gen.specs
        .iter()
        .take(probes)
        .map(|spec| {
            let text = spec.exemplar_query();
            let isolated =
                engine.query_isolated("t", &text, QueryOptions::traced()).expect("isolated runs");
            let shared = engine.query("t", &text, QueryOptions::traced()).expect("shared runs");
            for (mode, out) in [("isolated", &isolated), ("shared", &shared)] {
                let invoked = sites_invoked(out);
                assert!(!invoked.is_empty(), "{mode} {text}: no site ran");
                assert_eq!(
                    out.navigators_built,
                    invoked.len(),
                    "{mode} {text} at {sites} sites: navigators built != sites invoked {invoked:?}"
                );
            }
            (isolated.navigators_built, shared.navigators_built)
        })
        .collect()
}

#[test]
fn navigators_built_equal_the_sites_invoked_at_any_corpus_size() {
    // Site specs are a pure function of (seed, index), so the first
    // sites of the 20- and 200-site corpora are the same sites.
    let small = navigators_per_query(20, 4);
    let large = navigators_per_query(200, 4);
    assert_eq!(small, large, "per-query navigator count grew with the corpus");
}

#[test]
fn a_multi_site_query_builds_exactly_the_sites_it_invokes() {
    let engine = Engine::build_demo(common::seed(), 400, LatencyModel::lan());
    let isolated = engine
        .query_isolated("t", common::JAGUAR_QUERY, QueryOptions::traced())
        .expect("isolated jaguar");
    let invoked = sites_invoked(&isolated);
    assert!(invoked.len() > 1, "the jaguar plan spans several sites: {invoked:?}");
    assert_eq!(isolated.navigators_built, invoked.len());
    let shared =
        engine.query("t", common::JAGUAR_QUERY, QueryOptions::traced()).expect("shared jaguar");
    assert_eq!(shared.navigators_built, sites_invoked(&shared).len());
    // A result-cache hit runs nothing and builds nothing.
    engine.query("t", common::JAGUAR_QUERY, QueryOptions::default()).expect("publishes");
    let hit = engine.query("t", common::JAGUAR_QUERY, QueryOptions::default()).expect("hit");
    assert_eq!(hit.navigators_built, 0);
}

#[test]
fn a_shared_session_does_no_more_work_than_an_isolated_one() {
    // The 100-site loadgen ordering, as counters: one exemplar query per
    // site, nothing to reuse between them, and still the shared engine
    // builds no more navigators and sends no more requests than the
    // isolated baseline.
    let gen = GenCorpus::generate(common::seed(), 100);
    let build = || {
        Engine::build_corpus(
            gen.web(LatencyModel::lan()),
            Corpus::generated(&gen),
            EngineConfig::default(),
        )
        .expect("generated corpus builds")
    };
    let (isolated, shared) = (build(), build());
    let (mut iso_navs, mut shared_navs) = (0, 0);
    for spec in &gen.specs {
        let text = spec.exemplar_query();
        let iso = isolated.query_isolated("t", &text, QueryOptions::default()).expect("isolated");
        let out = shared.query("t", &text, QueryOptions::default()).expect("shared");
        assert_eq!(out.relation, iso.relation, "{text}");
        iso_navs += iso.navigators_built;
        shared_navs += out.navigators_built;
    }
    assert_eq!(iso_navs, gen.specs.len(), "one navigator per single-site query");
    assert!(shared_navs <= iso_navs, "shared {shared_navs} > isolated {iso_navs} navigators");
    let (iso_requests, shared_requests) =
        (isolated.web().total_stats().requests, shared.web().total_stats().requests);
    assert!(
        shared_requests <= iso_requests,
        "shared sent {shared_requests} requests, isolated {iso_requests}"
    );
}

/// Compatible sets the planner enumerates for each of the first
/// `probes` sites' exemplar queries on a `sites`-site corpus.
fn sets_enumerated_per_query(sites: usize, probes: usize) -> Vec<usize> {
    let gen = GenCorpus::generate(common::seed(), sites);
    let engine = webbase_bench::generated_engine(&gen, LatencyModel::zero());
    let session = engine.isolated_session();
    gen.specs
        .iter()
        .take(probes)
        .map(|spec| {
            let q = parse_query(&spec.exemplar_query()).expect("exemplar parses");
            engine.planner().sets_enumerated(&q, &session).expect("exemplar plans")
        })
        .collect()
}

#[test]
fn planning_work_is_independent_of_corpus_size() {
    // Every site is one alternative of one choice group, and an
    // exemplar query names only its own site's attributes: the planner
    // enumerates the empty set and that site alone, however many sites
    // the hierarchy holds (a planner that enumerated the whole group
    // would count 21, 201 and 1001).
    let small = sets_enumerated_per_query(20, 4);
    assert_eq!(small, vec![2; 4], "exemplar planning enumerated more than its own site");
    for sites in [200, 1000] {
        assert_eq!(
            sets_enumerated_per_query(sites, 4),
            small,
            "planning work grew with the corpus at {sites} sites"
        );
    }
}
