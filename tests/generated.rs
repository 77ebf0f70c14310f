//! The differential battery over the generated webworld (ISSUE 10).
//!
//! Across seeds 11/23/47, for corpora of generated sites:
//!
//! * **engine ≡ oracle** — structured-UR answers through the full
//!   engine equal the generator's pure in-memory relational oracle;
//! * **maintained ≡ cold** — after drift + refresh, maintained views
//!   answer exactly what a cold isolated re-run answers, with
//!   `stale_served == 0`;
//! * **observed ∈ static interval** — per-invocation fetch counts land
//!   inside webcheck's abstract-interpretation cost intervals, and
//!   dynamic reads never escape the static read-set;
//! * **webcheck ≡ manifest** — clean-knob sites analyse clean; each
//!   defect knob yields exactly its manifest's codes (swept over
//!   arbitrary seeds by proptest);
//! * **determinism** — the corpus is a pure function of its seed,
//!   pinned against golden digests (`WEBBASE_BLESS=1` regenerates, as
//!   for `trace_golden`).
//!
//! `WEBBASE_GEN_SITES=<n>` scales the per-seed corpus size (the golden
//! digests stay at their pinned size regardless).

mod common;

use std::collections::BTreeMap;
use webbase::{check_manifest, check_site, Engine, EngineConfig, QueryOptions};
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::gen_sessions;
use webbase_navigation::DriftOrigin;
use webbase_relational::value::Value;
use webbase_relational::Relation;
use webbase_webcheck::site_semantics;
use webbase_webworld::data::fnv;
use webbase_webworld::generate::{GenCorpus, SiteSpec, GEN_DRIFT_GENERATIONS};
use webbase_webworld::prelude::LatencyModel;
use webbase_webworld::topology::Defect;

const SEEDS: [u64; 3] = [11, 23, 47];

/// A generated-corpus engine over the given web.
fn gen_engine(corpus: &GenCorpus, web: webbase_webworld::prelude::SyntheticWeb) -> Engine {
    Engine::build_corpus(web, webbase::Corpus::generated(corpus), EngineConfig::default())
        .expect("generated engine builds")
}

// ───────────── webcheck vs the generated defect knobs ────────────────

#[test]
fn clean_sites_analyse_clean() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate(seed, common::gen_sites(6));
        let web = corpus.web(LatencyModel::zero());
        for spec in &corpus.specs {
            let (map, _) = gen_sessions::record_spec(web.clone(), spec).expect("records");
            let report = check_site(&map);
            let check = check_manifest(&report, &spec.expected_findings());
            assert!(
                check.is_match(),
                "seed {seed} {} ({:?}): {check}\n{}",
                spec.host,
                spec.topology,
                report.render()
            );
        }
    }
}

#[test]
fn defect_knobs_trigger_exactly_their_codes() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate_with_defects(seed, common::gen_sites(6));
        let web = corpus.web(LatencyModel::zero());
        for spec in &corpus.specs {
            let (map, _) = gen_sessions::record_spec(web.clone(), spec).expect("records");
            let report = check_site(&map);
            let check = check_manifest(&report, &spec.expected_findings());
            assert!(
                check.is_match(),
                "seed {seed} {} (defect {:?}): {check}\n{}",
                spec.host,
                spec.topology.defect,
                report.render()
            );
        }
    }
}

// ──────────────────────── engine ≡ oracle ────────────────────────────

/// The distinct-count multiset of `(item, qty, price)` triples in a
/// relation, keyed by the spec's index-suffixed attribute names.
fn answer_triples(spec: &SiteSpec, rel: &Relation) -> BTreeMap<(String, i64, i64), usize> {
    let ii = rel.schema().index_of(&spec.attr("item").into()).expect("item attr");
    let qi = rel.schema().index_of(&spec.attr("qty").into()).expect("qty attr");
    let pi = rel.schema().index_of(&spec.attr("price").into()).expect("price attr");
    let mut out = BTreeMap::new();
    for t in rel.tuples() {
        let Value::Str(item) = t.get(ii) else { panic!("item must be a string") };
        let key = (
            item.clone(),
            t.get(qi).as_int().expect("qty int"),
            t.get(pi).as_int().expect("price int"),
        );
        *out.entry(key).or_insert(0) += 1;
    }
    out
}

fn oracle_triples(spec: &SiteSpec) -> BTreeMap<(String, i64, i64), usize> {
    let sub = spec.needs_sub().then(|| spec.exemplar_sub().to_string());
    let mut out = BTreeMap::new();
    for row in spec.oracle(spec.exemplar_cat(), sub.as_deref()) {
        *out.entry((row.item.clone(), row.qty, row.price)).or_insert(0) += 1;
    }
    out
}

#[test]
fn engine_answers_equal_the_relational_oracle() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate(seed, common::gen_sites(5));
        let engine = gen_engine(&corpus, corpus.web(LatencyModel::zero()));
        for spec in &corpus.specs {
            let out = engine
                .query("t0", &spec.exemplar_query(), QueryOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} {}: query failed: {e}", spec.host));
            let answers = answer_triples(spec, &out.relation);
            let oracle = oracle_triples(spec);
            assert!(!oracle.is_empty(), "seed {seed} {}: degenerate oracle", spec.host);
            assert_eq!(
                answers, oracle,
                "seed {seed} {}: engine answer diverged from the in-memory oracle",
                spec.host
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.readset_escape, 0, "seed {seed}: dynamic reads escaped");
        assert_eq!(stats.stale_served, 0, "seed {seed}: stale answers served");
    }
}

// ─────────────── maintained views ≡ cold re-runs ─────────────────────

#[test]
fn maintained_views_equal_cold_reruns_under_drift() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate(seed, 4);
        let (web, clock) = corpus.web_with_drifting_site(0, LatencyModel::zero());
        let engine = gen_engine(&corpus, web);
        let spec = &corpus.specs[0];
        let text = spec.exemplar_query();
        // Warm the maintained view against generation 0.
        engine.query("t0", &text, QueryOptions::default()).expect("warm query");
        for generation in 1..=GEN_DRIFT_GENERATIONS {
            clock.advance();
            engine.refresh(Some(&spec.host), DriftOrigin::Maintenance, None, None);
            let served =
                engine.query("t0", &text, QueryOptions::default()).expect("maintained query");
            let cold = engine
                .query_isolated("oracle", &text, QueryOptions::default())
                .expect("cold re-run");
            assert_eq!(
                served.relation, cold.relation,
                "seed {seed} {} generation {generation}: maintained view != cold re-run",
                spec.host
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.stale_served, 0, "seed {seed}: stale answers served");
        assert_eq!(stats.readset_escape, 0, "seed {seed}: dynamic reads escaped");
    }
}

// ──────────── observed fetches ∈ static cost intervals ───────────────

#[test]
fn invocation_fetches_land_inside_relation_intervals() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate(seed, common::gen_sites(5));
        let web = corpus.web(LatencyModel::zero());
        for spec in &corpus.specs {
            let (map, _) = gen_sessions::record_spec(web.clone(), spec).expect("records");
            let sem = site_semantics(&map);
            let rel_sem = sem
                .relation(&spec.relation)
                .unwrap_or_else(|| panic!("{}: no semantics for {}", spec.host, spec.relation));
            let mut given = vec![(spec.attr("cat"), Value::str(spec.exemplar_cat()))];
            if spec.needs_sub() {
                given.push((spec.attr("sub"), Value::str(spec.exemplar_sub())));
            }
            let nav = SiteNavigator::standalone(web.clone(), map.clone());
            let (_, stats) = nav.run_relation(&spec.relation, &given).expect("invocation runs");
            let observed = stats.pages_fetched as u64;
            assert!(
                rel_sem.cost.contains(observed),
                "seed {seed} {}: one invocation fetched {observed} pages, outside {}",
                spec.host,
                rel_sem.cost
            );
        }
    }
}

#[test]
fn cold_engine_fetches_land_inside_plan_intervals() {
    for seed in SEEDS {
        let corpus = GenCorpus::generate(seed, 3);
        for spec in &corpus.specs {
            // A fresh engine per query: the lower bound only binds on a
            // cold page store.
            let engine = gen_engine(&corpus, corpus.web(LatencyModel::zero()));
            let text = spec.exemplar_query();
            let (_plan, sem) = engine.explain_semantics(&text).expect("plan compiles");
            let sem = sem.expect("generated plans have full semantics");
            let before = engine.web().total_stats().requests;
            engine.query("t0", &text, QueryOptions::default()).expect("clean query");
            let observed = engine.web().total_stats().requests - before;
            assert!(
                observed >= sem.cost.min,
                "seed {seed} {}: {observed} fetched < static lower bound {}",
                spec.host,
                sem.cost.min
            );
            assert!(
                sem.cost.max.admits(observed),
                "seed {seed} {}: {observed} fetched escapes static upper bound {}",
                spec.host,
                sem.cost.max
            );
            assert_eq!(engine.stats().readset_escape, 0, "seed {seed}: reads escaped");
        }
    }
}

// ──────── determinism: the corpus is a pure function of the seed ─────

/// Golden corpora stay at a pinned size so `WEBBASE_GEN_SITES` cannot
/// silently shift the digests.
const GOLDEN_SITES: usize = 6;

/// One digest line per site: an FNV hash over the complete page
/// inventory (every servable path and its HTML) and one over the
/// recorded map's canonical fact rendering.
fn corpus_digest(seed: u64) -> String {
    let corpus = GenCorpus::generate(seed, GOLDEN_SITES);
    let web = corpus.web(LatencyModel::zero());
    let mut out = String::new();
    for spec in &corpus.specs {
        let mut pages = String::new();
        for (path, html) in spec.page_inventory() {
            pages.push_str(&path);
            pages.push('\n');
            pages.push_str(&html);
            pages.push('\n');
        }
        let (map, _) = gen_sessions::record_spec(web.clone(), spec).expect("records");
        let facts = webbase_navigation::persist::render_facts(&map);
        out.push_str(&format!(
            "{} pages:{:016x} facts:{:016x} rows:{}\n",
            spec.host,
            fnv(&pages),
            fnv(&facts),
            spec.rows().len()
        ));
    }
    out
}

fn golden(seed: u64) {
    let digest = corpus_digest(seed);
    // Determinism first: a second independently generated and recorded
    // corpus at the same seed must digest identically.
    assert_eq!(
        digest,
        corpus_digest(seed),
        "seed {seed}: corpus generation is not deterministic across runs"
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/golden/generated_seed{seed}.txt"));
    if std::env::var("WEBBASE_BLESS").is_ok() {
        std::fs::write(&path, &digest)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden digest {} ({e}); regenerate with WEBBASE_BLESS=1", path.display())
    });
    assert_eq!(
        digest, expected,
        "seed {seed}: generated corpus diverged from the golden digest; if the change is \
         intentional, regenerate with WEBBASE_BLESS=1 cargo test --test generated"
    );
}

#[test]
fn golden_corpus_seed_11() {
    golden(11);
}

#[test]
fn golden_corpus_seed_23() {
    golden(23);
}

#[test]
fn golden_corpus_seed_47() {
    golden(47);
}

// ──────── arbitrary seeds: the manifest contract holds corpus-wide ───

use proptest::prelude::*;

/// A single-site corpus for one derived spec.
fn single(spec: SiteSpec) -> GenCorpus {
    GenCorpus { seed: spec.corpus_seed, specs: vec![spec] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean-knob sites never trigger a finding at any corpus seed —
    /// in particular zero E-level findings, so a generated corpus is
    /// always admissible as a differential baseline.
    #[test]
    fn any_clean_site_analyses_clean(seed in 0u64..10_000, index in 0usize..8) {
        let corpus = single(SiteSpec::derive(seed, index, None));
        let web = corpus.web(LatencyModel::zero());
        let (map, _) = gen_sessions::record_spec(web, &corpus.specs[0]).expect("records");
        let report = check_site(&map);
        prop_assert_eq!(report.errors().count(), 0, "clean site has E-level findings");
        let check = check_manifest(&report, &corpus.specs[0].expected_findings());
        prop_assert!(check.is_match(), "{}: {}\n{}", corpus.specs[0].host, check, report.render());
    }

    /// Each defect knob triggers exactly its manifest's codes — no
    /// more, no fewer — at any corpus seed.
    #[test]
    fn any_defect_knob_triggers_exactly_its_codes(
        seed in 0u64..10_000,
        index in 0usize..8,
        which in 0usize..Defect::ALL.len(),
    ) {
        let corpus = single(SiteSpec::derive(seed, index, Some(Defect::ALL[which])));
        let spec = &corpus.specs[0];
        let web = corpus.web(LatencyModel::zero());
        let (map, _) = gen_sessions::record_spec(web, spec).expect("records");
        let report = check_site(&map);
        let check = check_manifest(&report, &spec.expected_findings());
        prop_assert!(
            check.is_match(),
            "{} (defect {:?}): {}\n{}",
            spec.host,
            spec.topology.defect,
            check,
            report.render()
        );
    }
}
