//! Shared fixture for the fault-injection integration suites
//! (`fault_matrix.rs`, `self_healing.rs`).
//!
//! Maps are recorded once against a healthy web and shipped (the
//! fact-map deployment mode); every faulty or drifted run reloads the
//! same maps, so the only difference between runs is the web's
//! behaviour. The dataset seed comes from `WEBBASE_TEST_SEED` (default
//! 11) so CI can sweep the suite across seeds.

use std::sync::{Arc, OnceLock};
use webbase::{Corpus, Engine, EngineConfig, LatencyModel, QueryOptions, QueryOutcome};
use webbase_logical::LogicalLayer;
use webbase_relational::Relation;
use webbase_ur::plan::{UrError, UrExecution};
use webbase_ur::query::parse_query;
use webbase_webworld::data::Dataset;
use webbase_webworld::prelude::*;
use webbase_webworld::server::Site;

/// The §1 jaguar query (good safety, priced under blue book).
#[allow(dead_code)]
pub const JAGUAR_QUERY: &str = "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                                safety='good', condition='good') WHERE price < bbprice";

/// The §7 timing-table query.
#[allow(dead_code)]
pub const FORD_SELECT: &str = "SELECT make, model, year, price WHERE make=ford AND model=escort";

/// The dataset seed under test: `WEBBASE_TEST_SEED` or 11.
pub fn seed() -> u64 {
    std::env::var("WEBBASE_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(11)
}

/// Generated-corpus scale for the differential battery: the suites run
/// `default` sites per seed unless `WEBBASE_GEN_SITES=<n>` opts into a
/// bigger (or smaller) corpus — e.g. `WEBBASE_GEN_SITES=100` stretches
/// the whole battery to a 100-site webworld.
#[allow(dead_code)]
pub fn gen_sites(default: usize) -> usize {
    std::env::var("WEBBASE_GEN_SITES").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// The generated corpus under test: clean-knob sites at [`seed`],
/// scaled by [`gen_sites`].
#[allow(dead_code)]
pub fn gen_corpus(default_sites: usize) -> webbase_webworld::generate::GenCorpus {
    webbase_webworld::generate::GenCorpus::generate(seed(), gen_sites(default_sites))
}

/// The dataset and the demo's maps as shipped fact text, recorded once
/// against a healthy web.
#[allow(dead_code)]
pub fn fixture() -> &'static (Arc<Dataset>, Vec<String>) {
    static FIX: OnceLock<(Arc<Dataset>, Vec<String>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let engine = Engine::build_demo(seed(), 400, LatencyModel::lan());
        let maps = engine.sites().maps().map(webbase_navigation::persist::render_facts).collect();
        (engine.data().expect("the demo has a dataset").clone(), maps)
    })
}

#[allow(dead_code)]
pub fn engine_on(web: SyntheticWeb) -> Engine {
    let (data, maps) = fixture();
    let corpus = Corpus::paper(data.clone()).with_fact_maps(maps.clone());
    Engine::build_corpus(web, corpus, EngineConfig::default()).expect("fact maps reload")
}

#[allow(dead_code)]
pub fn healthy_engine_at(latency: LatencyModel) -> Engine {
    let (data, _) = fixture();
    engine_on(standard_web(data.clone(), latency))
}

#[allow(dead_code)]
pub fn healthy_engine() -> Engine {
    healthy_engine_at(LatencyModel::lan())
}

#[allow(dead_code)]
pub fn faulty_engine_at(
    latency: LatencyModel,
    wrap: impl Fn(&str, Box<dyn Site>) -> Box<dyn Site>,
) -> Engine {
    let (data, _) = fixture();
    engine_on(standard_web_faulty(data.clone(), latency, wrap))
}

#[allow(dead_code)]
pub fn faulty_engine(wrap: impl Fn(&str, Box<dyn Site>) -> Box<dyn Site>) -> Engine {
    faulty_engine_at(LatencyModel::lan(), wrap)
}

/// Run a UR query on a held single-owner session (from
/// [`Engine::isolated_session`]): its browsers, circuit breakers,
/// caches and healing state carry over to the holder's next query.
#[allow(dead_code)]
pub fn run(
    engine: &Engine,
    session: &mut LogicalLayer,
    text: &str,
) -> Result<(Relation, UrExecution), UrError> {
    engine.planner().execute(&parse_query(text).expect("query parses"), session)
}

/// One query on a fresh isolated session.
#[allow(dead_code)]
pub fn isolated(engine: &Engine, text: &str, options: QueryOptions) -> QueryOutcome {
    engine.query_isolated("test", text, options).unwrap_or_else(|e| panic!("{text}: {e}"))
}

/// Every tuple of `partial` appears in `full` — degraded answers may be
/// fewer, never fabricated.
#[allow(dead_code)]
pub fn subset(partial: &Relation, full: &Relation) -> bool {
    partial.tuples().iter().all(|t| full.tuples().contains(t))
}
