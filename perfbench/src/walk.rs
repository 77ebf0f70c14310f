//! The outside-in layer walk of the traced run.
//!
//! Nothing here reaches inside the program: the benchmark records its
//! own copy of every site's artifacts through the public recorder,
//! analyser, compiler and handle-derivation entry points (timing each
//! one, which splits `setup_s` by layer), then re-executes single
//! queries layer by layer through the public session, planner,
//! navigator, HTML and Web entry points, timing each call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use webbase::{Corpus, Engine, QueryOptions};
use webbase_logical::{LogicalLayer, LogicalRelation};
use webbase_navigation::map::NavigationMap;
use webbase_navigation::recorder::Recorder;
use webbase_navigation::store::ReadSet;
use webbase_navigation::{compile_map, CompiledSite, FetchPolicy, PageStore};
use webbase_ur::plan::UrPlanner;
use webbase_ur::query::parse_query;
use webbase_vps::{derive_handles, Handle, VpsCatalog};
use webbase_webcheck::SiteSemantics;
use webbase_webworld::prelude::SyntheticWeb;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct SiteArtifacts {
    map: NavigationMap,
    compiled: Arc<CompiledSite>,
    handles: Vec<Handle>,
    semantics: Arc<SiteSemantics>,
}

/// The benchmark's own recording of a corpus: what a query session is
/// assembled from.
pub struct Artifacts {
    sites: Vec<SiteArtifacts>,
    relations: Vec<LogicalRelation>,
    planner: UrPlanner,
}

/// Real time of each setup layer, summed over the corpus's sites.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupParts {
    /// `Recorder::apply` over the designer session plus `finish`.
    pub record_ms: f64,
    /// `webbase_webcheck::analyze_full`.
    pub analyze_ms: f64,
    /// `compile_map`.
    pub compile_ms: f64,
    /// `derive_handles`.
    pub derive_ms: f64,
}

/// Record, analyse, compile and derive every site of `corpus` against
/// `web` — the same steps the engine build takes, timed per layer.
pub fn record(web: &SyntheticWeb, corpus: Corpus) -> Result<(Artifacts, SetupParts), String> {
    let mut parts = SetupParts::default();
    let mut sites = Vec::with_capacity(corpus.sites.len());
    for site in &corpus.sites {
        let t = Instant::now();
        let mut recorder =
            Recorder::with_standardizer(web.clone(), &site.host, site.standardizer.clone());
        for action in &site.session {
            recorder.apply(action).map_err(|e| format!("{}: recording failed: {e}", site.host))?;
        }
        let (map, _) = recorder.finish();
        parts.record_ms += ms_since(t);
        let t = Instant::now();
        let (_, semantics) = webbase_webcheck::analyze_full(&map);
        parts.analyze_ms += ms_since(t);
        let t = Instant::now();
        let compiled = Arc::new(compile_map(&map));
        parts.compile_ms += ms_since(t);
        let t = Instant::now();
        let handles = derive_handles(&map);
        parts.derive_ms += ms_since(t);
        sites.push(SiteArtifacts { map, compiled, handles, semantics: Arc::new(semantics) });
    }
    let planner = UrPlanner::new(corpus.hierarchy, corpus.rules);
    Ok((Artifacts { sites, relations: corpus.relations, planner }, parts))
}

impl Artifacts {
    /// A private query session over `store`: the catalog, one navigator
    /// per site, and the logical layer (no memo, no connection pools).
    fn session(&self, web: &SyntheticWeb, store: &PageStore) -> LogicalLayer {
        let mut catalog = VpsCatalog::new();
        for site in &self.sites {
            catalog.add_map_compiled(
                web.clone(),
                site.map.clone(),
                site.compiled.clone(),
                &site.handles,
                site.semantics.clone(),
                FetchPolicy::default_policy(),
                store.clone(),
                None,
            );
        }
        LogicalLayer::new(catalog, self.relations.clone())
    }
}

/// One query walked through the layers (real milliseconds).
#[derive(Debug, Default, Clone)]
pub struct Walk {
    /// `Engine::query_isolated` on the same text, end to end.
    pub isolated_ms: f64,
    /// Session build: `VpsCatalog::new` + `add_map_compiled` per site +
    /// `LogicalLayer::new`.
    pub session_ms: f64,
    pub parse_ms: f64,
    pub plan_ms: f64,
    /// `UrPlanner::execute_planned` on a cold private store.
    pub execute_ms: f64,
    /// Dropping the session (every navigator, page and catalog entry).
    pub teardown_ms: f64,
    /// The execution's `(relation, given)` invocations replayed through
    /// `SiteNavigator::run_relation`, on a cold store and then warm.
    pub nav_cold_ms: f64,
    pub nav_warm_ms: f64,
    /// `SyntheticWeb::fetch` and `webbase_html::parse` over the pages
    /// the execution read.
    pub fetch_ms: f64,
    pub html_ms: f64,
    pub pages: usize,
    /// The walk's answer equals the isolated query's.
    pub matched: bool,
}

impl Walk {
    /// The part of the isolated query time the walk's parts leave
    /// unexplained.
    pub fn unattributed_ms(&self) -> f64 {
        self.isolated_ms
            - (self.session_ms + self.parse_ms + self.plan_ms + self.execute_ms + self.teardown_ms)
    }
}

/// Walk one query text through the layers.
pub fn walk(engine: &Engine, arts: &Artifacts, text: &str) -> Result<Walk, String> {
    let web = engine.web();
    let mut w = Walk::default();
    let t = Instant::now();
    let isolated = engine
        .query_isolated("walk", text, QueryOptions::default())
        .map_err(|e| format!("isolated run of {text}: {e}"))?;
    w.isolated_ms = ms_since(t);

    let reads = ReadSet::new();
    let store = PageStore::new().tracked(reads.clone());
    let t = Instant::now();
    let mut layer = arts.session(web, &store);
    w.session_ms = ms_since(t);
    let t = Instant::now();
    let query = parse_query(text).map_err(|e| format!("parse of {text}: {e}"))?;
    w.parse_ms = ms_since(t);
    let t = Instant::now();
    let plan = arts.planner.plan(&query, &layer).map_err(|e| format!("plan of {text}: {e}"))?;
    w.plan_ms = ms_since(t);
    let t = Instant::now();
    let (relation, _) = arts
        .planner
        .execute_planned(&query, &plan, &mut layer)
        .map_err(|e| format!("execution of {text}: {e}"))?;
    w.execute_ms = ms_since(t);
    w.matched = relation == isolated.relation;

    let invocations: Vec<_> =
        layer.vps.invocation_log().iter().map(|(k, _, _)| k.clone()).collect();
    let t = Instant::now();
    drop(layer);
    drop(store);
    w.teardown_ms = ms_since(t);
    let replay = arts.session(web, &PageStore::new());
    for pass in 0..2 {
        let t = Instant::now();
        for (name, given) in &invocations {
            let nav =
                replay.vps.navigator(name).ok_or_else(|| format!("no navigator for {name}"))?;
            black_box(nav.run_relation(name, given).map_err(|e| format!("replay of {name}: {e}"))?);
        }
        if pass == 0 {
            w.nav_cold_ms = ms_since(t);
        } else {
            w.nav_warm_ms = ms_since(t);
        }
    }

    for request in reads.all() {
        let t = Instant::now();
        let (response, _) = web.fetch(&request);
        w.fetch_ms += ms_since(t);
        if response.is_ok() {
            let t = Instant::now();
            black_box(webbase_html::parse(response.html()));
            w.html_ms += ms_since(t);
            w.pages += 1;
        }
    }
    Ok(w)
}
