//! The VPS catalog: every mapped site's relations behind one
//! `RelationProvider`.

use crate::handle::{derive_handles, Handle};
use crate::memo::{AnswerMemo, MemoClaim};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;
use webbase_navigation::budget::{BudgetTracker, JournalEntry, NavPosition, ResumeToken};
use webbase_navigation::executor::{NavRuntime, SiteNavigator};
use webbase_navigation::map::NavigationMap;
use webbase_navigation::pool::HostPools;
use webbase_navigation::store::{PageStore, ReadSet};
use webbase_navigation::{CancelToken, CompiledSite, DegradationReport, FetchPolicy, RepairReport};
use webbase_obs::sync::SafeMutex;
use webbase_obs::{Metric, Obs, SpanHandle, SpanKind, QUERY_TRACK};
use webbase_relational::binding::{Binding, BindingSet};
use webbase_relational::eval::{AccessSpec, EvalError, RelationProvider};
use webbase_relational::{Attr, Relation, Schema, Tuple, Value};
use webbase_webworld::prelude::*;

/// Per-invocation accounting for the §7 timing table.
#[derive(Debug, Clone, Default)]
pub struct VpsStats {
    /// Invocations per relation.
    pub invocations: HashMap<String, u32>,
    /// Pages fetched per relation (network, not cache).
    pub pages: HashMap<String, u32>,
    /// Retries spent recovering from transient fetch failures, per
    /// relation.
    pub retries: HashMap<String, u32>,
    /// Simulated network time per relation (includes retry backoff and
    /// timeout waits).
    pub network: HashMap<String, Duration>,
    /// Interpreter CPU time per relation.
    pub cpu: HashMap<String, Duration>,
}

impl VpsStats {
    pub fn total_pages(&self) -> u32 {
        self.pages.values().sum()
    }

    pub fn total_retries(&self) -> u32 {
        self.retries.values().sum()
    }

    pub fn total_network(&self) -> Duration {
        self.network.values().sum()
    }

    pub fn total_cpu(&self) -> Duration {
        self.cpu.values().sum()
    }
}

/// One served invocation: its memo key, its answer (shared with the
/// memo entry), and the page requests the answer was computed from.
pub type Invocation = (crate::memo::MemoKey, Arc<Relation>, Arc<[Request]>);

/// A site's immutable runtime as the VPS layer sees it: the navigation
/// runtime (map, compiled program, extraction specs, value-link sets,
/// probe catalogue, entry URL), the handles derived from the map, and
/// the abstract interpreter's semantics. Built once per map and shared
/// (`Arc`) by every session; a session only pays for a site when it
/// invokes one of the site's relations.
pub struct SiteRuntime {
    pub nav: Arc<NavRuntime>,
    /// Grouped by relation (derivation order kept within a relation).
    handles: Vec<Handle>,
    pub semantics: Arc<webbase_webcheck::SiteSemantics>,
}

impl SiteRuntime {
    /// Assemble a runtime from artifacts the caller already derived.
    pub fn new(
        nav: NavRuntime,
        mut handles: Vec<Handle>,
        semantics: Arc<webbase_webcheck::SiteSemantics>,
    ) -> SiteRuntime {
        handles.sort_by(|a, b| a.relation.cmp(&b.relation));
        SiteRuntime { nav: Arc::new(nav), handles, semantics }
    }

    /// The map-ingestion path: the full static analysis
    /// ([`webbase_webcheck::analyze_full`]: map lint, program safety,
    /// and semantic abstract interpretation), compilation, and handle
    /// derivation. The findings come back beside the runtime; loading is
    /// not refused here — deployment paths that must reject E-level maps
    /// consult the report first.
    pub fn analyze(
        web: SyntheticWeb,
        map: NavigationMap,
    ) -> (SiteRuntime, webbase_webcheck::Report) {
        let (report, semantics) = webbase_webcheck::analyze_full(&map);
        (SiteRuntime::compile(web, map, semantics), report)
    }

    /// Compile `map` and derive its handles around a semantic analysis
    /// the caller already ran — the second half of
    /// [`SiteRuntime::analyze`], for callers that vet the findings
    /// before paying for compilation.
    pub fn compile(
        web: SyntheticWeb,
        map: NavigationMap,
        semantics: webbase_webcheck::SiteSemantics,
    ) -> SiteRuntime {
        let handles = derive_handles(&map);
        SiteRuntime::new(NavRuntime::compile(web, map), handles, Arc::new(semantics))
    }

    /// The host this site runs on.
    pub fn host(&self) -> &str {
        self.nav.site()
    }
}

#[derive(Clone)]
struct IndexedRelation {
    /// Position of the owning site in [`SiteIndex::sites`].
    site: usize,
    schema: Schema,
    /// The relation's slice of the site's handles.
    handles: Range<usize>,
}

/// The relation → site index: every mapped site's runtime, and each VPS
/// relation's schema, handles, and owning site. Registration order is
/// site order, then each site's compiled relation order. Immutable once
/// built; the engine shares one across every session.
#[derive(Clone, Default)]
pub struct SiteIndex {
    sites: Vec<Arc<SiteRuntime>>,
    relations: HashMap<String, IndexedRelation>,
}

impl SiteIndex {
    pub fn new() -> SiteIndex {
        SiteIndex::default()
    }

    /// Register every relation of one site. Panics on a relation without
    /// a handle or a relation name already taken (map construction bugs).
    pub fn add(&mut self, runtime: Arc<SiteRuntime>) {
        let site = self.sites.len();
        for rel in &runtime.nav.compiled().relations {
            let start = runtime.handles.partition_point(|h| h.relation < rel.name);
            let end = runtime.handles.partition_point(|h| h.relation <= rel.name);
            assert!(
                start < end,
                "relation {} has no handle — was its data node registered?",
                rel.name
            );
            let schema = Schema::new(rel.attrs.iter().map(String::as_str));
            let entry = IndexedRelation { site, schema, handles: start..end };
            let prev = self.relations.insert(rel.name.clone(), entry);
            assert!(prev.is_none(), "duplicate VPS relation {}", rel.name);
        }
        self.sites.push(runtime);
    }

    /// The runtime of the site on `host`, if it is mapped.
    pub fn site(&self, host: &str) -> Option<&Arc<SiteRuntime>> {
        self.sites.iter().find(|s| s.host() == host)
    }

    /// Every site's recorded map, in registration order.
    pub fn maps(&self) -> impl Iterator<Item = &NavigationMap> {
        self.sites.iter().map(|s| &s.nav.map)
    }

    /// The recorded map of the site on `host`, if it is mapped.
    pub fn map_for(&self, host: &str) -> Option<&NavigationMap> {
        self.site(host).map(|s| &s.nav.map)
    }

    /// Relation names in registration order.
    fn order(&self) -> impl Iterator<Item = &str> {
        self.sites.iter().flat_map(|s| s.nav.compiled().relations.iter().map(|r| r.name.as_str()))
    }

    fn handles(&self, e: &IndexedRelation) -> &[Handle] {
        &self.sites[e.site].handles[e.handles.clone()]
    }
}

/// The catalog of VPS relations across all mapped sites (Table 1).
///
/// A catalog is one session over a [`SiteIndex`]. Navigators — the
/// per-query mutable half of a site (browser, page arena, journal,
/// healing state) — are built on the first invocation of one of the
/// site's relations, so a session costs O(1) plus the sites its plan
/// actually invokes. Catalog-wide settings (observability, budget,
/// cancellation, pools, a resume token's journal) are stored here and
/// applied to each navigator as it is built.
pub struct VpsCatalog {
    index: Arc<SiteIndex>,
    /// The navigators built so far, keyed by site position.
    navigators: SafeMutex<BTreeMap<usize, Arc<SiteNavigator>>>,
    /// The page store new navigators read through; `None` gives each
    /// navigator a private store (the single-owner cost model).
    store: Option<PageStore>,
    policy: FetchPolicy,
    pool: Option<Arc<HostPools>>,
    cancel: Option<CancelToken>,
    /// Resume-token journal entries, preloaded into each site's
    /// navigator when it is built.
    preloaded: Vec<JournalEntry>,
    pub stats: VpsStats,
    /// The query budget shared by every navigator, when one is attached.
    budget: Option<Arc<BudgetTracker>>,
    /// Relation invocations that ran to completion under the budget —
    /// the resume token's navigation positions.
    positions: Vec<NavPosition>,
    /// Observability handle shared with every navigator (and through
    /// them, every browser). Disabled by default.
    obs: Obs,
    /// Shared answer memo; `None` outside the multi-query engine. Only
    /// consulted on unbudgeted invocations of clean navigators (see
    /// [`crate::memo`]).
    memo: Option<AnswerMemo>,
    /// The session's page-read recorder (the same [`ReadSet`] the
    /// engine's tracked [`PageStore`] handle records into). With it
    /// attached, each invocation's page dependencies are sliced off and
    /// remembered — and a memo *hit* replays the leader's recorded
    /// dependencies, since a hit fetches nothing itself.
    reads: Option<ReadSet>,
    /// Every invocation this catalog served, with its answer and page
    /// dependencies — the base-relation log incremental view
    /// maintenance re-runs selectively.
    invocation_log: Vec<Invocation>,
}

impl Default for VpsCatalog {
    fn default() -> Self {
        VpsCatalog::new()
    }
}

impl VpsCatalog {
    /// An empty catalog; sites join through [`VpsCatalog::add_map`].
    pub fn new() -> VpsCatalog {
        VpsCatalog::with_sites(Arc::new(SiteIndex::new()))
    }

    /// A session over a shared site index (the multi-query engine's
    /// per-query path): no navigator exists until a relation is invoked.
    pub fn with_sites(index: Arc<SiteIndex>) -> VpsCatalog {
        VpsCatalog {
            index,
            navigators: SafeMutex::new(BTreeMap::new()),
            store: None,
            policy: FetchPolicy::default_policy(),
            pool: None,
            cancel: None,
            preloaded: Vec::new(),
            stats: VpsStats::default(),
            budget: None,
            positions: Vec::new(),
            obs: Obs::none(),
            memo: None,
            reads: None,
            invocation_log: Vec::new(),
        }
    }

    /// The site index this session reads its schemas and handles from.
    pub fn site_index(&self) -> &Arc<SiteIndex> {
        &self.index
    }

    /// Register a site. Its navigator is built on first invocation.
    pub fn add_site(&mut self, runtime: Arc<SiteRuntime>) {
        Arc::make_mut(&mut self.index).add(runtime);
    }

    /// Add every relation of a recorded map, analysing, compiling, and
    /// deriving it ([`SiteRuntime::analyze`]). A recorded map is always
    /// loaded; callers that act on the findings analyse first.
    pub fn add_map(&mut self, web: SyntheticWeb, map: NavigationMap) {
        self.add_site(Arc::new(SiteRuntime::analyze(web, map).0));
    }

    /// [`VpsCatalog::add_site`] from separately held artifacts —
    /// already-compiled program, pre-derived handles, the build-time
    /// semantic analysis — plus the session settings (fetch policy,
    /// page store, connection pools). Those settings are catalog-wide,
    /// not per site: every navigator of this catalog uses them, so every
    /// call must pass the same policy, store and pools (checked in debug
    /// builds).
    #[allow(clippy::too_many_arguments)]
    pub fn add_map_compiled(
        &mut self,
        web: SyntheticWeb,
        map: NavigationMap,
        compiled: Arc<CompiledSite>,
        handles: &[Handle],
        semantics: Arc<webbase_webcheck::SiteSemantics>,
        policy: FetchPolicy,
        store: PageStore,
        pool: Option<Arc<HostPools>>,
    ) {
        if let Some(first) = &self.store {
            debug_assert!(
                first.same_store(&store) && self.policy == policy,
                "add_map_compiled: sites of one catalog share one page store and fetch policy"
            );
        }
        if let (Some(first), Some(pool)) = (&self.pool, &pool) {
            debug_assert!(Arc::ptr_eq(first, pool), "add_map_compiled: a second set of pools");
        }
        self.set_policy(policy);
        self.set_store(store);
        if let Some(pool) = pool {
            self.set_pool(pool);
        }
        let nav = NavRuntime::new(web, map, compiled);
        self.add_site(Arc::new(SiteRuntime::new(nav, handles.to_vec(), semantics)));
    }

    /// Read every navigator built from now on through `store`.
    pub fn set_store(&mut self, store: PageStore) {
        self.store = Some(store);
    }

    /// The fetch policy of every navigator built from now on.
    pub fn set_policy(&mut self, policy: FetchPolicy) {
        self.policy = policy;
    }

    /// Attach shared per-host connection pools to every navigator.
    pub fn set_pool(&mut self, pool: Arc<HostPools>) {
        for nav in self.built() {
            nav.set_pool(pool.clone());
        }
        self.pool = Some(pool);
    }

    /// The navigators built so far, in site registration order.
    fn built(&self) -> Vec<Arc<SiteNavigator>> {
        self.navigators.lock().values().cloned().collect()
    }

    /// How many site navigators this catalog has built: the sites its
    /// invocations reached (memo hits build none).
    pub fn navigators_built(&self) -> usize {
        self.navigators.lock().len()
    }

    /// The navigator of the site at `site`, built with the catalog's
    /// current settings on first use.
    fn navigator_at(&self, site: usize) -> Arc<SiteNavigator> {
        let mut built = self.navigators.lock();
        built
            .entry(site)
            .or_insert_with(|| {
                let runtime = &self.index.sites[site];
                let store = self.store.clone().unwrap_or_default();
                let nav = SiteNavigator::new(runtime.nav.clone(), self.policy, store);
                if let Some(pool) = &self.pool {
                    nav.set_pool(pool.clone());
                }
                nav.set_obs(self.obs.clone());
                if let Some(cancel) = &self.cancel {
                    nav.set_cancel(cancel.clone());
                }
                if let Some(budget) = &self.budget {
                    nav.set_budget(budget.clone());
                }
                let host = runtime.host();
                nav.preload_journal(self.preloaded.iter().filter(|e| e.request.url.host == host));
                Arc::new(nav)
            })
            .clone()
    }

    /// The semantic analysis of one loaded site (fetch-cost intervals
    /// and static read-sets), by host.
    pub fn semantics_for(&self, host: &str) -> Option<&Arc<webbase_webcheck::SiteSemantics>> {
        self.index.site(host).map(|s| &s.semantics)
    }

    fn site_of(&self, relation: &str) -> Option<&SiteRuntime> {
        self.index.relations.get(relation).map(|e| &*self.index.sites[e.site])
    }

    /// The host owning `relation`.
    pub fn relation_host(&self, relation: &str) -> Option<&str> {
        self.site_of(relation).map(SiteRuntime::host)
    }

    /// The whole-site semantics of the site owning `relation` (the
    /// host lives on the [`webbase_webcheck::SiteSemantics`]).
    pub fn relation_site(&self, relation: &str) -> Option<&Arc<webbase_webcheck::SiteSemantics>> {
        self.site_of(relation).map(|s| &s.semantics)
    }

    /// The semantic analysis of the site owning `relation`.
    pub fn relation_semantics(
        &self,
        relation: &str,
    ) -> Option<&webbase_webcheck::semantic::RelationSemantics> {
        self.site_of(relation)?.semantics.relation(relation)
    }

    /// Relation names in registration order.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.index.order()
    }

    pub fn handles(&self, relation: &str) -> &[Handle] {
        self.index.relations.get(relation).map(|e| self.index.handles(e)).unwrap_or(&[])
    }

    /// The navigator of the site owning `relation` — built on first use,
    /// like an invocation would.
    pub fn navigator(&self, relation: &str) -> Option<Arc<SiteNavigator>> {
        let site = self.index.relations.get(relation)?.site;
        Some(self.navigator_at(site))
    }

    /// Per-site degradation merged across the navigators built so far.
    /// A site no invocation reached has nothing to report.
    pub fn degradation(&self) -> DegradationReport {
        let mut report = DegradationReport::default();
        for nav in self.built() {
            report.merge(&nav.degradation());
        }
        report
    }

    /// Per-site self-healing activity merged across the navigators built
    /// so far (see [`VpsCatalog::degradation`]).
    pub fn repairs(&self) -> RepairReport {
        let mut report = RepairReport::default();
        for nav in self.built() {
            report.merge(&nav.repair_report());
        }
        report
    }

    /// Attach a query budget: every navigator in the catalog shares the
    /// one tracker, and every mapped site is registered up front so
    /// fair-share floors also cover sites the query has not reached yet
    /// (without building their navigators).
    pub fn set_budget(&mut self, budget: Arc<BudgetTracker>) {
        for site in &self.index.sites {
            budget.register_site(site.host());
        }
        for nav in self.built() {
            nav.set_budget(budget.clone());
        }
        self.budget = Some(budget);
    }

    pub fn budget(&self) -> Option<&Arc<BudgetTracker>> {
        self.budget.as_ref()
    }

    /// Attach (or detach, with [`Obs::none`]) the observability handle:
    /// every navigator in the catalog shares it, exactly like the budget
    /// tracker.
    pub fn set_obs(&mut self, obs: Obs) {
        for nav in self.built() {
            nav.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attach a cancellation token: every navigator polls it at its
    /// budget checkpoints, so a cancel lands before the next page
    /// request rather than mid-navigation.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        for nav in self.built() {
            nav.set_cancel(cancel.clone());
        }
        self.cancel = Some(cancel);
    }

    /// Attach a shared answer memo (the multi-query engine's
    /// whole-invocation result cache).
    pub fn set_memo(&mut self, memo: AnswerMemo) {
        self.memo = Some(memo);
    }

    /// Attach the session's page-read recorder (see the `reads` field).
    pub fn set_reads(&mut self, reads: ReadSet) {
        self.reads = Some(reads);
    }

    /// Invocations served so far: `(memo key, answer, page deps)` in
    /// execution order. Memo hits appear too, carrying the leader's
    /// recorded dependencies.
    pub fn invocation_log(&self) -> &[Invocation] {
        &self.invocation_log
    }

    /// Relation invocations that ran to completion — no budget denial
    /// truncated them — in execution order.
    pub fn positions(&self) -> &[NavPosition] {
        &self.positions
    }

    /// Every page fetched while the budget was attached, site by site in
    /// registration order. A site whose navigator was never built still
    /// contributes the preloaded entries it was owed, so a resumed run
    /// that did not reach a site keeps that site's paid-for pages in the
    /// next token.
    pub fn resume_journal(&self) -> Vec<JournalEntry> {
        let built = self.navigators.lock().clone();
        let mut journal = Vec::new();
        for (i, site) in self.index.sites.iter().enumerate() {
            match built.get(&i) {
                Some(nav) => journal.extend(nav.journal()),
                None => journal.extend(
                    self.preloaded.iter().filter(|e| e.request.url.host == site.host()).cloned(),
                ),
            }
        }
        journal
    }

    /// The resume token for the current run: the budget it ran under,
    /// the spend so far, the completed navigation positions, and the
    /// journal of every page already paid for.
    pub fn resume_token(&self) -> Option<ResumeToken> {
        let tracker = self.budget.as_ref()?;
        let snap = tracker.snapshot();
        Some(ResumeToken {
            budget: tracker.budget().clone(),
            spent_network: snap.elapsed,
            spent_fetches: snap.fetches,
            positions: self.positions.clone(),
            journal: self.resume_journal(),
        })
    }

    /// Preload a resume token's journal into the navigators' page
    /// caches. Entries are routed to the navigator owning their host —
    /// now for navigators already built, at build time for the rest — so
    /// a resumed run serves them as cache hits: zero re-fetches of
    /// already-paid-for pages.
    pub fn preload(&mut self, token: &ResumeToken) {
        for (i, nav) in self.navigators.lock().iter() {
            nav.preload_journal(token.journal_for(self.index.sites[*i].host()));
        }
        self.preloaded.extend(token.journal.iter().cloned());
    }

    /// Evaluate a batch of relation invocations with fair-share
    /// interleaving: jobs are grouped by owning site and served
    /// round-robin, one invocation per site per round, so a site that is
    /// burning its quota (or stalling) cannot drain the global budget
    /// before the other sites get their first turn. Results come back in
    /// input order; an unknown relation yields its error in place.
    pub fn execute(&mut self, jobs: &[(String, AccessSpec)]) -> Vec<Result<Relation, EvalError>> {
        let mut slots: Vec<Option<Result<Relation, EvalError>>> =
            jobs.iter().map(|_| None).collect();
        let mut site_order: Vec<usize> = Vec::new();
        let mut queues: HashMap<usize, VecDeque<usize>> = HashMap::new();
        for (i, (name, _)) in jobs.iter().enumerate() {
            match self.index.relations.get(name) {
                Some(e) => {
                    if !queues.contains_key(&e.site) {
                        site_order.push(e.site);
                    }
                    queues.entry(e.site).or_default().push_back(i);
                }
                None => slots[i] = Some(Err(EvalError::UnknownRelation(name.clone()))),
            }
        }
        loop {
            let mut progressed = false;
            for site in &site_order {
                if let Some(i) = queues.get_mut(site).and_then(VecDeque::pop_front) {
                    let (name, spec) = &jobs[i];
                    slots[i] = Some(self.fetch(name, spec));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        slots.into_iter().map(|s| s.expect("every job scheduled")).collect()
    }

    /// The Table 1 rendering: relation name, site, schema.
    pub fn render_table1(&self) -> String {
        let mut out = String::from("VPS-level relations\n");
        for name in self.index.order() {
            let e = &self.index.relations[name];
            let site = self.index.sites[e.site].host();
            out.push_str(&format!("  {name}{}   [site: {site}]\n", e.schema));
        }
        out
    }

    /// The Table 3 rendering: mandatory and optional attribute sets.
    pub fn render_table3(&self) -> String {
        let fmt_set = |s: &std::collections::BTreeSet<String>| {
            if s.is_empty() {
                "∅".to_string()
            } else {
                s.iter().cloned().collect::<Vec<_>>().join(", ")
            }
        };
        let mut out = String::from("VPS handles: mandatory | optional\n");
        for name in self.index.order() {
            for h in self.handles(name) {
                out.push_str(&format!(
                    "  {name}: {{{}}} | {{{}}}\n",
                    fmt_set(&h.mandatory),
                    fmt_set(&h.optional())
                ));
            }
        }
        out
    }
}

impl RelationProvider for VpsCatalog {
    fn schema(&self, name: &str) -> Option<Schema> {
        self.index.relations.get(name).map(|e| e.schema.clone())
    }

    fn bindings(&self, name: &str) -> Option<BindingSet> {
        let e = self.index.relations.get(name)?;
        Some(BindingSet::from_bindings(
            self.index
                .handles(e)
                .iter()
                .map(|h| h.mandatory.iter().map(|a| Attr::new(a.clone())).collect::<Binding>()),
        ))
    }

    fn fetch(&mut self, name: &str, spec: &AccessSpec) -> Result<Relation, EvalError> {
        let index = self.index.clone();
        let e = index
            .relations
            .get(name)
            .ok_or_else(|| EvalError::UnknownRelation(name.to_string()))?;
        let site = &index.sites[e.site];
        let available = spec.attrs();
        // Pick a handle whose mandatory set is covered; among those,
        // prefer the one that can *use* the most of the supplied values
        // (fewer tuples fetched and filtered).
        let handle = index
            .handles(e)
            .iter()
            .filter(|h| h.mandatory.iter().all(|a| available.contains(&Attr::new(a.clone()))))
            .max_by_key(|h| {
                h.selection.iter().filter(|a| available.contains(&Attr::new((*a).clone()))).count()
            })
            .ok_or_else(|| EvalError::UnboundAccess {
                relation: name.to_string(),
                available: spec.to_string(),
            })?;
        // Pass every supplied constant the handle can use.
        let given: Vec<(String, Value)> = spec
            .iter()
            .filter(|(a, _)| handle.selection.contains(a.as_str()))
            .map(|(a, v)| (a.as_str().to_string(), v.clone()))
            .collect();
        // Shared answer memo, unbudgeted invocations only: a budgeted
        // run must do its own admission/journalling/position work. The
        // claim is singleflight: under a concurrent herd one session
        // leads each distinct invocation and the rest wait for — and
        // then hit — its settled answer instead of recomputing.
        // Where this session's page reads stood before the invocation:
        // everything recorded past this mark is what the invocation read.
        let read_mark = self.reads.as_ref().map(ReadSet::len).unwrap_or(0);
        let memo_lead = match (&self.memo, &self.budget) {
            (Some(memo), None) => {
                let key = AnswerMemo::key(name, &given);
                match memo.claim(&key) {
                    MemoClaim::Hit(rel) => {
                        // A hit fetches nothing, but the answer still
                        // *depends* on the pages its leader read — fold
                        // them into this session's read set so the
                        // result-cache entry records them too.
                        let deps = memo.deps_of(&key);
                        if let Some(reads) = &self.reads {
                            reads.extend(&deps);
                        }
                        self.obs.count(Metric::HandleInvocations);
                        self.obs.count_n(Metric::TuplesEmitted, rel.len() as u64);
                        if self.obs.tracing() {
                            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
                            self.obs.sink.event(
                                QUERY_TRACK,
                                SpanKind::Handle,
                                name.to_string(),
                                vec![
                                    ("disposition", "memo_hit".to_string()),
                                    ("tuples", rel.len().to_string()),
                                ],
                            );
                        }
                        *self.stats.invocations.entry(name.to_string()).or_default() += 1;
                        let answer = Relation::clone(&rel);
                        self.invocation_log.push((key, rel, deps));
                        return Ok(answer);
                    }
                    // Held through the computation below; an early
                    // error return drops it, releasing the key so a
                    // waiter takes over as leader.
                    MemoClaim::Leader(guard) => Some(guard),
                }
            }
            _ => None,
        };
        self.obs.count(Metric::HandleInvocations);
        let span = if self.obs.tracing() {
            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
            let given_str: Vec<String> = given.iter().map(|(k, v)| format!("{k}={v}")).collect();
            self.obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Handle,
                name.to_string(),
                vec![
                    ("site", site.host().to_string()),
                    ("mandatory", handle.mandatory.iter().cloned().collect::<Vec<_>>().join(",")),
                    ("given", given_str.join(" ")),
                ],
            )
        } else {
            SpanHandle::INERT
        };
        let denied_before = self
            .budget
            .as_ref()
            .map(|b| b.snapshot().sites.values().map(|s| s.denied).sum::<u64>());
        let navigator = self.navigator_at(e.site);
        let (records, run) = match navigator.run_relation(name, &given) {
            Ok(out) => out,
            Err(err) => {
                if self.obs.tracing() {
                    self.obs.sink.end_with(span, vec![("error", err.to_string())]);
                }
                return Err(EvalError::Provider(err.to_string()));
            }
        };
        if let (Some(budget), Some(before)) = (self.budget.as_ref(), denied_before) {
            let after: u64 = budget.snapshot().sites.values().map(|s| s.denied).sum();
            // A position joins the resume token only when the budget did
            // not truncate the invocation: resuming replays exactly the
            // completed work, and the truncated tail re-runs.
            if after == before {
                self.positions
                    .push(NavPosition { relation: name.to_string(), given: given.clone() });
            }
            budget.mark_served(site.host());
        }
        *self.stats.invocations.entry(name.to_string()).or_default() += 1;
        *self.stats.pages.entry(name.to_string()).or_default() += run.pages_fetched;
        *self.stats.retries.entry(name.to_string()).or_default() += run.retries;
        *self.stats.network.entry(name.to_string()).or_default() += run.network;
        *self.stats.cpu.entry(name.to_string()).or_default() += run.cpu;

        let mut rel = Relation::new(e.schema.clone());
        for rec in records {
            rel.push(Tuple::from_values(
                e.schema
                    .attrs()
                    .iter()
                    .map(|a| rec.get(a.as_str()).cloned().unwrap_or(Value::Null)),
            ));
        }
        self.obs.count_n(Metric::TuplesEmitted, rel.len() as u64);
        if self.obs.tracing() {
            // The query track's clock is the serial network time summed
            // over every handle invocation so far — monotone, and equal
            // between serial and (hypothetical) parallel execution.
            self.obs.sink.advance(QUERY_TRACK, self.stats.total_network());
            self.obs.sink.end_with(
                span,
                vec![("tuples", rel.len().to_string()), ("pages", run.pages_fetched.to_string())],
            );
        }
        // The pages this invocation read (cache hits and fresh fetches
        // alike — either way the answer was computed from them).
        let deps: Arc<[Request]> =
            self.reads.as_ref().map(|r| r.slice_from(read_mark)).unwrap_or_default().into();
        // Memoize only answers from a navigator that has never seen
        // degradation: a truncated or partially healed run must not be
        // replayed to other queries as complete. Settling `None` still
        // releases the key and wakes waiting sessions.
        // The memo and the log share one copy of the answer.
        let key = AnswerMemo::key(name, &given);
        let logged = Arc::new(rel.clone());
        if let Some(guard) = memo_lead {
            if navigator.degradation().is_clean() {
                guard.settle_with_deps(logged.clone(), deps.clone());
            } else {
                guard.settle(None);
            }
        }
        self.invocation_log.push((key, logged, deps));
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_relational::prelude::*;

    fn catalog() -> (VpsCatalog, Arc<Dataset>) {
        let data = Dataset::generate(5, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut cat = VpsCatalog::new();
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            cat.add_map(web.clone(), map);
        }
        (cat, data)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "share one page store")]
    fn add_map_compiled_refuses_a_second_page_store() {
        let data = Dataset::generate(5, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut cat = VpsCatalog::new();
        for (host, session) in sessions::all_sessions(&data).into_iter().take(2) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            let (runtime, _) = SiteRuntime::analyze(web.clone(), map.clone());
            cat.add_map_compiled(
                web.clone(),
                map,
                runtime.nav.compiled().clone(),
                &runtime.handles,
                runtime.semantics.clone(),
                FetchPolicy::default_policy(),
                PageStore::new(),
                None,
            );
        }
    }

    #[test]
    fn catalog_has_all_table1_relations() {
        let (cat, _) = catalog();
        let rels: Vec<&str> = cat.relations().collect();
        for expected in [
            "newsday",
            "newsdayCarFeatures",
            "nyTimes",
            "nyDaily",
            "wwwheels",
            "autoConnect",
            "yahooCars",
            "carReviews",
            "carPoint",
            "autoWeb",
            "kellys",
            "carAndDriver",
            "carFinance",
            "carInsurance",
        ] {
            assert!(rels.contains(&expected), "missing {expected} in {rels:?}");
        }
        let t1 = cat.render_table1();
        assert!(t1.contains("newsday(make, model, year, price, contact, url)"), "{t1}");
        let t3 = cat.render_table3();
        assert!(t3.contains("kellys: {condition, make, model, pricetype} | {year}"), "{t3}");
    }

    #[test]
    fn every_loaded_map_carries_semantics() {
        let (cat, _) = catalog();
        let rels: Vec<String> = cat.relations().map(str::to_string).collect();
        for name in rels {
            let sem = cat.relation_semantics(&name).expect("semantics stored at load");
            assert!(sem.cost.min >= 1, "{name}: at least the entry fetch");
            assert!(!sem.read_nodes.is_empty(), "{name}: non-empty static read-set");
        }
    }

    #[test]
    fn fetch_respects_handles() {
        let (mut cat, data) = catalog();
        let spec = AccessSpec::new().with("make", "ford");
        let rel = cat.fetch("newsday", &spec).expect("fetches");
        let truth = data.matching(SiteSlice::Newsday, Some("ford"), None);
        assert_eq!(rel.len(), truth.len());
        // Unbound mandatory → UnboundAccess.
        let err = cat.fetch("kellys", &spec).expect_err("kellys needs more");
        assert!(matches!(err, EvalError::UnboundAccess { .. }));
    }

    #[test]
    fn evaluator_joins_vps_relations() {
        // The paper's Figure 4 pipeline as an algebra evaluation:
        // newsday ⋈ newsdayCarFeatures with make bound.
        let (mut cat, data) = catalog();
        let make = sessions::rare_newsday_make(&data)
            .unwrap_or_else(|| sessions::popular_newsday_make(&data));
        let e = Expr::relation("newsday")
            .join(Expr::relation("newsdayCarFeatures"))
            .select(Pred::eq("make", make.clone()))
            .project(["make", "model", "price", "features", "picture"]);
        let result = Evaluator::new(&mut cat).eval(&e, &AccessSpec::new()).expect("evals");
        let truth = data.matching(SiteSlice::Newsday, Some(&make), None);
        assert_eq!(result.len(), truth.len());
        // features column populated from the detail pages
        let fidx = result.schema().index_of(&"features".into()).expect("features col");
        assert!(result.tuples().iter().all(|t| !t.get(fidx).is_null()));
        assert!(cat.stats.total_pages() > 0);
    }

    #[test]
    fn kellys_blue_book_via_algebra() {
        let (mut cat, _) = catalog();
        let e = Expr::relation("kellys").select(Pred::and(vec![
            Pred::eq("make", "jaguar"),
            Pred::eq("model", "xj6"),
            Pred::eq("condition", "good"),
            Pred::eq("pricetype", "retail"),
        ]));
        let rel = Evaluator::new(&mut cat).eval(&e, &AccessSpec::new()).expect("evals");
        assert_eq!(rel.len(), 11, "one row per year 1988–1998");
        let bb = rel.schema().index_of(&"bbprice".into()).expect("bbprice");
        assert!(rel.tuples().iter().all(|t| t.get(bb).as_int().is_some()));
    }

    #[test]
    fn binding_sets_match_handles() {
        let (cat, _) = catalog();
        let b = cat.bindings("kellys").expect("bindings");
        assert_eq!(b.bindings().len(), 1);
        assert_eq!(b.bindings()[0].len(), 4); // make, model, condition, pricetype
        let free = cat.bindings("autoWeb").expect("bindings");
        assert!(free.satisfied_by(&Default::default()), "autoWeb is enumerable");
    }

    #[test]
    fn budgeted_fetch_records_positions_and_journal() {
        use webbase_navigation::budget::QueryBudget;
        let (mut cat, _) = catalog();
        let tracker = Arc::new(BudgetTracker::new(QueryBudget::unlimited()));
        cat.set_budget(tracker.clone());
        let spec = AccessSpec::new().with("make", "ford");
        cat.fetch("newsday", &spec).expect("fetches");
        assert_eq!(cat.positions().len(), 1);
        assert_eq!(cat.positions()[0].relation, "newsday");
        let token = cat.resume_token().expect("budget attached");
        assert!(!token.journal.is_empty(), "every fetched page is journalled");
        assert!(token.journal.iter().all(|e| e.request.url.host == "www.newsday.com"));
        let snap = tracker.snapshot();
        assert!(
            snap.sites.get("www.newsday.com").is_some_and(|s| s.served),
            "fair-share floor released after the site's first completed invocation"
        );
    }

    #[test]
    fn sessions_build_navigators_only_for_invoked_sites() {
        let (mut cat, _) = catalog();
        assert_eq!(cat.navigators_built(), 0, "registering sites builds nothing");
        let _ = cat.render_table1();
        let _ = cat.bindings("kellys");
        assert_eq!(cat.navigators_built(), 0, "metadata lookups build nothing");
        cat.fetch("newsday", &AccessSpec::new().with("make", "ford")).expect("fetches");
        cat.fetch("newsday", &AccessSpec::new().with("make", "honda")).expect("fetches");
        assert_eq!(cat.navigators_built(), 1, "one site invoked, one navigator");
        cat.fetch("autoWeb", &AccessSpec::new()).expect("fetches");
        assert_eq!(cat.navigators_built(), 2);
    }

    #[test]
    fn fair_share_floors_cover_sites_no_navigator_reached_yet() {
        use webbase_navigation::budget::{BudgetDenial, QueryBudget};
        let (mut cat, _) = catalog();
        let sites = cat.index.sites.len() as u64;
        // Two fetches of floor per site: every unreached site keeps its
        // two reserved, so newsday alone may spend only its own two.
        let budget = QueryBudget::unlimited().with_fetch_quota(2 * sites).with_fair_share(true);
        let tracker = Arc::new(BudgetTracker::new(budget));
        cat.set_budget(tracker.clone());
        assert_eq!(cat.navigators_built(), 0);
        assert_eq!(tracker.snapshot().sites.len() as u64, sites, "every site registered up front");
        let _ = cat.fetch("newsday", &AccessSpec::new().with("make", "ford"));
        assert_eq!(cat.navigators_built(), 1);
        let snap = tracker.snapshot();
        let newsday = &snap.sites["www.newsday.com"];
        assert_eq!(newsday.fetches, 2, "{snap:?}");
        assert!(newsday.denied > 0, "{snap:?}");
        assert_eq!(tracker.exhausted(), Some(BudgetDenial::FairShareDeferred));
    }

    #[test]
    fn a_preloaded_journal_reaches_navigators_built_afterwards() {
        use webbase_navigation::budget::QueryBudget;
        let spec = AccessSpec::new().with("make", "ford");
        let (mut first, _) = catalog();
        first.set_budget(Arc::new(BudgetTracker::new(QueryBudget::unlimited())));
        let full = first.fetch("newsday", &spec).expect("fetches");
        let token = first.resume_token().expect("budget attached");
        assert!(!token.journal.is_empty());

        let (mut resumed, _) = catalog();
        resumed.set_budget(Arc::new(BudgetTracker::new(QueryBudget::unlimited())));
        resumed.preload(&token);
        assert_eq!(resumed.navigators_built(), 0, "preloading builds nothing");
        assert_eq!(
            resumed.resume_journal(),
            token.journal,
            "pages owed to an unbuilt navigator stay in the next token"
        );
        let again = resumed.fetch("newsday", &spec).expect("fetches");
        assert_eq!(resumed.navigators_built(), 1);
        assert_eq!(again, full);
        assert_eq!(resumed.stats.total_pages(), 0, "every journalled page served from the preload");
        assert_eq!(resumed.resume_journal(), token.journal);
    }

    #[test]
    fn a_site_first_built_mid_query_reports_its_degradation_through_since() {
        use webbase_webworld::faults::FlakySite;
        use webbase_webworld::server::Site;
        let data = Dataset::generate(5, 600);
        let healthy = standard_web(data.clone(), LatencyModel::lan());
        let flaky = standard_web_faulty(data.clone(), LatencyModel::lan(), |host, site| {
            if host == "www.newsday.com" {
                Box::new(FlakySite::new(site, 3)) as Box<dyn Site>
            } else {
                site
            }
        });
        let mut cat = VpsCatalog::new();
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(healthy.clone(), host, &session).expect("records");
            cat.add_map(flaky.clone(), map);
        }
        // The baseline predates every navigator: the site is first seen
        // after it and must count from zero.
        let before = cat.degradation();
        assert!(before.sites.is_empty(), "{before:?}");
        let _ = cat.fetch("newsday", &AccessSpec::new().with("make", "ford"));
        let delta = cat.degradation().since(&before);
        let newsday = delta.sites.get("www.newsday.com").expect("the invoked site reports");
        assert!(newsday.failures > 0 && newsday.requests > 0, "{delta:?}");
        assert_eq!(delta.sites.len(), 1, "only the invoked site appears: {delta:?}");
        assert_eq!(cat.degradation(), delta, "nothing before the baseline to subtract");
    }

    #[test]
    fn execute_returns_results_in_input_order() {
        let (mut cat, data) = catalog();
        let make = sessions::popular_newsday_make(&data);
        let jobs = vec![
            ("newsday".to_string(), AccessSpec::new().with("make", make.clone())),
            ("autoWeb".to_string(), AccessSpec::new()),
            ("newsday".to_string(), AccessSpec::new().with("make", make.clone())),
            ("nosuch".to_string(), AccessSpec::new()),
        ];
        let results = cat.execute(&jobs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert!(matches!(&results[3], Err(EvalError::UnknownRelation(n)) if n == "nosuch"));
        assert_eq!(
            results[0].as_ref().map(Relation::len),
            results[2].as_ref().map(Relation::len),
            "repeated invocation is deterministic (second hits the cache)"
        );
    }

    #[test]
    fn preferred_handle_uses_most_constants() {
        // newsdayCarFeatures has {url} and the navigation handle; with
        // url bound the direct one must be used (cheap), which we observe
        // through the page count.
        let (mut cat, data) = catalog();
        let make = sessions::popular_newsday_make(&data);
        let base = cat.fetch("newsday", &AccessSpec::new().with("make", make)).expect("newsday");
        let url_idx = base.schema().index_of(&"url".into()).expect("url col");
        let url = base.tuples()[0].get(url_idx).clone();
        let pages_before = cat.stats.total_pages();
        let feat =
            cat.fetch("newsdayCarFeatures", &AccessSpec::new().with("url", url)).expect("features");
        assert_eq!(feat.len(), 1);
        let delta = cat.stats.total_pages() - pages_before;
        assert!(delta <= 2, "direct dereference should fetch ~1 page, got {delta}");
    }
}
