//! Query planning and execution for the structured UR.
//!
//! "The semantics of this query is said to be the join R₁ ⋈ … ⋈ Rₙ,
//! where R₁…Rₙ is a minimal (with respect to inclusion) subset of
//! logical relations that satisfy the compatibility rules, and … contains
//! all attributes in A. … If there are several maximal objects covering
//! the query attributes then we take the union of results obtained from
//! each object."
//!
//! The planner:
//!
//! 1. enumerates the *minimal covering compatible sets* of alternatives,
//!    over a [`ConceptIndex`] that confines the enumeration to the
//!    alternatives the query can use;
//! 2. translates each into algebra over the logical layer — each
//!    alternative contributes `σ_fixed(relation)`, joined in a
//!    **binding-feasible order** computed by
//!    `webbase_relational::ordering` from the query's equality constants
//!    (sets with no feasible order are reported as skipped: the user
//!    must bind more attributes);
//! 3. evaluates each object's conjunctive query and unions the results.

use crate::compat::CompatRules;
use crate::hierarchy::Hierarchy;
use crate::index::ConceptIndex;
use crate::maximal::AltNames;
use crate::query::UrQuery;
use std::ops::Deref;
use std::sync::{Arc, PoisonError, RwLock};
use webbase_logical::{
    BudgetSnapshot, BudgetTracker, LogicalLayer, Obs, ResumeToken, SpanHandle, SpanKind,
    QUERY_TRACK,
};
use webbase_relational::eval::{AccessSpec, EvalError, Evaluator};
use webbase_relational::{Expr, Relation};

/// One planned maximal-object query.
#[derive(Debug, Clone)]
pub struct PlannedObject {
    pub alternatives: AltNames,
    pub expr: Expr,
}

/// A full UR plan: pure metadata, valid for every session over the same
/// layer schema, and small, because every published view keeps one.
#[derive(Debug, Clone)]
pub struct UrPlan {
    pub objects: Vec<PlannedObject>,
    /// Covering sets that could not be ordered under the available
    /// bindings, with the reason.
    pub skipped: Vec<(AltNames, String)>,
}

impl UrPlan {
    /// Render the plan — the Example 6.2 "maximal objects and the
    /// corresponding relational expressions" listing.
    pub fn render(&self) -> String {
        let mut out = String::from("UR plan\n");
        for o in &self.objects {
            let names: Vec<&str> = o.alternatives.iter().map(String::as_str).collect();
            out.push_str(&format!("  object {}\n    {}\n", names.join(" ⋈ "), o.expr));
        }
        for (set, why) in &self.skipped {
            let names: Vec<&str> = set.iter().map(String::as_str).collect();
            out.push_str(&format!("  skipped {}: {why}\n", names.join(" ⋈ ")));
        }
        out
    }
}

/// One execution of a [`UrPlan`]: the plan it ran plus what the Web did
/// to *this* run. Dereferences to the plan.
#[derive(Debug, Clone)]
pub struct UrExecution {
    pub plan: Arc<UrPlan>,
    /// Per-site retries, timeouts, fast-fails, and abandoned branches
    /// (clean when every site behaved).
    pub degradation: webbase_logical::DegradationReport,
    /// What self-healing did: repairs applied, runs replayed, sessions
    /// recovered, nodes quarantined.
    pub repairs: webbase_logical::RepairReport,
    /// Spend accounting when the query carried a budget: elapsed
    /// simulated time, fetches, and the per-site breakdown including
    /// every denial.
    pub budget: Option<BudgetSnapshot>,
    /// Set when the budget ran out before the plan finished: replaying
    /// the query with this token (see [`UrPlanner::execute_with`])
    /// continues from the journalled pages without re-fetching them.
    pub resume: Option<ResumeToken>,
    /// Each object's individual result, in `objects` order. The full
    /// answer is their union; keeping the per-object values lets a
    /// maintained view refresh only the objects a drift event touched
    /// and re-derive the union incrementally.
    pub object_results: Vec<Relation>,
}

impl UrExecution {
    /// A clean report over `plan` with nothing executed — what a cached
    /// answer comes back with.
    pub fn of(plan: Arc<UrPlan>) -> UrExecution {
        UrExecution {
            plan,
            degradation: webbase_logical::DegradationReport::default(),
            repairs: webbase_logical::RepairReport::default(),
            budget: None,
            resume: None,
            object_results: Vec::new(),
        }
    }
}

impl Deref for UrExecution {
    type Target = UrPlan;

    fn deref(&self) -> &UrPlan {
        &self.plan
    }
}

/// Planning/execution errors.
#[derive(Debug)]
pub enum UrError {
    /// Some mentioned attribute exists in no alternative's relation.
    UnknownAttribute(String),
    /// No compatible set covers the query's attributes.
    NotCoverable(Vec<String>),
    /// Covering sets exist but none is executable under the supplied
    /// bindings; the message lists what was missing.
    InsufficientBindings(String),
    Eval(EvalError),
}

impl std::fmt::Display for UrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrError::UnknownAttribute(a) => write!(f, "unknown UR attribute {a}"),
            UrError::NotCoverable(attrs) => {
                write!(f, "no compatible object covers attributes {attrs:?}")
            }
            UrError::InsufficientBindings(m) => {
                write!(f, "query needs more bound attributes: {m}")
            }
            UrError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for UrError {}

impl From<EvalError> for UrError {
    fn from(e: EvalError) -> UrError {
        UrError::Eval(e)
    }
}

/// The planner: hierarchy + rules over a logical layer.
///
/// Planning runs over a [`ConceptIndex`], derived from the hierarchy,
/// the rules and the layer's schema on first use and kept until a layer
/// with other schema sources comes along (every session of one engine
/// shares its sources, so the engine derives it once).
pub struct UrPlanner {
    hierarchy: Hierarchy,
    rules: CompatRules,
    index: RwLock<Option<Arc<ConceptIndex>>>,
}

impl UrPlanner {
    pub fn new(hierarchy: Hierarchy, rules: CompatRules) -> UrPlanner {
        UrPlanner { hierarchy, rules, index: RwLock::new(None) }
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    pub fn rules(&self) -> &CompatRules {
        &self.rules
    }

    /// The concept index for `layer`'s schema, built on first use.
    pub fn index(&self, layer: &LogicalLayer) -> Arc<ConceptIndex> {
        let cached = self.index.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = cached.as_ref().filter(|i| i.matches(layer)) {
            return index.clone();
        }
        drop(cached);
        let index = Arc::new(ConceptIndex::build(&self.hierarchy, &self.rules, layer));
        *self.index.write().unwrap_or_else(PoisonError::into_inner) = Some(index.clone());
        index
    }

    /// The UR's full attribute list, in first-mention order (for
    /// rendering Figure 5 and for the user interface's attribute picker).
    pub fn ur_attributes(&self, layer: &LogicalLayer) -> Vec<String> {
        self.index(layer).ur_attributes().to_vec()
    }

    /// Plan a query against a logical layer.
    pub fn plan(&self, query: &UrQuery, layer: &LogicalLayer) -> Result<UrPlan, UrError> {
        self.index(layer).plan(query, layer)
    }

    /// The compatible sets planning `query` enumerates — a
    /// deterministic work count that follows the query's footprint,
    /// not the size of the hierarchy.
    pub fn sets_enumerated(&self, query: &UrQuery, layer: &LogicalLayer) -> Result<usize, UrError> {
        self.index(layer).sets_enumerated(query)
    }

    /// Plan and execute: the union over the objects' results.
    pub fn execute(
        &self,
        query: &UrQuery,
        layer: &mut LogicalLayer,
    ) -> Result<(Relation, UrExecution), UrError> {
        self.execute_with(query, layer, None)
    }

    /// Plan and execute under the query's budget, optionally resuming
    /// from an earlier run's token.
    ///
    /// With a budget attached, exhaustion does not fail the query: the
    /// affected navigation branches are abandoned soundly, the partial
    /// result is returned, and the plan carries a [`ResumeToken`]
    /// journalling every page already paid for. Re-running through this
    /// method with that token preloads the journal into the page caches,
    /// so the resumed execution re-fetches none of them and spends its
    /// fresh budget entirely on the unfinished tail.
    pub fn execute_with(
        &self,
        query: &UrQuery,
        layer: &mut LogicalLayer,
        resume: Option<&ResumeToken>,
    ) -> Result<(Relation, UrExecution), UrError> {
        // The Query root span is begun *before* planning so the Plan
        // span (and the rewrite/object events it emits) nest under it.
        let obs = layer.vps.obs().clone();
        let root = if obs.tracing() {
            obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Query,
                format!("{}({})", query.ur_name, query.outputs.join(", ")),
                vec![("resumed", resume.is_some().to_string())],
            )
        } else {
            SpanHandle::INERT
        };
        let plan_span = if obs.tracing() {
            obs.sink.begin(QUERY_TRACK, SpanKind::Plan, "plan".to_string(), Vec::new())
        } else {
            SpanHandle::INERT
        };
        let planned = self.plan(query, layer);
        if obs.tracing() {
            match &planned {
                Ok(p) => obs.sink.end_with(
                    plan_span,
                    vec![
                        ("objects", p.objects.len().to_string()),
                        ("skipped", p.skipped.len().to_string()),
                    ],
                ),
                Err(e) => obs.sink.end_with(plan_span, vec![("error", e.to_string())]),
            }
        }
        let plan = planned?;
        self.run_plan(query, Arc::new(plan), layer, resume, &obs, root)
    }

    /// Execute a *previously computed* plan, skipping the planning
    /// pass. Sound only when `plan` came from [`UrPlanner::plan`] for
    /// the same query text over a layer with the same schema and
    /// handles — which is exactly the multi-query engine's situation:
    /// every per-query session is built from the same shared artifacts,
    /// so a plan computed once is valid for every session, and a
    /// published view keeps its plan for refresh.
    pub fn execute_planned(
        &self,
        query: &UrQuery,
        plan: &UrPlan,
        layer: &mut LogicalLayer,
    ) -> Result<(Relation, UrExecution), UrError> {
        self.execute_shared(query, Arc::new(plan.clone()), layer)
    }

    /// [`UrPlanner::execute_planned`] over a shared plan, which the
    /// execution report keeps without copying it.
    pub fn execute_shared(
        &self,
        query: &UrQuery,
        plan: Arc<UrPlan>,
        layer: &mut LogicalLayer,
    ) -> Result<(Relation, UrExecution), UrError> {
        let obs = layer.vps.obs().clone();
        let root = if obs.tracing() {
            obs.sink.begin(
                QUERY_TRACK,
                SpanKind::Query,
                format!("{}({})", query.ur_name, query.outputs.join(", ")),
                vec![("plan", "cached".to_string())],
            )
        } else {
            SpanHandle::INERT
        };
        self.run_plan(query, plan, layer, None, &obs, root)
    }

    fn run_plan(
        &self,
        query: &UrQuery,
        plan: Arc<UrPlan>,
        layer: &mut LogicalLayer,
        resume: Option<&ResumeToken>,
        obs: &Obs,
        root: SpanHandle,
    ) -> Result<(Relation, UrExecution), UrError> {
        // A resumed run inherits the original budget unless the query
        // supplies its own.
        let budget_spec = query.budget.clone().or_else(|| resume.map(|t| t.budget.clone()));
        let tracker = budget_spec.map(|b| {
            let tracker = Arc::new(BudgetTracker::new(b));
            layer.vps.set_budget(tracker.clone());
            tracker
        });
        if let Some(token) = resume {
            layer.vps.preload(token);
        }
        // Snapshot cumulative per-site degradation so the plan reports
        // only what *this* execution endured.
        let degradation_before = layer.vps.degradation();
        let repairs_before = layer.vps.repairs();
        let mut result: Option<Relation> = None;
        let mut run = UrExecution::of(plan);
        for obj in &run.plan.objects {
            let obj_span = if obs.tracing() {
                let names: Vec<&str> = obj.alternatives.iter().map(String::as_str).collect();
                obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
                obs.sink.begin(QUERY_TRACK, SpanKind::Object, names.join(" ⋈ "), Vec::new())
            } else {
                SpanHandle::INERT
            };
            let evaled = Evaluator::new(layer).eval(&obj.expr, &AccessSpec::new());
            if obs.tracing() {
                obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
                match &evaled {
                    Ok(rel) => {
                        obs.sink.end_with(obj_span, vec![("tuples", rel.len().to_string())]);
                    }
                    Err(e) => obs.sink.end_with(obj_span, vec![("error", e.to_string())]),
                }
            }
            let rel = evaled?;
            run.object_results.push(rel.clone());
            result = Some(match result {
                None => rel,
                Some(mut acc) => {
                    if acc.schema() != rel.schema() {
                        return Err(UrError::Eval(EvalError::SchemaMismatch(format!(
                            "objects disagree: {} vs {}",
                            acc.schema(),
                            rel.schema()
                        ))));
                    }
                    for t in rel.tuples() {
                        acc.push(t.clone());
                    }
                    acc
                }
            });
        }
        run.degradation = layer.vps.degradation().since(&degradation_before);
        run.repairs = layer.vps.repairs().since(&repairs_before);
        if let Some(tracker) = tracker {
            run.budget = Some(tracker.snapshot());
            if tracker.exhausted().is_some() {
                run.resume = layer.vps.resume_token().map(|mut t| {
                    // Spend is cumulative across resumptions, so the
                    // token always reports the query's true total cost.
                    if let Some(prev) = resume {
                        t.spent_network += prev.spent_network;
                        t.spent_fetches += prev.spent_fetches;
                    }
                    t
                });
            }
        }
        let result = result.expect("objects is non-empty");
        if obs.tracing() {
            obs.sink.advance(QUERY_TRACK, layer.vps.stats.total_network());
            obs.sink.end_with(
                root,
                vec![
                    ("tuples", result.len().to_string()),
                    ("degraded", (!run.degradation.is_clean()).to_string()),
                ],
            );
        }
        Ok((result, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::example62_rules;
    use crate::hierarchy::figure5;
    use crate::query::parse_query;
    use std::sync::Arc;
    use webbase_logical::paper_schema;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_vps::VpsCatalog;
    use webbase_webworld::prelude::*;

    fn layer() -> (LogicalLayer, Arc<Dataset>) {
        let data = Dataset::generate(42, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut cat = VpsCatalog::new();
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            cat.add_map(web.clone(), map);
        }
        (LogicalLayer::new(cat, paper_schema()), data)
    }

    fn planner() -> UrPlanner {
        UrPlanner::new(figure5(), example62_rules())
    }

    #[test]
    fn ur_attributes_cover_the_domain() {
        let (layer, _) = layer();
        let attrs = planner().ur_attributes(&layer);
        for a in ["make", "model", "year", "price", "bbprice", "rate", "cost", "safety"] {
            assert!(attrs.contains(&a.to_string()), "missing {a}");
        }
    }

    #[test]
    fn plan_minimal_objects_for_simple_query() {
        // price only → one UsedCar alternative suffices; two minimal
        // covering sets (Dealers, Classifieds) → union of both.
        let (layer, _) = layer();
        let q = parse_query("UsedCarUR(make='ford', price)").expect("parses");
        let plan = planner().plan(&q, &layer).expect("plans");
        assert_eq!(plan.objects.len(), 2, "{}", plan.render());
        assert!(plan.skipped.is_empty());
        let rendered = plan.render();
        assert!(rendered.contains("Dealers"));
        assert!(rendered.contains("Classifieds"));
    }

    #[test]
    fn lease_plan_pulls_in_full_coverage_and_drops_classifieds() {
        let (layer, _) = layer();
        // rate with plan fixed by the Lease concept… the user asks for
        // lease rates by querying rate with the Lease-selecting trick:
        // mention cost (insurance) and rate; bind zip/duration/condition.
        let q = parse_query("UsedCarUR(make='ford', price, rate, cost, zip='10001', duration=36)")
            .expect("parses");
        let plan = planner().plan(&q, &layer).expect("plans");
        for obj in &plan.objects {
            if obj.alternatives.contains("Lease") {
                assert!(
                    obj.alternatives.contains("FullCoverage"),
                    "lease object without full coverage: {:?}",
                    obj.alternatives
                );
                assert!(
                    !obj.alternatives.contains("Classifieds"),
                    "navigation trap: {:?}",
                    obj.alternatives
                );
            }
        }
        // Loan objects pair with either coverage → more objects than lease ones.
        assert!(plan.objects.len() >= 3, "{}", plan.render());
    }

    #[test]
    fn infeasible_bindings_reported() {
        let (layer, _) = layer();
        // bbprice needs condition (kellys mandatory); unbound → the plan
        // must fail with a binding explanation, not an empty answer.
        let q = parse_query("UsedCarUR(make='ford', bbprice)").expect("parses");
        let err = planner().plan(&q, &layer).expect_err("needs condition");
        assert!(matches!(err, UrError::InsufficientBindings(_)), "{err}");
    }

    #[test]
    fn unknown_attribute_rejected() {
        let (layer, _) = layer();
        let q = parse_query("UsedCarUR(warp_drive)").expect("parses");
        assert!(matches!(planner().plan(&q, &layer), Err(UrError::UnknownAttribute(_))));
    }

    #[test]
    fn budgeted_execution_returns_sound_partial_results_and_a_token() {
        use webbase_logical::QueryBudget;
        let (mut unbounded, _) = layer();
        let q = parse_query("UsedCarUR(make='ford', price)").expect("parses");
        let (full, _) = planner().execute(&q, &mut unbounded).expect("executes");
        assert!(!full.is_empty());

        let (mut tight, _) = layer();
        let bq = q.clone().with_budget(QueryBudget::unlimited().with_fetch_quota(2));
        let (partial, plan) =
            planner().execute(&bq, &mut tight).expect("exhaustion degrades, never fails");
        assert!(partial.len() < full.len(), "{} vs {}", partial.len(), full.len());
        for t in partial.tuples() {
            assert!(full.tuples().contains(t), "partial tuple absent from the unbounded run");
        }
        let snap = plan.budget.expect("budgeted run snapshots its spend");
        assert!(snap.exhausted.is_some(), "quota of 2 must run out");
        assert!(snap.sites.values().map(|s| s.denied).sum::<u64>() > 0);
        assert!(!plan.degradation.is_clean(), "denials surface in the degradation report");
        let token = plan.resume.expect("exhausted run leaves a resume token");
        assert_eq!(
            token.journal.len() as u64,
            snap.fetches,
            "every paid-for page is journalled for resumption"
        );
    }

    #[test]
    fn jaguar_query_end_to_end() {
        // The paper's §1 query: used Jaguars, 1993 or later, good safety
        // ratings, selling price below blue book value.
        let (mut layer, data) = layer();
        let q = parse_query(
            "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
             safety='good', condition='good') WHERE price < bbprice",
        )
        .expect("parses");
        let (result, plan) = planner().execute(&q, &mut layer).expect("executes");
        assert!(!plan.objects.is_empty(), "{}", plan.render());

        // Ground truth: jaguar ads (any source site we model as
        // classifieds/dealers), year ≥ 1993, safety(good), price < bb.
        use std::collections::BTreeSet;
        use webbase_webworld::data::{blue_book_price_typed, safety_rating};
        // The query projects away the ad's contact, so distinct ads that
        // agree on every projected attribute merge under set semantics —
        // dedup the ground truth the same way.
        let mut expected: BTreeSet<(String, String, u32, u32, u32)> = BTreeSet::new();
        for slice in [
            SiteSlice::Newsday,
            SiteSlice::NyTimes,
            SiteSlice::NewYorkDaily,
            SiteSlice::CarPoint,
            SiteSlice::AutoWeb,
        ] {
            for ad in data.matching(slice, Some("jaguar"), None) {
                let bb = blue_book_price_typed(&ad.make, &ad.model, ad.year, "good", "retail");
                if ad.year >= 1993
                    && safety_rating(&ad.make, &ad.model, ad.year) == "good"
                    && ad.price < bb
                {
                    expected.insert((ad.make.clone(), ad.model.clone(), ad.year, ad.price, bb));
                }
            }
        }
        assert!(!expected.is_empty(), "seed must produce answers for this test to bite");
        assert_eq!(result.len(), expected.len(), "{}", result.to_table());
        // Shape: outputs in mention order.
        assert_eq!(
            result
                .schema()
                .attrs()
                .iter()
                .map(webbase_relational::Attr::as_str)
                .collect::<Vec<_>>(),
            vec!["make", "model", "year", "price", "bbprice", "safety", "condition"]
        );
    }
}

#[cfg(test)]
mod computed_plan_tests {
    use super::*;
    use crate::compat::example62_rules;
    use crate::hierarchy::figure5;
    use crate::query::parse_query;
    use webbase_logical::paper_schema;
    use webbase_navigation::recorder::Recorder;
    use webbase_navigation::sessions;
    use webbase_vps::VpsCatalog;
    use webbase_webworld::prelude::*;

    /// The §6.2 query: "make a list of used Jaguars … such that each
    /// car's monthly payments are less than 1,000 dollars, and its
    /// selling price is less than its Blue Book price."
    #[test]
    fn section62_monthly_payment_query() {
        let data = Dataset::generate(42, 600);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let mut cat = VpsCatalog::new();
        for (host, session) in sessions::all_sessions(&data) {
            let (map, _) = Recorder::record(web.clone(), host, &session).expect("records");
            cat.add_map(web.clone(), map);
        }
        let mut layer = LogicalLayer::new(cat, paper_schema());
        let planner = UrPlanner::new(figure5(), example62_rules());

        // A simple amortisation approximation: total interest at the
        // quoted APR over the term, spread over the months.
        let q = parse_query(
            "UsedCarUR(make='jaguar', model, year >= 1994, price, bbprice, rate, \
             zip='10001', duration=36, condition='good', \
             payment := price * (1 + rate / 100 * duration / 12) / duration) \
             WHERE payment < 1000 AND price < bbprice",
        )
        .expect("parses");
        let (result, plan) = planner.execute(&q, &mut layer).expect("executes");
        assert!(!plan.objects.is_empty(), "{}", plan.render());
        // Lease and Loan objects both planned (both finance meanings).
        assert!(plan.objects.iter().any(|o| o.alternatives.contains("Loan")), "{}", plan.render());

        // Every answer satisfies the computed constraint, recomputed
        // from the row's own attributes.
        let s = result.schema();
        let (pi, ri, di, pay) = (
            s.index_of(&"price".into()).expect("price"),
            s.index_of(&"rate".into()).expect("rate"),
            s.index_of(&"duration".into()).expect("duration"),
            s.index_of(&"payment".into()).expect("payment"),
        );
        assert!(!result.is_empty(), "the §6.2 query should have answers at this seed");
        for t in result.tuples() {
            let price = t.get(pi).as_f64().expect("price");
            let rate = t.get(ri).as_f64().expect("rate");
            let duration = t.get(di).as_f64().expect("duration");
            let payment = t.get(pay).as_f64().expect("payment");
            let expected = price * (1.0 + rate / 100.0 * duration / 12.0) / duration;
            assert!((payment - expected).abs() < 1e-6);
            assert!(payment < 1000.0);
        }
    }
}
