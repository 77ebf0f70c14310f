//! The concept-indexed planner against the planner it replaced.
//!
//! `reference_plan` below is the pre-index algorithm, kept only here as
//! the oracle: rebuild the UR attribute list, enumerate *every*
//! compatible set of the hierarchy, recompute each set's coverage, keep
//! the minimal covering sets in enumeration order, and translate each.
//! The indexed planner must agree with it exactly: the same objects in
//! the same order with the same rendered expressions, the same skipped
//! sets and reasons, and the same error variants and messages.

use proptest::prelude::*;
use std::collections::BTreeSet;
use webbase_logical::LogicalLayer;
use webbase_relational::binding::propagate;
use webbase_relational::eval::RelationProvider;
use webbase_relational::ordering::{order_exact, JoinInput};
use webbase_relational::{Attr, Expr, Pred};
use webbase_ur::compat::{example62_rules, CompatRule, CompatRules};
use webbase_ur::hierarchy::{figure5, Alternative, ChoiceGroup, Hierarchy};
use webbase_ur::maximal::{compatible_sets, AltSet};
use webbase_ur::plan::{PlannedObject, UrError, UrPlan, UrPlanner};
use webbase_ur::query::{parse_query, UrQuery};
use webbase_webworld::generate::GenCorpus;
use webbase_webworld::prelude::{Dataset, LatencyModel};

// ── the reference oracle: the planner before the concept index ──────

fn reference_ur_attributes(h: &Hierarchy, layer: &LogicalLayer) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for alt in h.alternatives() {
        if let Some(s) = layer.schema(&alt.relation) {
            for a in s.attrs() {
                if !out.contains(&a.as_str().to_string()) {
                    out.push(a.as_str().to_string());
                }
            }
        }
    }
    out
}

fn covered(h: &Hierarchy, set: &AltSet, layer: &LogicalLayer) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for name in set {
        if let Some(alt) = h.alternative(name) {
            if let Some(s) = layer.schema(&alt.relation) {
                out.extend(s.attrs().iter().map(|a| a.as_str().to_string()));
            }
        }
    }
    out
}

fn reference_object_expr(
    h: &Hierarchy,
    set: &AltSet,
    query: &UrQuery,
    layer: &LogicalLayer,
    constants: &BTreeSet<Attr>,
) -> Result<Expr, String> {
    let mut inputs: Vec<(String, Expr)> = Vec::new();
    for name in set {
        let alt = h.alternative(name).ok_or_else(|| format!("unknown alternative {name}"))?;
        let pred = alt.fixed_pred();
        let expr = if pred == Pred::True {
            Expr::relation(&alt.relation)
        } else {
            Expr::relation(&alt.relation).select(pred)
        };
        inputs.push((name.clone(), expr));
    }
    let join_inputs: Vec<JoinInput> = inputs
        .iter()
        .map(|(name, expr)| {
            let schema =
                expr.schema(&|n| layer.schema(n)).ok_or_else(|| format!("no schema for {name}"))?;
            let bindings = propagate(expr, &|n| layer.bindings(n), &|n| layer.schema(n), false);
            Ok(JoinInput::new(name, schema, bindings))
        })
        .collect::<Result<_, String>>()?;
    let order = order_exact(&join_inputs, constants).ok_or_else(|| {
        format!(
            "no feasible join order with bound attributes {:?}",
            constants.iter().map(Attr::as_str).collect::<Vec<_>>()
        )
    })?;
    let mut iter = order.iter();
    let first = *iter.next().expect("covering sets are non-empty");
    let mut expr = inputs[first].1.clone();
    for &i in iter {
        expr = expr.join(inputs[i].1.clone());
    }
    for (name, formula) in &query.computed {
        expr = expr.extend(name.as_str(), formula.clone());
    }
    let pred = query.pred();
    if pred != Pred::True {
        expr = expr.select(pred);
    }
    let expr = expr.project(query.outputs.iter().map(String::as_str));
    Ok(webbase_relational::optimize::optimize(&expr, &|n| layer.schema(n)))
}

fn reference_plan(
    h: &Hierarchy,
    rules: &CompatRules,
    query: &UrQuery,
    layer: &LogicalLayer,
) -> Result<UrPlan, UrError> {
    let mentioned = query.base_mentioned();
    let ur_attrs = reference_ur_attributes(h, layer);
    for a in &mentioned {
        if !ur_attrs.contains(a) {
            return Err(UrError::UnknownAttribute(a.clone()));
        }
    }
    let need: BTreeSet<String> = mentioned.iter().cloned().collect();
    let covering: Vec<AltSet> = compatible_sets(h, rules)
        .into_iter()
        .filter(|s| !s.is_empty() && need.is_subset(&covered(h, s, layer)))
        .collect();
    if covering.is_empty() {
        return Err(UrError::NotCoverable(mentioned));
    }
    let minimal: Vec<AltSet> = covering
        .iter()
        .filter(|s| !covering.iter().any(|t| *t != **s && t.is_subset(s)))
        .cloned()
        .collect();
    let constants: BTreeSet<Attr> =
        query.constants().iter().map(|(a, _)| Attr::new(a.clone())).collect();
    let mut objects = Vec::new();
    let mut skipped = Vec::new();
    for set in minimal {
        let alternatives = set.iter().cloned().collect();
        match reference_object_expr(h, &set, query, layer, &constants) {
            Ok(expr) => objects.push(PlannedObject { alternatives, expr }),
            Err(reason) => skipped.push((alternatives, reason)),
        }
    }
    if objects.is_empty() {
        let reasons: Vec<String> = skipped.iter().map(|(s, r)| format!("{s:?}: {r}")).collect();
        return Err(UrError::InsufficientBindings(reasons.join("; ")));
    }
    Ok(UrPlan { objects, skipped })
}

// ── comparison ──────────────────────────────────────────────────────

/// A plan as the differential compares it: the rendered listing
/// (objects in order with their expressions, then skipped sets with
/// their reasons), or the error's variant and payload.
fn outcome(planned: Result<UrPlan, UrError>) -> Result<String, String> {
    planned.map(|plan| plan.render()).map_err(|e| format!("{e:?}"))
}

/// Plan every text with the indexed planner and the reference, and
/// require identical outcomes. Returns how many texts planned.
fn agree(planner: &UrPlanner, layer: &LogicalLayer, texts: &[String]) -> usize {
    assert_eq!(
        planner.ur_attributes(layer),
        reference_ur_attributes(planner.hierarchy(), layer),
        "UR attribute lists differ"
    );
    let mut planned = 0;
    for text in texts {
        let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let indexed = outcome(planner.plan(&q, layer));
        let reference = outcome(reference_plan(planner.hierarchy(), planner.rules(), &q, layer));
        assert_eq!(indexed, reference, "{text}");
        planned += usize::from(indexed.is_ok());
    }
    planned
}

fn car_layer() -> LogicalLayer {
    let data = Dataset::generate(42, 600);
    let web = webbase_webworld::prelude::standard_web(data.clone(), LatencyModel::lan());
    let config = webbase::EngineConfig::default();
    let engine = webbase::Engine::build_corpus(web, webbase::Corpus::paper(data), config);
    engine.expect("car stack records").isolated_session()
}

/// Queries over `attrs` (every one- and two-attribute combination,
/// plain and with constants bound), plus an unknown attribute and a
/// computed-only query, which needs no base attribute at all.
fn texts_over(ur: &str, attrs: &[String], constants: &[&str]) -> Vec<String> {
    let mut texts = Vec::new();
    let bound = constants.join(", ");
    for (i, a) in attrs.iter().enumerate() {
        texts.push(format!("{ur}({a})"));
        for b in &attrs[i + 1..] {
            texts.push(format!("{ur}({a}, {b})"));
            if !bound.is_empty() {
                texts.push(format!("{ur}({bound}, {a}, {b})"));
            }
        }
    }
    texts.push(format!("{ur}(warp_drive)"));
    texts.push(format!("{ur}(answer := 6 * 7)"));
    texts
}

const CAR_CONSTANTS: [&str; 5] =
    ["make='ford'", "condition='good'", "zip='10001'", "duration=36", "model='escort'"];

#[test]
fn figure5_plans_match_the_reference_with_and_without_rules() {
    let layer = car_layer_cached();
    for rules in [example62_rules(), CompatRules::default()] {
        let planner = UrPlanner::new(figure5(), rules);
        let attrs = planner.ur_attributes(layer);
        let mut texts = texts_over("UsedCarUR", &attrs, &CAR_CONSTANTS);
        texts.extend([
            "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, safety='good', \
             condition='good') WHERE price < bbprice"
                .to_string(),
            "UsedCarUR(make='jaguar', model, year >= 1994, price, bbprice, rate, zip='10001', \
             duration=36, condition='good', payment := price * (1 + rate / 100 * duration / 12) \
             / duration) WHERE payment < 1000 AND price < bbprice"
                .to_string(),
            "UsedCarUR(make='ford', price, rate, cost, zip='10001', duration=36)".to_string(),
        ]);
        let planned = agree(&planner, layer, &texts);
        assert!(planned > 10, "only {planned} of {} texts planned", texts.len());
    }
}

#[test]
fn apartment_plans_match_the_reference() {
    let engine = webbase_bench::apartment_engine(7);
    let layer = engine.isolated_session();
    let attrs = engine.planner().ur_attributes(&layer);
    let texts = texts_over("AptUR", &attrs, &["borough='brooklyn'", "bedrooms=2"]);
    assert!(agree(engine.planner(), &layer, &texts) > 0);
}

fn generated_texts(corpus: &GenCorpus) -> Vec<String> {
    let mut texts: Vec<String> =
        corpus.specs.iter().map(webbase_webworld::generate::SiteSpec::exemplar_query).collect();
    let (a, b) = (&corpus.specs[0], &corpus.specs[1]);
    texts.extend([
        // A price-bounded exemplar, as the benchmark's cold workload runs.
        format!(
            "GenUR({}='{}', {}, {} <= 5000)",
            a.attr("cat"),
            a.exemplar_cat(),
            a.attr("item"),
            a.attr("price")
        ),
        // Unbound: every site needs its category bound.
        format!("GenUR({}, {})", a.attr("item"), a.attr("price")),
        // Two sites' attributes: one choice group, so nothing covers both.
        format!("GenUR({}, {})", a.attr("item"), b.attr("item")),
        "GenUR(nowhere)".to_string(),
        // Nothing to cover: every site is a minimal covering set.
        "GenUR(answer := 6 * 7)".to_string(),
    ]);
    texts
}

#[test]
fn generated_corpus_plans_match_the_reference_at_20_and_200_sites() {
    for sites in [20, 200] {
        let corpus = GenCorpus::generate(11, sites);
        let engine = webbase_bench::generated_engine(&corpus, LatencyModel::zero());
        let texts = generated_texts(&corpus);
        let planned = agree(engine.planner(), &engine.isolated_session(), &texts);
        assert!(planned >= sites, "{sites} sites: only {planned} texts planned");
    }
}

// ── random hierarchies and rules over the car layer ─────────────────

/// SplitMix64, so one `u64` from the strategy drives a whole case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Relations an alternative may name (the last is unknown to the
/// layer: its alternative covers nothing and has no schema).
const RELATIONS: [&str; 8] = [
    "dealers",
    "classifieds",
    "aggregators",
    "blue_price",
    "interest",
    "insurance",
    "reliability",
    "nowhere",
];

const FIXED: [(&str, &str); 6] = [
    ("pricetype", "retail"),
    ("pricetype", "trade-in"),
    ("plan", "loan"),
    ("plan", "lease"),
    ("coverage", "full"),
    ("coverage", "liability"),
];

/// `groups` choice groups of the given sizes, alternatives named
/// `A<group>_<i>`, each over a random relation with an optional fixed
/// condition.
fn random_hierarchy(rng: &mut Mix, sizes: &[usize]) -> Hierarchy {
    let groups = sizes
        .iter()
        .enumerate()
        .map(|(g, &k)| ChoiceGroup {
            name: format!("G{g}"),
            alternatives: (0..k)
                .map(|i| {
                    let relation = *rng.pick(&RELATIONS[..]);
                    let alt = Alternative::new(&format!("A{g}_{i}"), relation);
                    if rng.below(3) == 0 {
                        let (attr, value) = *rng.pick(&FIXED);
                        alt.with(attr, value)
                    } else {
                        alt
                    }
                })
                .collect(),
        })
        .collect();
    Hierarchy { ur_name: "UsedCarUR".into(), groups }
}

/// Up to five rules with premises of zero to two alternatives; names
/// occasionally miss the hierarchy (`Ghost`).
fn random_rules(rng: &mut Mix, h: &Hierarchy) -> CompatRules {
    let mut names: Vec<String> = h.alternatives().map(|a| a.name.clone()).collect();
    names.push("Ghost".to_string());
    let rules = (0..rng.below(6))
        .map(|_| {
            let premise: Vec<String> =
                (0..rng.below(3)).map(|_| rng.pick(&names).clone()).collect();
            let premise: Vec<&str> = premise.iter().map(String::as_str).collect();
            let then = rng.pick(&names).clone();
            if rng.below(2) == 0 {
                CompatRule::requires(&premise, &then)
            } else {
                CompatRule::excludes(&premise, &then)
            }
        })
        .collect();
    CompatRules::new(rules)
}

fn random_texts(rng: &mut Mix, attrs: &[String]) -> Vec<String> {
    let mut texts = vec!["UsedCarUR(answer := 6 * 7)".to_string()];
    for _ in 0..6 {
        let mut parts: BTreeSet<String> = BTreeSet::new();
        for _ in 0..1 + rng.below(3) {
            parts.insert(rng.pick(attrs).clone());
        }
        let mut parts: Vec<String> = parts.into_iter().collect();
        if rng.below(4) == 0 {
            parts.push("warp_drive".to_string());
        }
        for _ in 0..rng.below(4) {
            let c = rng.pick(&CAR_CONSTANTS).to_string();
            let attr = c.split('=').next().expect("attr").to_string();
            parts.retain(|p| *p != attr);
            parts.push(c);
        }
        texts.push(format!("UsedCarUR({})", parts.join(", ")));
    }
    texts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random hierarchies of 1–5 groups: small ones plan in subset-mask
    /// order, ones above twelve alternatives in product order, with and
    /// without rules, empty-`need` queries included.
    #[test]
    fn random_hierarchies_plan_like_the_reference(seed in any::<u64>()) {
        let layer = car_layer_cached();
        let mut rng = Mix(seed);
        let groups = 1 + rng.below(5);
        let sizes: Vec<usize> = (0..groups).map(|_| 1 + rng.below(5)).collect();
        let h = random_hierarchy(&mut rng, &sizes);
        let rules = random_rules(&mut rng, &h);
        let planner = UrPlanner::new(h, rules);
        let attrs = planner.ur_attributes(layer);
        if !attrs.is_empty() {
            let texts = random_texts(&mut rng, &attrs);
            agree(&planner, layer, &texts);
        }
    }
}

#[test]
fn a_multi_group_hierarchy_above_twelve_alternatives_plans_like_the_reference() {
    // The boundary between the two enumeration orders: 13 alternatives
    // over three groups, with rules — product order, pinned.
    let layer = car_layer_cached();
    for seed in 0..24 {
        let mut rng = Mix(seed);
        let h = random_hierarchy(&mut rng, &[5, 4, 4]);
        assert_eq!(h.alternatives().count(), 13);
        let rules = random_rules(&mut rng, &h);
        let planner = UrPlanner::new(h, rules);
        let attrs = planner.ur_attributes(layer);
        if !attrs.is_empty() {
            let texts = random_texts(&mut rng, &attrs);
            agree(&planner, layer, &texts);
        }
    }
}

/// One car layer for every random case: recording thirteen sites per
/// case would dominate the suite.
fn car_layer_cached() -> &'static LogicalLayer {
    static LAYER: std::sync::OnceLock<LogicalLayer> = std::sync::OnceLock::new();
    LAYER.get_or_init(car_layer)
}
