//! The concept index: everything the planner needs about the hierarchy,
//! derived once per planner and layer schema instead of once per query.
//!
//! For each alternative the index records its group, relation, fixed
//! predicate, schema (its attribute set) and binding set. An attribute
//! → alternatives posting list and the set of alternatives any
//! compatibility rule names let a query enumerate compatible sets over
//! only the alternatives that can matter to it. That restriction is
//! exact: an alternative that covers no needed attribute and that no
//! rule names can be dropped from any covering set without breaking
//! coverage, group exclusivity or a rule, so it never occurs in a
//! *minimal* covering set. (With nothing to cover, every singleton
//! covers, so every alternative stays.)

use crate::compat::{CompatRule, CompatRules};
use crate::hierarchy::Hierarchy;
use crate::maximal::AltNames;
use crate::plan::{PlannedObject, UrError, UrPlan};
use crate::query::UrQuery;
use std::collections::{BTreeSet, HashMap};
use webbase_logical::{LogicalLayer, SchemaKey, SpanKind, QUERY_TRACK};
use webbase_relational::binding::{propagate, BindingSet};
use webbase_relational::eval::RelationProvider;
use webbase_relational::ordering::{order_exact, JoinInput};
use webbase_relational::{Attr, Expr, Pred, Schema};

/// Hierarchies up to this many alternatives enumerate compatible sets
/// in subset-mask order; larger ones in per-group product order. Both
/// orders are pinned downstream (plan object order, traces).
const MASK_ORDER_MAX: usize = 12;

/// One alternative, resolved against the layer.
struct Concept {
    name: String,
    group: usize,
    /// `σ_fixed(relation)`, or the bare relation without fixed conditions.
    input: Expr,
    /// The relation's schema: the attributes the alternative covers.
    /// `None` when the layer does not know the relation.
    schema: Option<Schema>,
    bindings: BindingSet,
}

/// A compatibility rule over alternative positions.
struct Rule {
    premise: Vec<usize>,
    /// The concluded alternative; `None` when it is not in the hierarchy.
    then: Option<usize>,
    requires: bool,
}

impl Rule {
    fn allows(&self, set: &[usize]) -> bool {
        if !self.premise.iter().all(|p| set.contains(p)) {
            return true;
        }
        let present = self.then.is_some_and(|t| set.contains(&t));
        present == self.requires
    }
}

/// The planner's index over one hierarchy, rule set and layer schema.
pub struct ConceptIndex {
    key: SchemaKey,
    concepts: Vec<Concept>,
    groups: usize,
    /// The UR's attributes in first-mention order (alternatives in
    /// hierarchy order, each relation's attributes in schema order).
    ur_attributes: Vec<String>,
    /// Attribute → alternatives whose relation carries it, ascending.
    postings: HashMap<String, Vec<usize>>,
    /// Alternatives some rule names, ascending.
    ruled: Vec<usize>,
    rules: Vec<Rule>,
}

impl ConceptIndex {
    /// One pass over the hierarchy: resolve every alternative's schema
    /// and bindings against `layer`.
    pub(crate) fn build(
        hierarchy: &Hierarchy,
        rules: &CompatRules,
        layer: &LogicalLayer,
    ) -> ConceptIndex {
        let mut concepts = Vec::new();
        let mut ur_attributes = Vec::new();
        let mut postings: HashMap<String, Vec<usize>> = HashMap::new();
        for (group, g) in hierarchy.groups.iter().enumerate() {
            for alt in &g.alternatives {
                let id = concepts.len();
                let pred = alt.fixed_pred();
                let input = if pred == Pred::True {
                    Expr::relation(&alt.relation)
                } else {
                    Expr::relation(&alt.relation).select(pred)
                };
                let schema = layer.schema(&alt.relation);
                let bindings = match &schema {
                    Some(_) => {
                        propagate(&input, &|n| layer.bindings(n), &|n| layer.schema(n), false)
                    }
                    None => BindingSet::unsatisfiable(),
                };
                for a in schema.iter().flat_map(Schema::attrs) {
                    let list = postings.entry(a.as_str().to_string()).or_insert_with(|| {
                        ur_attributes.push(a.as_str().to_string());
                        Vec::new()
                    });
                    if list.last() != Some(&id) {
                        list.push(id);
                    }
                }
                concepts.push(Concept { name: alt.name.clone(), group, input, schema, bindings });
            }
        }
        let position = |name: &str| concepts.iter().position(|c| c.name == name);
        let mut ruled = Vec::new();
        let mut compiled = Vec::new();
        for rule in &rules.rules {
            let (premise, then, requires) = match rule {
                CompatRule::Requires { premise, then } => (premise, then, true),
                CompatRule::Excludes { premise, then_not } => (premise, then_not, false),
            };
            let then = position(then);
            let premise: Option<Vec<usize>> = premise.iter().map(|p| position(p)).collect();
            // A premise naming an alternative outside the hierarchy can
            // never hold: the rule is vacuous.
            if let Some(premise) = premise {
                ruled.extend(premise.iter().copied().chain(then));
                compiled.push(Rule { premise, then, requires });
            }
        }
        ruled.sort_unstable();
        ruled.dedup();
        ConceptIndex {
            key: layer.schema_key(),
            concepts,
            groups: hierarchy.groups.len(),
            ur_attributes,
            postings,
            ruled,
            rules: compiled,
        }
    }

    /// Was this index derived from `layer`'s schema sources?
    pub(crate) fn matches(&self, layer: &LogicalLayer) -> bool {
        self.key.matches(layer)
    }

    /// The UR's attribute list, in first-mention order.
    pub fn ur_attributes(&self) -> &[String] {
        &self.ur_attributes
    }

    /// The compatible sets a query's planning enumerates — a
    /// deterministic work count that depends on the query's footprint,
    /// not on the size of the hierarchy.
    pub(crate) fn sets_enumerated(&self, query: &UrQuery) -> Result<usize, UrError> {
        let need = self.need(query)?;
        Ok(self.compatible_sets(&self.candidates(&need)).len())
    }

    /// The needed attributes' posting lists, or the first unknown one.
    fn need(&self, query: &UrQuery) -> Result<Vec<&[usize]>, UrError> {
        query
            .base_mentioned()
            .into_iter()
            .map(|a| match self.postings.get(&a) {
                Some(list) => Ok(list.as_slice()),
                None => Err(UrError::UnknownAttribute(a)),
            })
            .collect()
    }

    /// The alternatives that cover a needed attribute or that a rule
    /// names, ascending; every alternative when nothing is needed.
    fn candidates(&self, need: &[&[usize]]) -> Vec<usize> {
        if need.is_empty() {
            return (0..self.concepts.len()).collect();
        }
        let mut out: Vec<usize> = need.iter().flat_map(|l| l.iter().copied()).collect();
        out.extend(self.ruled.iter().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    fn allowed(&self, set: &[usize]) -> bool {
        self.rules.iter().all(|r| r.allows(set))
    }

    /// Every compatible set over `candidates`, in the order the whole
    /// hierarchy's enumeration would visit them: subset-mask order for
    /// small hierarchies, per-group product order otherwise. Restricting
    /// either order to the candidates' subsets preserves it.
    fn compatible_sets(&self, candidates: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        if self.concepts.len() <= MASK_ORDER_MAX {
            for mask in 0u32..(1 << candidates.len()) {
                let set: Vec<usize> = candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &c)| c)
                    .collect();
                // Ascending positions keep a group's alternatives adjacent.
                let exclusive =
                    set.windows(2).all(|w| self.concepts[w[0]].group != self.concepts[w[1]].group);
                if exclusive && self.allowed(&set) {
                    out.push(set);
                }
            }
            return out;
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.groups];
        for &c in candidates {
            groups[self.concepts[c].group].push(c);
        }
        groups.retain(|g| !g.is_empty());
        let size: u128 = groups.iter().map(|g| 1 + g.len() as u128).product();
        assert!(size <= 1 << 22, "hierarchy too large for exhaustive enumeration");
        let mut partial = Vec::new();
        self.product_sets(&groups, &mut partial, &mut out);
        out
    }

    /// Depth-first product: each group contributes nothing or one of its
    /// alternatives; rules filter the completed set.
    fn product_sets(
        &self,
        groups: &[Vec<usize>],
        partial: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        let Some((group, rest)) = groups.split_first() else {
            if self.allowed(partial) {
                out.push(partial.clone());
            }
            return;
        };
        self.product_sets(rest, partial, out);
        for &alt in group {
            partial.push(alt);
            self.product_sets(rest, partial, out);
            partial.pop();
        }
    }

    /// Plan a query: the union over its minimal covering compatible sets.
    pub fn plan(&self, query: &UrQuery, layer: &LogicalLayer) -> Result<UrPlan, UrError> {
        debug_assert!(self.matches(layer), "concept index used with another layer's schema");
        // Computed columns are defined by the query itself; the base
        // relations only need to cover their *inputs*.
        let need = self.need(query)?;
        let covers = |set: &[usize]| need.iter().all(|l| l.iter().any(|c| set.contains(c)));
        let covering: Vec<Vec<usize>> = self
            .compatible_sets(&self.candidates(&need))
            .into_iter()
            .filter(|s| !s.is_empty() && covers(s))
            .collect();
        if covering.is_empty() {
            return Err(UrError::NotCoverable(query.base_mentioned()));
        }
        let is_subset = |t: &[usize], s: &[usize]| t.iter().all(|x| s.contains(x));
        let minimal = covering
            .iter()
            .filter(|s| !covering.iter().any(|t| t.len() < s.len() && is_subset(t, s)));

        // Translate each minimal covering set.
        let constants: BTreeSet<Attr> =
            query.constants().iter().map(|(a, _)| Attr::new(a.clone())).collect();
        let mut objects = Vec::new();
        let mut skipped = Vec::new();
        for set in minimal {
            // An object lists its alternatives in name order, as an
            // `AltSet` iterates; the join order search sees them so too.
            let mut set = set.clone();
            set.sort_by(|&a, &b| self.concepts[a].name.cmp(&self.concepts[b].name));
            let alternatives: AltNames =
                set.iter().map(|&c| self.concepts[c].name.clone()).collect();
            match self.object_expr(&set, query, layer, &constants) {
                Ok(expr) => objects.push(PlannedObject { alternatives, expr }),
                Err(reason) => skipped.push((alternatives, reason)),
            }
        }
        if objects.is_empty() {
            let reasons: Vec<String> = skipped.iter().map(|(s, r)| format!("{s:?}: {r}")).collect();
            return Err(UrError::InsufficientBindings(reasons.join("; ")));
        }
        let obs = layer.vps.obs();
        if obs.tracing() {
            for o in &objects {
                let names: Vec<&str> = o.alternatives.iter().map(String::as_str).collect();
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::PlanObject,
                    names.join(" ⋈ "),
                    vec![("expr", o.expr.to_string())],
                );
            }
            for (set, why) in &skipped {
                let names: Vec<&str> = set.iter().map(String::as_str).collect();
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::PlanSkipped,
                    names.join(" ⋈ "),
                    vec![("reason", why.clone())],
                );
            }
        }
        // Published views keep their plans: no spare capacity.
        objects.shrink_to_fit();
        skipped.shrink_to_fit();
        Ok(UrPlan { objects, skipped })
    }

    /// Build one object's conjunctive query, join-ordered under bindings.
    /// `set` lists the object's alternatives in name order.
    fn object_expr(
        &self,
        set: &[usize],
        query: &UrQuery,
        layer: &LogicalLayer,
        constants: &BTreeSet<Attr>,
    ) -> Result<Expr, String> {
        // Each alternative contributes σ_fixed(relation), ordered under
        // the bindings the query's constants supply.
        let join_inputs: Vec<JoinInput> = set
            .iter()
            .map(|&c| {
                let concept = &self.concepts[c];
                let schema = concept
                    .schema
                    .clone()
                    .ok_or_else(|| format!("no schema for {}", concept.name))?;
                Ok(JoinInput::new(&concept.name, schema, concept.bindings.clone()))
            })
            .collect::<Result<_, String>>()?;
        let order = order_exact(&join_inputs, constants).ok_or_else(|| {
            format!(
                "no feasible join order with bound attributes {:?}",
                constants.iter().map(Attr::as_str).collect::<Vec<_>>()
            )
        })?;
        let mut iter = order.iter().map(|&i| self.concepts[set[i]].input.clone());
        let mut expr = iter.next().expect("covering sets are non-empty");
        for input in iter {
            expr = expr.join(input);
        }
        // Computed columns (§6.2's monthly payments), in mention order.
        for (name, formula) in &query.computed {
            expr = expr.extend(name.as_str(), formula.clone());
        }
        // Query conditions, then the output projection.
        let pred = query.pred();
        if pred != Pred::True {
            expr = expr.select(pred);
        }
        let expr = expr.project(query.outputs.iter().map(String::as_str));
        // §2: "the entire query can be optimized using techniques that
        // are akin to relational algebra transformations" — push the
        // selections toward the base relations, which also surfaces
        // binding values earlier.
        let optimized = webbase_relational::optimize::optimize(&expr, &|n| layer.schema(n));
        let obs = layer.vps.obs();
        if obs.tracing() {
            let from = expr.to_string();
            let to = optimized.to_string();
            if from != to {
                obs.sink.event(
                    QUERY_TRACK,
                    SpanKind::Rewrite,
                    "push selections".to_string(),
                    vec![("from", from), ("to", to)],
                );
            }
        }
        Ok(optimized)
    }
}
