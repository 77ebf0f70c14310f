//! What a single-owner session offers besides UR queries: the §7
//! `SELECT … WHERE …` form and the full-stack static analysis. Both
//! run over a session's [`LogicalLayer`] — from
//! [`crate::Engine::isolated_session`], whose browser, breaker, caches
//! and healing state persist across everything its holder runs.

use crate::corpus::WebbaseError;
use webbase_logical::LogicalLayer;
use webbase_relational::Relation;
use webbase_ur::plan::UrPlanner;

/// Run a §7-style `SELECT … WHERE …` query against one relation —
/// a *logical* relation (site-independent) or, failing that, a VPS
/// relation (one site's handle). This is the query form the paper's
/// timing table uses.
pub fn select(
    layer: &mut LogicalLayer,
    relation: &str,
    sql: &str,
) -> Result<Relation, WebbaseError> {
    use webbase_relational::eval::{AccessSpec, Evaluator, RelationProvider};
    let q = webbase_relational::select::parse_select(sql)
        .map_err(|e| WebbaseError::Select(e.to_string()))?;
    let expr = q.over(relation);
    let result = if layer.relation(relation).is_some() {
        Evaluator::new(layer).eval(&expr, &AccessSpec::new())
    } else if layer.vps.schema(relation).is_some() {
        Evaluator::new(&mut layer.vps).eval(&expr, &AccessSpec::new())
    } else {
        return Err(WebbaseError::Select(format!("unknown relation {relation}")));
    };
    result.map_err(|e| WebbaseError::Select(e.to_string()))
}

/// The three-pass analysis over an arbitrary layered stack — any
/// domain's maps, logical layer, and planner: every map is linted and
/// its compiled program checked (webcheck passes 1–2), then the logical
/// schema, VPS catalog, and UR planner are checked against each other
/// (pass 3). The maps, VPS catalog and its sites are read out of
/// `layer.vps`. Pure — no navigation, no fetches; safe to run on every
/// load.
pub fn check_stack(layer: &LogicalLayer, planner: &UrPlanner) -> webbase_webcheck::Report {
    use webbase_relational::eval::RelationProvider;
    use webbase_webcheck::{CompatRuleSpec, CrossLayerInput, HandleSpec, LogicalSpec, VpsRelSpec};
    let mut report = webbase_webcheck::Report::new();
    let vps = &layer.vps;
    for map in vps.site_index().maps() {
        report.merge(webbase_webcheck::check_site(map));
    }
    let attrs_of = |schema: Option<webbase_relational::Schema>| -> Vec<String> {
        schema
            .map(|s| s.attrs().iter().map(|a| a.as_str().to_string()).collect())
            .unwrap_or_default()
    };
    let vps_specs: Vec<VpsRelSpec> = vps
        .relations()
        .map(|name| VpsRelSpec {
            name: name.to_string(),
            site: vps.relation_host(name).unwrap_or_default().to_string(),
            attrs: attrs_of(vps.schema(name)),
            handles: vps
                .handles(name)
                .iter()
                .map(|h| HandleSpec {
                    mandatory: h.mandatory.iter().cloned().collect(),
                    selection: h.selection.iter().cloned().collect(),
                })
                .collect(),
        })
        .collect();
    let logical: Vec<LogicalSpec> = layer
        .relations()
        .iter()
        .map(|r| LogicalSpec {
            name: r.name.clone(),
            attrs: attrs_of(layer.schema(&r.name)),
            bases: r.def.base_relations().iter().map(ToString::to_string).collect(),
        })
        .collect();
    let concepts = planner.hierarchy().alternatives().map(|a| a.name.clone()).collect();
    let compat = planner
        .rules()
        .rules
        .iter()
        .map(|r| match r {
            webbase_ur::compat::CompatRule::Requires { premise, then } => {
                CompatRuleSpec::Requires { premise: premise.clone(), then: then.clone() }
            }
            webbase_ur::compat::CompatRule::Excludes { premise, then_not } => {
                CompatRuleSpec::Excludes { premise: premise.clone(), then_not: then_not.clone() }
            }
        })
        .collect();
    report.merge(webbase_webcheck::check_cross_layer(&CrossLayerInput {
        logical,
        vps: vps_specs,
        concepts,
        compat,
    }));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use webbase_webworld::prelude::LatencyModel;

    #[test]
    fn select_queries_logical_and_vps_relations() {
        let engine = Engine::build_demo(5, 600, LatencyModel::lan());
        let mut session = engine.isolated_session();
        // Logical relation: site-independent.
        let logical = select(
            &mut session,
            "classifieds",
            "SELECT make, model, year, price WHERE make=ford AND model=escort",
        )
        .expect("logical select");
        assert!(logical
            .tuples()
            .iter()
            .all(|t| t.get(0) == &webbase_relational::Value::str("ford")));
        // VPS relation: one site.
        let vps = select(
            &mut session,
            "newsday",
            "SELECT make, model, price WHERE make=ford AND model=escort",
        )
        .expect("vps select");
        assert!(vps.len() <= logical.len());
        // Unknown relation reports cleanly.
        assert!(matches!(select(&mut session, "nope", "SELECT a"), Err(WebbaseError::Select(_))));
        // Parse errors report cleanly.
        assert!(matches!(
            select(&mut session, "newsday", "SELEKT a"),
            Err(WebbaseError::Select(_))
        ));
    }

    #[test]
    fn preflight_check_is_clean_on_the_demo() {
        let engine = Engine::build_demo(5, 600, LatencyModel::lan());
        let report = check_stack(&engine.isolated_session(), engine.planner());
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }
}
