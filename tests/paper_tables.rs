//! Byte pins for the paper's deterministic artefacts, as `repro`
//! prints them at the benchmark seed and market size: Tables 1–3,
//! Figure 2 (text and DOT), Figure 4, Figure 5, the Example 6.2
//! compatibility rules and maximal objects, the §5 binding report and
//! the §7 map-builder statistics. None of them depends on the clock, so
//! any diff is a change to what the webbase builds.
//!
//! Regenerate the snapshots after an *intentional* change with:
//!
//! ```bash
//! WEBBASE_BLESS=1 cargo test --test paper_tables
//! ```

use std::path::PathBuf;
use std::sync::OnceLock;
use webbase::timing::site_navigator;
use webbase::Engine;
use webbase_bench::bench_engine;
use webbase_logical::schema::render_table2;
use webbase_logical::LogicalLayer;
use webbase_ur::maximal::{maximal_objects, render_maximal};

/// The one webbase every artefact is rendered from (built once).
fn demo() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(bench_engine)
}

fn session() -> LogicalLayer {
    demo().isolated_session()
}

fn pin(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    if std::env::var("WEBBASE_BLESS").is_ok() {
        std::fs::write(&path, rendered)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {} ({e}); regenerate with WEBBASE_BLESS=1", path.display())
    });
    assert_eq!(
        rendered, expected,
        "{name} diverged from its snapshot; if the change is intentional, regenerate with \
         WEBBASE_BLESS=1 cargo test --test paper_tables"
    );
}

#[test]
fn table1_vps_relations() {
    pin("paper_table1", &session().vps.render_table1());
}

#[test]
fn table2_logical_relations() {
    pin("paper_table2", &render_table2(session().relations()));
}

#[test]
fn table3_handles() {
    pin("paper_table3", &session().vps.render_table3());
}

#[test]
fn figure2_newsday_map() {
    let map = demo().sites().map_for("www.newsday.com").expect("newsday is mapped");
    pin("paper_fig2", &format!("{}\n{}", map.render_text(), map.render_dot()));
}

#[test]
fn figure4_compiled_newsday_program() {
    pin("paper_fig4", &site_navigator(demo(), "www.newsday.com").render_program());
}

#[test]
fn figure5_concept_hierarchy() {
    let engine = demo();
    pin("paper_fig5", &engine.planner().hierarchy().render(&engine.ur_attributes()));
}

#[test]
fn example62_maximal_objects() {
    let planner = demo().planner();
    let objects = maximal_objects(planner.hierarchy(), planner.rules());
    pin("paper_ex62", &format!("{}\n{}", planner.rules().render(), render_maximal(&objects)));
}

#[test]
fn binding_report() {
    pin("paper_binding", &session().binding_report());
}

#[test]
fn map_statistics() {
    pin("paper_map_stats", &demo().report().render());
}
