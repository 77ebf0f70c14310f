//! Mapping by example, step by step — the §7 map builder on the
//! simulated Newsday site.
//!
//! ```bash
//! cargo run --example mapping_by_example
//! ```
//!
//! Shows the designer's browsing session being folded into a navigation
//! map (Figure 2), the §7 automation statistics, and the Transaction
//! F-logic navigation program compiled from the map (Figure 4).

use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::recorder::Recorder;
use webbase_navigation::sessions;
use webbase_relational::Value;
use webbase_webworld::prelude::*;

fn main() {
    let data = Dataset::generate(42, 600);
    let web = standard_web(data.clone(), LatencyModel::lan());

    println!("=== The designer's session (mapping by example) ===\n");
    let session = sessions::newsday(&data);
    for (i, action) in session.iter().enumerate() {
        println!("  step {i:>2}: {action:?}");
    }

    let (map, stats) = Recorder::record(web.clone(), "www.newsday.com", &session).expect("records");

    println!("\n=== The navigation map (Figure 2) ===\n");
    println!("{}", map.render_text());
    println!("GraphViz DOT:\n{}", map.render_dot());

    println!("=== §7 automation statistics ===\n");
    println!(
        "  {} objects, {} attributes extracted automatically; {} manual facts ({:.1}%)\n",
        stats.objects,
        stats.attributes,
        stats.manual_facts,
        100.0 * stats.manual_ratio()
    );

    println!("=== Compiled navigation program (Figure 4) ===\n");
    let nav = SiteNavigator::standalone(web, map);
    println!("{}", nav.render_program());

    println!("=== Executing newsday(make='ford', model='escort', …) ===\n");
    let (records, run) = nav
        .run_relation(
            "newsday",
            &[
                ("make".to_string(), Value::str("ford")),
                ("model".to_string(), Value::str("escort")),
            ],
        )
        .expect("navigation runs");
    for r in &records {
        println!(
            "  {} {} {} — ${} — {}",
            r["make"], r["model"], r["year"], r["price"], r["contact"]
        );
    }
    println!(
        "\n  {} tuples, {} pages fetched ({} cache hits), simulated network {:?}",
        records.len(),
        run.pages_fetched,
        run.cache_hits,
        run.network
    );

    println!("\n=== The map, serialised as F-logic facts ===\n");
    // "A navigation map is a collection of F-logic objects" — so that is
    // exactly how it persists. The fact text reloads into an identical,
    // executable map.
    let facts = webbase_navigation::persist::render_facts(nav.map());
    for line in facts.lines().take(14) {
        println!("  {line}");
    }
    println!("  … ({} lines total)", facts.lines().count());
    let reloaded = webbase_navigation::persist::parse_map(&facts).expect("facts reload");
    assert_eq!(&reloaded, nav.map());
    println!("  reloaded map is identical: ✓");
}
