//! A shopping session against the structured universal relation —
//! several ad hoc queries of increasing sophistication, ending with the
//! paper's §6.2 lease query.
//!
//! ```bash
//! cargo run --example used_car_shopping
//! ```

use webbase::{Engine, LatencyModel, QueryOptions};

fn run(engine: &Engine, title: &str, query: &str) {
    println!("── {title}\n   {query}\n");
    match engine.query("shopper", query, QueryOptions::default()) {
        Ok(out) => {
            for obj in &out.plan.objects {
                let names: Vec<&str> = obj.alternatives.iter().map(String::as_str).collect();
                println!("   object: {}", names.join(" ⋈ "));
            }
            println!("\n{}", indent(&out.relation.to_table()));
        }
        Err(e) => println!("   ✗ {e}\n"),
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("   {l}\n")).collect()
}

fn main() {
    let engine = Engine::build_demo(42, 600, LatencyModel::lan());
    println!("UR attributes: {}\n", engine.ur_attributes().join(", "));

    run(&engine, "Cheap Fords anywhere", "UsedCarUR(make='ford', model, year, price < 6000)");

    run(
        &engine,
        "Safety ratings for a specific model",
        "UsedCarUR(make='honda', model='accord', year >= 1995, safety)",
    );

    run(
        &engine,
        "Jaguars under blue book (the paper's §1 query)",
        "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
         safety='good', condition='good') WHERE price < bbprice",
    );

    run(
        &engine,
        "Monthly-payment shopping (§6.2): a computed column over price, rate, term",
        "UsedCarUR(make='jaguar', model, year >= 1994, price, rate, cost, \
         zip='10001', duration=36, condition='good', \
         payment := price * (1 + rate / 100 * duration / 12) / duration) \
         WHERE payment < 1000 AND price < bbprice",
    );

    // A query that cannot be answered without more bindings: the planner
    // explains rather than silently returning nothing.
    run(
        &engine,
        "Blue book without condition (refused: kellys insists on condition)",
        "UsedCarUR(make='ford', model='escort', bbprice)",
    );
}
