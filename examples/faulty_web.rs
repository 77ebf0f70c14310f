//! Querying a hostile Web: every site 500s on every 7th request, and the
//! jaguar query still returns its full answer — with a degradation
//! report saying which sites misbehaved (the README's fault-injection
//! example, runnable).

use webbase::{Engine, EngineConfig, LatencyModel, QueryOptions};
use webbase_webworld::faults::FlakySite;
use webbase_webworld::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = Dataset::generate(11, 400);
    // Every site 500s on every 7th request.
    let web = standard_web_faulty(data.clone(), LatencyModel::lan(), |_host, site| {
        Box::new(FlakySite::new(site, 7)) as Box<dyn webbase_webworld::server::Site>
    });
    let engine = Engine::build_on(web, data, EngineConfig::default())?;
    let out = engine.query(
        "me",
        "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
         safety='good', condition='good') WHERE price < bbprice",
        QueryOptions::default(),
    )?;
    assert!(!out.relation.is_empty()); // retries recovered every answer
    println!("{}", out.relation.to_table());
    println!("Site degradation:\n{}", out.plan.degradation.render());
    Ok(())
}
