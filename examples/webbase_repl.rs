//! An interactive structured-UR shell — the "user interface that permits
//! a high degree of ad hoc querying by naive Web users" of §2, in its
//! plainest possible form.
//!
//! ```bash
//! cargo run --example webbase_repl
//! ```
//!
//! Commands:
//!
//! ```text
//! UsedCarUR(make='ford', model, price < 6000)   run a query
//! .attrs                                        list the UR attributes
//! .hierarchy                                    show Figure 5
//! .objects                                      show the maximal objects
//! .explain <query>                              plan without executing
//! .stats                                        pages fetched so far
//! .quit
//! ```

use std::io::{BufRead, Write};
use webbase::{Engine, LatencyModel};
use webbase_ur::maximal::{maximal_objects, render_maximal};
use webbase_ur::query::parse_query;

fn main() {
    println!("building the used-car webbase…");
    let engine = Engine::build_demo(42, 600, LatencyModel::lan());
    let planner = engine.planner();
    // One single-owner session for the whole shell: `.stats` accumulates.
    let mut session = engine.isolated_session();
    println!(
        "ready. {} sites mapped, {} UR attributes. Try:\n  \
         UsedCarUR(make='ford', model, year, price < 6000)\n  \
         (.attrs, .hierarchy, .objects, .explain <q>, .stats, .quit)\n",
        engine.sites().maps().count(),
        engine.ur_attributes().len()
    );

    let stdin = std::io::stdin();
    loop {
        print!("UR> ");
        std::io::stdout().flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".attrs" => println!("{}\n", engine.ur_attributes().join(", ")),
            ".hierarchy" => {
                println!("{}", planner.hierarchy().render(&engine.ur_attributes()));
            }
            ".objects" => {
                let objects = maximal_objects(planner.hierarchy(), planner.rules());
                println!("{}{}", planner.rules().render(), render_maximal(&objects));
            }
            ".stats" => {
                let s = &session.vps.stats;
                println!(
                    "pages fetched: {}   simulated network: {:?}   interpreter cpu: {:?}\n",
                    s.total_pages(),
                    s.total_network(),
                    s.total_cpu()
                );
            }
            _ if line.starts_with(".explain") => {
                let q = line.trim_start_matches(".explain").trim();
                match engine.explain(q) {
                    Ok(plan) => println!("{}", plan.render()),
                    Err(e) => println!("✗ {e}\n"),
                }
            }
            query => match parse_query(query)
                .map_err(|e| e.to_string())
                .and_then(|q| planner.execute(&q, &mut session).map_err(|e| e.to_string()))
            {
                Ok((result, plan)) => {
                    for obj in &plan.objects {
                        let names: Vec<&str> =
                            obj.alternatives.iter().map(String::as_str).collect();
                        println!("-- object {}", names.join(" ⋈ "));
                    }
                    println!("{}({} rows)\n", result.to_table(), result.len());
                }
                Err(e) => println!("✗ {e}\n"),
            },
        }
    }
    println!("bye.");
}
