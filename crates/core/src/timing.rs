//! The §7 timing experiments.
//!
//! "To give an idea of the complexity of the sites and query execution
//! times, below we show the number of pages navigated and (some of the
//! best) evaluation times for the query SELECT make,model,year,price
//! WHERE make=ford AND model=escort over 10 car-related sites."
//!
//! [`site_timings`] regenerates that table over the simulated sites:
//! per site, the pages navigated, the interpreter CPU time, and the
//! elapsed time (CPU + the simulated 1999 network). Run with
//! `parallel`, the same per-site queries go one thread per site — the
//! experiment behind the paper's conclusion that "parallelization of
//! query evaluation is crucial for obtaining acceptable response times".

use crate::engine::Engine;
use std::sync::Arc;
use std::time::Duration;
use webbase_navigation::executor::SiteNavigator;
use webbase_navigation::{
    BudgetSnapshot, BudgetTracker, DegradationReport, FetchPolicy, PageStore, QueryBudget,
    RepairReport,
};
use webbase_relational::Value;

/// One row of the timing table.
#[derive(Debug, Clone)]
pub struct SiteTiming {
    pub site: String,
    pub relation: String,
    pub pages: u32,
    pub tuples: usize,
    pub cpu: Duration,
    /// cpu + simulated network: the "elapsed time" column.
    pub elapsed: Duration,
    /// What this site's run endured (retries, timeouts, breaker state).
    /// Clean on a healthy web.
    pub degradation: DegradationReport,
    /// What self-healing did during this site's run. Clean on an
    /// undrifted web.
    pub repairs: RepairReport,
}

/// Serial vs parallel wall-clock comparison.
#[derive(Debug, Clone)]
pub struct TimingComparison {
    pub serial_wall: Duration,
    pub parallel_wall: Duration,
    pub rows: Vec<SiteTiming>,
}

impl TimingComparison {
    pub fn speedup(&self) -> f64 {
        self.serial_wall.as_secs_f64() / self.parallel_wall.as_secs_f64().max(1e-9)
    }
}

/// The (host, relation) pairs of the §7 table, in the paper's row order.
pub fn timing_relations() -> Vec<(&'static str, &'static str)> {
    vec![
        ("www.autoweb.com", "autoWeb"),
        ("www.wwwheels.com", "wwwheels"),
        ("www.nytimes.com", "nyTimes"),
        ("www.carreviews.com", "carReviews"),
        ("www.nydailynews.com", "nyDaily"),
        ("www.caranddriver.com", "carAndDriver"),
        ("www.autoconnect.com", "autoConnect"),
        ("www.newsday.com", "newsday"),
        ("autos.yahoo.com", "yahooCars"),
        ("www.kbb.com", "kellys"),
    ]
}

/// The query parameters each site receives: `make=ford AND model=escort`
/// (plus the attributes our extended Kelly's insists on).
fn given_for(relation: &str, make: &str, model: &str) -> Vec<(String, Value)> {
    let mut given =
        vec![("make".to_string(), Value::str(make)), ("model".to_string(), Value::str(model))];
    if relation == "kellys" {
        given.push(("condition".to_string(), Value::str("good")));
        given.push(("pricetype".to_string(), Value::str("retail")));
    }
    given
}

/// A fresh navigator (own browser, private page store, default fetch
/// policy) over `host`'s compiled runtime in `engine`.
pub fn site_navigator(engine: &Engine, host: &str) -> SiteNavigator {
    let runtime = engine.sites().site(host).unwrap_or_else(|| panic!("{host} is not mapped"));
    SiteNavigator::new(runtime.nav.clone(), FetchPolicy::default_policy(), PageStore::new())
}

/// Run one site's query on a fresh [`site_navigator`], so per-site page
/// counts are independent. Under a budget only the tracker is shared, which is
/// exactly how the timing experiments observe cross-site quota
/// contention.
fn run_one(
    engine: &Engine,
    host: &str,
    relation: &str,
    make: &str,
    model: &str,
    budget: Option<&Arc<BudgetTracker>>,
) -> SiteTiming {
    let nav = site_navigator(engine, host);
    if let Some(b) = budget {
        nav.set_budget(b.clone());
    }
    let given = given_for(relation, make, model);
    let (records, stats) = nav
        .run_relation(relation, &given)
        .unwrap_or_else(|e| panic!("timing query on {relation} failed: {e}"));
    if let Some(b) = budget {
        b.mark_served(host);
    }
    SiteTiming {
        site: host.to_string(),
        relation: relation.to_string(),
        pages: stats.pages_fetched,
        tuples: records.len(),
        cpu: stats.cpu,
        elapsed: stats.cpu + stats.network,
        // The navigator is fresh, so its cumulative reports are exactly
        // this run's.
        degradation: nav.degradation(),
        repairs: nav.repair_report(),
    }
}

/// The §7 table: the query against each timing site, in the paper's
/// row order — in turn, or with `parallel` one thread per site (the
/// simulated Web and the compiled runtimes are shared). With a budget,
/// every site draws on one tracker — the same deadline and fetch
/// quotas, admission atomic across threads — and its snapshot shows
/// exactly where the budget went (and which sites were denied).
pub fn site_timings(
    engine: &Engine,
    make: &str,
    model: &str,
    parallel: bool,
    budget: Option<QueryBudget>,
) -> (Vec<SiteTiming>, Option<BudgetSnapshot>) {
    let pairs = timing_relations();
    let tracker = budget.map(|b| {
        let tracker = Arc::new(BudgetTracker::new(b));
        for (host, _) in &pairs {
            tracker.register_site(host);
        }
        tracker
    });
    let run = |(host, relation): &(&str, &str)| {
        run_one(engine, host, relation, make, model, tracker.as_ref())
    };
    let rows = if parallel {
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> =
                pairs.iter().map(|pair| scope.spawn(move |_| run(pair))).collect();
            handles.into_iter().map(|h| h.join().expect("site query thread panicked")).collect()
        })
        .expect("crossbeam scope")
    } else {
        pairs.iter().map(run).collect()
    };
    (rows, tracker.map(|t| t.snapshot()))
}

/// Fold one per-row report into its merged whole — the shape shared by
/// degradation and repair merging (rows come from independent per-site
/// navigators, so the merge is the whole story, serial or parallel).
fn merged<T: Default>(
    rows: &[SiteTiming],
    project: impl Fn(&SiteTiming) -> &T,
    fold: impl Fn(&mut T, &T),
) -> T {
    let mut out = T::default();
    for r in rows {
        fold(&mut out, project(r));
    }
    out
}

/// Merge the per-row degradation reports of a timing run.
pub fn merged_degradation(rows: &[SiteTiming]) -> DegradationReport {
    merged(rows, |r| &r.degradation, DegradationReport::merge)
}

/// Merge the per-row repair reports of a timing run (same shape as
/// [`merged_degradation`]).
pub fn merged_repairs(rows: &[SiteTiming]) -> RepairReport {
    merged(rows, |r| &r.repairs, RepairReport::merge)
}

/// Run both and compare wall-clocks. The *simulated* wall-clock of the
/// serial run is the sum of per-site elapsed; of the parallel run, the
/// maximum (sites proceed concurrently).
pub fn compare(engine: &Engine, make: &str, model: &str) -> TimingComparison {
    let (rows, _) = site_timings(engine, make, model, false, None);
    let serial_wall: Duration = rows.iter().map(|r| r.elapsed).sum();
    let (parallel_rows, _) = site_timings(engine, make, model, true, None);
    let parallel_wall: Duration = parallel_rows.iter().map(|r| r.elapsed).max().unwrap_or_default();
    TimingComparison { serial_wall, parallel_wall, rows }
}

/// Render the §7 table.
pub fn render_table(rows: &[SiteTiming]) -> String {
    let mut out =
        String::from("Site                     # of pages   tuples   cpu (ms)   elapsed (ms)\n");
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>10.1} {:>14.1}\n",
            r.site,
            r.pages,
            r.tuples,
            r.cpu.as_secs_f64() * 1e3,
            r.elapsed.as_secs_f64() * 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_webworld::prelude::LatencyModel;

    fn demo() -> Engine {
        Engine::build_demo(5, 600, LatencyModel::dialup_1999())
    }

    fn serial(engine: &Engine) -> Vec<SiteTiming> {
        site_timings(engine, "ford", "escort", false, None).0
    }

    #[test]
    fn timing_table_shape() {
        let engine = demo();
        let rows = serial(&engine);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.pages > 0, "{}: no pages", r.site);
            assert!(r.elapsed > r.cpu, "{}: elapsed includes network", r.site);
        }
        // The paper's shape: WWWheels (huge slice, tiny pages, make-only
        // form) navigates the most pages; single-quote sites the least.
        let wwwheels = rows.iter().find(|r| r.site == "www.wwwheels.com").expect("row");
        for other in &rows {
            if other.site != wwwheels.site {
                assert!(
                    wwwheels.pages >= other.pages,
                    "wwwheels should dominate: {} vs {} ({})",
                    wwwheels.pages,
                    other.pages,
                    other.site
                );
            }
        }
        let txt = render_table(&rows);
        assert!(txt.lines().count() == 11);
        // A healthy web degrades nothing.
        let merged = merged_degradation(&rows);
        assert!(merged.is_clean(), "{}", merged.render());
    }

    #[test]
    fn parallel_matches_serial_results() {
        let engine = demo();
        let serial = serial(&engine);
        let (parallel, snap) = site_timings(&engine, "ford", "escort", true, None);
        assert!(snap.is_none(), "no budget, no snapshot");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.site, p.site);
            assert_eq!(s.tuples, p.tuples, "{}: tuple counts differ", s.site);
            assert_eq!(s.pages, p.pages, "{}: page counts differ", s.site);
        }
    }

    #[test]
    fn fair_share_budget_spreads_pages_across_sites() {
        let engine = demo();
        // 10 sites, quota 20, fair share on: every site's floor of 2 is
        // reserved, so nobody starves.
        let budget = QueryBudget::unlimited().with_fetch_quota(20).with_fair_share(true);
        let (rows, snap) = site_timings(&engine, "ford", "escort", false, Some(budget));
        let snap = snap.expect("budgeted runs carry a snapshot");
        assert!(rows.iter().all(|r| r.pages >= 1), "{}", render_table(&rows));
        assert_eq!(snap.fetches, 20, "the whole quota is spent");
        assert!(snap.exhausted.is_some());
        // Same quota without fair share: the sites early in the row
        // order drain it and the tail gets nothing.
        let budget = QueryBudget::unlimited().with_fetch_quota(20);
        let (rows, snap) = site_timings(&engine, "ford", "escort", false, Some(budget));
        assert!(snap.expect("snapshot").fetches <= 20);
        assert_eq!(
            rows.last().expect("rows").pages,
            0,
            "without fair share the last site must starve:\n{}",
            render_table(&rows)
        );
    }

    #[test]
    fn parallel_budget_is_shared_across_threads() {
        let engine = demo();
        let budget = QueryBudget::unlimited().with_fetch_quota(15);
        let (rows, snap) = site_timings(&engine, "ford", "escort", true, Some(budget));
        let snap = snap.expect("budgeted runs carry a snapshot");
        assert!(snap.fetches <= 15, "admission is atomic across site threads");
        let total: u32 = rows.iter().map(|r| r.pages).sum();
        assert!(total <= 15, "page spend bounded by the shared quota, got {total}");
        assert!(snap.exhausted.is_some(), "ten sites cannot fit in 15 fetches");
    }

    #[test]
    fn parallelisation_wins_on_simulated_wall_clock() {
        let engine = demo();
        let cmp = compare(&engine, "ford", "escort");
        assert!(
            cmp.parallel_wall < cmp.serial_wall,
            "parallel {:?} !< serial {:?}",
            cmp.parallel_wall,
            cmp.serial_wall
        );
        // The speedup is bounded by the slowest site (WWWheels dominates
        // — Amdahl), so it is well short of 10×, but must be real.
        assert!(cmp.speedup() > 1.2, "speedup {}", cmp.speedup());
    }
}
