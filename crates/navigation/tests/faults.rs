//! Navigation under server failures: the executor must degrade
//! gracefully (fewer answers, never a panic or a hang), and map
//! maintenance must report what it could not reach.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use webbase_navigation::executor::{NavRuntime, SiteNavigator};
use webbase_navigation::maintenance::{check_map, check_map_with_policy};
use webbase_navigation::recorder::Recorder;
use webbase_navigation::sessions;
use webbase_navigation::{FetchPolicy, NavigationMap, PageStore};
use webbase_relational::Value;
use webbase_webworld::data::{Dataset, SiteSlice, MAKES};
use webbase_webworld::faults::{FlakySite, StallingSite, TruncatingSite};
use webbase_webworld::prelude::*;
use webbase_webworld::sites::Newsday;

fn navigator_with(web: SyntheticWeb, map: NavigationMap, policy: FetchPolicy) -> SiteNavigator {
    SiteNavigator::new(Arc::new(NavRuntime::compile(web, map)), policy, PageStore::new())
}

fn newsday_map(
    web: &SyntheticWeb,
    data: &std::sync::Arc<Dataset>,
) -> webbase_navigation::NavigationMap {
    Recorder::record(web.clone(), "www.newsday.com", &sessions::newsday(data)).expect("records").0
}

#[test]
fn flaky_site_degrades_gracefully() {
    let data = Dataset::generate(7, 500);
    // Record against a healthy web…
    let healthy = standard_web(data.clone(), LatencyModel::zero());
    let map = newsday_map(&healthy, &data);
    let healthy_nav = SiteNavigator::standalone(healthy, map.clone());
    let given = vec![("make".to_string(), Value::str("ford"))];
    let (full, _) = healthy_nav.run_relation("newsday", &given).expect("healthy run");

    // …then navigate against a flaky one (every 5th request 500s).
    let flaky = SyntheticWeb::builder()
        .site(FlakySite::new(Newsday::new(data.clone(), 1), 5))
        .latency(LatencyModel::zero())
        .build();
    let nav = SiteNavigator::standalone(flaky, map);
    let (partial, _) = nav.run_relation("newsday", &given).expect("flaky run completes");
    assert!(
        partial.len() <= full.len(),
        "failures cannot add answers ({} > {})",
        partial.len(),
        full.len()
    );
    // Every partial answer is a real answer.
    for rec in &partial {
        assert!(full.contains(rec), "fabricated answer under failure: {rec:?}");
    }
}

#[test]
fn truncated_pages_yield_partial_rows_not_garbage() {
    let data = Dataset::generate(7, 500);
    let healthy = standard_web(data.clone(), LatencyModel::zero());
    let map = newsday_map(&healthy, &data);
    let truncating = SyntheticWeb::builder()
        .site(TruncatingSite::new(Newsday::new(data.clone(), 1), 900))
        .latency(LatencyModel::zero())
        .build();
    let nav = SiteNavigator::standalone(truncating, map);
    let (records, _) = nav
        .run_relation("newsday", &[("make".to_string(), Value::str("ford"))])
        .expect("truncated run completes");
    // Whatever survived truncation must still be well-typed ford ads.
    let truth = data.matching(SiteSlice::Newsday, Some("ford"), None);
    for rec in &records {
        assert_eq!(rec["make"], Value::str("ford"));
        if let Value::Int(price) = rec["price"] {
            assert!(
                truth.iter().any(|ad| ad.price as i64 == price),
                "price {price} not in ground truth"
            );
        }
    }
}

#[test]
fn maintenance_reports_unreachable_on_dead_server() {
    let data = Dataset::generate(7, 400);
    let healthy = standard_web(data.clone(), LatencyModel::zero());
    let mut map = newsday_map(&healthy, &data);
    // A web where Newsday fails on every second request: maintenance must
    // finish and either report unreachable nodes or changes — never hang.
    let broken = SyntheticWeb::builder()
        .site(FlakySite::new(Newsday::new(data.clone(), 1), 2))
        .latency(LatencyModel::zero())
        .build();
    let report = check_map(broken, &mut map);
    assert!(
        !report.unreachable.is_empty() || !report.changes.is_empty(),
        "a half-dead site cannot look clean"
    );
}

#[test]
fn dead_site_is_unreachable_not_drifted() {
    // Every request 500s: the probe cannot even reach the entry page.
    // That is a reachability fact, not a structural one — a report full
    // of phantom LinkRemoved/FormRemoved changes would tell the designer
    // to rewrite a map that is actually fine.
    let (data, map) = prop_fixture();
    let mut m = map.clone();
    let report = check_map(flaky_newsday(data, 1), &mut m);
    assert_eq!(report.unreachable, vec![m.entry]);
    assert!(report.changes.is_empty(), "an outage is not drift: {:?}", report.changes);
    assert_eq!(report.auto_applied, 0);
}

#[test]
fn flaky_probes_fail_closed_without_phantom_changes() {
    // Intermittent failures: maintenance runs without retries, so failed
    // probes land in `unreachable` — and the pages that *did* load are
    // healthy, so no change of any severity may be reported.
    let (data, map) = prop_fixture();
    for period in 2..6 {
        let mut m = map.clone();
        let report = check_map(flaky_newsday(data, period), &mut m);
        assert!(!report.unreachable.is_empty(), "period {period}: a flaky site cannot probe clean");
        assert!(report.changes.is_empty(), "period {period}: {:?}", report.changes);
    }
}

#[test]
fn stalled_probes_time_out_into_unreachable() {
    let (data, map) = prop_fixture();
    let stalling = SyntheticWeb::builder()
        .site(StallingSite::new(Newsday::new(data.clone(), 1), 3, Duration::from_secs(300)))
        .latency(LatencyModel::zero())
        .build();
    let policy = FetchPolicy {
        timeout: Some(Duration::from_secs(30)),
        ..webbase_navigation::FetchPolicy::no_retry()
    };
    let mut m = map.clone();
    let report = check_map_with_policy(stalling, &mut m, policy);
    assert!(!report.unreachable.is_empty(), "stalled probes must not look reachable");
    assert!(report.changes.is_empty(), "a stall is not drift: {:?}", report.changes);
}

#[test]
fn maintenance_reports_are_deterministic_per_seed() {
    let (data, map) = prop_fixture();
    for period in [1, 2, 3, 5] {
        let run = || {
            let mut m = map.clone();
            check_map(flaky_newsday(data, period), &mut m)
        };
        assert_eq!(run(), run(), "period {period}: same seed, same fault schedule, same report");
    }
}

/// Recording Newsday once is enough for every property case: faulty webs
/// are rebuilt per case (the fault counter must start fresh), but the map
/// and dataset are shared.
fn prop_fixture() -> &'static (Arc<Dataset>, NavigationMap) {
    static FIX: OnceLock<(Arc<Dataset>, NavigationMap)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = Dataset::generate(7, 500);
        let healthy = standard_web(data.clone(), LatencyModel::zero());
        let map = newsday_map(&healthy, &data);
        (data, map)
    })
}

/// A fresh single-site flaky Newsday (its request counter at zero, so the
/// fault schedule is identical across builds).
fn flaky_newsday(data: &Arc<Dataset>, period: u64) -> SyntheticWeb {
    SyntheticWeb::builder()
        .site(FlakySite::new(Newsday::new(data.clone(), 1), period))
        .latency(LatencyModel::zero())
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Resilience is deterministic: two identically-built flaky webs
    /// produce byte-identical answers, retry counts, and degradation
    /// reports for the same query.
    #[test]
    fn retries_are_deterministic(period in 2u64..9, make_i in 0usize..10) {
        let (data, map) = prop_fixture();
        let make = MAKES[make_i].0;
        let given = vec![("make".to_string(), Value::str(make))];
        let run = || {
            let nav = SiteNavigator::standalone(flaky_newsday(data, period), map.clone());
            let (records, stats) = nav.run_relation("newsday", &given).expect("completes");
            (records, stats.retries, nav.degradation())
        };
        let (rec1, retries1, deg1) = run();
        let (rec2, retries2, deg2) = run();
        prop_assert_eq!(rec1, rec2, "answers must not depend on wall-clock or chance");
        prop_assert_eq!(retries1, retries2);
        prop_assert_eq!(deg1, deg2);
    }

    /// Backoff is charged monotonically: the same fault schedule under a
    /// larger backoff base costs at least as much simulated network, and
    /// exactly as much iff nothing was retried.
    #[test]
    fn backoff_charges_monotonically(period in 2u64..9, base_ms in 1u64..400) {
        let (data, map) = prop_fixture();
        let given = vec![("make".to_string(), Value::str("ford"))];
        let run = |base: Duration| {
            let policy = FetchPolicy { backoff_base: base, ..FetchPolicy::default_policy() };
            let nav = navigator_with(flaky_newsday(data, period), map.clone(), policy);
            let (_, stats) = nav.run_relation("newsday", &given).expect("completes");
            (stats.network, stats.retries)
        };
        let (net_lo, retries_lo) = run(Duration::ZERO);
        let (net_hi, retries_hi) = run(Duration::from_millis(base_ms));
        prop_assert_eq!(retries_lo, retries_hi, "backoff must not change the fault schedule");
        prop_assert!(net_hi >= net_lo, "{net_hi:?} < {net_lo:?}");
        prop_assert_eq!(net_hi == net_lo, retries_lo == 0, "backoff charged iff retried");
    }

    /// A healthy site never opens the circuit, even at the most trigger-
    /// happy threshold: breaker state is driven by failures, not volume.
    #[test]
    fn breaker_never_opens_on_healthy_site(make_i in 0usize..10) {
        let (data, map) = prop_fixture();
        let make = MAKES[make_i].0;
        let policy = FetchPolicy { breaker_threshold: 1, ..FetchPolicy::default_policy() };
        let healthy = standard_web(data.clone(), LatencyModel::zero());
        let nav = navigator_with(healthy, map.clone(), policy);
        let (_, stats) = nav
            .run_relation("newsday", &[("make".to_string(), Value::str(make))])
            .expect("completes");
        prop_assert_eq!(stats.retries, 0);
        let report = nav.degradation();
        prop_assert!(report.is_clean(), "{}", report.render());
    }
}
