//! `perfbench` — the webbase's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper_isolated|gen200_cold|paper_drift>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds one workload from its seed, drives it with
//! [`CLIENTS`] closed-loop clients (each waits for its reply before
//! sending the next operation) for `--seconds` of real time, checks
//! every answer, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run
//! alternates untraced and counted slices and is followed by the
//! outside-in layer walk (`walk.rs`), and the metrics are the
//! per-layer ones. `perfbench/README.md` lists every metric and which
//! end-to-end figure each layer metric should move.

mod walk;

use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use webbase::{Corpus, Engine, EngineConfig, EngineStats, LatencyModel, QueryOptions, Relation};
use webbase_navigation::DriftOrigin;
use webbase_perfbench::{
    car_ops, car_pool, client_share, gen_ops, percentile, CarOp, GenOp, CLIENTS,
};
use webbase_relational::{Attr, Value};
use webbase_vps::{Metric, MetricsSnapshot};
use webbase_webworld::data::Dataset;
use webbase_webworld::faults::{MutatingSite, Mutation, MutationClock};
use webbase_webworld::generate::{GenCorpus, SiteSpec};
use webbase_webworld::prelude::{standard_web, standard_web_faulty, Site, SyntheticWeb};

/// Ads in the paper car corpus.
const ADS: usize = 900;
/// Sites in the generated corpus.
const GEN_SITES: usize = 200;
/// The drifting sites of `paper_drift`, one per client: client `c`
/// writes only to `DRIFT_HOSTS[c]`, so concurrent writes never undo
/// each other and every write refreshes one real change.
const DRIFT_HOSTS: [&str; CLIENTS] = ["www.nytimes.com", "www.newsday.com"];
/// Engine builds per run for `setup_s`: untimed warm-up builds first
/// (the first builds of a process run on cold caches and a cold heap),
/// then at least the minimum, and more until a second of timed building
/// has passed, up to the maximum.
const SETUP_WARM: usize = 2;
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 200;
/// Pre-generated operations per car client (cycled if a run outlasts
/// them) and generated-corpus queries per run (never repeated).
const CAR_OPS: usize = 1 << 16;
const GEN_OPS: usize = 1 << 14;
/// Generated-corpus queries run before timing starts.
const GEN_WARM: usize = 16;
/// The traced run alternates this many untraced and counted slices, so
/// that state which grows during a run (cached results, ledger views)
/// weighs on both sides alike.
const TRACE_SLICES: usize = 10;
/// Maintenance sweeps timed by the traced run of a workload without
/// writes, for `refresh_p50_ms`.
const REFRESH_PROBES: usize = 5;
/// Walks per traced run: at least the minimum, then more until a quarter
/// of `--seconds` has passed, up to the maximum.
const WALK_MIN: usize = 10;
const WALK_MAX: usize = 400;
/// A walk whose parts leave more than this share of the isolated query
/// time unexplained is flagged.
const UNATTRIBUTED_FLAG: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperIsolated,
    Gen200Cold,
    PaperDrift,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "paper_isolated" => Some(Workload::PaperIsolated),
            "gen200_cold" => Some(Workload::Gen200Cold),
            "paper_drift" => Some(Workload::PaperDrift),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ───────────────────────────── set-up ─────────────────────────────

/// One built workload: the engine serving it, the drift clocks in
/// [`DRIFT_HOSTS`] order (paper drift only) and the generated corpus
/// (gen200 only).
struct Fixture {
    engine: Engine,
    clocks: Vec<MutationClock>,
    gen: Option<GenCorpus>,
}

impl Fixture {
    /// The corpus description again, for the benchmark's own recording.
    fn corpus(&self) -> Corpus {
        match &self.gen {
            Some(gen) => Corpus::generated(gen),
            None => Corpus::paper(self.engine.data().expect("car corpus has a dataset").clone()),
        }
    }
}

/// The paper web with each of [`DRIFT_HOSTS`] wrapped in a
/// one-mutation site (every rendered price gains a leading 9) whose
/// clock the benchmark flips between generations 0 and 1, so the sites
/// drift for as long as the run lasts.
fn drifting_web(data: std::sync::Arc<Dataset>) -> (SyntheticWeb, Vec<MutationClock>) {
    let slots: Vec<Mutex<Option<MutationClock>>> =
        DRIFT_HOSTS.iter().map(|_| Mutex::new(None)).collect();
    let web = standard_web_faulty(data, LatencyModel::lan(), |host, site| {
        match DRIFT_HOSTS.iter().position(|h| *h == host) {
            Some(i) => {
                let (site, clock) = MutatingSite::new(site, vec![Mutation::new("$", "$9")]);
                *slots[i].lock().expect("clock slot") = Some(clock);
                Box::new(site) as Box<dyn Site>
            }
            None => site,
        }
    });
    let clocks = slots
        .into_iter()
        .map(|s| s.into_inner().expect("clock slot").expect("drift hosts are in the paper web"))
        .collect();
    (web, clocks)
}

/// Generate the inputs from the seed and build the engine over them.
fn build(workload: Workload, seed: u64) -> Result<Fixture, String> {
    let config = EngineConfig::default();
    let fixture = match workload {
        Workload::PaperIsolated => {
            let data = Dataset::generate(seed, ADS);
            let web = standard_web(data.clone(), LatencyModel::lan());
            let engine = Engine::build_corpus(web, Corpus::paper(data), config);
            Fixture { engine: engine.map_err(|e| e.to_string())?, clocks: Vec::new(), gen: None }
        }
        Workload::PaperDrift => {
            let data = Dataset::generate(seed, ADS);
            let (web, clocks) = drifting_web(data.clone());
            let engine = Engine::build_corpus(web, Corpus::paper(data), config);
            Fixture { engine: engine.map_err(|e| e.to_string())?, clocks, gen: None }
        }
        Workload::Gen200Cold => {
            let gen = GenCorpus::generate(seed, GEN_SITES);
            let web = gen.web(LatencyModel::lan());
            let engine = Engine::build_corpus(web, Corpus::generated(&gen), config);
            Fixture {
                engine: engine.map_err(|e| e.to_string())?,
                clocks: Vec::new(),
                gen: Some(gen),
            }
        }
    };
    Ok(fixture)
}

/// Build the workload several times (dropping each engine before the
/// next) and keep the last; returns it with every timed build's seconds.
fn timed_builds(workload: Workload, seed: u64) -> Result<(Fixture, Vec<f64>), String> {
    for _ in 0..SETUP_WARM {
        build(workload, seed)?;
    }
    let start = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && start.elapsed() < Duration::from_secs(1))
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build(workload, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one build"), times))
}

// ─────────────────────────── the clients ──────────────────────────

/// What the clients did in one closed-loop phase.
#[derive(Default)]
struct Tally {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Summed per-query counters (`QueryOutcome.metrics`).
    counters: MetricsSnapshot,
    /// Summed refresh reports of the writes.
    delta_refreshed: u64,
    cold_refreshed: u64,
    /// Pool indices the drift clients read.
    served: HashSet<usize>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.counters.merge(&other.counters);
        self.delta_refreshed += other.delta_refreshed;
        self.cold_refreshed += other.cold_refreshed;
        self.served.extend(other.served);
    }

    fn ops(&self) -> usize {
        self.read_ms.len() + self.write_ms.len()
    }

    fn fail(&mut self, what: &str) {
        if self.failed < 5 {
            eprintln!("perfbench: FAILED {what}");
        }
        self.failed += 1;
    }
}

/// The workload's inputs and answer references, shared by the clients.
struct Load<'a> {
    workload: Workload,
    fx: &'a Fixture,
    pool: Vec<String>,
    /// `paper_isolated`: the isolated reference answer per pool text.
    refs: Vec<Option<Relation>>,
    car_ops: Vec<Vec<CarOp>>,
    gen_ops: Vec<Vec<GenOp>>,
    cursors: Vec<AtomicUsize>,
}

impl Load<'_> {
    /// Run client `client`'s next operation; `false` when its sequence
    /// is exhausted. `count` sums the query's counters into the tally.
    fn step(&self, client: usize, count: bool, tally: &mut Tally) -> bool {
        let engine = &self.fx.engine;
        let tenant = format!("client{client}");
        let tenant = tenant.as_str();
        let i = self.cursors[client].fetch_add(1, Ordering::Relaxed);
        match self.workload {
            Workload::Gen200Cold => {
                let Some(op) = self.gen_ops[client].get(i) else { return false };
                let gen = self.fx.gen.as_ref().expect("gen200 has a corpus");
                let spec = &gen.specs[op.site];
                let text = op.text(spec);
                let t = Instant::now();
                let out = engine.query(tenant, &text, QueryOptions::default());
                tally.read_ms.push(ms(t.elapsed()));
                tally.attempted += 1;
                match out {
                    Ok(out) => {
                        if count {
                            tally.counters.merge(&out.metrics);
                        }
                        if gen_answer(spec, &out.relation) != Some(gen_expected(spec, op)) {
                            tally.fail(&format!("oracle mismatch on {text}"));
                        }
                    }
                    Err(e) => tally.fail(&format!("{text}: {e}")),
                }
            }
            Workload::PaperIsolated | Workload::PaperDrift => {
                let ops = &self.car_ops[client];
                match ops[i % ops.len()] {
                    CarOp::Read(k) => {
                        let text = &self.pool[k];
                        let t = Instant::now();
                        let out = if self.workload == Workload::PaperIsolated {
                            engine.query_isolated(tenant, text, QueryOptions::default())
                        } else {
                            engine.query(tenant, text, QueryOptions::default())
                        };
                        tally.read_ms.push(ms(t.elapsed()));
                        tally.attempted += 1;
                        match out {
                            Ok(out) => {
                                if count {
                                    tally.counters.merge(&out.metrics);
                                }
                                tally.served.insert(k);
                                if let Some(reference) = &self.refs[k] {
                                    if out.relation != *reference {
                                        tally.fail(&format!(
                                            "answer differs from reference: {text}"
                                        ));
                                    }
                                }
                            }
                            Err(e) => tally.fail(&format!("{text}: {e}")),
                        }
                    }
                    CarOp::Write => {
                        let clock = &self.fx.clocks[client];
                        let t = Instant::now();
                        clock.set(1 - clock.generation().min(1));
                        let report = engine.refresh(
                            Some(DRIFT_HOSTS[client]),
                            DriftOrigin::Maintenance,
                            None,
                            None,
                        );
                        tally.write_ms.push(ms(t.elapsed()));
                        tally.attempted += 1;
                        tally.delta_refreshed += report.delta_refreshed as u64;
                        tally.cold_refreshed += report.cold_refreshed as u64;
                    }
                }
            }
        }
        true
    }

    /// Every client runs its operations back to back until `seconds`
    /// have passed; returns the merged tally and the phase's length.
    fn closed_loop(&self, seconds: f64, count: bool) -> (Tally, f64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        while Instant::now() < deadline && self.step(c, count, &mut tally) {}
                        tally
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut all = Tally::default();
        for t in tallies {
            all.merge(t);
        }
        (all, elapsed)
    }
}

/// The expected multiset of `(item, qty, price)` for a generated query.
fn gen_expected(spec: &SiteSpec, op: &GenOp) -> BTreeMap<(String, i64, i64), usize> {
    let mut out = BTreeMap::new();
    for row in spec.oracle(&op.cat, op.sub.as_deref()) {
        if row.price <= op.max_price {
            *out.entry((row.item.clone(), row.qty, row.price)).or_insert(0) += 1;
        }
    }
    out
}

/// The answer's multiset of `(item, qty, price)`, or `None` when its
/// schema or values are not the expected ones.
fn gen_answer(spec: &SiteSpec, rel: &Relation) -> Option<BTreeMap<(String, i64, i64), usize>> {
    let col = |base: &str| rel.schema().index_of(&Attr::new(spec.attr(base)));
    let (ii, qi, pi) = (col("item")?, col("qty")?, col("price")?);
    let mut out = BTreeMap::new();
    for t in rel.tuples() {
        let Value::Str(item) = t.get(ii) else { return None };
        let key = (item.clone(), t.get(qi).as_int()?, t.get(pi).as_int()?);
        *out.entry(key).or_insert(0) += 1;
    }
    Some(out)
}

/// Run `f` over `0..n` split between [`CLIENTS`] threads.
fn parallel<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let f = &f;
                s.spawn(move || (c..n).step_by(CLIENTS).map(|i| (i, f(i))).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let mut all: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

// ──────────────────────────── reporting ───────────────────────────

struct Report {
    metrics: Vec<(String, f64, &'static str, Option<usize>)>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Print one line per metric, then the result object as the last
    /// line of standard output.
    fn emit(&self, correct: bool, attempted: u64, failed: u64) {
        let mut fields = Vec::new();
        for (name, value, unit, samples) in &self.metrics {
            let n = samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("{name:<32} {value:>14.4} {unit}{n}");
            let value = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            fields.join(", ")
        );
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Add the engine counters that moved between two snapshots to `acc`.
fn add_delta(acc: &mut EngineStats, before: &EngineStats, after: &EngineStats) {
    acc.store_hits += after.store_hits - before.store_hits;
    acc.store_misses += after.store_misses - before.store_misses;
    acc.memo_hits += after.memo_hits - before.memo_hits;
    acc.memo_misses += after.memo_misses - before.memo_misses;
    acc.memo_coalesced += after.memo_coalesced - before.memo_coalesced;
    acc.result_hits += after.result_hits - before.result_hits;
    acc.result_misses += after.result_misses - before.result_misses;
    acc.result_coalesced += after.result_coalesced - before.result_coalesced;
    acc.pool_waits += after.pool_waits - before.pool_waits;
    acc.view_invalidated += after.view_invalidated - before.view_invalidated;
}

// ────────────────────────────── main ──────────────────────────────

fn run(args: &Args) -> Result<(), String> {
    let (fx, setup_s) = timed_builds(args.workload, args.seed)?;
    eprintln!(
        "perfbench: {:?} seed {}: {} timed builds, median {:.4} s",
        args.workload,
        args.seed,
        setup_s.len(),
        median(&setup_s)
    );

    // The traced run records its own artifacts, timing each setup layer.
    let mut artifacts = None;
    let mut setup_parts = Vec::new();
    if args.trace {
        for _ in 0..SETUP_MIN {
            let (arts, parts) = walk::record(fx.engine.web(), fx.corpus())?;
            setup_parts.push(parts);
            artifacts = Some(arts);
        }
    }

    let pool = if args.workload == Workload::Gen200Cold { Vec::new() } else { car_pool() };
    let mut load = Load {
        workload: args.workload,
        fx: &fx,
        refs: vec![None; pool.len()],
        car_ops: Vec::new(),
        gen_ops: Vec::new(),
        pool,
        cursors: (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect(),
    };
    let mut prep = Tally::default();
    match args.workload {
        Workload::Gen200Cold => {
            let gen = fx.gen.as_ref().expect("gen200 has a corpus");
            let global = gen_ops(args.seed, &gen.specs, GEN_OPS);
            let (warm, timed) = global.split_at(GEN_WARM);
            load.gen_ops = vec![warm.to_vec()];
            while load.step(0, false, &mut prep) {}
            load.cursors[0].store(0, Ordering::Relaxed);
            load.gen_ops = (0..CLIENTS).map(|c| client_share(timed, c)).collect();
        }
        Workload::PaperIsolated => {
            // Isolated and shared references for every pool text; the
            // shared one on a second engine so the measured engine's
            // caches stay empty.
            let shared = build(args.workload, args.seed)?;
            let engine = &fx.engine;
            let refs = parallel(load.pool.len(), |k| {
                let text = &load.pool[k];
                let iso = engine.query_isolated("reference", text, QueryOptions::default());
                let sh = shared.engine.query("reference", text, QueryOptions::default());
                match (iso, sh) {
                    (Ok(iso), Ok(sh)) if iso.relation == sh.relation => Ok(iso.relation),
                    (Ok(_), Ok(_)) => Err(format!("isolated and shared answers differ: {text}")),
                    (Err(e), _) | (_, Err(e)) => Err(format!("reference run of {text}: {e}")),
                }
            });
            for (k, r) in refs.into_iter().enumerate() {
                prep.attempted += 1;
                match r {
                    Ok(rel) => load.refs[k] = Some(rel),
                    Err(e) => prep.fail(&e),
                }
            }
            load.car_ops = (0..CLIENTS)
                .map(|c| car_ops(args.seed, c, load.pool.len(), false, CAR_OPS))
                .collect();
        }
        Workload::PaperDrift => {
            // Warm every cache with every pool text before timing.
            let engine = &fx.engine;
            let warm = parallel(load.pool.len(), |k| {
                engine
                    .query("warm", &load.pool[k], QueryOptions::default())
                    .map(|_| ())
                    .map_err(|e| format!("warm-up of {}: {e}", load.pool[k]))
            });
            for r in warm {
                prep.attempted += 1;
                if let Err(e) = r {
                    prep.fail(&e);
                }
            }
            load.car_ops = (0..CLIENTS)
                .map(|c| car_ops(args.seed, c, load.pool.len(), true, CAR_OPS))
                .collect();
        }
    }

    // Timed phases: one untraced phase, or untraced and counted slices
    // taking turns for the traced run.
    let (mut untraced, mut untraced_s) = (Tally::default(), 0.0);
    let (mut counted, mut counted_s, mut delta) = (Tally::default(), 0.0, EngineStats::default());
    let (slices, slice_s) = if args.trace {
        (TRACE_SLICES, args.seconds / (2 * TRACE_SLICES) as f64)
    } else {
        (1, args.seconds)
    };
    for _ in 0..slices {
        let (tally, secs) = load.closed_loop(slice_s, false);
        untraced.merge(tally);
        untraced_s += secs;
        if args.trace {
            let before = fx.engine.stats();
            let (tally, secs) = load.closed_loop(slice_s, true);
            add_delta(&mut delta, &before, &fx.engine.stats());
            counted.merge(tally);
            counted_s += secs;
        }
    }

    // Post-run checks.
    let mut post = Tally::default();
    let stats = fx.engine.stats();
    if stats.stale_served != 0 || stats.readset_escape != 0 {
        post.attempted += 1;
        post.fail(&format!(
            "tripwires: stale_served {} readset_escape {}",
            stats.stale_served, stats.readset_escape
        ));
    }
    if args.workload == Workload::PaperDrift {
        // Settle the last flips, then every text served must equal a
        // cold isolated re-run against the final generations.
        for host in DRIFT_HOSTS {
            fx.engine.refresh(Some(host), DriftOrigin::Maintenance, None, None);
        }
        let mut served: Vec<usize> = untraced.served.union(&counted.served).copied().collect();
        served.sort_unstable();
        let engine = &fx.engine;
        let checks = parallel(served.len(), |j| {
            let text = &load.pool[served[j]];
            let shared = engine.query("check", text, QueryOptions::default());
            let iso = engine.query_isolated("check", text, QueryOptions::default());
            match (shared, iso) {
                (Ok(s), Ok(i)) if s.relation == i.relation => Ok(()),
                (Ok(_), Ok(_)) => Err(format!("served answer is not the final one: {text}")),
                (Err(e), _) | (_, Err(e)) => Err(format!("final check of {text}: {e}")),
            }
        });
        for r in checks {
            post.attempted += 1;
            if let Err(e) = r {
                post.fail(&e);
            }
        }
    }

    let mut report = Report { metrics: Vec::new() };
    let mut failed = prep.failed + untraced.failed + counted.failed + post.failed;
    let mut attempted = prep.attempted + untraced.attempted + counted.attempted + post.attempted;

    if !args.trace {
        let mut reads = untraced.read_ms.clone();
        reads.sort_by(f64::total_cmp);
        let n = reads.len();
        report.add("qps", untraced.ops() as f64 / untraced_s, "1/s", Some(untraced.ops()));
        report.add("latency_p50_ms", percentile(&reads, 50.0).unwrap_or(0.0), "ms", Some(n));
        report.add("latency_p98_ms", percentile(&reads, 98.0).unwrap_or(0.0), "ms", Some(n));
        report.add("setup_s", median(&setup_s), "s", Some(setup_s.len()));
        report.add("peak_rss_mb", peak_rss_mb(), "MB", None);
    } else {
        let arts = artifacts.expect("traced run records artifacts");
        // The walk: single-threaded, over texts the workload sends.
        let walk_texts: Vec<String> = match args.workload {
            Workload::Gen200Cold => {
                let gen = fx.gen.as_ref().expect("gen200 has a corpus");
                let global = gen_ops(args.seed, &gen.specs, GEN_OPS);
                global.iter().rev().take(WALK_MAX).map(|op| op.text(&gen.specs[op.site])).collect()
            }
            _ => load.car_ops[0]
                .iter()
                .filter_map(|op| match op {
                    CarOp::Read(k) => Some(load.pool[*k].clone()),
                    CarOp::Write => None,
                })
                .take(WALK_MAX)
                .collect(),
        };
        let walk_start = Instant::now();
        let mut walks = Vec::new();
        for text in &walk_texts {
            if walks.len() >= WALK_MIN && walk_start.elapsed().as_secs_f64() > args.seconds / 4.0 {
                break;
            }
            attempted += 1;
            match walk::walk(&fx.engine, &arts, text) {
                Ok(w) => {
                    if !w.matched {
                        failed += 1;
                        eprintln!("perfbench: FAILED walk answer differs from isolated: {text}");
                    }
                    walks.push(w);
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: FAILED walk: {e}");
                }
            }
        }
        let flagged = walks
            .iter()
            .filter(|w| w.unattributed_ms().abs() > UNATTRIBUTED_FLAG * w.isolated_ms)
            .count();
        if flagged > 0 {
            eprintln!(
                "perfbench: {flagged} of {} walks leave over {:.0}% of the isolated time unattributed",
                walks.len(),
                UNATTRIBUTED_FLAG * 100.0
            );
        }
        let nw = Some(walks.len());
        let wmed =
            |f: &dyn Fn(&walk::Walk) -> f64| median(&walks.iter().map(f).collect::<Vec<_>>());
        report.add("engine.session_build_ms", wmed(&|w| w.session_ms), "ms", nw);
        report.add("ur.parse_ms", wmed(&|w| w.parse_ms), "ms", nw);
        report.add("ur.plan_ms", wmed(&|w| w.plan_ms), "ms", nw);
        report.add("ur.execute_ms", wmed(&|w| w.execute_ms), "ms", nw);
        report.add("engine.session_teardown_ms", wmed(&|w| w.teardown_ms), "ms", nw);
        report.add("navigation.run_ms", wmed(&|w| w.nav_cold_ms), "ms", nw);
        report.add("navigation.run_warm_ms", wmed(&|w| w.nav_warm_ms), "ms", nw);
        report.add("html.parse_ms", wmed(&|w| w.html_ms), "ms", nw);
        report.add("html.pages", wmed(&|w| w.pages as f64), "count", nw);
        report.add("relational.self_ms", wmed(&|w| w.execute_ms - w.nav_cold_ms), "ms", nw);
        report.add("webworld.fetch_ms", wmed(&|w| w.fetch_ms), "ms", nw);
        report.add("engine.isolated_ms", wmed(&|w| w.isolated_ms), "ms", nw);
        report.add("engine.unattributed_ms", wmed(&walk::Walk::unattributed_ms), "ms", nw);
        report.add("trace.walks", walks.len() as f64, "count", None);
        report.add("trace.walks_unattributed", flagged as f64, "count", None);

        let queries = counted.read_ms.len() as f64;
        let nq = Some(counted.read_ms.len());
        let per_query = |m: Metric| ratio(counted.counters.get(m) as f64, queries);
        report.add("navigation.fetches", per_query(Metric::Fetches), "count", nq);
        report.add("navigation.nav_steps", per_query(Metric::NavSteps), "count", nq);
        report.add("vps.invocations", per_query(Metric::HandleInvocations), "count", nq);
        report.add("vps.tuples", per_query(Metric::TuplesEmitted), "count", nq);
        report.add("trace.queries", queries, "count", None);
        let store = (delta.store_hits + delta.store_misses) as f64;
        let memo = (delta.memo_hits + delta.memo_misses) as f64;
        let results = (delta.result_hits + delta.result_misses) as f64;
        report.add(
            "navigation.store_hit_ratio",
            ratio(delta.store_hits as f64, store),
            "ratio",
            None,
        );
        report.add("navigation.store_lookups", ratio(store, queries), "count", nq);
        report.add("vps.memo_hit_ratio", ratio(delta.memo_hits as f64, memo), "ratio", None);
        report.add("vps.memo_lookups", ratio(memo, queries), "count", nq);
        report.add(
            "engine.result_hit_ratio",
            ratio(delta.result_hits as f64, results),
            "ratio",
            None,
        );
        report.add("engine.result_lookups", ratio(results, queries), "count", nq);
        report.add(
            "engine.result_coalesced",
            ratio(delta.result_coalesced as f64, queries),
            "count",
            nq,
        );
        report.add("vps.memo_coalesced", ratio(delta.memo_coalesced as f64, queries), "count", nq);
        report.add("navigation.pool_waits", ratio(delta.pool_waits as f64, queries), "count", nq);

        let writes = counted.write_ms.len() as f64;
        let nwr = Some(counted.write_ms.len());
        let refreshed = (counted.delta_refreshed + counted.cold_refreshed) as f64;
        report.add("engine.views_refreshed", ratio(refreshed, writes), "count", nwr);
        report.add(
            "engine.delta_refresh",
            ratio(counted.delta_refreshed as f64, writes),
            "count",
            nwr,
        );
        report.add(
            "engine.cold_refresh",
            ratio(counted.cold_refreshed as f64, writes),
            "count",
            nwr,
        );
        report.add(
            "engine.view_invalidated",
            ratio(delta.view_invalidated as f64, writes),
            "count",
            nwr,
        );
        let mut refresh_ms = untraced.write_ms.clone();
        refresh_ms.extend(&counted.write_ms);
        let writes = refresh_ms.len();
        if writes == 0 {
            // A workload without writes: time the maintenance sweep a
            // write would trigger, over the store the run left behind
            // (nothing has drifted, so it revalidates and publishes
            // nothing).
            for _ in 0..REFRESH_PROBES {
                let t = Instant::now();
                fx.engine.refresh(None, DriftOrigin::Maintenance, None, None);
                refresh_ms.push(ms(t.elapsed()));
            }
        }
        report.add("refresh_p50_ms", median(&refresh_ms), "ms", Some(refresh_ms.len()));
        report.add("engine.writes", writes as f64, "count", None);

        let pmed = |f: &dyn Fn(&walk::SetupParts) -> f64| {
            median(&setup_parts.iter().map(f).collect::<Vec<_>>())
        };
        let np = Some(setup_parts.len());
        report.add("navigation.record_ms", pmed(&|p| p.record_ms), "ms", np);
        report.add("webcheck.analyze_ms", pmed(&|p| p.analyze_ms), "ms", np);
        report.add("navigation.compile_ms", pmed(&|p| p.compile_ms), "ms", np);
        report.add("vps.derive_handles_ms", pmed(&|p| p.derive_ms), "ms", np);

        report.add("engine.stale_served", stats.stale_served as f64, "count", None);
        report.add("engine.readset_escape", stats.readset_escape as f64, "count", None);
        report.add(
            "failure_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
            Some(attempted as usize),
        );
        let qps_untraced = untraced.ops() as f64 / untraced_s;
        let qps_traced = counted.ops() as f64 / counted_s;
        report.add("trace.qps_untraced", qps_untraced, "1/s", Some(untraced.ops()));
        report.add("trace.qps_traced", qps_traced, "1/s", Some(counted.ops()));
        report.add("trace.overhead_frac", 1.0 - ratio(qps_traced, qps_untraced), "ratio", None);
    }
    report.emit(failed == 0, attempted, failed);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
