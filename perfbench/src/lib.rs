//! Seeded workload generation for the webbase benchmark.
//!
//! Everything a run sends to the engine is a pure function of the
//! `--seed` argument and the client index: the query pools, the Zipf
//! draws, the write positions and the generated-corpus price bounds.
//! The runner (`src/main.rs`) only consumes these sequences; the tests
//! in `tests/determinism.rs` pin that the same seed yields the same
//! operations.

use std::collections::HashSet;
use webbase_webworld::data::MAKES;
use webbase_webworld::generate::SiteSpec;

/// Closed-loop clients per workload (one per core of the reference
/// two-core machine).
pub const CLIENTS: usize = 2;

/// Year lower bounds crossed with every make/model of the car pool.
pub const POOL_YEARS: [u32; 4] = [1985, 1990, 1993, 1996];

/// One write per this many operations of each client on the drift
/// workload (1 %).
pub const WRITE_PERIOD: usize = 100;

/// SplitMix64: a tiny, dependency-free, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named stream of one seed (clients, warm-up
    /// and reference passes draw from independent streams).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c <= u).min(self.cdf.len() - 1)
    }
}

/// The 336-text car query pool: make × model × `year >= y` × three
/// shapes (price list, blue-book join, safety join). The pool order is
/// the popularity rank; it interleaves shapes and walks models before
/// years, so the hottest ranks spread over different sites and joins.
pub fn car_pool() -> Vec<String> {
    let models: Vec<(&str, &str)> =
        MAKES.iter().flat_map(|(make, models)| models.iter().map(move |m| (*make, *m))).collect();
    let mut pool = Vec::with_capacity(models.len() * POOL_YEARS.len() * 3);
    for year in POOL_YEARS {
        for (make, model) in &models {
            let bound = format!("make='{make}', model='{model}', year >= {year}");
            pool.push(format!("UsedCarUR({bound}, price)"));
            pool.push(format!(
                "UsedCarUR({bound}, price, bbprice, condition='good') WHERE price < bbprice"
            ));
            pool.push(format!("UsedCarUR({bound}, price, safety)"));
        }
    }
    // Spread consecutive ranks over shapes: rank k takes shape k % 3 of
    // combination k / 3 rotated by the shape, so the three hottest
    // ranks are three different models.
    let combos = pool.len() / 3;
    (0..pool.len()).map(|k| pool[((k / 3 + (k % 3) * 7) % combos) * 3 + k % 3].clone()).collect()
}

/// One operation of a car-corpus client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarOp {
    /// Run the pool text at this index.
    Read(usize),
    /// Flip the drifting site's generation, then refresh its views.
    Write,
}

/// Client `client`'s first `len` operations over a pool of `pool_len`
/// texts, drawn Zipf(1.0). With `writes`, every [`WRITE_PERIOD`]-th
/// operation (at a seeded phase) is a [`CarOp::Write`].
pub fn car_ops(seed: u64, client: usize, pool_len: usize, writes: bool, len: usize) -> Vec<CarOp> {
    let zipf = Zipf::new(pool_len, 1.0);
    let mut rng = Rng::stream(seed, 1 + client as u64);
    let phase = rng.below(WRITE_PERIOD);
    (0..len)
        .map(|i| {
            if writes && i % WRITE_PERIOD == phase {
                CarOp::Write
            } else {
                CarOp::Read(zipf.sample(&mut rng))
            }
        })
        .collect()
}

/// One generated-corpus query: a site, its bound category (and
/// section), and an upper price bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenOp {
    pub site: usize,
    pub cat: String,
    pub sub: Option<String>,
    pub max_price: i64,
}

impl GenOp {
    /// The structured-UR text of this query.
    pub fn text(&self, spec: &SiteSpec) -> String {
        let mut bound = format!("{}='{}'", spec.attr("cat"), self.cat);
        if let Some(sub) = &self.sub {
            bound.push_str(&format!(", {}='{}'", spec.attr("sub"), sub));
        }
        format!(
            "GenUR({bound}, {}, {}, {} <= {})",
            spec.attr("item"),
            spec.attr("qty"),
            spec.attr("price"),
            self.max_price
        )
    }
}

/// The first `len` queries of the generated-corpus workload, all
/// distinct. Each binds a random site's category (and section on
/// two-form sites) and a price bound drawn between the cheapest and
/// dearest row of that group, so every answer is non-empty. The
/// sequence is prefix-stable: a longer `len` extends a shorter one.
pub fn gen_ops(seed: u64, specs: &[SiteSpec], len: usize) -> Vec<GenOp> {
    let mut rng = Rng::stream(seed, 0x6E6E);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let spec = &specs[rng.below(specs.len())];
        let cat = spec.cats[rng.below(spec.cats.len())].clone();
        let sub = spec.needs_sub().then(|| spec.subs[rng.below(spec.subs.len())].clone());
        let prices: Vec<i64> = spec.oracle(&cat, sub.as_deref()).iter().map(|r| r.price).collect();
        let (Some(lo), Some(hi)) = (prices.iter().min(), prices.iter().max()) else {
            continue;
        };
        let max_price = lo + (rng.next_u64() % (hi - lo + 1) as u64) as i64;
        let op = GenOp { site: spec.index, cat, sub, max_price };
        if seen.insert(op.clone()) {
            out.push(op);
        }
    }
    out
}

/// Split a global sequence among the clients: client `c` takes every
/// [`CLIENTS`]-th item starting at `c`.
pub fn client_share<T: Clone>(global: &[T], client: usize) -> Vec<T> {
    global.iter().skip(client).step_by(CLIENTS).cloned().collect()
}

/// Median and nearest-rank percentile of a sample (`None` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}
