//! The seed fixes every operation a benchmark client sends.

use std::collections::HashSet;
use webbase_perfbench::{
    car_ops, car_pool, client_share, gen_ops, percentile, CarOp, Rng, Zipf, CLIENTS, WRITE_PERIOD,
};
use webbase_webworld::generate::GenCorpus;

#[test]
fn car_pool_has_336_distinct_texts() {
    let pool = car_pool();
    assert_eq!(pool.len(), 336);
    assert_eq!(pool.iter().collect::<HashSet<_>>().len(), 336);
    assert_eq!(pool, car_pool(), "the pool is not seeded and never changes");
    // The three hottest ranks are three shapes over three models.
    assert!(pool[0].ends_with(", price)"), "{}", pool[0]);
    assert!(pool[1].contains("WHERE price < bbprice"), "{}", pool[1]);
    assert!(pool[2].ends_with(", safety)"), "{}", pool[2]);
}

#[test]
fn same_seed_same_client_sequence() {
    for client in 0..CLIENTS {
        assert_eq!(car_ops(7, client, 336, true, 5000), car_ops(7, client, 336, true, 5000));
    }
    assert_ne!(car_ops(7, 0, 336, false, 500), car_ops(7, 1, 336, false, 500));
    assert_ne!(car_ops(7, 0, 336, false, 500), car_ops(8, 0, 336, false, 500));
}

#[test]
fn car_sequences_are_prefix_stable() {
    let long = car_ops(3, 1, 336, true, 4000);
    assert_eq!(car_ops(3, 1, 336, true, 1000), long[..1000]);
}

#[test]
fn one_write_in_each_period() {
    let ops = car_ops(5, 0, 336, true, 20 * WRITE_PERIOD);
    for period in ops.chunks(WRITE_PERIOD) {
        assert_eq!(period.iter().filter(|op| **op == CarOp::Write).count(), 1);
    }
    assert!(car_ops(5, 0, 336, false, 2000).iter().all(|op| *op != CarOp::Write));
}

#[test]
fn zipf_favours_low_ranks() {
    let zipf = Zipf::new(336, 1.0);
    let mut rng = Rng::new(1);
    let mut counts = vec![0usize; 336];
    for _ in 0..100_000 {
        counts[zipf.sample(&mut rng)] += 1;
    }
    // Rank 0 carries 1/H(336) ≈ 15.6 % of the draws, rank 1 half that.
    assert!((14_000..17_500).contains(&counts[0]), "{}", counts[0]);
    assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[300]);
}

#[test]
fn generated_queries_are_seeded_distinct_and_answerable() {
    let corpus = GenCorpus::generate(11, 20);
    let ops = gen_ops(11, &corpus.specs, 800);
    assert_eq!(ops, gen_ops(11, &corpus.specs, 800));
    assert_eq!(gen_ops(11, &corpus.specs, 300), ops[..300], "prefix-stable");
    assert_ne!(gen_ops(12, &corpus.specs, 50), ops[..50]);
    let texts: HashSet<String> = ops.iter().map(|op| op.text(&corpus.specs[op.site])).collect();
    assert_eq!(texts.len(), ops.len(), "no query text repeats");
    for op in &ops {
        let spec = &corpus.specs[op.site];
        assert_eq!(op.sub.is_some(), spec.needs_sub());
        let rows = spec.oracle(&op.cat, op.sub.as_deref());
        assert!(rows.iter().any(|r| r.price <= op.max_price), "empty answer for {op:?}");
    }
}

#[test]
fn clients_split_the_global_sequence() {
    let global: Vec<usize> = (0..11).collect();
    let shares: Vec<Vec<usize>> = (0..CLIENTS).map(|c| client_share(&global, c)).collect();
    let mut all: Vec<usize> = shares.concat();
    all.sort_unstable();
    assert_eq!(all, global);
    assert_eq!(shares[0][..3], [0, 2, 4]);
}

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(50.0));
    assert_eq!(percentile(&sorted, 99.0), Some(99.0));
    assert_eq!(percentile(&[], 50.0), None);
}
