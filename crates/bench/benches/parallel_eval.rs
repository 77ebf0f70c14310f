//! §9 parallelisation benchmark: the ten-site query evaluated serially
//! versus with one thread per site. Criterion measures real wall-clock
//! (CPU-bound over the LAN profile); the simulated-network comparison
//! is in the repro binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webbase::timing::site_timings;
use webbase_bench::lan_engine;

fn bench_parallel(c: &mut Criterion) {
    let engine = lan_engine();
    let mut group = c.benchmark_group("multi_site_eval");
    group.sample_size(10);
    group.bench_function("serial_10_sites", |b| {
        b.iter(|| {
            black_box(site_timings(black_box(&engine), "ford", "escort", false, None).0.len())
        });
    });
    group.bench_function("parallel_10_sites", |b| {
        b.iter(|| {
            black_box(site_timings(black_box(&engine), "ford", "escort", true, None).0.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
