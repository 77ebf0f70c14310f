//! §5 binding-propagation benchmark: the per-operator rules over the
//! real logical schema, and scaling over synthetic expression chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webbase_bench::lan_engine;
use webbase_relational::binding::{propagate, BindingSet};
use webbase_relational::eval::RelationProvider;
use webbase_relational::{Expr, Schema};

fn bench_binding(c: &mut Criterion) {
    let layer = lan_engine().isolated_session();
    let mut group = c.benchmark_group("binding_propagation");

    // The paper's worked example: classifieds → {make}.
    let def = layer.relation("classifieds").expect("defined").def.clone();
    group.bench_function("classifieds_definition", |b| {
        b.iter(|| {
            let bs = propagate(
                black_box(&def),
                &|n| layer.vps.bindings(n),
                &|n| layer.vps.schema(n),
                false,
            );
            black_box(bs.bindings().len())
        });
    });

    // Scaling: a chain of n joins R0 ⋈ R1 ⋈ … where each Ri binds on the
    // previous relation's output attribute.
    for n in [4usize, 8, 12] {
        let schemas: Vec<Schema> = (0..n)
            .map(|i| {
                if i == 0 {
                    Schema::new([format!("a{i}")])
                } else {
                    Schema::new([format!("a{}", i - 1), format!("a{i}")])
                }
            })
            .collect();
        let bindings: Vec<BindingSet> = (0..n)
            .map(|i| {
                if i == 0 {
                    BindingSet::from_attr_lists([vec!["a0"]])
                } else {
                    BindingSet::from_bindings([[webbase_relational::Attr::new(format!(
                        "a{}",
                        i - 1
                    ))]
                    .into()])
                }
            })
            .collect();
        let mut expr = Expr::relation("r0");
        for i in 1..n {
            expr = expr.join(Expr::relation(format!("r{i}")));
        }
        group.bench_with_input(BenchmarkId::new("join_chain", n), &n, |b, _| {
            b.iter(|| {
                let bs = propagate(
                    black_box(&expr),
                    &|name| {
                        let i: usize = name[1..].parse().ok()?;
                        bindings.get(i).cloned()
                    },
                    &|name| {
                        let i: usize = name[1..].parse().ok()?;
                        schemas.get(i).cloned()
                    },
                    false,
                );
                black_box(bs.bindings().len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_binding);
criterion_main!(benches);
