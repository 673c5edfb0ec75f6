//! E13: the bitset AC-3 type-propagation kernel vs the reference
//! sweep-based `instance_types` computation.
//!
//! Workload: the `type_closure_ontology` fixture — a three-label
//! ∀/∃/∀⁻ propagation cycle widened by tautological labels so the
//! global type space crosses the 64-type bar — posed against dense
//! deterministic instances (cycle + long-range chords) of growing
//! size. Both sides compute the full per-element surviving-type
//! fixpoint; the kernel build (compatibility matrices) is paid once
//! outside the measured region, exactly as it is amortised by the
//! engine's plan cache.
//!
//! Axes: instance size `n ∈ {50, 150, 300}` × closure width
//! (`narrow` = no free labels, `wide` = 4 free labels ⇒ ≥ 64 types).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::{type_bench_instance, type_closure_ontology};
use gomq_core::Vocab;
use gomq_rewriting::ElementTypeSystem;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_types");
    group.sample_size(10);

    for (width, free) in [("narrow", 0usize), ("wide", 4)] {
        let mut v = Vocab::new();
        let (o, labels, r) = type_closure_ontology(free, &mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("fixture is supported");
        sys.kernel(); // pre-build, as the engine's plan cache does
        for n in [50usize, 150, 300] {
            let d = type_bench_instance(n, &labels, r, &mut v);

            group.bench_with_input(
                BenchmarkId::new(format!("reference_{width}"), n),
                &n,
                |b, _| b.iter(|| std::hint::black_box(sys.instance_types_reference(d.store()))),
            );

            group.bench_with_input(
                BenchmarkId::new(format!("bitset_{width}"), n),
                &n,
                |b, _| b.iter(|| std::hint::black_box(sys.instance_types(d.store()))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
