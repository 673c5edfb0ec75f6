//! E7: PTIME behaviour of the emitted Datalog rewriting — evaluation time
//! on growing instances (the paper's Datalog≠ = PTIME side of Theorem 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::{horn_chain_ontology, propagation_instance};
use gomq_core::Vocab;
use gomq_datalog::eval::eval_naive;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::types::ElementTypeSystem;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_rewriting");
    group.sample_size(10);
    let mut v = Vocab::new();
    let (o, names, r) = horn_chain_ontology(3, &mut v);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let program = emit_datalog(&sys, names[3], &mut v);
    for len in [25usize, 50, 100] {
        let d = propagation_instance(len, names[0], r, &mut v);
        group.bench_with_input(BenchmarkId::new("semi_naive", len), &len, |b, _| {
            b.iter(|| std::hint::black_box(program.eval(&d).len()))
        });
        group.bench_with_input(BenchmarkId::new("type_elimination", len), &len, |b, _| {
            b.iter(|| std::hint::black_box(sys.certain_unary(d.store(), names[3]).len()))
        });
    }
    // Semi-naive vs naive on the medium instance.
    let d = propagation_instance(50, names[0], r, &mut v);
    group.bench_function("naive_50", |b| {
        b.iter(|| std::hint::black_box(eval_naive(&program, &d).len()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
