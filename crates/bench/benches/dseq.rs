//! Criterion benchmarks of distributed-sequence operations:
//! redistribution (the all-to-all exchange), collective element access,
//! and the conversion constructor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pardis_bench::SpmdRig;
use pardis_core::{DSequence, DistTempl, Proportions};

fn bench_redistribute(c: &mut Criterion) {
    let mut g = c.benchmark_group("dseq/redistribute");
    g.sample_size(20);
    for threads in [2usize, 4, 8] {
        let rig = SpmdRig::new(threads);
        let len = 1usize << 16;
        g.throughput(Throughput::Bytes((len * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(move |ep| {
                    let mut s = DSequence::<f64>::new(ep, len, None).unwrap();
                    let weights: Vec<u32> = (0..ep.size() as u32).map(|i| 1 + (i % 4)).collect();
                    let t = DistTempl::proportional(len, &Proportions::new(weights));
                    s.redistribute(ep, t).unwrap();
                    std::hint::black_box(s.local_len());
                });
            });
        });
    }
    g.finish();
}

fn bench_element_access(c: &mut Criterion) {
    // Collective operator[]: the owner broadcasts.
    let mut g = c.benchmark_group("dseq/get");
    for threads in [2usize, 4] {
        let rig = SpmdRig::new(threads);
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(|ep| {
                    let s = DSequence::<f64>::new(ep, 1024, None).unwrap();
                    let mut acc = 0.0;
                    for idx in (0..1024).step_by(97) {
                        acc += s.get(ep, idx).unwrap();
                    }
                    std::hint::black_box(acc);
                });
            });
        });
    }
    g.finish();
}

fn bench_from_local(c: &mut Criterion) {
    // The conversion constructor: allgather of the local lengths.
    let rig = SpmdRig::new(4);
    c.bench_function("dseq/from_local", |b| {
        b.iter(|| {
            rig.run(|ep| {
                let local = vec![0.0f64; 1 << 12];
                let s = DSequence::from_local(ep, local).unwrap();
                std::hint::black_box(s.len());
            });
        });
    });
}

criterion_group!(
    benches,
    bench_redistribute,
    bench_element_access,
    bench_from_local
);
criterion_main!(benches);
