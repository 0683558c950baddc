//! Criterion benchmarks of the RTS collectives that carry the
//! centralized method: linear gather and scatter through a root, plus
//! barrier and allreduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pardis_bench::SpmdRig;

fn bench_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("rts/gather_f64");
    for threads in [2usize, 4, 8] {
        let rig = SpmdRig::new(threads);
        let per_thread = 1usize << 14;
        g.throughput(Throughput::Bytes((threads * per_thread * 8) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(move |ep| {
                    let local = vec![ep.rank() as f64; per_thread];
                    let gathered = ep.gather_f64(0, &local).unwrap();
                    std::hint::black_box(gathered);
                });
            });
        });
    }
    g.finish();
}

fn bench_gather_scatter_roundtrip(c: &mut Criterion) {
    // The full centralized-argument pattern.
    let mut g = c.benchmark_group("rts/gather_scatter");
    for threads in [2usize, 4, 8] {
        let rig = SpmdRig::new(threads);
        let per_thread = 1usize << 14;
        g.throughput(Throughput::Bytes((threads * per_thread * 8 * 2) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(move |ep| {
                    let counts = vec![per_thread; ep.size()];
                    let local = vec![1.0f64; per_thread];
                    let gathered = ep.gather_f64(0, &local).unwrap();
                    let back = ep.scatterv_f64(0, gathered.as_deref(), &counts).unwrap();
                    std::hint::black_box(back);
                });
            });
        });
    }
    g.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("rts/barrier");
    for threads in [2usize, 8] {
        let rig = SpmdRig::new(threads);
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(|ep| {
                    for _ in 0..16 {
                        ep.barrier();
                    }
                });
            });
        });
    }
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("rts/allreduce_f64");
    for threads in [2usize, 8] {
        let rig = SpmdRig::new(threads);
        g.bench_with_input(BenchmarkId::from_parameter(threads), &rig, |b, rig| {
            b.iter(|| {
                rig.run(|ep| {
                    let v = [ep.rank() as f64; 16];
                    let r = ep.allreduce_f64(&v, pardis_rts::ReduceOp::Sum).unwrap();
                    std::hint::black_box(r);
                });
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gather,
    bench_gather_scatter_roundtrip,
    bench_barrier,
    bench_allreduce
);
criterion_main!(benches);
