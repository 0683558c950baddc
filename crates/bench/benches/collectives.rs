//! Criterion benchmarks of the RTS collectives that carry the
//! centralized method: gather and scatter (rendezvous rounds), the
//! gather of one frame that every rank lends its block to, plus
//! barrier and allreduce.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pardis_bench::SpmdRig;
use pardis_cdr::{CdrWriter, Endian, Frame};
use std::sync::Arc;

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

/// One 4 MiB frame built from every rank's equal block: gathered to
/// the root and packed there serially (`gather_bytes+pack`), or lent
/// by every rank and linked into the root's frame as segments
/// (`gather_frames`, the centralized method's gather).
fn bench_frame_gather(c: &mut Criterion) {
    const FRAME: usize = 4 << 20;
    let mut g = c.benchmark_group("rts/frame_4MiB");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(FRAME as u64));
    for threads in [1usize, 2, 4] {
        let rig = SpmdRig::new(threads);
        let block = FRAME / threads;
        let blocks: Arc<Vec<Bytes>> = Arc::new(
            (0..threads)
                .map(|r| Bytes::from(vec![r as u8; block]))
                .collect(),
        );
        let mine = blocks.clone();
        g.bench_with_input(
            BenchmarkId::new("gather_bytes+pack", threads),
            &rig,
            |b, rig| {
                b.iter(|| {
                    let mine = mine.clone();
                    rig.run(move |ep| {
                        let chunks = ep.gather_bytes(0, mine[ep.rank()].clone()).unwrap();
                        if let Some(chunks) = chunks {
                            let mut w = CdrWriter::with_capacity(Endian::native(), FRAME);
                            chunks.iter().for_each(|c| w.put_bytes(c));
                            std::hint::black_box(w.into_shared());
                        }
                    });
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("gather_frames", threads),
            &rig,
            |b, rig| {
                b.iter(|| {
                    let mine = blocks.clone();
                    rig.run(move |ep| {
                        let lent = Frame::from(mine[ep.rank()].clone());
                        if let Some(frames) = ep.gather_frames(0, lent).unwrap() {
                            let mut frame = Frame::new();
                            frames.iter().for_each(|f| frame.extend(f));
                            std::hint::black_box(frame);
                        }
                    });
                });
            },
        );
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
    bench_frame_gather,
    bench_barrier,
    bench_allreduce
);
criterion_main!(benches);
