//! Microbenchmarks of fragment operations: extract/insert (the data paths
//! of replica and migration transfers) and the wire codec round-trip that
//! every inter-locality transfer pays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use allscale_region::{wire, BoxRegion, Fragment, GridFragment};

fn filled(n: i64) -> GridFragment<f64, 2> {
    let mut f = GridFragment::new(&BoxRegion::cuboid([0, 0], [n, n]));
    f.for_each_mut(|p, v| *v = (p[0] * n + p[1]) as f64);
    f
}

fn bench_extract_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("fragment");
    for &n in &[64i64, 256] {
        let f = filled(n);
        // Halo row: the stencil's per-step transfer.
        let halo = BoxRegion::cuboid([n - 1, 0], [n, n]);
        g.bench_with_input(BenchmarkId::new("extract_halo", n), &n, |b, _| {
            b.iter(|| black_box(&f).extract(black_box(&halo)))
        });
        // Half-block: a migration-sized extract.
        let half = BoxRegion::cuboid([0, 0], [n / 2, n]);
        g.bench_with_input(BenchmarkId::new("extract_half", n), &n, |b, _| {
            b.iter(|| black_box(&f).extract(black_box(&half)))
        });
        let piece = f.extract(&half);
        g.bench_with_input(BenchmarkId::new("insert_half", n), &n, |b, _| {
            b.iter(|| {
                let mut dst = GridFragment::<f64, 2>::empty();
                dst.insert(black_box(&piece));
                dst
            })
        });
    }
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for &n in &[64i64, 256] {
        let f = filled(n);
        let bytes = wire::encode(&f);
        g.bench_with_input(BenchmarkId::new("encode_fragment", n), &n, |b, _| {
            b.iter(|| wire::encode(black_box(&f)))
        });
        g.bench_with_input(BenchmarkId::new("decode_fragment", n), &n, |b, _| {
            b.iter(|| wire::decode::<GridFragment<f64, 2>>(black_box(&bytes)).unwrap())
        });
        g.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    }
    g.finish();
}

criterion_group!(benches, bench_extract_insert, bench_wire_codec);
criterion_main!(benches);
