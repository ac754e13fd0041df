//! Criterion micro-benchmarks for the §9 complexity discussion: precoding,
//! projection, cancellation, the planned FFT, the alignment solvers as
//! functions of the antenna count, and the channel draw.
//!
//! The workloads live in `iac_bench::micro` so the `baseline` binary can run
//! the identical closures for regression gating; this target is the
//! full-measurement human-readable front-end. Set `CRITERION_JSON=<path>` to
//! also merge per-target medians into a flat JSON map.
use criterion::{criterion_group, criterion_main, Criterion};
use iac_bench::micro::{register_alignment, register_channel, register_linalg, register_sample_ops};

fn bench_alignment(c: &mut Criterion) {
    register_alignment(c);
}

fn bench_channel(c: &mut Criterion) {
    register_channel(c);
}

fn bench_sample_ops(c: &mut Criterion) {
    register_sample_ops(c);
}

fn bench_linalg(c: &mut Criterion) {
    register_linalg(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_alignment, bench_channel, bench_sample_ops, bench_linalg
}
criterion_main!(benches);
