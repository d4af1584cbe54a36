//! Algorithm kernels: the building blocks of Algorithm 𝒜 and the bounds
//! machinery, benchmarked in isolation.
//!
//! * `lpf_levels` — the materialized LPF schedule (E2/E5/E6 kernel);
//! * `mc_replay` — the Most-Children replay over an LPF tail (E7 kernel);
//! * `depth_profile` — Corollary 5.4's closed form;
//! * `exact_opt` — the branch-and-bound solver on miniatures (E5 kernel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowtree_core::lpf::lpf_levels;
use flowtree_core::McReplay;
use flowtree_dag::DepthProfile;
use flowtree_sim::Instance;
use std::hint::black_box;

fn bench_lpf(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpf_levels");
    for &n in &[1_000usize, 10_000, 100_000] {
        let g =
            flowtree_workloads::trees::random_recursive_tree(n, &mut flowtree_workloads::rng(1));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(lpf_levels(black_box(g), 16)).len())
        });
    }
    group.finish();
}

fn bench_mc(c: &mut Criterion) {
    let g =
        flowtree_workloads::trees::random_recursive_tree(50_000, &mut flowtree_workloads::rng(2));
    let p = 16;
    let opt = DepthProfile::new(&g).opt_single_job(64);
    let levels = lpf_levels(&g, p);
    let tail = &levels[(opt as usize).min(levels.len())..];
    let work: u64 = tail.iter().map(|l| l.len() as u64).sum();
    c.benchmark_group("mc_replay")
        .throughput(Throughput::Elements(work))
        .bench_function("sawtooth_grants", |b| {
            b.iter(|| {
                let mut mc = McReplay::new(&g, tail);
                let mut step = 0usize;
                let mut total = 0usize;
                while !mc.is_done() {
                    step += 1;
                    total += mc.next(1 + step % p, |_| {});
                }
                black_box(total)
            })
        });
}

fn bench_profile(c: &mut Criterion) {
    let g =
        flowtree_workloads::trees::random_recursive_tree(200_000, &mut flowtree_workloads::rng(3));
    c.benchmark_group("depth_profile")
        .throughput(Throughput::Elements(g.work()))
        .bench_function("corollary_5_4", |b| {
            b.iter(|| {
                let p = DepthProfile::new(black_box(&g));
                black_box(p.opt_single_job(64))
            })
        });
}

fn bench_exact(c: &mut Criterion) {
    let mut rng = flowtree_workloads::rng(4);
    let g = flowtree_workloads::trees::random_recursive_tree(14, &mut rng);
    let inst = Instance::single(g);
    c.bench_function("exact_opt_14_nodes_m3", |b| {
        b.iter(|| black_box(flowtree_opt::exact_max_flow(black_box(&inst), 3, 24)))
    });
}

criterion_group!(benches, bench_lpf, bench_mc, bench_profile, bench_exact);
criterion_main!(benches);
