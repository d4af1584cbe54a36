//! Differential property: batched ingest (coalesced multi-job `Admit`
//! deliveries plus stride-amortized watermark broadcasts) is **bit for
//! bit** the per-event path, where every job is its own `offer` — a batch
//! of one. Event-time watermarks only pace simulation — they never change
//! what a shard computes — and placement is decided per job under the
//! router lock in both paths, so for any stream, shard count, routing mode,
//! batch bound, and stride, the drained [`ShardResult`]s must be identical,
//! hot-swaps included.

use flowtree_core::SchedulerSpec;
use flowtree_dag::{GraphBuilder, JobGraph, Time};
use flowtree_serve::{OverloadPolicy, ReplaySource, Routing, ServeConfig, ShardPool, ShardResult};
use flowtree_sim::{Instance, JobSpec};
use proptest::prelude::*;

/// Random out-tree via the recursive-attachment process.
fn arb_tree(max_n: usize) -> impl Strategy<Value = JobGraph> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0..usize::MAX, n.saturating_sub(1)).prop_map(move |cs| {
            let mut b = GraphBuilder::new(n);
            for (i, &c) in cs.iter().enumerate() {
                b.edge((c % (i + 1)) as u32, (i + 1) as u32);
            }
            b.build().unwrap()
        })
    })
}

/// A nondecreasing-release arrival stream (gaps 0..=3, so bursts that
/// coalesce into batches and spreads that force flushes both occur).
fn arb_stream(max_jobs: usize) -> impl Strategy<Value = Vec<JobSpec>> {
    proptest::collection::vec((arb_tree(8), 0u64..=3), 1..=max_jobs).prop_map(|items| {
        let mut release: Time = 0;
        items
            .into_iter()
            .map(|(graph, gap)| {
                release += gap;
                JobSpec { graph, release }
            })
            .collect()
    })
}

fn config(shards: usize, routing: Routing, ingest_batch: usize, stride: Time) -> ServeConfig {
    let spec = SchedulerSpec::from_name_with_half("fifo", 1).unwrap();
    ServeConfig::builder(spec, 4)
        .shards(shards)
        .scenario("batched-diff")
        .routing(routing)
        .policy(OverloadPolicy::Block)
        .queue_cap(4096)
        .ingest_batch(ingest_batch)
        .watermark_stride(stride)
        .build()
        .expect("valid differential config")
}

/// Drive `jobs` through a pool; `batched` uses the coalescing source path,
/// otherwise every job is its own `offer` (the per-event reference,
/// equivalent to `ingest_batch = 1`, `stride = 0`). `swap_at` issues a
/// pool-wide LPF hot-swap before any arrival is offered.
fn run_pool(
    jobs: &[JobSpec],
    cfg: ServeConfig,
    batched: bool,
    swap_at: Option<Time>,
) -> Vec<ShardResult> {
    let pool = ShardPool::launch(cfg).expect("launch");
    if let Some(at) = swap_at {
        let lpf = SchedulerSpec::from_name_with_half("lpf", 1).unwrap();
        pool.swap(None, at, lpf).expect("swap accepted");
    }
    if batched {
        let mut src = ReplaySource::from_instance(&Instance::new(jobs.to_vec()));
        pool.run_source(&mut src).expect("stream");
    } else {
        for job in jobs {
            pool.offer(job.clone()).expect("offer");
        }
    }
    pool.drain().expect("drain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_ingest_is_bit_for_bit_the_per_event_path(
        jobs in arb_stream(40),
        shards_pick in 0usize..3,
        least_loaded in 0u8..2,
        ingest_batch in 1usize..=48,
        stride in 0u64..=8,
        // 0 = no hot-swap; 1..=7 = pool-wide LPF swap at t = value - 1.
        swap_raw in 0u64..=7,
    ) {
        let shards = [1, 2, 4][shards_pick];
        let routing = if least_loaded == 1 { Routing::LeastLoaded } else { Routing::Hash };
        let swap = swap_raw.checked_sub(1);
        let reference = run_pool(
            &jobs,
            config(shards, routing, 1, 0),
            false,
            swap,
        );
        let batched = run_pool(
            &jobs,
            config(shards, routing, ingest_batch, stride),
            true,
            swap,
        );
        prop_assert_eq!(reference.len(), batched.len());
        for (a, b) in reference.iter().zip(&batched) {
            prop_assert_eq!(a, b, "shard {} diverged under batching", a.shard);
        }
    }
}
