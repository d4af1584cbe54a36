//! Codec-cost gate: decoding a JSON submit batch may cost at most
//! [`MAX_JSON_OVER_BINARY`] times the binary decode of the same jobs.
//!
//! Both codecs are timed on the same frames in the same process, so the
//! host's speed cancels out of the ratio and the gate tracks the decoder,
//! not the machine. Ignored by default because it only means something in
//! a release build:
//!
//! ```bash
//! cargo test --release -p flowtree-gateway -- --ignored
//! ```

use flowtree_gateway::{decode_submit_into, encode_submit_batch_into, WireCodec};
use flowtree_sim::JobSpec;
use std::hint::black_box;
use std::time::Instant;

/// Ceiling on JSON decode time per job over binary decode time per job.
const MAX_JSON_OVER_BINARY: f64 = 3.0;

/// Frames per timed run, jobs per frame and nodes per job: the
/// `gateway-open` benchmark's 8-job ticks of 16-subjob trees.
const FRAMES: usize = 256;
const JOBS_PER_FRAME: usize = 8;
const NODES: usize = 16;

/// Timed runs per codec; each codec keeps its fastest.
const RUNS: usize = 15;

fn frames(codec: WireCodec) -> Vec<Vec<u8>> {
    let mut rng = flowtree_workloads::rng(16);
    (0..FRAMES)
        .map(|f| {
            let jobs: Vec<JobSpec> = (0..JOBS_PER_FRAME)
                .map(|j| JobSpec {
                    graph: flowtree_workloads::trees::random_recursive_tree(NODES, &mut rng),
                    release: (f * 12 + j) as u64,
                })
                .collect();
            let mut buf = Vec::new();
            encode_submit_batch_into(&jobs, codec, &mut buf);
            buf
        })
        .collect()
}

/// Best-of-[`RUNS`] decode time per job, in nanoseconds.
fn best_ns_per_job(frames: &[Vec<u8>]) -> f64 {
    let mut staged = Vec::with_capacity(JOBS_PER_FRAME);
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        for frame in frames {
            staged.clear();
            let count = decode_submit_into(black_box(frame), &mut staged).expect("valid frame");
            assert_eq!(count, Some(JOBS_PER_FRAME));
            black_box(&staged);
        }
        let ns = t0.elapsed().as_nanos() as f64 / (frames.len() * JOBS_PER_FRAME) as f64;
        best = best.min(ns);
    }
    best
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn json_submit_decode_costs_at_most_three_times_binary() {
    let json = frames(WireCodec::Json);
    let bin = frames(WireCodec::Binary);
    // Same jobs on both codecs.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (j, x) in json.iter().zip(&bin) {
        decode_submit_into(j, &mut a).expect("json frame");
        decode_submit_into(x, &mut b).expect("binary frame");
    }
    assert_eq!(a, b);

    // Interleave the codecs so a change in host speed hits both alike.
    let (mut json_ns, mut bin_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        json_ns = json_ns.min(best_ns_per_job(&json));
        bin_ns = bin_ns.min(best_ns_per_job(&bin));
    }
    let ratio = json_ns / bin_ns;
    eprintln!("decode ns/job: json {json_ns:.0}, binary {bin_ns:.0}, ratio {ratio:.2}");
    assert!(
        ratio <= MAX_JSON_OVER_BINARY,
        "JSON submit decode costs {ratio:.2}x binary ({json_ns:.0} vs {bin_ns:.0} ns/job), \
         over the {MAX_JSON_OVER_BINARY}x ceiling"
    );
}
