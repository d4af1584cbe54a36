//! Quiet-connection latency gate: a request that ends a quiet spell is
//! answered within [`MAX_MEDIAN`], median over [`ROUNDS`] round trips.
//!
//! Maximum flow time counts every wait a job spends at the front door, so
//! a gateway that wakes late after a quiet spell adds that delay to the
//! objective. Ignored by default because it only means something in a
//! release build:
//!
//! ```bash
//! cargo test --release -p flowtree-gateway -- --ignored
//! ```

use flowtree_core::SchedulerSpec;
use flowtree_gateway::{Gateway, GatewayClient, GatewayConfig};
use flowtree_serve::{ServeConfig, ShardPool};
use std::time::{Duration, Instant};

/// Round trips timed, each after [`QUIET`] of silence on the connection.
const ROUNDS: u64 = 20;
const QUIET: Duration = Duration::from_millis(250);

/// Ceiling on the median round trip.
const MAX_MEDIAN: Duration = Duration::from_millis(2);

#[test]
#[ignore = "latency gate; run in release with --ignored"]
fn a_watermark_after_a_quiet_spell_is_answered_within_two_ms() {
    let cfg = ServeConfig::builder(SchedulerSpec::from_name_with_half("fifo", 1).expect("spec"), 2)
        .scenario("gateway-quiet")
        .build()
        .expect("valid config");
    let pool = ShardPool::launch(cfg).expect("launch");
    let gw = Gateway::launch("127.0.0.1:0", pool.handle(), GatewayConfig::default())
        .expect("gateway up");
    let mut client = GatewayClient::with_name(&gw.addr().to_string(), "quiet").expect("connect");

    let mut rtts: Vec<Duration> = (1..=ROUNDS)
        .map(|t| {
            std::thread::sleep(QUIET);
            let t0 = Instant::now();
            client.watermark(t).expect("watermark");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    eprintln!(
        "watermark rtt after {QUIET:?} quiet: median {median:?}, max {:?}",
        rtts[rtts.len() - 1]
    );
    assert!(
        median < MAX_MEDIAN,
        "median round trip {median:?} after a quiet spell, over {MAX_MEDIAN:?}"
    );

    drop(client);
    gw.shutdown();
    pool.drain().expect("drain");
}
