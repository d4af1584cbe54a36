//! Golden schedules for Algorithm 𝒜 and guess-and-double.
//!
//! Each case runs one scheduler on one seeded stream of random out-trees and
//! fingerprints the whole schedule: an FNV-1a hash over every step's picks
//! in pick order, plus the maximum flow. The recorded values pin the exact
//! schedules, so any change to group formation, the LPF levels or the MC
//! replay that alters even one pick fails here.
//!
//! The streams cover the shapes that exercise group formation: release gaps
//! below `half` (several jobs per group, off-boundary releases), equal to it
//! and above it, and loads high enough that guess-and-double restarts and
//! re-enqueues masked, partially executed jobs.

use flowtree_core::{AlgoA, GuessDoubleA};
use flowtree_dag::Time;
use flowtree_sim::metrics::flow_stats;
use flowtree_sim::{Engine, Instance, JobSpec, OnlineScheduler, Schedule};
use flowtree_workloads::trees::{preferential_tree, random_recursive_tree};
use rand::Rng as _;

#[derive(Clone, Copy)]
enum Shape {
    Recursive,
    Preferential,
}

#[derive(Clone, Copy)]
enum Gap {
    Below,
    Equal,
    Above,
}

/// A seeded stream of 14 trees of 12–119 nodes, with release gaps drawn
/// relative to `half`.
fn stream(shape: Shape, gap: Gap, half: Time, seed: u64) -> Instance {
    let mut rng = flowtree_workloads::rng(seed);
    let mut release: Time = 0;
    let mut jobs = Vec::new();
    for _ in 0..14 {
        let n = rng.gen_range(12..120);
        let graph = match shape {
            Shape::Recursive => random_recursive_tree(n, &mut rng),
            Shape::Preferential => preferential_tree(n, 0.5, &mut rng),
        };
        jobs.push(JobSpec { graph, release });
        release += match gap {
            Gap::Below => rng.gen_range(0..half),
            Gap::Equal => half,
            Gap::Above => half + 1 + rng.gen_range(0..half),
        };
    }
    Instance::new(jobs)
}

/// FNV-1a over `(t, job, node)` of every pick, in schedule order.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (t, picks) in s.iter() {
        for &(j, v) in picks {
            eat(t);
            eat(j.0 as u64);
            eat(u64::from(v.0));
        }
    }
    h
}

fn run(inst: &Instance, m: usize, sched: &mut dyn OnlineScheduler) -> (u64, u64) {
    let s = Engine::new(m).with_max_horizon(2_000_000).run(inst, sched).unwrap();
    s.verify(inst).unwrap();
    (fingerprint(&s), flow_stats(inst, &s).max_flow)
}

/// Every case as `(label, fingerprint, max flow)`.
fn cases() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let mut seed = 1u64;
    for (shape, sname) in [(Shape::Recursive, "rr"), (Shape::Preferential, "pa")] {
        for (gap, gname) in [(Gap::Below, "below"), (Gap::Equal, "equal"), (Gap::Above, "above")] {
            for half in [1, 3, 8] {
                let inst = stream(shape, gap, half, seed);
                seed += 1;
                for m in [8, 16, 64] {
                    let label = |s: &str| format!("{sname}/{gname}/h{half}/m{m}/{s}");
                    let (f, mf) = run(&inst, m, &mut AlgoA::with_batching(4, half));
                    out.push((label("algo-a"), f, mf));
                    let (f, mf) = run(&inst, m, &mut GuessDoubleA::paper());
                    out.push((label("gd-paper"), f, mf));
                    let mut gd = GuessDoubleA::new(4, 4);
                    let (f, mf) = run(&inst, m, &mut gd);
                    out.push((label(&format!("gd-b4-r{}", gd.restarts())), f, mf));
                }
            }
        }
    }
    out
}

#[test]
fn algo_a_schedules_match_the_recorded_fingerprints() {
    let got = cases();
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(l, f, m)| (l.as_str(), *f, *m)).collect();
    for (g, w) in got.iter().zip(GOLDEN) {
        assert_eq!(g, w, "golden schedule changed");
    }
    assert_eq!(got.len(), GOLDEN.len(), "case count changed");
}

#[test]
fn golden_cases_cover_restarts_and_multi_job_groups() {
    // Guard the coverage the fingerprints rely on: some β = 4 runs restart
    // (so masked remainders are re-enqueued), and the below-`half` streams
    // put several jobs into one group.
    assert!(GOLDEN.iter().any(|(l, ..)| l.contains("gd-b4-r") && !l.ends_with("-r0")));
    let inst = stream(Shape::Recursive, Gap::Below, 8, 3);
    let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
    assert!(releases.windows(2).any(|w| w[0] / 8 == w[1] / 8));
    assert!(releases.iter().any(|r| r % 8 != 0));
}

/// Recorded from the union-building implementation of `AlgoA` that
/// predates the flat group layout.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("rr/below/h1/m8/algo-a", 0xb1e88eb1c258772b, 419),
    ("rr/below/h1/m8/gd-paper", 0x596c84ae4f75c8eb, 422),
    ("rr/below/h1/m8/gd-b4-r8", 0xbe39efea4e09b6b3, 903),
    ("rr/below/h1/m16/algo-a", 0xfc8f2271d1fcfe2b, 210),
    ("rr/below/h1/m16/gd-paper", 0x67a62e8767d8c16b, 210),
    ("rr/below/h1/m16/gd-b4-r7", 0x28b6cac81c5fc917, 444),
    ("rr/below/h1/m64/algo-a", 0x3234cf19b373cceb, 53),
    ("rr/below/h1/m64/gd-paper", 0x3234cf19b373cceb, 53),
    ("rr/below/h1/m64/gd-b4-r5", 0x139b23ccfe68d94b, 104),
    ("rr/below/h3/m8/algo-a", 0x1234420e57937da8, 124),
    ("rr/below/h3/m8/gd-paper", 0xa18916bc89f35f67, 130),
    ("rr/below/h3/m8/gd-b4-r8", 0xb135862094013032, 860),
    ("rr/below/h3/m16/algo-a", 0x22bd8f683bdcd208, 63),
    ("rr/below/h3/m16/gd-paper", 0x5954b5268f9ada64, 61),
    ("rr/below/h3/m16/gd-b4-r7", 0xce4a60ecd6136c47, 413),
    ("rr/below/h3/m64/algo-a", 0xe008409bfff430f8, 19),
    ("rr/below/h3/m64/gd-paper", 0xe8a2729b200cda8f, 13),
    ("rr/below/h3/m64/gd-b4-r5", 0xe537dffdedc6b3f9, 85),
    ("rr/below/h8/m8/algo-a", 0xc4d1a7690a353771, 185),
    ("rr/below/h8/m8/gd-paper", 0x377ee9766b6e7176, 123),
    ("rr/below/h8/m8/gd-b4-r8", 0x26c9f2a3155e2423, 896),
    ("rr/below/h8/m16/algo-a", 0x82240ae005f2228b, 96),
    ("rr/below/h8/m16/gd-paper", 0xba127a4f32af88bc, 46),
    ("rr/below/h8/m16/gd-b4-r7", 0x3499150cdd0eb59a, 419),
    ("rr/below/h8/m64/algo-a", 0x9c35455e2e662bff, 29),
    ("rr/below/h8/m64/gd-paper", 0x9e48138aa7f819a9, 12),
    ("rr/below/h8/m64/gd-b4-r5", 0xbde75c08e3f935be, 71),
    ("rr/equal/h1/m8/algo-a", 0xf7fd2dad15ca3c21, 121),
    ("rr/equal/h1/m8/gd-paper", 0xf7fd2dad15ca3c21, 121),
    ("rr/equal/h1/m8/gd-b4-r8", 0xa5c5e74f2b7bbc28, 906),
    ("rr/equal/h1/m16/algo-a", 0xb14ed17f3c2eee03, 56),
    ("rr/equal/h1/m16/gd-paper", 0xb14ed17f3c2eee03, 56),
    ("rr/equal/h1/m16/gd-b4-r7", 0xbec071230f3cb410, 436),
    ("rr/equal/h1/m64/algo-a", 0xb339ca7fc9c7d624, 13),
    ("rr/equal/h1/m64/gd-paper", 0xb339ca7fc9c7d624, 13),
    ("rr/equal/h1/m64/gd-b4-r5", 0x207fcab77690dcd1, 92),
    ("rr/equal/h3/m8/algo-a", 0x8452fc9989e2f1fe, 98),
    ("rr/equal/h3/m8/gd-paper", 0xb1a7c15e0484d365, 93),
    ("rr/equal/h3/m8/gd-b4-r8", 0xaac7f9a2840366ae, 879),
    ("rr/equal/h3/m16/algo-a", 0x93387b186ca306bb, 42),
    ("rr/equal/h3/m16/gd-paper", 0x0c2caba75d15905d, 40),
    ("rr/equal/h3/m16/gd-b4-r7", 0xfacd24c44ed9bf1f, 410),
    ("rr/equal/h3/m64/algo-a", 0xa1be532d5d972584, 11),
    ("rr/equal/h3/m64/gd-paper", 0x5c5322f770255324, 11),
    ("rr/equal/h3/m64/gd-b4-r5", 0x3d4d43e0ac5ebf74, 70),
    ("rr/equal/h8/m8/algo-a", 0x93caa617b4174de6, 80),
    ("rr/equal/h8/m8/gd-paper", 0x137310dccf6c7d59, 69),
    ("rr/equal/h8/m8/gd-b4-r8", 0x19867aaa1e0d4f51, 887),
    ("rr/equal/h8/m16/algo-a", 0x20ce2cb916ea251c, 30),
    ("rr/equal/h8/m16/gd-paper", 0x5eb38d9e0b21bcbc, 30),
    ("rr/equal/h8/m16/gd-b4-r7", 0x75ada21938c83e69, 386),
    ("rr/equal/h8/m64/algo-a", 0xa13cd58ec48e3a10, 11),
    ("rr/equal/h8/m64/gd-paper", 0xab34765fcecf2cb0, 11),
    ("rr/equal/h8/m64/gd-b4-r4", 0x737b6b48e2428eba, 27),
    ("rr/above/h1/m8/algo-a", 0x1c5e4b485cb335b8, 119),
    ("rr/above/h1/m8/gd-paper", 0x1c5e4b485cb335b8, 119),
    ("rr/above/h1/m8/gd-b4-r8", 0x6fbd1f3b0fd3b71a, 897),
    ("rr/above/h1/m16/algo-a", 0x4f9a784f1b1f3e5f, 49),
    ("rr/above/h1/m16/gd-paper", 0x4f9a784f1b1f3e5f, 49),
    ("rr/above/h1/m16/gd-b4-r7", 0x6857e28e0a18f534, 425),
    ("rr/above/h1/m64/algo-a", 0x446d592367aee1f5, 13),
    ("rr/above/h1/m64/gd-paper", 0x446d592367aee1f5, 13),
    ("rr/above/h1/m64/gd-b4-r5", 0xc828f0d444ebb754, 87),
    ("rr/above/h3/m8/algo-a", 0x0ed7bc6cc756614b, 72),
    ("rr/above/h3/m8/gd-paper", 0x7e37e70135d03d5a, 68),
    ("rr/above/h3/m8/gd-b4-r8", 0x2c46f47aa48cb8be, 842),
    ("rr/above/h3/m16/algo-a", 0x751bf72fb4ddbf5b, 32),
    ("rr/above/h3/m16/gd-paper", 0xb87cce761a2bb53b, 30),
    ("rr/above/h3/m16/gd-b4-r7", 0xbc95f5717d592605, 379),
    ("rr/above/h3/m64/algo-a", 0x1200444b8d84559a, 12),
    ("rr/above/h3/m64/gd-paper", 0x896b8eb299d97c9a, 11),
    ("rr/above/h3/m64/gd-b4-r3", 0x712bdd4ee2d80477, 19),
    ("rr/above/h8/m8/algo-a", 0xa6c73be8714a921a, 60),
    ("rr/above/h8/m8/gd-paper", 0xcbb089fae62e0fac, 55),
    ("rr/above/h8/m8/gd-b4-r8", 0x12758becae36ad6d, 762),
    ("rr/above/h8/m16/algo-a", 0x6cbb9ea7994b471b, 34),
    ("rr/above/h8/m16/gd-paper", 0x9f2e3007c22cd80d, 28),
    ("rr/above/h8/m16/gd-b4-r7", 0x04da7cd5d70e5159, 315),
    ("rr/above/h8/m64/algo-a", 0xe6ab46b1abc72a18, 15),
    ("rr/above/h8/m64/gd-paper", 0x1e360ba661a91eb8, 12),
    ("rr/above/h8/m64/gd-b4-r3", 0xc49594e8f7236617, 19),
    ("pa/below/h1/m8/algo-a", 0x501672c68f37c459, 493),
    ("pa/below/h1/m8/gd-paper", 0xdbd0d8b196423544, 496),
    ("pa/below/h1/m8/gd-b4-r8", 0x6eb3cd066aae771b, 977),
    ("pa/below/h1/m16/algo-a", 0xb7e8f1263afc868c, 247),
    ("pa/below/h1/m16/gd-paper", 0xad431a127e4f12ec, 247),
    ("pa/below/h1/m16/gd-b4-r7", 0x2b466194b0f04b55, 481),
    ("pa/below/h1/m64/algo-a", 0x715081ae77366845, 62),
    ("pa/below/h1/m64/gd-paper", 0x715081ae77366845, 62),
    ("pa/below/h1/m64/gd-b4-r5", 0xbab93f00baed938a, 113),
    ("pa/below/h3/m8/algo-a", 0xbc659ffab81fe088, 190),
    ("pa/below/h3/m8/gd-paper", 0xca6fa1d5f267292b, 172),
    ("pa/below/h3/m8/gd-b4-r8", 0x6cd497a81929b78d, 895),
    ("pa/below/h3/m16/algo-a", 0xc8ca5bc219fd87ee, 87),
    ("pa/below/h3/m16/gd-paper", 0xb6ba7dfe00448611, 81),
    ("pa/below/h3/m16/gd-b4-r7", 0x885e1246d4369c5b, 430),
    ("pa/below/h3/m64/algo-a", 0x6258608d1ef07f4f, 23),
    ("pa/below/h3/m64/gd-paper", 0xe10a936a70c7f860, 16),
    ("pa/below/h3/m64/gd-b4-r5", 0xcc82f7c330455809, 88),
    ("pa/below/h8/m8/algo-a", 0x23f91a444b736d97, 148),
    ("pa/below/h8/m8/gd-paper", 0x984ce03cfc13f11a, 102),
    ("pa/below/h8/m8/gd-b4-r8", 0x983e68f032e359ff, 916),
    ("pa/below/h8/m16/algo-a", 0xa157ccc428c17351, 60),
    ("pa/below/h8/m16/gd-paper", 0x4117eb32edf83ef7, 32),
    ("pa/below/h8/m16/gd-b4-r7", 0x0f474efc72ae66c9, 418),
    ("pa/below/h8/m64/algo-a", 0x8429da82b57529fb, 20),
    ("pa/below/h8/m64/gd-paper", 0x61ad1b31d42ff06c, 9),
    ("pa/below/h8/m64/gd-b4-r4", 0x215ff77440520aa4, 31),
    ("pa/equal/h1/m8/algo-a", 0x4bb57b3b8727380b, 105),
    ("pa/equal/h1/m8/gd-paper", 0x4bb57b3b8727380b, 105),
    ("pa/equal/h1/m8/gd-b4-r8", 0x065ab372fc56af8b, 816),
    ("pa/equal/h1/m16/algo-a", 0xd846c9189d411b85, 49),
    ("pa/equal/h1/m16/gd-paper", 0xd846c9189d411b85, 49),
    ("pa/equal/h1/m16/gd-b4-r7", 0xb0ef8040697a0080, 391),
    ("pa/equal/h1/m64/algo-a", 0x1d024b99c3d4e95e, 8),
    ("pa/equal/h1/m64/gd-paper", 0x1d024b99c3d4e95e, 8),
    ("pa/equal/h1/m64/gd-b4-r4", 0x28369214e5e6f816, 48),
    ("pa/equal/h3/m8/algo-a", 0x94b9d54ff2e31e6e, 103),
    ("pa/equal/h3/m8/gd-paper", 0x49d3c0bae01335b1, 103),
    ("pa/equal/h3/m8/gd-b4-r8", 0xf6170b1b45cbe4a4, 924),
    ("pa/equal/h3/m16/algo-a", 0x28159b521d3bda20, 36),
    ("pa/equal/h3/m16/gd-paper", 0x430e8b74920219aa, 36),
    ("pa/equal/h3/m16/gd-b4-r7", 0xde09e226550f93fc, 432),
    ("pa/equal/h3/m64/algo-a", 0x78e84d05476b4e72, 8),
    ("pa/equal/h3/m64/gd-paper", 0xe0688eb7a6a35172, 8),
    ("pa/equal/h3/m64/gd-b4-r5", 0xf9c65fdcc227f700, 71),
    ("pa/equal/h8/m8/algo-a", 0xe7adbe7cf5ec9967, 57),
    ("pa/equal/h8/m8/gd-paper", 0x4e643e4847e5d684, 57),
    ("pa/equal/h8/m8/gd-b4-r8", 0x9bf41568cb6cbab4, 820),
    ("pa/equal/h8/m16/algo-a", 0x56782a7bd7be70e6, 29),
    ("pa/equal/h8/m16/gd-paper", 0xc56ee96035607246, 29),
    ("pa/equal/h8/m16/gd-b4-r7", 0x86cd19fb379ee56a, 354),
    ("pa/equal/h8/m64/algo-a", 0xde8490e2cb4bad74, 8),
    ("pa/equal/h8/m64/gd-paper", 0x1b54a5fd188fe5f4, 8),
    ("pa/equal/h8/m64/gd-b4-r2", 0xa8e2411c29a25ab2, 10),
    ("pa/above/h1/m8/algo-a", 0xe8ec5a2d88f86387, 142),
    ("pa/above/h1/m8/gd-paper", 0x34abca93fed4e5e7, 142),
    ("pa/above/h1/m8/gd-b4-r8", 0xaeb2fffde551ea8d, 988),
    ("pa/above/h1/m16/algo-a", 0x19ae3be19e683ea4, 59),
    ("pa/above/h1/m16/gd-paper", 0x19ae3be19e683ea4, 59),
    ("pa/above/h1/m16/gd-b4-r7", 0xe1c6e8af93742a29, 471),
    ("pa/above/h1/m64/algo-a", 0xbd7daec90a21d30b, 9),
    ("pa/above/h1/m64/gd-paper", 0xbd7daec90a21d30b, 9),
    ("pa/above/h1/m64/gd-b4-r5", 0xa61f1dcf83d64565, 88),
    ("pa/above/h3/m8/algo-a", 0xa4ddc91e009a7590, 80),
    ("pa/above/h3/m8/gd-paper", 0xddbc2271824ad396, 77),
    ("pa/above/h3/m8/gd-b4-r8", 0x1e0d8a5787fdaa17, 886),
    ("pa/above/h3/m16/algo-a", 0x4cd929b726227d60, 31),
    ("pa/above/h3/m16/gd-paper", 0x45ac82bb6eb58051, 31),
    ("pa/above/h3/m16/gd-b4-r7", 0x55c442bf8c44f374, 400),
    ("pa/above/h3/m64/algo-a", 0x3ed7bab0f81875e1, 10),
    ("pa/above/h3/m64/gd-paper", 0x0970021d2e07db5c, 9),
    ("pa/above/h3/m64/gd-b4-r4", 0xa543eb267923512a, 33),
    ("pa/above/h8/m8/algo-a", 0xad25ac0b2398a7fb, 61),
    ("pa/above/h8/m8/gd-paper", 0x2fcc820e7263a483, 58),
    ("pa/above/h8/m8/gd-b4-r8", 0xcf722929c21531a9, 737),
    ("pa/above/h8/m16/algo-a", 0x701d6177c73977cf, 34),
    ("pa/above/h8/m16/gd-paper", 0x4957e6d31cb3ede1, 30),
    ("pa/above/h8/m16/gd-b4-r7", 0x2c5a1e1e1e837014, 250),
    ("pa/above/h8/m64/algo-a", 0xea075703f3749b1d, 14),
    ("pa/above/h8/m64/gd-paper", 0xbc42c20dc7f89d39, 9),
    ("pa/above/h8/m64/gd-b4-r3", 0x8c93aa4d51c8e322, 15),
];
