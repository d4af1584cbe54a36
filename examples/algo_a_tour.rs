//! A guided tour of Algorithm 𝒜's machinery on one job:
//!
//! 1. LPF on m/α processors and its head/rectangular-tail shape (Figure 2);
//! 2. the Most-Children replay staying busy under fluctuating grants
//!    (Lemma 5.5);
//! 3. the full algorithm on a semi-batched stream with a certified optimum
//!    (Theorem 5.6).
//!
//! ```sh
//! cargo run --release --example algo_a_tour
//! ```

use flowtree::core::lpf::{head_tail, lpf_levels, RectangleTail};
use flowtree::core::{AlgoA, McReplay};
use flowtree::dag::DepthProfile;
use flowtree::prelude::*;
use flowtree::workloads::batched::packed_chains;

fn main() {
    let (m, alpha) = (16usize, 4usize);
    let p = m / alpha;

    // --- 1. LPF shape -----------------------------------------------------
    let mut rng = flowtree::workloads::rng(5);
    let g = flowtree::workloads::trees::random_recursive_tree(300, &mut rng);
    let opt = DepthProfile::new(&g).opt_single_job(m as u64);
    let levels = lpf_levels(&g, p);
    let (head, tail) = head_tail(&levels, opt);
    let shape = RectangleTail::measure(&levels, opt, p);
    println!("LPF[m/α = {p}] of a {}-node tree; OPT[m = {m}] = {opt}", g.n());
    let widths: String = levels
        .iter()
        .map(|l| char::from_digit(l.len() as u32 % 10, 10).unwrap())
        .collect();
    println!("per-step widths: {widths}");
    println!(
        "head = {} steps, tail = {} steps (rectangle: {}), total {} ≤ α·OPT = {}\n",
        head.len(),
        tail.len(),
        shape.is_rectangle(),
        levels.len(),
        alpha as u64 * opt,
    );

    // --- 2. MC replay ------------------------------------------------------
    let mut mc = McReplay::new(&g, tail);
    let mut step = 0usize;
    let mut log = String::new();
    while !mc.is_done() {
        step += 1;
        let grant = 1 + (step * 3) % p;
        let got = mc.next(grant, |_| {});
        log.push_str(&format!("{got}/{grant} "));
        assert!(got == grant || mc.is_done(), "Lemma 5.5 violated");
    }
    println!("MC replay under sawtooth grants (scheduled/granted per step):");
    println!("{log}\n");

    // --- 3. Full Algorithm A on a certified stream -------------------------
    let t_opt = 8u64;
    let packed = packed_chains(m, t_opt, 4, 6, &mut rng);
    let mut algo = AlgoA::semi_batched(alpha, t_opt / 2);
    let s = Engine::new(m).run(&packed.instance, &mut algo).expect("A completes");
    s.verify(&packed.instance).expect("feasible");
    let stats = &s.stats;
    println!(
        "Algorithm A on 6 packed batches (OPT = {t_opt} exactly): max flow {}, ratio {:.2} (bound: 129)",
        stats.max_flow,
        stats.max_flow as f64 / t_opt as f64,
    );
}
