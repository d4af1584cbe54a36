//! Property tests for the paper's algorithms: the theorems' inequalities
//! must hold on randomized instances, not just hand-picked ones.

use flowtree_core::lpf::{lpf_levels, lpf_levels_restricted, RectangleTail};
use flowtree_core::{AlgoA, Fifo, GuessDoubleA, Lpf, McReplay, TieBreak};
use flowtree_dag::{DepthProfile, GraphBuilder, JobGraph, NodeId};
use flowtree_sim::metrics::flow_stats;
use flowtree_sim::{Engine, Instance, JobSpec};
use proptest::prelude::*;

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

/// The subgraph of `g` induced by the nodes with `keep[v]`, relabelled
/// densely in id order, plus the map from new ids to old ones.
fn induced_subgraph(g: &JobGraph, keep: &[bool]) -> (JobGraph, Vec<u32>) {
    let old: Vec<u32> = (0..g.n() as u32).filter(|&v| keep[v as usize]).collect();
    let mut new = vec![u32::MAX; g.n()];
    for (i, &v) in old.iter().enumerate() {
        new[v as usize] = i as u32;
    }
    let mut b = GraphBuilder::new(old.len());
    for (u, v) in g.edges() {
        if keep[u as usize] && keep[v as usize] {
            b.edge(new[u as usize], new[v as usize]);
        }
    }
    (b.build().unwrap(), old)
}

/// Replay levels as a single-job schedule and verify feasibility.
fn assert_levels_feasible(g: &JobGraph, levels: &[Vec<u32>], p: usize) {
    let inst = Instance::single(g.clone());
    let mut s = flowtree_sim::Schedule::new(p);
    for level in levels {
        assert!(level.len() <= p);
        s.push_step(level.iter().map(|&v| (flowtree_dag::JobId(0), NodeId(v))).collect());
    }
    s.verify(&inst).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corollary 5.4 on random trees: LPF attains the closed form.
    #[test]
    fn lpf_attains_corollary_5_4(g in arb_tree(80), m in 1usize..12) {
        let levels = lpf_levels(&g, m);
        assert_levels_feasible(&g, &levels, m);
        prop_assert_eq!(
            levels.len() as u64,
            DepthProfile::new(&g).opt_single_job(m as u64)
        );
    }

    /// Lemma 5.3 on random trees: LPF[m/alpha] <= alpha * OPT[m].
    #[test]
    fn lpf_alpha_competitive(g in arb_tree(80), p in 1usize..6, alpha in 1usize..5) {
        let m = p * alpha;
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let flow = lpf_levels(&g, p).len() as u64;
        prop_assert!(flow <= alpha as u64 * opt, "flow {flow} > {alpha} * {opt}");
    }

    /// Lemma 5.2 / Figure 2 on random trees: the tail of LPF[m/alpha] is
    /// full-width except its last step.
    #[test]
    fn lpf_tail_is_rectangular(g in arb_tree(80), p in 1usize..6, alpha in 2usize..5) {
        let m = p * alpha;
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        let shape = RectangleTail::measure(&levels, opt, p);
        prop_assert!(shape.is_rectangle(), "{shape:?}");
    }

    /// Lemma 5.5 on random tails and arbitrary grant sequences.
    #[test]
    fn mc_never_idles_granted_processors(
        g in arb_tree(60),
        p in 1usize..5,
        grants in proptest::collection::vec(0usize..5, 1..200),
    ) {
        if grants.iter().all(|&g| g == 0) {
            return Ok(()); // no processors ever granted: replay cannot progress
        }
        let alpha = 4;
        let opt = DepthProfile::new(&g).opt_single_job((p * alpha) as u64);
        let levels = lpf_levels(&g, p);
        if levels.len() <= opt as usize {
            return Ok(()); // no tail
        }
        let mut mc = McReplay::new(&g, &levels[opt as usize..]);
        let mut gi = 0usize;
        let mut steps = 0usize;
        while !mc.is_done() {
            let m_t = grants[gi % grants.len()].min(p);
            gi += 1;
            let got = mc.next(m_t, |_| {});
            prop_assert!(got == m_t || mc.is_done(), "idled {m_t}-{got}");
            steps += 1;
            prop_assert!(steps < 100_000);
        }
    }

    /// Restricted LPF equals full LPF on the remaining induced subgraph.
    #[test]
    fn restricted_lpf_equals_subgraph_lpf(g in arb_tree(40), p in 1usize..4, cut in 0u32..40) {
        // Build a descendant-closed remaining set: drop nodes with id < cut
        // only if their parents are also dropped... simplest valid
        // construction: remaining = all descendants of nodes >= cut union
        // nothing — instead take the executed set as an ancestor-closed
        // prefix: run LPF for `cut` steps and mark what ran.
        let levels = lpf_levels(&g, p);
        let steps = (cut as usize).min(levels.len());
        let mut remaining = vec![true; g.n()];
        for level in &levels[..steps] {
            for &v in level {
                remaining[v as usize] = false;
            }
        }
        if remaining.iter().all(|&r| !r) {
            return Ok(());
        }
        let rl = lpf_levels_restricted(&g, Some(&remaining), p);
        let (sub, old) = induced_subgraph(&g, &remaining);
        let sl = lpf_levels(&sub, p);
        // Same number of steps and same level sizes (ids differ by the
        // relabelling; heights are preserved because the set is
        // descendant-closed).
        prop_assert_eq!(rl.len(), sl.len());
        for (a, b) in rl.iter().zip(&sl) {
            prop_assert_eq!(a.len(), b.len());
        }
        // And the relabelled nodes match level by level as sets.
        for (a, b) in rl.iter().zip(&sl) {
            let mut a = a.clone();
            let mut b: Vec<u32> = b.iter().map(|&v| old[v as usize]).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// FIFO invariant on random instances: whenever fewer than m subjobs
    /// run, nothing was ready and skipped.
    #[test]
    fn fifo_schedules_everything_ready_or_fills_machine(
        trees in proptest::collection::vec((arb_tree(20), 0u64..8), 1..5),
        m in 1usize..5,
    ) {
        let inst = Instance::new(
            trees.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect(),
        );
        let s = Engine::new(m).run(&inst, &mut Fifo::arbitrary()).unwrap();
        s.verify(&inst).unwrap();
        let mut st = flowtree_sim::SimState::new(&inst);
        for t in 0..s.horizon() {
            st.release_due(&inst, t);
            let picks = s.at(t + 1);
            if picks.len() < m {
                prop_assert_eq!(st.total_ready(), picks.len(), "idle with ready work at t={}", t);
            }
            for &(j, v) in picks {
                st.complete(&inst, j, v, t + 1);
            }
            st.prune_alive();
        }
    }

    /// Theorem 5.6's inequality on random semi-batched streams.
    #[test]
    fn algo_a_within_theorem_bound(
        trees in proptest::collection::vec(arb_tree(30), 2..6),
        half in 2u64..8,
    ) {
        let m = 8usize;
        let inst = Instance::new(
            trees
                .into_iter()
                .enumerate()
                .map(|(i, graph)| JobSpec { graph, release: i as u64 * half })
                .collect(),
        );
        let mut a = AlgoA::semi_batched(4, half);
        let s = Engine::new(m).with_max_horizon(1_000_000).run(&inst, &mut a).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        // The bound holds vs the *claimed* OPT estimate only when the
        // estimate is valid; vs the certified lower bound it holds with the
        // 129 constant whenever 2*half >= lb. Use the defensible check:
        let lb = flowtree_opt::bounds::combined_lower_bound(&inst, m as u64);
        let opt_est = (2 * half).max(lb);
        prop_assert!(stats.max_flow <= 129 * opt_est);
    }

    /// Guess-and-double completes and respects Theorem 5.7 vs lower bounds.
    #[test]
    fn guess_double_within_theorem_bound(
        trees in proptest::collection::vec((arb_tree(24), 0u64..12), 1..5),
    ) {
        let m = 8usize;
        let inst = Instance::new(
            trees.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect(),
        );
        let mut gd = GuessDoubleA::paper();
        let s = Engine::new(m).with_max_horizon(10_000_000).run(&inst, &mut gd).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        let lb = flowtree_opt::bounds::combined_lower_bound(&inst, m as u64).max(1);
        prop_assert!(stats.max_flow <= 1548 * lb);
    }

    /// LPF multi-job scheduler dominates no one in general but always
    /// verifies and meets per-job spans.
    #[test]
    fn multi_job_lpf_feasible(
        trees in proptest::collection::vec((arb_tree(20), 0u64..6), 1..5),
        m in 1usize..5,
    ) {
        let inst = Instance::new(
            trees.into_iter().map(|(graph, release)| JobSpec { graph, release }).collect(),
        );
        let s = Engine::new(m).run(&inst, &mut Lpf::new()).unwrap();
        s.verify(&inst).unwrap();
        let stats = flow_stats(&inst, &s);
        for (id, spec) in inst.iter() {
            prop_assert!(stats.flows[id.index()] >= spec.graph.span());
        }
    }

    /// All FIFO tie-breaks produce the same *job-level* completion profile
    /// when every job is a chain (no intra-job choice exists).
    #[test]
    fn tiebreaks_agree_on_chains(
        lens in proptest::collection::vec(1usize..8, 1..5),
        m in 1usize..4,
    ) {
        let inst = Instance::new(
            lens.iter()
                .enumerate()
                .map(|(i, &l)| JobSpec {
                    graph: flowtree_dag::builder::chain(l),
                    release: i as u64,
                })
                .collect(),
        );
        let mut flows = Vec::new();
        for tie in [TieBreak::BecameReady, TieBreak::LastReady, TieBreak::HighestHeight] {
            let s = Engine::new(m).run(&inst, &mut Fifo::new(tie)).unwrap();
            flows.push(flow_stats(&inst, &s).flows);
        }
        prop_assert_eq!(&flows[0], &flows[1]);
        prop_assert_eq!(&flows[0], &flows[2]);
    }
}
