//! Longest Path First (LPF) — Section 5.1 of the paper.
//!
//! **Algorithm LPF:** at any time, assign ready subjobs to processors in
//! order of decreasing height (number of nodes on the longest path to a
//! leaf) until processors or ready subjobs run out.
//!
//! For a single out-forest job the paper proves (Lemma 5.3, Corollary 5.4)
//! that LPF on `m` processors is *optimal* for maximum flow, and on `m/α`
//! processors is α-competitive against the optimum on `m`. The materialized
//! LPF schedule ([`lpf_levels_forest`], flat; [`lpf_levels`], nested) is the
//! building block of Algorithm 𝒜: its first `OPT` steps are the **head**,
//! the rest is the **tail**, and by Lemma 5.2 the tail is a full `m/α`-wide
//! rectangle except possibly its last step ([`head_tail`],
//! [`RectangleTail`]).
//!
//! This module also provides the multi-job [`Lpf`] online scheduler (FIFO
//! across jobs, LPF within a job) used as a strong clairvoyant baseline.

use crate::fifo::{Fifo, TieBreak};
use flowtree_dag::{JobGraph, JobId, Time};
use flowtree_sim::{Clairvoyance, OnlineScheduler, Selection, SimView};

/// Materialized single-job LPF schedule on `p` processors: `levels[t]` are
/// the node ids run during step `t + 1` (job released at 0).
///
/// ```
/// use flowtree_core::lpf::lpf_levels;
/// use flowtree_dag::{builder, DepthProfile};
///
/// let g = builder::complete_kary(2, 4); // 15 nodes, span 4
/// let levels = lpf_levels(&g, 2);
/// // Corollary 5.4: LPF attains the exact optimum.
/// assert_eq!(levels.len() as u64, DepthProfile::new(&g).opt_single_job(2));
/// ```
pub fn lpf_levels(g: &JobGraph, p: usize) -> Vec<Vec<u32>> {
    lpf_levels_restricted(g, None, p)
}

/// LPF schedule of the induced subgraph of `g` on the nodes with
/// `remaining[v] == true` (`None` = all nodes).
///
/// The remaining set must be **descendant-closed** (if `v` is remaining, so
/// are all its descendants) — this is exactly the shape of "not yet
/// executed" sets, and it means restricted heights equal full-graph heights.
/// A nested-`Vec` adapter over [`lpf_levels_forest`] for experiments and
/// tests.
pub fn lpf_levels_restricted(g: &JobGraph, remaining: Option<&[bool]>, p: usize) -> Vec<Vec<u32>> {
    let mut out = FlatLevels::default();
    lpf_levels_forest(&[(g, remaining)], p, &mut LpfScratch::default(), &mut out);
    out.to_nested()
}

/// A level schedule stored flat: level `i` (step `i + 1`) is
/// `nodes[level_start[i]..level_start[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLevels {
    /// Offsets into `nodes`; one more entry than there are levels.
    pub level_start: Vec<u32>,
    /// The levels' node ids, concatenated.
    pub nodes: Vec<u32>,
}

impl Default for FlatLevels {
    fn default() -> Self {
        FlatLevels { level_start: vec![0], nodes: Vec::new() }
    }
}

impl FlatLevels {
    /// Flatten nested levels.
    pub fn from_nested(levels: &[Vec<u32>]) -> Self {
        let mut out = FlatLevels::default();
        for level in levels {
            out.nodes.extend_from_slice(level);
            out.level_start.push(out.nodes.len() as u32);
        }
        out
    }

    /// Number of levels (the schedule's length in steps).
    pub fn len(&self) -> usize {
        self.level_start.len() - 1
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nodes of level `i`, or `None` past the end.
    pub fn level(&self, i: usize) -> Option<&[u32]> {
        let end = *self.level_start.get(i + 1)? as usize;
        Some(&self.nodes[self.level_start[i] as usize..end])
    }

    /// The levels as one `Vec` each.
    pub fn to_nested(&self) -> Vec<Vec<u32>> {
        self.level_start
            .windows(2)
            .map(|w| self.nodes[w[0] as usize..w[1] as usize].to_vec())
            .collect()
    }
}

/// Buffers [`lpf_levels_forest`] reuses across calls, so a scheduler that
/// computes one LPF schedule per block boundary allocates only when a group
/// outgrows every earlier one.
#[derive(Debug, Default)]
pub struct LpfScratch {
    /// Forest id of each part's node 0.
    base: Vec<u32>,
    /// Height of each forest node.
    height: Vec<u32>,
    /// Included parents of each forest node that have not run yet.
    waiting: Vec<u32>,
    /// Per height, the next ready node to take from `ready`.
    head: Vec<u32>,
    /// Per height, one past the last ready node in `ready`.
    tail: Vec<u32>,
    /// Ready queues of all heights, one contiguous run per height (each
    /// node becomes ready exactly once, so a counting sort sizes the runs).
    ready: Vec<u32>,
}

/// LPF schedule of a *forest of jobs released together*: each entry of
/// `parts` is a graph plus an optional remaining mask (descendant-closed,
/// see [`lpf_levels_restricted`]). Writes the levels into `out` as forest
/// ids: node `v` of part `k` is `v` plus the node counts of parts `0..k`.
/// Masked-out nodes keep their ids and appear in no level.
///
/// All parts are treated as one out-forest (the paper's "view all the jobs
/// arriving at the same time as being one job", Section 5.3). The member
/// graphs are read in place; no union graph is built.
pub fn lpf_levels_forest(
    parts: &[(&JobGraph, Option<&[bool]>)],
    p: usize,
    scratch: &mut LpfScratch,
    out: &mut FlatLevels,
) {
    assert!(p >= 1, "need at least one processor");
    for (g, mask) in parts {
        if let Some(mask) = mask {
            assert_eq!(mask.len(), g.n(), "mask length mismatch");
            debug_assert!(descendant_closed(g, mask), "mask not descendant-closed");
        }
    }
    let LpfScratch { base, height, waiting, head, tail, ready } = scratch;
    base.clear();
    let mut n = 0;
    for (g, _) in parts {
        base.push(n as u32);
        n += g.n();
    }
    height.resize(n, 0);
    waiting.resize(n, 0);

    // Heights (restricted heights == full heights on a descendant-closed
    // set) and, per height, the number of included nodes.
    for ((g, _), &b) in parts.iter().zip(base.iter()) {
        g.heights_into(&mut height[b as usize..b as usize + g.n()]);
    }
    let max_h = height.iter().copied().max().unwrap_or(0) as usize;
    tail.clear();
    tail.resize(max_h + 2, 0);
    for ((g, mask), &b) in parts.iter().zip(base.iter()) {
        for v in 0..g.n() {
            if mask.is_none_or(|m| m[v]) {
                tail[height[b as usize + v] as usize + 1] += 1;
            }
        }
    }
    for h in 1..tail.len() {
        tail[h] += tail[h - 1];
    }
    let total = tail[max_h + 1] as usize;
    head.clear();
    head.extend_from_slice(&tail[..=max_h]);
    tail.truncate(max_h + 1);
    ready.resize(total, 0);

    // Seed the queues with the nodes whose included parents have all run.
    // General DAGs are supported: a node becomes ready when its *last*
    // included parent completes (countdown in `waiting`), which degenerates
    // to the single-parent rule on out-forests.
    for ((g, mask), &b) in parts.iter().zip(base.iter()) {
        let included = |v: u32| mask.is_none_or(|m| m[v as usize]);
        for v in g.nodes() {
            if !included(v.0) {
                continue;
            }
            let id = b + v.0;
            let w = g.parents(v).iter().filter(|&&u| included(u)).count() as u32;
            waiting[id as usize] = w;
            if w == 0 {
                let h = height[id as usize] as usize;
                ready[tail[h] as usize] = id;
                tail[h] += 1;
            }
        }
    }

    out.level_start.clear();
    out.level_start.push(0);
    out.nodes.clear();
    out.nodes.reserve(total);
    let mut left = total;
    let mut cur = max_h;
    while left > 0 {
        let step = out.nodes.len();
        while out.nodes.len() - step < p {
            while cur > 0 && head[cur] == tail[cur] {
                cur -= 1;
            }
            if cur == 0 {
                break;
            }
            // Take from the tallest queue, oldest-inserted first.
            let take = (p - (out.nodes.len() - step)).min((tail[cur] - head[cur]) as usize);
            let from = head[cur] as usize;
            out.nodes.extend_from_slice(&ready[from..from + take]);
            head[cur] += take as u32;
        }
        let picked = out.nodes.len() - step;
        debug_assert!(picked > 0, "no ready node but work remains");
        left -= picked;
        // Enable children only after the step is closed (same-step children
        // must not be picked).
        for i in step..out.nodes.len() {
            let id = out.nodes[i];
            // Forest ids rise with the part index.
            let k = base.partition_point(|&b| b <= id) - 1;
            let (g, mask) = parts[k];
            for &c in g.children(flowtree_dag::NodeId(id - base[k])) {
                if mask.is_none_or(|m| m[c as usize]) {
                    let cid = base[k] + c;
                    let w = &mut waiting[cid as usize];
                    *w -= 1;
                    if *w == 0 {
                        let h = height[cid as usize] as usize;
                        ready[tail[h] as usize] = cid;
                        tail[h] += 1;
                        cur = cur.max(h);
                    }
                }
            }
        }
        out.level_start.push(out.nodes.len() as u32);
    }
}

/// Is `mask` descendant-closed in `g` (every child of a remaining node is
/// remaining)? Debug-checked by [`lpf_levels_forest`] on every mask.
pub fn descendant_closed(g: &JobGraph, mask: &[bool]) -> bool {
    g.nodes()
        .all(|v| !mask[v.index()] || g.children(v).iter().all(|&c| mask[c as usize]))
}

/// The head/tail split of a materialized LPF schedule (paper, Section 5.3):
/// the **head** is the first `opt` levels, the **tail** the rest.
pub fn head_tail(levels: &[Vec<u32>], opt: Time) -> (&[Vec<u32>], &[Vec<u32>]) {
    let cut = (opt as usize).min(levels.len());
    levels.split_at(cut)
}

/// Shape report for the tail of an LPF schedule — the paper's Figure 2:
/// after the head, the schedule is a `p`-wide rectangle except possibly the
/// final step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectangleTail {
    /// Number of tail steps.
    pub len: usize,
    /// Steps (excluding the last) that are exactly `p` wide.
    pub full_steps: usize,
    /// Width of the final step (`<= p`).
    pub last_width: usize,
}

impl RectangleTail {
    /// Measure the tail (everything after `opt` levels) of an LPF schedule.
    pub fn measure(levels: &[Vec<u32>], opt: Time, p: usize) -> Self {
        let (_, tail) = head_tail(levels, opt);
        let len = tail.len();
        let full_steps = tail.iter().take(len.saturating_sub(1)).filter(|l| l.len() == p).count();
        RectangleTail { len, full_steps, last_width: tail.last().map_or(0, Vec::len) }
    }

    /// Is the tail a perfect rectangle except possibly the final step?
    /// (Lemma 5.2's consequence; requires `opt` to be a valid upper bound on
    /// the single-job OPT on the *full* machine.)
    pub fn is_rectangle(&self) -> bool {
        self.full_steps == self.len.saturating_sub(1)
    }
}

/// The maximum flow of a materialized level schedule (= number of levels,
/// since the job is released at 0).
pub fn levels_flow(levels: &[Vec<u32>]) -> Time {
    levels.len() as Time
}

/// Multi-job online LPF: FIFO across jobs (oldest first), longest-path-first
/// within a job. Clairvoyant (needs heights). A strong baseline: optimal for
/// one job, but *not* O(1)-competitive in general — Algorithm 𝒜 exists
/// precisely because naive FIFO composition is insufficient.
pub struct Lpf {
    inner: Fifo,
}

impl Lpf {
    /// Create the multi-job LPF scheduler.
    pub fn new() -> Self {
        Lpf { inner: Fifo::new(TieBreak::HighestHeight) }
    }
}

impl Default for Lpf {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineScheduler for Lpf {
    fn clairvoyance(&self) -> Clairvoyance {
        Clairvoyance::Clairvoyant
    }
    fn on_arrival(&mut self, t: Time, job: JobId, view: &SimView<'_>) {
        self.inner.on_arrival(t, job, view);
    }
    fn select(&mut self, t: Time, view: &SimView<'_>, sel: &mut Selection) {
        self.inner.select(t, view, sel);
    }
    fn name(&self) -> String {
        "LPF".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_dag::DepthProfile;
    use flowtree_sim::{Engine, Instance};

    /// Replay materialized levels as a schedule to verify feasibility.
    fn verify_levels(g: &JobGraph, levels: &[Vec<u32>], p: usize) {
        let inst = Instance::single(g.clone());
        let mut s = flowtree_sim::Schedule::new(p);
        for level in levels {
            assert!(level.len() <= p, "level wider than p");
            s.push_step(level.iter().map(|&v| (JobId(0), flowtree_dag::NodeId(v))).collect());
        }
        s.verify(&inst).unwrap();
    }

    #[test]
    fn chain_runs_sequentially() {
        let g = chain(5);
        let levels = lpf_levels(&g, 4);
        assert_eq!(levels.len(), 5);
        assert!(levels.iter().all(|l| l.len() == 1));
        verify_levels(&g, &levels, 4);
    }

    #[test]
    fn star_is_work_limited() {
        let g = star(8);
        let levels = lpf_levels(&g, 4);
        // root; then 8 leaves in two waves of 4.
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1].len(), 4);
        assert_eq!(levels[2].len(), 4);
        verify_levels(&g, &levels, 4);
    }

    #[test]
    fn lpf_flow_matches_corollary_5_4_formula() {
        // Corollary 5.4: on m processors LPF is optimal, and
        // OPT = max_d (d + ceil(W(d)/m)).
        for g in [
            chain(9),
            star(13),
            complete_kary(2, 5),
            complete_kary(3, 4),
            caterpillar(6, &[4, 0, 3, 7, 0, 2]),
        ] {
            let p = DepthProfile::new(&g);
            for m in [1usize, 2, 3, 4, 7, 16] {
                let levels = lpf_levels(&g, m);
                verify_levels(&g, &levels, m);
                assert_eq!(
                    levels_flow(&levels),
                    p.opt_single_job(m as u64),
                    "LPF flow != formula for m={m}"
                );
            }
        }
    }

    #[test]
    fn lpf_prioritizes_height_over_breadth() {
        // Spine chain of 4 with 3 extra leaves at the root: with p=1, LPF
        // must run the whole spine before the leaves (heights 4,3,2,1 > 1).
        let g = caterpillar(4, &[3, 0, 0, 0]);
        let levels = lpf_levels(&g, 1);
        // Heights force the spine prefix 0,1,2 first; the remaining four
        // nodes (spine tail + legs) all have height 1 and may run in any
        // order.
        assert_eq!(levels[..3], vec![vec![0], vec![1], vec![2]][..]);
        assert_eq!(levels.len(), 7);
    }

    #[test]
    fn restricted_lpf_skips_executed_prefix() {
        let g = chain(4);
        // Nodes 0, 1 executed; remaining = {2, 3}.
        let remaining = vec![false, false, true, true];
        let levels = lpf_levels_restricted(&g, Some(&remaining), 2);
        assert_eq!(levels, vec![vec![2], vec![3]]);
    }

    #[test]
    fn restricted_lpf_multiple_entry_points() {
        // star(3): root executed, leaves remain -> all ready at once.
        let g = star(3);
        let remaining = vec![false, true, true, true];
        let levels = lpf_levels_restricted(&g, Some(&remaining), 2);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2);
        assert_eq!(levels[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "descendant-closed")]
    #[cfg(debug_assertions)]
    fn non_descendant_closed_mask_panics() {
        let g = chain(3);
        // 0 remaining but child 1 excluded: not descendant-closed.
        let remaining = vec![true, false, true];
        lpf_levels_restricted(&g, Some(&remaining), 1);
    }

    #[test]
    fn general_dags_respect_joins() {
        // Diamond 0 -> {1,2} -> 3: node 3 must wait for *both* parents.
        let mut b = flowtree_dag::GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        let g = b.build().unwrap();
        let levels = lpf_levels(&g, 2);
        verify_levels(&g, &levels, 2);
        assert_eq!(levels, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn sp_dag_lpf_is_feasible() {
        let g = flowtree_dag::sp::figure1_job();
        for p in 1..=4 {
            let levels = lpf_levels(&g, p);
            verify_levels(&g, &levels, p);
        }
    }

    #[test]
    fn forest_lpf_mixes_parts_by_height() {
        let a = chain(3); // heights 3,2,1
        let b = star(4); // heights 2,1,1,1,1
        let mut out = FlatLevels::default();
        lpf_levels_forest(&[(&a, None), (&b, None)], 2, &mut LpfScratch::default(), &mut out);
        // Step 1: chain head (h=3) and star root (h=2, forest id 3 + 0).
        assert_eq!(out.level(0), Some(&[0, 3][..]));
        // Total work 8 on p=2 with enough parallelism: 4 steps.
        assert_eq!(out.len(), 4);
        assert_eq!(out.nodes.len(), 8);
    }

    #[test]
    fn forest_lpf_skips_masked_nodes_and_reuses_scratch() {
        // One scratch across calls of different sizes must not leak state.
        let mut scratch = LpfScratch::default();
        let mut out = FlatLevels::default();
        let big = complete_kary(3, 4);
        lpf_levels_forest(&[(&big, None)], 3, &mut scratch, &mut out);
        assert_eq!(out.to_nested(), lpf_levels(&big, 3));
        // chain(4) with its first two nodes run, then star(2) whole.
        let (a, b) = (chain(4), star(2));
        let mask = [false, false, true, true];
        lpf_levels_forest(&[(&a, Some(&mask)), (&b, None)], 2, &mut scratch, &mut out);
        assert_eq!(out.to_nested(), vec![vec![2, 4], vec![3, 5], vec![6]]);
        assert_eq!(FlatLevels::from_nested(&out.to_nested()), out);
    }

    #[test]
    fn head_tail_split() {
        let g = star(8);
        let levels = lpf_levels(&g, 2);
        let (head, tail) = head_tail(&levels, 2);
        assert_eq!(head.len(), 2);
        assert_eq!(tail.len(), levels.len() - 2);
        // Split beyond the end: everything is head.
        let (head, tail) = head_tail(&levels, 100);
        assert_eq!(head.len(), levels.len());
        assert!(tail.is_empty());
    }

    #[test]
    fn figure2_tail_is_rectangle() {
        // Lemma 5.2 consequence: for an LPF schedule on p = m/alpha
        // processors, every level after single-machine-OPT time is full
        // width except the last. Use a random-ish caterpillar and check with
        // opt computed on the full machine m = alpha * p.
        let g = caterpillar(8, &[0, 6, 1, 9, 2, 0, 5, 3]);
        let (alpha, p) = (4usize, 3usize);
        let m = alpha * p;
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        let shape = RectangleTail::measure(&levels, opt, p);
        assert!(
            shape.is_rectangle(),
            "tail not rectangular: {shape:?}, levels: {:?}",
            levels.iter().map(Vec::len).collect::<Vec<_>>()
        );
        // Tail length bound from Lemma 5.3: flow <= alpha * opt, so the tail
        // is at most (alpha - 1) * opt long.
        assert!(shape.len as u64 <= (alpha as u64 - 1) * opt);
    }

    #[test]
    fn lemma_5_2_ancestor_chains_at_idle_steps() {
        // Lemma 5.2, the statement itself (not just the rectangle
        // consequence): let t be any step of LPF[p] with an idle processor.
        // Then either every subjob of S(t) is a leaf (the job ends at t), or
        // for each non-leaf j in S(t) and each earlier step s, the ancestor
        // of j that is t - s hops up runs exactly at step s.
        for g in [
            caterpillar(9, &[3, 0, 5, 1, 0, 2, 4, 0, 1]),
            complete_kary(3, 4),
            flowtree_dag::builder::quicksort_tree(200, 1, 3, 1),
        ] {
            let p = 3;
            let levels = lpf_levels(&g, p);
            // when[v] = 1-based step of v.
            let mut when = vec![0usize; g.n()];
            for (i, level) in levels.iter().enumerate() {
                for &v in level {
                    when[v as usize] = i + 1;
                }
            }
            let parent_of =
                |v: u32| -> Option<u32> { g.parents(flowtree_dag::NodeId(v)).first().copied() };
            for (i, level) in levels.iter().enumerate() {
                let t = i + 1;
                if level.len() == p {
                    continue; // not idle
                }
                let all_leaves = level.iter().all(|&v| g.out_degree(flowtree_dag::NodeId(v)) == 0);
                if all_leaves {
                    assert_eq!(t, levels.len(), "all-leaf idle step must be last");
                    continue;
                }
                for &j in level {
                    if g.out_degree(flowtree_dag::NodeId(j)) == 0 {
                        continue;
                    }
                    // Walk ancestors: hop k up must run at step t - k.
                    let mut cur = j;
                    for s in (1..t).rev() {
                        let up = parent_of(cur)
                            .unwrap_or_else(|| panic!("non-leaf at idle step {t} lacks depth {t}"));
                        assert_eq!(
                            when[up as usize],
                            s,
                            "ancestor of v{j} at hop {} not at step {s}",
                            t - s
                        );
                        cur = up;
                    }
                }
            }
        }
    }

    #[test]
    fn multi_job_lpf_scheduler_runs() {
        let inst = Instance::new(vec![
            flowtree_sim::JobSpec { graph: complete_kary(2, 4), release: 0 },
            flowtree_sim::JobSpec { graph: chain(6), release: 2 },
        ]);
        let s = Engine::new(3).run(&inst, &mut Lpf::new()).unwrap();
        s.verify(&inst).unwrap();
        let stats = flowtree_sim::metrics::flow_stats(&inst, &s);
        // chain(6) arriving at 2 needs >= 6 flow; the tree needs >= 4.
        assert!(stats.max_flow >= 6);
    }

    #[test]
    fn single_job_lpf_scheduler_matches_materialized() {
        let g = complete_kary(2, 5);
        let inst = Instance::single(g.clone());
        let s = Engine::new(4).run(&inst, &mut Lpf::new()).unwrap();
        s.verify(&inst).unwrap();
        let stats = flowtree_sim::metrics::flow_stats(&inst, &s);
        assert_eq!(stats.max_flow, levels_flow(&lpf_levels(&g, 4)));
    }
}
