//! The Maximum-Children (MC) replay algorithm — Section 5.2 of the paper.
//!
//! MC receives a feasible single-job schedule `S` (in practice an LPF tail)
//! whose only idle step is its last, and re-executes its subjobs online
//! while the number of granted processors `m_t` fluctuates. At each step it
//! repeatedly takes, from the earliest level of `S` with unprocessed
//! subjobs, a subjob with the maximum number of children *in the next level
//! of `S`*. Lemma 5.5: MC never idles a granted processor before finishing
//! (provided `m_t <= width(S)` and the job is an out-forest).
//!
//! Intuition: by preferring high-fanout subjobs, MC keeps as many next-level
//! subjobs enabled as possible, so it can always "borrow" work from the next
//! level when granted more processors than the current level has left.

use crate::lpf::FlatLevels;
use flowtree_dag::JobGraph;

/// `parent` entry of a root (or of a node whose parents all ran already).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// `parent` entry of a node with several parents still to run: such a job
/// is not an out-forest, and [`McReplay::from_flat`] rejects it.
pub(crate) const JOIN: u32 = u32::MAX - 1;

/// `done_step` of a node MC has not run yet.
const UNRUN: u32 = u32::MAX;

/// Replays a level schedule under fluctuating processor grants.
#[derive(Debug, Clone)]
pub struct McReplay {
    /// The replayed levels' `(node, parent)` pairs, each level sorted by
    /// children-in-next-level descending, stable by original in-level order.
    order: Vec<(u32, u32)>,
    /// Offsets of the levels in `order`; one more entry than levels.
    level_start: Vec<u32>,
    /// Per level, how many of its nodes are still unprocessed.
    remaining_in_level: Vec<u32>,
    /// Earliest level that still has unprocessed nodes.
    front: usize,
    /// Step at which each node was processed (for same-step readiness
    /// checks); `UNRUN` = unprocessed, 0 = ran before the replay started.
    done_step: Vec<u32>,
    /// Total unprocessed nodes.
    remaining: usize,
    /// Current step counter (one per `next` call).
    step: u32,
}

impl McReplay {
    /// Build a replay over `levels` (a feasible level schedule of `graph`,
    /// e.g. an LPF tail — level `i` runs before level `i+1`). `graph` must
    /// be an out-forest. Nodes listed in `levels` are exactly the ones MC
    /// will run; nodes of `graph` absent from `levels` are treated as
    /// already executed. A wrapper over the flat constructor Algorithm 𝒜
    /// uses.
    pub fn new(graph: &JobGraph, levels: &[Vec<u32>]) -> Self {
        let parent: Vec<u32> = graph
            .nodes()
            .map(|v| match graph.parents(v) {
                [] => NO_PARENT,
                &[p] => p,
                _ => JOIN,
            })
            .collect();
        let flat = FlatLevels::from_nested(levels);
        Self::from_flat(&parent, &flat.level_start, &flat.nodes)
    }

    /// Build a replay from a flat level schedule: level `i` is
    /// `nodes[level_start[i]..level_start[i + 1]]`, so passing
    /// `&level_start[k..]` replays everything from level `k` on without
    /// copying the levels out first. `parent[v]` is `v`'s parent,
    /// [`NO_PARENT`] or [`JOIN`]; it also fixes the node count. Nodes absent
    /// from the levels are treated as already executed.
    pub(crate) fn from_flat(parent: &[u32], level_start: &[u32], nodes: &[u32]) -> Self {
        assert!(!parent.contains(&JOIN), "MC replay requires an out-forest");
        let levels = level_start.len().saturating_sub(1);
        let first = level_start.first().map_or(0, |&s| s as usize);
        let last = level_start.last().map_or(0, |&s| s as usize);
        let tail = &nodes[first..last];

        // `done_step` first holds each node's level (`UNRUN` = not replayed).
        let mut done_step = vec![UNRUN; parent.len()];
        for li in 0..levels {
            for &v in &nodes[level_start[li] as usize..level_start[li + 1] as usize] {
                assert!(done_step[v as usize] == UNRUN, "node v{v} appears twice in levels");
                done_step[v as usize] = li as u32;
            }
        }
        // children-in-next-level counts.
        let mut next_children = vec![0u32; parent.len()];
        for &v in tail {
            let p = parent[v as usize];
            if p != NO_PARENT && done_step[p as usize] != UNRUN {
                let (lv, lp) = (done_step[v as usize], done_step[p as usize]);
                assert!(lp < lv, "levels violate precedence for v{v}");
                if lv == lp + 1 {
                    next_children[p as usize] += 1;
                }
            }
        }
        // Sort each level by next_children desc. A stable sort on the key
        // alone preserves original in-level order among equal-fanout nodes.
        let mut order: Vec<(u32, u32)> = tail.iter().map(|&v| (v, parent[v as usize])).collect();
        let mut start = Vec::with_capacity(levels + 1);
        let mut remaining_in_level = Vec::with_capacity(levels);
        for w in level_start.windows(2) {
            let (a, b) = (w[0] as usize - first, w[1] as usize - first);
            order[a..b].sort_by_key(|&(v, _)| std::cmp::Reverse(next_children[v as usize]));
            start.push(a as u32);
            remaining_in_level.push((b - a) as u32);
        }
        start.push(tail.len() as u32);
        // Nodes outside the levels count as processed (in the infinite past).
        for d in &mut done_step {
            *d = if *d == UNRUN { 0 } else { UNRUN };
        }
        McReplay {
            order,
            level_start: start,
            remaining_in_level,
            front: 0,
            done_step,
            remaining: tail.len(),
            step: 0,
        }
    }

    /// Subjobs still to run.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Has every subjob been run?
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Run one step with `m_t` granted processors: hands each node MC
    /// schedules this step to `emit`, in pick order, and returns how many
    /// it scheduled (fewer than `m_t` only when the job is about to finish
    /// — Lemma 5.5).
    pub fn next(&mut self, m_t: usize, mut emit: impl FnMut(u32)) -> usize {
        self.step += 1;
        let step = self.step;
        let mut picked = 0;
        let mut li = self.front;
        while picked < m_t && li < self.remaining_in_level.len() {
            if self.remaining_in_level[li] == 0 {
                li += 1;
                continue;
            }
            // Scan the level's (priority-sorted) nodes; take ready ones.
            let mut advanced = false;
            let level = self.level_start[li] as usize..self.level_start[li + 1] as usize;
            for &(v, p) in &self.order[level] {
                if picked >= m_t {
                    break;
                }
                if self.done_step[v as usize] != UNRUN {
                    continue;
                }
                // `UNRUN` is never below `step`.
                if p == NO_PARENT || self.done_step[p as usize] < step {
                    self.done_step[v as usize] = step;
                    self.remaining_in_level[li] -= 1;
                    self.remaining -= 1;
                    picked += 1;
                    emit(v);
                    advanced = true;
                }
            }
            if self.remaining_in_level[li] == 0 {
                li += 1;
            } else if !advanced || picked < m_t {
                // Unready stragglers remain in this level (their parents ran
                // this very step) — nothing deeper can be ready either
                // (out-forest: a deeper node's parent is in this level or
                // later). Stop the step.
                break;
            }
        }
        // Advance the front past exhausted levels.
        while self.front < self.remaining_in_level.len() && self.remaining_in_level[self.front] == 0
        {
            self.front += 1;
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpf::lpf_levels;
    use flowtree_dag::builder::{caterpillar, chain, complete_kary, star};
    use flowtree_dag::{DepthProfile, GraphBuilder};

    /// One step's picks, collected.
    fn picks(mc: &mut McReplay, m_t: usize) -> Vec<u32> {
        let mut out = Vec::new();
        mc.next(m_t, |v| out.push(v));
        out
    }

    /// Drive MC with a grant sequence; check feasibility of the produced
    /// order and Lemma 5.5 (full grants until done). Returns steps taken.
    fn drive(
        graph: &JobGraph,
        levels: &[Vec<u32>],
        grants: &mut dyn FnMut(usize) -> usize,
    ) -> usize {
        let expected: usize = levels.iter().map(Vec::len).sum();
        let mut mc = McReplay::new(graph, levels);
        let mut done_step = vec![0usize; graph.n()];
        let mut steps = 0;
        let mut total = 0;
        while !mc.is_done() {
            steps += 1;
            let m_t = grants(steps);
            let picks = picks(&mut mc, m_t);
            assert!(
                picks.len() == m_t || mc.is_done(),
                "Lemma 5.5 violated at step {steps}: got {} of {m_t}, {} left",
                picks.len(),
                mc.remaining()
            );
            for &v in &picks {
                done_step[v as usize] = steps;
            }
            total += picks.len();
            assert!(steps < 10_000, "MC not terminating");
        }
        assert_eq!(total, expected);
        // Precedence: child strictly after parent (when both replayed).
        for v in graph.nodes() {
            for &c in graph.children(v) {
                if done_step[v.index()] > 0 && done_step[c as usize] > 0 {
                    assert!(done_step[v.index()] < done_step[c as usize]);
                }
            }
        }
        steps
    }

    #[test]
    fn replays_full_lpf_schedule_with_matching_grants() {
        // Granting exactly the original level widths reproduces the schedule
        // length (the full schedule's head has narrow steps, so constant
        // grants would violate Lemma 5.5's precondition — the width-matched
        // grant sequence is the legal one here).
        let g = complete_kary(2, 5);
        let p = 4;
        let levels = lpf_levels(&g, p);
        let widths: Vec<usize> = levels.iter().map(Vec::len).collect();
        let steps = drive(&g, &levels, &mut |s| widths[s - 1]);
        assert_eq!(steps, levels.len(), "matching grants => same length");
    }

    #[test]
    fn fluctuating_grants_keep_processors_busy() {
        // Lemma 5.5 under adversarial-ish m_t: alternate 1 and p.
        let g = caterpillar(10, &[3, 0, 5, 2, 0, 0, 7, 1, 4, 2]);
        let p = 4;
        // LPF on p processors: full except last step once past the span —
        // MC's precondition. Use the whole schedule (head included) but
        // grants never exceed... head may have narrow steps; Lemma 5.5's
        // precondition is "only idle at the end". Use the tail only.
        let m = 16; // alpha = 4
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        let tail = &levels[(opt as usize).min(levels.len())..];
        if tail.is_empty() {
            return; // nothing to replay; fine for this shape
        }
        let mut flip = false;
        drive(&g, tail, &mut |_| {
            flip = !flip;
            if flip {
                1
            } else {
                p
            }
        });
    }

    #[test]
    fn zero_grant_steps_are_tolerated() {
        let g = star(6);
        let levels = lpf_levels(&g, 3);
        let mut mc = McReplay::new(&g, &levels);
        assert_eq!(mc.next(0, |_| {}), 0);
        while !mc.is_done() {
            mc.next(2, |_| {});
        }
    }

    #[test]
    fn prefers_max_children_nodes() {
        // Level 0 = {a, b} where a has 2 children in level 1 and b has 0.
        // With m_t = 1, MC must pick a first.
        let mut bld = GraphBuilder::new(4);
        bld.edge(0, 2).edge(0, 3); // a = 0 with children 2, 3; b = 1 leaf
        let g = bld.build().unwrap();
        let levels = vec![vec![1, 0], vec![2, 3]]; // a listed second!
        let mut mc = McReplay::new(&g, &levels);
        assert_eq!(picks(&mut mc, 1), vec![0], "max-children node first");
        // Next step: level 0 remainder (b) then level 1 children.
        let got = picks(&mut mc, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], 1);
    }

    #[test]
    fn borrows_from_next_level_when_granted_extra() {
        // chain-free forest: two stars side by side. Level widths 2 then 4.
        let g = flowtree_dag::builder::forest(&[star(2), star(2)]);
        let levels = lpf_levels(&g, 2);
        assert_eq!(levels.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2, 2]);
        let mut mc = McReplay::new(&g, &levels);
        // Grant 4 at once: both roots + nothing else (children unready same
        // step) -> only 2. This is the about-to-finish exemption? No — not
        // done. But Lemma 5.5's precondition says m_t <= width of S = 2.
        // With a legal grant of 2 every step, MC stays busy.
        for _ in 0..3 {
            assert_eq!(mc.next(2, |_| {}), 2);
        }
        assert!(mc.is_done());
    }

    #[test]
    fn nodes_outside_levels_count_as_executed() {
        // chain(4): replay only the last two nodes.
        let g = chain(4);
        let levels = vec![vec![2], vec![3]];
        let mut mc = McReplay::new(&g, &levels);
        assert_eq!(mc.remaining(), 2);
        assert_eq!(picks(&mut mc, 1), vec![2]);
        assert_eq!(picks(&mut mc, 1), vec![3]);
        assert!(mc.is_done());
    }

    #[test]
    fn lemma_5_5_on_lpf_tails_randomized() {
        // Systematic check over a family of shapes and grant patterns.
        let shapes: Vec<JobGraph> = vec![
            complete_kary(3, 4),
            caterpillar(12, &[1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]),
            flowtree_dag::builder::quicksort_tree(300, 1, 3, 1),
            flowtree_dag::builder::forest(&[star(7), chain(5), complete_kary(2, 4)]),
        ];
        for g in shapes {
            for alpha in [2usize, 4] {
                let p = 4;
                let m = alpha * p;
                let opt = DepthProfile::new(&g).opt_single_job(m as u64);
                let levels = lpf_levels(&g, p);
                if levels.len() <= opt as usize {
                    continue;
                }
                let tail = &levels[opt as usize..];
                let mut k = 0usize;
                drive(&g, tail, &mut |_| {
                    k += 1;
                    1 + (k * 7 + 3) % p // cycles through 1..=p
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "out-forest")]
    fn rejects_dags_with_joins() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 2).edge(1, 2);
        let g = b.build().unwrap();
        McReplay::new(&g, &[vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn rejects_duplicate_nodes_in_levels() {
        let g = chain(2);
        McReplay::new(&g, &[vec![0], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "violate precedence")]
    fn rejects_levels_violating_precedence() {
        let g = chain(2);
        McReplay::new(&g, &[vec![1], vec![0]]);
    }
}
