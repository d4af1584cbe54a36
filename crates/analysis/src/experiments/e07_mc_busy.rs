//! E7 — **Lemma 5.5**: the Most-Children replay never idles a granted
//! processor before finishing its schedule.
//!
//! For each tree shape, the LPF[m/α] tail (MC's legal input: full-width
//! except the last step) is replayed under several adversarial grant
//! patterns `m_t ∈ [0, m/α]`; the experiment reports the fraction of steps
//! where MC used every granted processor — which must be 1.0 for all but
//! the final step.

use crate::{table::f3, Effort, Report, Table};
use flowtree_core::lpf::lpf_levels;
use flowtree_core::McReplay;
use flowtree_dag::DepthProfile;
use flowtree_workloads::trees::shape_catalogue;

/// A named grant-pattern generator: step index -> grant in `1..=p`.
type GrantPattern = (&'static str, Box<dyn FnMut(usize) -> usize>);

/// Grant patterns (name, generator from step index to grant in `1..=p`).
fn patterns(p: usize) -> Vec<GrantPattern> {
    vec![
        ("constant p", Box::new(move |_| p)),
        ("alternate 1/p", Box::new(move |s| if s % 2 == 0 { 1 } else { p })),
        ("sawtooth", Box::new(move |s| 1 + (s % p))),
        ("pseudo-random", Box::new(move |s| 1 + (s.wrapping_mul(2654435761) >> 7) % p)),
    ]
}

/// Run E7.
pub fn run(effort: Effort) -> Report {
    let mut report = Report::new("E7", "Lemma 5.5: MC keeps every granted processor busy");
    let (m, alpha) = (effort.pick(32usize, 128), 4usize);
    let p = m / alpha;
    let n = effort.pick(800, 8000);
    let mut table = Table::new(
        format!("MC replay of LPF[{p}] tails under fluctuating grants (m = {m})"),
        &["shape", "grants", "tail work", "steps", "full steps", "busy fraction"],
    );
    let mut rng = flowtree_workloads::rng(99);
    for (name, g) in shape_catalogue(n, &mut rng) {
        let opt = DepthProfile::new(&g).opt_single_job(m as u64);
        let levels = lpf_levels(&g, p);
        if levels.len() <= opt as usize {
            continue; // no tail: job fits in its head
        }
        let tail = &levels[opt as usize..];
        let work: usize = tail.iter().map(Vec::len).sum();
        for (pat_name, mut grant) in patterns(p) {
            let mut mc = McReplay::new(&g, tail);
            let mut steps = 0usize;
            let mut full = 0usize;
            while !mc.is_done() {
                steps += 1;
                let m_t = grant(steps);
                let got = mc.next(m_t, |_| {});
                if got == m_t || mc.is_done() {
                    full += 1;
                }
                assert!(steps < 10 * work + 10, "MC stalled");
            }
            table.row(vec![
                name.to_string(),
                pat_name.to_string(),
                work.to_string(),
                steps.to_string(),
                full.to_string(),
                f3(full as f64 / steps as f64),
            ]);
        }
    }
    report.table(table);
    report.note(
        "Busy fraction is 1.000 everywhere: whatever the grant sequence, MC \
         consumes exactly m_t subjobs per step until the tail is exhausted — \
         the property that lets Algorithm 𝒜's FIFO pool treat tails as \
         liquid work.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_fraction_is_one() {
        let r = run(Effort::Quick);
        let t = &r.tables[0];
        assert!(t.len() >= 8, "expected several shape/pattern rows");
        for row in 0..t.len() {
            let frac: f64 = t.cell(row, 5).parse().unwrap();
            assert!((frac - 1.0).abs() < 1e-9, "row {row} busy fraction {frac}");
        }
    }
}
