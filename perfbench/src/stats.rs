//! Small numeric helpers: quantiles, medians, and the process's peak RSS.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice;
/// `NaN` for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Due times (ns from the start) of `n` open-loop arrivals at `rate` per
/// second, as a seeded Poisson process. Random gaps keep the arrivals from
/// locking in phase with any periodic sleep in the system under test. An
/// infinite rate makes every arrival due at once.
pub fn poisson_due_ns(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    // splitmix64: a fixed, dependency-free stream for the schedule.
    let mut state = seed ^ 0x005E_ED0F_A111_A7E5;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let due = t as u64;
            // Uniform in (0, 1]: never ln(0).
            let u = ((next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -u.ln() / rate * 1e9;
            due
        })
        .collect()
}

/// Cumulative (steal, total) CPU ticks of the host's vCPUs from
/// `/proc/stat`; `None` where it is unreadable. Steal is time the
/// hypervisor ran someone else while this machine had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings (0 when unknown).
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Interquartile mean: the mean of the middle half of the values (all of
/// them below four). Unlike a median it moves smoothly when a run mixes a
/// fast and a slow spell of the host, and unlike a mean it ignores the
/// quarter of samples at either end.
pub fn iqm(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] reports the peak of what runs from here on.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux ≥ 4.0). On a kernel
    // without it the peak simply covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB (0 where /proc is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn iqm_trims_a_quarter_at_each_end() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[1.0, 2.0, 6.0]), 3.0);
        assert!(iqm(&[]).is_nan());
    }

    #[test]
    fn poisson_schedule_repeats_and_keeps_its_rate() {
        let a = poisson_due_ns(7, 1000.0, 20_000);
        assert_eq!(a, poisson_due_ns(7, 1000.0, 20_000));
        assert_ne!(a, poisson_due_ns(8, 1000.0, 20_000));
        assert_eq!(a[0], 0);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 1000/s span about 20 s.
        let span = *a.last().unwrap() as f64 / 1e9;
        assert!((span - 20.0).abs() < 0.5, "span {span}");
        assert!(poisson_due_ns(7, f64::INFINITY, 5).iter().all(|&d| d == 0));
    }
}
