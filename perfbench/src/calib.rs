//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host, whose speed drifts
//! by a third or more over seconds to minutes as neighbours come and go:
//! the same round of `Engine::run` calls took anywhere from 24 to 40 ms
//! within one run. So every timed unit of work (a closed-loop round, a
//! segment, a set-up) is paired with a run of a fixed reference kernel
//! just before it, and its time is rescaled to a host on which that kernel
//! takes [`REFERENCE_S`]. The kernel is the benchmark's own code and calls
//! nothing in the repository, so a change to the program moves the
//! rescaled figures exactly as it moves the raw ones. The raw figures and
//! the host factor are reported beside them.

use std::time::Instant;

/// Seconds the reference kernel is taken to run on the reference host:
/// about its time on an unloaded vCPU of the 2-vCPU development host.
pub const REFERENCE_S: f64 = 0.0025;

/// A fixed amount of cache-resident, branchy work, like the engine's:
/// sorting, ordered-map updates and a pointer chase through a random
/// permutation. The result only keeps the work from being optimised away.
pub fn kernel(seed: u64) -> u64 {
    // xorshift64: never zero for a non-zero state.
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut v: Vec<u32> = (0..4096).map(|_| next() as u32).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(u64::from(v[2048]));
        let mut map = std::collections::BTreeMap::new();
        for i in 0..2048u64 {
            map.insert(next() % 4096, i);
        }
        for _ in 0..1024 {
            if let Some(v) = map.remove(&(next() % 4096)) {
                acc = acc.wrapping_add(v);
            }
        }
        let n = 16_384usize;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut p = 0usize;
        for _ in 0..n {
            p = perm[p] as usize;
            acc = acc.wrapping_add(p as u64);
        }
    }
    acc
}

/// How many times slower than the reference host this host is right now:
/// the kernel's time over [`REFERENCE_S`], run on `threads` threads at
/// once (the mean of their times) when the work it calibrates is
/// parallel.
pub fn host_factor(threads: usize, seed: u64) -> f64 {
    let timed = |seed: u64| {
        let t = Instant::now();
        std::hint::black_box(kernel(seed));
        t.elapsed().as_secs_f64()
    };
    let secs = if threads <= 1 {
        timed(seed)
    } else {
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..threads as u64).map(|i| s.spawn(move || timed(seed + i))).collect();
            handles.into_iter().map(|h| h.join().expect("kernel thread")).collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    };
    secs / REFERENCE_S
}

/// Timed units of work, each with the host factor measured just before it.
#[derive(Debug, Default, Clone)]
pub struct Calibrated {
    /// Raw measurements (a time in s, or a rate).
    pub raw: Vec<f64>,
    /// The host factor paired with each.
    pub factor: Vec<f64>,
}

impl Calibrated {
    /// Record one measurement with its factor.
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.factor.push(factor);
    }

    /// Times rescaled to the reference host.
    pub fn times(&self) -> Vec<f64> {
        self.raw.iter().zip(&self.factor).map(|(t, f)| t / f).collect()
    }

    /// Rates rescaled to the reference host.
    pub fn rates(&self) -> Vec<f64> {
        self.raw.iter().zip(&self.factor).map(|(r, f)| r * f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work_and_factors_rescale() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
        let f = host_factor(2, 1);
        assert!(f.is_finite() && f > 0.0, "factor {f}");
        let mut c = Calibrated::default();
        c.push(0.02, 2.0);
        c.push(0.03, 0.5);
        assert_eq!(c.times(), vec![0.01, 0.06]);
        c = Calibrated::default();
        c.push(1000.0, 1.5);
        assert_eq!(c.rates(), vec![1500.0]);
    }
}
