//! The load generator: seeded arrival schedules, exact write placement,
//! schedule pacing and latency summaries.
//!
//! Everything a workload sends is decided here from the seed before the
//! timed window starts, so the program under test only ever sees the
//! generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tg_bench::harness::percentile;

/// Poisson arrival offsets at `rate` per second over `window`: exponential
/// inter-arrival gaps drawn from an RNG seeded by `seed` alone, so the same
/// seed always yields the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9015_5011);
    let end = window.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Which operations of a sequence are writes, for a requested `share`.
///
/// Operation `i` is a write when the running total `floor((i + 1)·share +
/// phase)` steps up, with a seeded `phase` in `[0, 1)`. Every prefix of `n`
/// operations therefore holds `n·share` writes rounded one way or the
/// other — the achieved share can never drift from the requested one, even
/// when a run stops early.
#[derive(Clone, Copy, Debug)]
pub struct WritePlan {
    share: f64,
    phase: f64,
}

impl WritePlan {
    pub fn new(seed: u64, share: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0037_17e5);
        Self {
            share: share.clamp(0.0, 1.0),
            phase: rng.gen_range(0.0..1.0),
        }
    }

    pub fn is_write(&self, i: usize) -> bool {
        let step = |n: usize| (n as f64 * self.share + self.phase).floor();
        step(i + 1) > step(i)
    }

    /// Writes among the first `n` operations (an upper bound on the live
    /// edges a run of `n` operations can consume).
    pub fn writes_in(&self, n: usize) -> usize {
        ((n as f64 * self.share + self.phase).floor() - self.phase.floor()) as usize
    }
}

/// Sleeps until shortly before `due`, then yields until it passes. Returns
/// how late the caller is relative to `due` (the generator's lag).
pub fn wait_until(due: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
    Instant::now().saturating_duration_since(due)
}

/// Nearest-rank summary of a latency series (microseconds), with the
/// sample count it rests on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub mean: f64,
}

impl Summary {
    /// Uses `tg_bench::harness::percentile` (nearest rank) on a sorted copy.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p90: percentile(&sorted, 90.0),
            p99: percentile(&sorted, 99.0),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Median of a non-empty series (the lower middle for an even count, so
/// the result is always one of the measured values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let w = Duration::from_secs(2);
        let a = poisson_schedule(11, 1500.0, w);
        assert_eq!(a, poisson_schedule(11, 1500.0, w));
        assert_ne!(a, poisson_schedule(12, 1500.0, w));
        // Sorted offsets inside the window, at about the requested rate.
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.last().is_some_and(|&t| t < w));
        let rate = a.len() as f64 / w.as_secs_f64();
        assert!((rate - 1500.0).abs() < 150.0, "rate {rate}");
    }

    #[test]
    fn achieved_write_share_stays_within_a_point_of_the_request() {
        for seed in 0..20 {
            for share in [0.05, 0.2, 0.5] {
                let plan = WritePlan::new(seed, share);
                let mut writes = 0usize;
                for n in 1..=5000usize {
                    writes += usize::from(plan.is_write(n - 1));
                    assert_eq!(writes, plan.writes_in(n), "seed {seed} share {share} n {n}");
                    if n >= 100 {
                        let achieved = writes as f64 / n as f64;
                        assert!(
                            (achieved - share).abs() <= 0.01,
                            "{achieved} vs {share} at n {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_with_the_sample_count() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.p50, s.p99, s.mean), (100, 50.0, 99.0, 50.5));
        // 67 samples: the nearest-rank p99 is the maximum.
        let s = Summary::of(&(1..=67).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.p99), (67, 67.0));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }
}
