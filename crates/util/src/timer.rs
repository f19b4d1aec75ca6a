//! Wall-clock timing and summary statistics for the benchmark harnesses.

use std::time::{Duration, Instant};

/// A simple wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a new timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Times `f`, returning `(result, seconds)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Timer::start();
    let r = f();
    (r, t.seconds())
}

/// Median of a sample (average of middle two for even lengths).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of empty sample");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Summary statistics over a sample of runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (see [`median`]).
    pub median: f64,
    /// Number of observations.
    pub n: usize,
}

impl Stats {
    /// Computes statistics over `samples`.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "stats of empty sample");
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Self {
            min,
            max,
            mean,
            median: median(samples),
            n: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_something() {
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.seconds() >= 0.004);
    }

    #[test]
    fn time_returns_result() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        median(&[]);
    }

    #[test]
    fn stats_summary() {
        let s = Stats::of(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.n, 4);
    }
}
