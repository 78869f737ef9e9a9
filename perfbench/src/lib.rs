//! Pure helpers of the service benchmark, kept apart from the code that
//! drives the deployment so that they can be tested deterministically:
//! percentiles with the number of samples that support them, the seeded
//! Poisson arrival schedule of the `mixed` workload, and the subtraction
//! that turns the four-rung ladder into per-layer self times.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median of unsorted values (mean of the middle two for an even count);
/// `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Rank (1-based) of the `p`-th percentile among `n` samples by the
/// nearest-rank rule: the smallest rank whose share of samples is at least
/// `p` percent. `0` when there are no samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // The tolerance keeps binary rounding (99.9 % of 10 000 evaluates to
    // just above 9990) from pushing an exact rank up by one.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Latency percentiles of one run together with their sample support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub count: usize,
    /// Median by nearest rank.
    pub p50: f64,
    /// 99th percentile by nearest rank.
    pub p99: f64,
    /// Samples strictly above the p99 rank.
    pub beyond_p99: usize,
}

/// Samples a percentile needs beyond it before it is reported as
/// supported.
pub const MIN_TAIL_SAMPLES: usize = 10;

impl Percentiles {
    /// Percentiles of unsorted samples; all zero for no samples.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| match nearest_rank(v.len(), p) {
            0 => 0.0,
            r => v[r - 1],
        };
        Percentiles {
            count: v.len(),
            p50: at(50.0),
            p99: at(99.0),
            beyond_p99: v.len() - nearest_rank(v.len(), 99.0),
        }
    }
}

/// Highest of `candidates` (percentiles, ascending) that keeps at least
/// [`MIN_TAIL_SAMPLES`] of `n` samples beyond it, if any does.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// One scheduled request of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Send time, seconds after the start of the window.
    pub at_s: f64,
    /// Index into the workload's weight table: which request kind.
    pub kind: usize,
}

/// Seeded Poisson arrivals at `rate_per_s` over `[0, seconds)`, conditioned
/// on their number: `round(rate_per_s · seconds)` send times drawn
/// uniformly and sorted, which is how a Poisson process places a given
/// number of arrivals. Each kind gets its share of `weights` (relative)
/// to within one request, in seeded random order. Fixing both counts keeps
/// the offered load the same for every seed; the same seed always gives
/// the same schedule.
///
/// # Panics
///
/// Panics if the rate or the window is not positive or the weights do not
/// sum to a positive value.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64, weights: &[f64]) -> Vec<Arrival> {
    assert!(
        rate_per_s > 0.0 && seconds > 0.0,
        "rate and window must be positive"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "kind weights must sum to a positive value");
    let count = (rate_per_s * seconds).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut times: Vec<f64> = (0..count).map(|_| rng.gen::<f64>() * seconds).collect();
    times.sort_by(f64::total_cmp);
    // Request j of the count takes the kind whose cumulative share covers
    // (j + 1/2) / count; a seeded shuffle then spreads the kinds in time.
    let mut kinds: Vec<usize> = (0..count)
        .map(|j| {
            let at = (j as f64 + 0.5) / count as f64 * total;
            let mut acc = 0.0;
            weights
                .iter()
                .position(|&w| {
                    acc += w;
                    at < acc
                })
                .unwrap_or(weights.len() - 1)
        })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    times
        .into_iter()
        .zip(kinds)
        .map(|(at_s, kind)| Arrival { at_s, kind })
        .collect()
}

/// Rungs of the ladder, innermost first: the core ops called directly,
/// `ShardRouter::call`, `ShardRouter::dispatch_frame`, `Client::call`.
pub const RUNGS: usize = 4;

/// Self time of each layer of the ladder: for every sampled request the
/// difference between a rung and the one inside it, then the median over
/// the samples. Returns `[engine, router, net]` in the unit of the input.
pub fn ladder_self_times(samples: &[[f64; RUNGS]]) -> [f64; RUNGS - 1] {
    let mut out = [0.0; RUNGS - 1];
    for (layer, slot) in out.iter_mut().enumerate() {
        let diffs: Vec<f64> = samples.iter().map(|r| r[layer + 1] - r[layer]).collect();
        *slot = median(&diffs);
    }
    out
}

/// Closure ratio: the sum of the measured parts over the measured whole
/// (`0.0` when the whole is not positive).
pub fn closure(parts: &[f64], whole: f64) -> f64 {
    if whole > 0.0 {
        parts.iter().sum::<f64>() / whole
    } else {
        0.0
    }
}

/// Distance of a ratio from its ideal of 1 on a log scale, `|ln ratio|`:
/// `0` for a perfect ratio, the same for `r` and `1/r`, and lower is
/// better in either direction.
pub fn abs_ln(ratio: f64) -> f64 {
    ratio.ln().abs()
}

/// Whether a closure ratio accounts for its whole within ±10 %.
pub fn closure_holds(ratio: f64) -> bool {
    (0.9..=1.1).contains(&ratio)
}
