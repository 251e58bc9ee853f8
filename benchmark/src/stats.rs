//! Order statistics over wall-clock and sim-time samples, and the
//! seeded generators workload inputs are drawn from.

use pmp_net::SimRng;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank
/// rule; 0 for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q)
}

/// The `q`-quantile of `sorted` (ascending) by the nearest-rank rule; 0
/// for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by the nearest-rank rule.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The generator of input stream `stream` for `seed`: every workload
/// input comes from one.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> SimRng {
    SimRng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform integer in `lo..=hi`.
pub fn range(rng: &mut SimRng, lo: i64, hi: i64) -> i64 {
    lo + rng.range_u64((hi - lo + 1) as u64) as i64
}

/// Uniform float in `lo..hi`.
pub fn float(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| rng(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(rng(7, 1).next_u64(), rng(8, 1).next_u64());
        let mut r = rng(7, 1);
        assert!((0..1000).all(|_| (3..=5).contains(&range(&mut r, 3, 5))));
        assert!((0..1000).all(|_| (1.0..2.0).contains(&float(&mut r, 1.0, 2.0))));
    }
}
