//! Percentiles and small summaries over measured samples.

/// The `q`-quantile of `sorted` (ascending), interpolating linearly
/// between the two closest ranks. Empty input gives NaN.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Latency summary of one sample set: median, and p99 only when at least
/// ten samples lie beyond it (that needs 1000 samples).
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p99: Option<f64>,
}

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples per window in [`Tail::windowed`].
pub const WINDOW: usize = 250;

/// Which items were taken while the host was quietest: the half (rounded
/// up) with the least steal. Each item carries the steal share measured
/// while it was taken; ties go to every other item first, so equal
/// shares spread the choice over the run. When any share is unknown
/// every item counts.
pub fn quiet(shares: &[Option<f64>]) -> Vec<bool> {
    let known: Option<Vec<f64>> = shares.iter().copied().collect();
    let Some(known) = known else {
        return vec![true; shares.len()];
    };
    let mut order: Vec<usize> = (0..known.len()).collect();
    order.sort_by(|&a, &b| {
        known[a]
            .partial_cmp(&known[b])
            .expect("shares are never NaN")
            .then((a % 2).cmp(&(b % 2)))
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; known.len()];
    for &i in &order[..known.len().div_ceil(2)] {
        keep[i] = true;
    }
    keep
}

/// The median of the values taken while the host was quiet (see
/// [`quiet`]).
pub fn quiet_median(items: &[(f64, Option<f64>)]) -> f64 {
    let keep = quiet(&items.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let values: Vec<f64> = items
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|((v, _), _)| *v)
        .collect();
    median(&values)
}

impl Tail {
    /// Percentiles of `values` (in time order) taken while the host was
    /// quiet. The samples are split into consecutive windows of [`WINDOW`]
    /// samples, `steal_of(window)` gives each window's steal share, and the
    /// quiet half of the windows (see [`quiet`]) is pooled, topped up with
    /// the next least-stolen windows until the pool holds enough samples
    /// for a p99.
    /// Without steal data every window is pooled. With fewer than 1000
    /// samples there is no p99; an empty set gives NaN.
    pub fn windowed(
        values: &[f64],
        steal_of: impl Fn(std::ops::Range<usize>) -> Option<f64>,
    ) -> Tail {
        let w = (values.len() / WINDOW).max(1);
        let size = values.len() / w;
        let ranges: Vec<_> = (0..w)
            .map(|i| {
                i * size..if i + 1 == w {
                    values.len()
                } else {
                    (i + 1) * size
                }
            })
            .collect();
        let shares: Vec<Option<f64>> = ranges.iter().map(|r| steal_of(r.clone())).collect();
        let keep = quiet(&shares);
        let mut order: Vec<usize> = (0..w).collect();
        order.sort_by(|&a, &b| {
            let share = |i: usize| shares[i].unwrap_or(0.0);
            share(a)
                .partial_cmp(&share(b))
                .expect("shares are never NaN")
        });
        let enough = MIN_BEYOND * 100;
        let mut pooled = Vec::new();
        for i in order {
            if !keep[i] && pooled.len() >= enough {
                break;
            }
            pooled.extend_from_slice(&values[ranges[i].clone()]);
        }
        Tail {
            n: values.len(),
            ..Tail::of(&pooled)
        }
    }

    pub fn of(values: &[f64]) -> Tail {
        let s = sorted(values);
        let p99 = (s.len() as f64 * 0.01 >= MIN_BEYOND as f64).then(|| quantile(&s, 0.99));
        Tail {
            n: s.len(),
            p50: quantile(&s, 0.5),
            p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(Tail::of(&few).p99.is_none());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(Tail::of(&enough).p99.is_some());
    }

    #[test]
    fn windowed_tail_ignores_one_disturbed_window() {
        // Twenty windows of 250; four of them stolen and ten times slower.
        let mut v: Vec<f64> = (0..5000).map(|i| 1.0 + (i % 250) as f64 / 250.0).collect();
        v[2000..3000].iter_mut().for_each(|x| *x *= 10.0);
        let unknown = |_| None;
        let stolen = |r: std::ops::Range<usize>| {
            Some(if (2000..3000).contains(&r.start) {
                0.3
            } else {
                0.0
            })
        };
        let t = Tail::windowed(&v, stolen);
        assert_eq!(t.n, 5000);
        assert!((t.p50 - 1.5).abs() < 0.01, "{}", t.p50);
        assert!(t.p99.unwrap() < 2.0);
        // Without steal data every window is pooled.
        assert!(Tail::windowed(&v, unknown).p99.unwrap() > 10.0);
        assert!(Tail::windowed(&v[..999], unknown).p99.is_none());
        assert!(Tail::windowed(&v[..1500], unknown).p99.is_some());
        assert!(Tail::windowed(&v[..4999], unknown).p99.is_some());
        // On a host stolen throughout, the least-stolen half still counts.
        let busy = |r: std::ops::Range<usize>| Some(0.1 + r.start as f64 / 1e5);
        let t = Tail::windowed(&v, busy);
        assert!(t.p99.is_some());
        assert!(t.p50 < 2.0, "{}", t.p50);
    }

    #[test]
    fn quiet_median_keeps_the_least_stolen_half() {
        let items = [
            (10.0, Some(0.3)),
            (1.0, Some(0.0)),
            (2.0, Some(0.01)),
            (9.0, Some(0.2)),
        ];
        assert_eq!(quiet_median(&items), 1.5);
        let busy = [
            (10.0, Some(0.3)),
            (4.0, Some(0.05)),
            (3.0, Some(0.04)),
            (9.0, Some(0.2)),
            (8.0, Some(0.1)),
        ];
        assert_eq!(quiet_median(&busy), 4.0);
        // Ties spread over the run: every other item first.
        assert_eq!(quiet(&[Some(0.0); 4]), vec![true, false, true, false]);
        let unknown = [(10.0, None), (1.0, Some(0.0)), (3.0, Some(0.01))];
        assert_eq!(quiet_median(&unknown), 3.0);
    }
}
