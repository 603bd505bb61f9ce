//! Order statistics and failure accounting shared by every workload.

/// Percentiles a tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `q · n`
/// samples at or below it.  `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The 1-based nearest rank of percentile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// A tail percentile chosen from [`TAIL_LADDER`], with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, as a fraction (0.99 for p99).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples in total.
    pub count: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest ladder percentile that leaves at least [`TAIL_MIN_BEYOND`]
/// samples beyond it.  When the sample is too small for any rung, the
/// median is used and `beyond` says how thin it is.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let q = TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n - rank(n, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5);
    Some(Tail {
        q,
        value: percentile(samples, q)?,
        count: n,
        beyond: n - rank(n, q),
    })
}

/// Outcome of one timed operation in a fixed sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attempt {
    /// Succeeded after this many seconds.
    Ok(f64),
    /// Failed (an error, or a result that violates its spec) after this many
    /// seconds of real time.
    Failed(f64),
}

/// The penalised cost of an attempt: its real time when it succeeded, the
/// fixed time-out charge when it failed.  Failing faster therefore never
/// reads as a speed-up, and turning a failure into a success inside the
/// charge does.
pub fn charged_seconds(attempt: Attempt, timeout_charge_s: f64) -> f64 {
    match attempt {
        Attempt::Ok(s) => s,
        Attempt::Failed(_) => timeout_charge_s,
    }
}

/// Total charged time of a sequence of attempts.
pub fn charged_total(attempts: &[Attempt], timeout_charge_s: f64) -> f64 {
    attempts
        .iter()
        .map(|&a| charged_seconds(a, timeout_charge_s))
        .sum()
}

/// Per operation of a fixed sequence that ran several times: the median of
/// its charged times, and the median of its successful times (0 when it
/// never succeeded).  Summed over the sequence they give one pass's
/// `repair_s` and `repair_ok_s`.
pub fn sequence_medians(runs: &[Vec<Attempt>], timeout_charge_s: f64) -> (Vec<f64>, Vec<f64>) {
    runs.iter()
        .map(|r| {
            let charged: Vec<f64> = r
                .iter()
                .map(|&a| charged_seconds(a, timeout_charge_s))
                .collect();
            let ok: Vec<f64> = r
                .iter()
                .filter_map(|&a| match a {
                    Attempt::Ok(s) => Some(s),
                    Attempt::Failed(_) => None,
                })
                .collect();
            (median(&charged).unwrap_or(0.0), median(&ok).unwrap_or(0.0))
        })
        .unzip()
}

/// Share of attempts that succeeded; `None` when nothing was attempted.
pub fn ok_fraction(attempted: usize, failed: usize) -> Option<f64> {
    (attempted > 0).then(|| (attempted - failed.min(attempted)) as f64 / attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        let t = tail(&sample(10_000)).unwrap();
        assert_eq!((t.q, t.count, t.beyond), (0.999, 10_000, 10));
        assert_eq!(t.value, 9990.0);
        // 9 999 samples: p99.9 would leave 9, so p99 (99 beyond).
        let t = tail(&sample(9_999)).unwrap();
        assert_eq!((t.q, t.beyond), (0.99, 99));
        // 1 000 samples: p99 leaves exactly 10.
        let t = tail(&sample(1_000)).unwrap();
        assert_eq!((t.q, t.beyond), (0.99, 10));
        // 200 samples: p95 leaves 10.
        assert_eq!(tail(&sample(200)).unwrap().q, 0.95);
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&sample(40)).unwrap().q, 0.75);
        // 20 samples: only the median leaves 10.
        let t = tail(&sample(20)).unwrap();
        assert_eq!((t.q, t.beyond), (0.5, 10));
        // Too few for any rung: the median, flagged by `beyond`.
        let t = tail(&sample(7)).unwrap();
        assert_eq!((t.q, t.beyond, t.value), (0.5, 3, 4.0));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn failures_are_charged_the_timeout_not_their_time() {
        let charge = 10.0;
        let seq = [Attempt::Ok(1.0), Attempt::Failed(4.5), Attempt::Ok(0.5)];
        assert_eq!(charged_total(&seq, charge), 11.5);
        // Failing faster does not read as a speed-up...
        let faster_failure = [Attempt::Ok(1.0), Attempt::Failed(0.1), Attempt::Ok(0.5)];
        assert_eq!(charged_total(&faster_failure, charge), 11.5);
        // ...and fixing the failure inside the charge does.
        let fixed = [Attempt::Ok(1.0), Attempt::Ok(2.4), Attempt::Ok(0.5)];
        assert!(charged_total(&fixed, charge) < charged_total(&seq, charge));
        // Per operation over three passes: the charged median keeps the
        // charge, the successful median ignores the failures.
        let runs = vec![
            vec![Attempt::Ok(1.0), Attempt::Ok(3.0), Attempt::Ok(2.0)],
            vec![
                Attempt::Failed(4.5),
                Attempt::Failed(4.4),
                Attempt::Failed(4.6),
            ],
            vec![Attempt::Ok(0.5), Attempt::Failed(0.1), Attempt::Ok(0.7)],
        ];
        let (charged, ok) = sequence_medians(&runs, charge);
        assert_eq!(charged, [2.0, 10.0, 0.7]);
        assert_eq!(ok, [2.0, 0.0, 0.5]);
        assert_eq!(ok_fraction(8, 1), Some(0.875));
        assert_eq!(ok_fraction(3, 0), Some(1.0));
        assert_eq!(ok_fraction(0, 0), None);
    }
}
