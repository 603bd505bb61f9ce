//! Reading the server's Prometheus text exposition (the `metrics` request).

use std::collections::BTreeMap;

/// One scrape: plain samples by full series name, and histogram buckets by
/// `family{labels}` (labels without `le`), sorted by upper bound.
pub struct Scrape {
    samples: BTreeMap<String, f64>,
    buckets: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Scrape {
    /// Parses an exposition; comment lines are skipped.
    ///
    /// # Errors
    ///
    /// Names the first line that is not `series value`.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = BTreeMap::new();
        let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed sample line {line:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("malformed sample value in {line:?}"))?;
            if let Some((family, labels)) = series.split_once("_bucket{") {
                let labels = labels.trim_end_matches('}');
                let mut le = None;
                let mut rest = Vec::new();
                for part in labels.split(',') {
                    match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
                        Some(v) => le = Some(v),
                        None => rest.push(part),
                    }
                }
                let le = match le.ok_or_else(|| format!("bucket without le: {line:?}"))? {
                    "+Inf" => f64::INFINITY,
                    v => v.parse().map_err(|_| format!("malformed le in {line:?}"))?,
                };
                let key = if rest.is_empty() {
                    family.to_owned()
                } else {
                    format!("{family}{{{}}}", rest.join(","))
                };
                buckets.entry(key).or_default().push((le, value));
            } else {
                samples.insert(series.to_owned(), value);
            }
        }
        for b in buckets.values_mut() {
            b.sort_by(|x, y| x.0.total_cmp(&y.0));
        }
        Ok(Scrape { samples, buckets })
    }

    /// A plain sample (counter or gauge), 0 when absent.
    pub fn value(&self, series: &str) -> f64 {
        self.samples.get(series).copied().unwrap_or(0.0)
    }

    /// Mean of the unlabelled histogram `family` (its `_sum` over its
    /// `_count`), 0 when empty.
    pub fn mean(&self, family: &str) -> f64 {
        let count = self.value(&format!("{family}_count"));
        if count > 0.0 {
            self.value(&format!("{family}_sum")) / count
        } else {
            0.0
        }
    }

    /// Quantile `q` of histogram `series`: the upper bound of the bucket
    /// holding the nearest-rank sample (the server's own rule); 0 when empty.
    pub fn quantile(&self, series: &str, q: f64) -> f64 {
        let Some(b) = self.buckets.get(series) else {
            return 0.0;
        };
        let total = b.last().map_or(0.0, |&(_, cum)| cum);
        if total == 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().clamp(1.0, total);
        b.iter()
            .filter(|(le, _)| le.is_finite())
            .find(|&&(_, cum)| cum >= rank)
            .or_else(|| b.iter().rev().find(|(le, _)| le.is_finite()))
            .map_or(0.0, |&(le, _)| le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP prdnn_cache_hits_total hits
# TYPE prdnn_cache_hits_total counter
prdnn_cache_hits_total 30
prdnn_wal_fsync_seconds_bucket{le=\"0.001\"} 6
prdnn_wal_fsync_seconds_bucket{le=\"0.002\"} 9
prdnn_wal_fsync_seconds_bucket{le=\"+Inf\"} 10
prdnn_wal_fsync_seconds_sum 0.015
prdnn_wal_fsync_seconds_count 10
prdnn_request_seconds_bucket{kind=\"eval\",le=\"0.0005\"} 4
prdnn_request_seconds_bucket{kind=\"eval\",le=\"+Inf\"} 4
";

    #[test]
    fn parses_counters_and_histogram_quantiles() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.value("prdnn_cache_hits_total"), 30.0);
        assert_eq!(s.value("prdnn_absent_total"), 0.0);
        assert_eq!(s.quantile("prdnn_wal_fsync_seconds", 0.5), 0.001);
        assert_eq!(s.quantile("prdnn_wal_fsync_seconds", 0.9), 0.002);
        // The rank falls in +Inf: the largest finite bound.
        assert_eq!(s.quantile("prdnn_wal_fsync_seconds", 1.0), 0.002);
        assert!((s.mean("prdnn_wal_fsync_seconds") - 0.0015).abs() < 1e-15);
        assert_eq!(
            s.quantile("prdnn_request_seconds{kind=\"eval\"}", 0.5),
            0.0005
        );
        assert_eq!(s.quantile("prdnn_missing_seconds", 0.5), 0.0);
        assert!(Scrape::parse("no_value_here").is_err());
    }
}
