//! The one parser for the `metrics` endpoint's Prometheus text.
//!
//! [`Scrape::parse`] parses and lints an exposition in one pass: every
//! line must be a `# HELP`, a `# TYPE` or a `prdnn_<name>[{labels}]
//! <value>` sample; every sample family must carry both comments;
//! counters must wear the `_total` suffix and be integral; and every
//! histogram series must be internally consistent (cumulative buckets
//! monotone, `+Inf` equal to `_count`, `_sum` present).  The first
//! violation comes back as an error, never a panic, so the parser is safe
//! to point at any server.  The end-to-end tests and `servebench` read
//! counters through it.

use std::collections::{BTreeMap, BTreeSet};

/// One histogram series' cumulative buckets: `(upper bound, cumulative
/// count)`, sorted by bound, ending at `+Inf`.
type Buckets = Vec<(f64, u64)>;

/// A parsed and linted `metrics` exposition.
#[derive(Debug)]
pub struct Scrape {
    /// Every sample, keyed by its full name (labels included).
    samples: BTreeMap<String, f64>,
    /// Every announced family's TYPE, keyed by bare name.
    types: BTreeMap<String, String>,
    /// Histogram family → label set (without `le`) → buckets.
    histograms: BTreeMap<String, BTreeMap<String, Buckets>>,
}

/// `family_suffix` or `family_suffix{labels}`: the exposition name of
/// one histogram component sample.
fn suffixed(family: &str, suffix: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("{family}_{suffix}")
    } else {
        format!("{family}_{suffix}{{{labels}}}")
    }
}

fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// All of `family`'s series: label set (without `le`) → buckets.
fn histogram_series(
    samples: &BTreeMap<String, f64>,
    family: &str,
) -> Result<BTreeMap<String, Buckets>, String> {
    let prefix = format!("{family}_bucket{{");
    let mut series: BTreeMap<String, Buckets> = BTreeMap::new();
    for (key, &value) in samples {
        let Some(inner) = key
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix('}'))
        else {
            continue;
        };
        let mut le = None;
        let mut labels = Vec::new();
        // Label values here never contain commas or escaped quotes, so a
        // flat split is a faithful parse.
        for part in inner.split(',') {
            match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
                Some(v) => le = Some(v),
                None => labels.push(part),
            }
        }
        let le = match le.ok_or_else(|| format!("bucket sample without le: {key}"))? {
            "+Inf" => f64::INFINITY,
            le => le
                .parse()
                .map_err(|_| format!("unparsable le {le:?} in {key}"))?,
        };
        series
            .entry(labels.join(","))
            .or_default()
            .push((le, value as u64));
    }
    for buckets in series.values_mut() {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    Ok(series)
}

impl Scrape {
    /// Parses and lints one exposition (see the module docs for the
    /// rules).  It must also hold at least 30 samples and 6 histogram
    /// families, so an empty or truncated scrape is an error.
    ///
    /// # Errors
    ///
    /// A message naming the first violation.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut helps: BTreeSet<String> = BTreeSet::new();
        let mut samples: BTreeMap<String, f64> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let malformed = || format!("malformed HELP line: {line:?}");
                let (name, help) = rest.split_once(' ').ok_or_else(malformed)?;
                ensure(name.starts_with("prdnn_") && !help.is_empty(), malformed)?;
                ensure(helps.insert(name.to_owned()), || {
                    format!("duplicate HELP for {name}")
                })?;
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let malformed = || format!("malformed TYPE line: {line:?}");
                let (name, kind) = rest.split_once(' ').ok_or_else(malformed)?;
                ensure(matches!(kind, "counter" | "gauge" | "histogram"), || {
                    format!("unknown TYPE {kind:?} for {name}")
                })?;
                ensure(name.starts_with("prdnn_"), malformed)?;
                ensure(
                    types.insert(name.to_owned(), kind.to_owned()).is_none(),
                    || format!("duplicate TYPE for {name}"),
                )?;
            } else if line.starts_with('#') || line.is_empty() {
                return Err(format!("unexpected line in exposition: {line:?}"));
            } else {
                let (name, value) = line
                    .rsplit_once(' ')
                    .ok_or_else(|| format!("malformed sample line: {line:?}"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("non-numeric sample value: {line:?}"))?;
                ensure(value.is_finite() && value >= 0.0, || {
                    format!("sample value out of range: {line:?}")
                })?;
                ensure(name.starts_with("prdnn_"), || {
                    format!("sample outside the prdnn_ namespace: {line:?}")
                })?;
                ensure(samples.insert(name.to_owned(), value).is_none(), || {
                    format!("duplicate sample {name}")
                })?;
            }
        }
        ensure(samples.len() >= 30, || {
            format!("metrics scrape returned only {} samples", samples.len())
        })?;

        // Every sample must resolve to an announced family of the right
        // shape; every announced family must carry both comments.
        for family in &helps {
            ensure(types.contains_key(family), || {
                format!("family {family} has HELP but no TYPE")
            })?;
        }
        for (name, value) in &samples {
            let base = name.split('{').next().unwrap_or(name);
            let family = if types.contains_key(base) {
                base
            } else {
                let stripped = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|s| base.strip_suffix(s))
                    .ok_or_else(|| format!("sample {name} has no TYPE"))?;
                ensure(
                    types.get(stripped).map(String::as_str) == Some("histogram"),
                    || format!("sample {name} is a histogram component of an unannounced family"),
                )?;
                stripped
            };
            ensure(helps.contains(family), || {
                format!("family {family} has TYPE but no HELP")
            })?;
            if types[family] == "counter" {
                ensure(family.ends_with("_total"), || {
                    format!("counter {family} is missing the _total suffix")
                })?;
                ensure(value.fract() == 0.0, || {
                    format!("counter {name} is not integral: {value}")
                })?;
            }
        }

        let mut histograms = BTreeMap::new();
        for (family, _) in types.iter().filter(|(_, kind)| *kind == "histogram") {
            let series = histogram_series(&samples, family)?;
            ensure(!series.is_empty(), || {
                format!("histogram {family} exported no series")
            })?;
            for (labels, buckets) in &series {
                let component = |suffix: &str| {
                    samples
                        .get(&suffixed(family, suffix, labels))
                        .copied()
                        .ok_or_else(|| format!("{family}{{{labels}}}: no _{suffix}"))
                };
                let count = component("count")? as u64;
                let sum = component("sum")?;
                let (last_le, last_cum) = buckets[buckets.len() - 1];
                ensure(last_le.is_infinite(), || {
                    format!("{family}{{{labels}}}: no +Inf bucket")
                })?;
                ensure(last_cum == count, || {
                    format!("{family}{{{labels}}}: +Inf bucket disagrees with _count")
                })?;
                for pair in buckets.windows(2) {
                    let ((le0, cum0), (le1, cum1)) = (pair[0], pair[1]);
                    ensure(le1 > le0, || {
                        format!("{family}{{{labels}}}: bucket bounds not strictly increasing")
                    })?;
                    ensure(cum1 >= cum0, || {
                        format!("{family}{{{labels}}}: cumulative counts decreased at le={le1}")
                    })?;
                }
                ensure(count > 0 || sum == 0.0, || {
                    format!("{family}{{{labels}}}: empty series with nonzero _sum")
                })?;
            }
            histograms.insert(family.clone(), series);
        }
        ensure(histograms.len() >= 6, || {
            format!(
                "expected at least 6 histogram families, scrape exposes {}",
                histograms.len()
            )
        })?;
        Ok(Scrape {
            samples,
            types,
            histograms,
        })
    }

    /// The sample named `name` (labels included, e.g.
    /// `prdnn_request_seconds_count{kind="eval"}`), if the scrape has it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).copied()
    }

    /// The sample named `name`.
    ///
    /// # Panics
    ///
    /// If the scrape has no such sample.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metrics scrape is missing {name}"))
    }

    /// The sample named `name` as an integer count (counters, gauges and
    /// histogram `_count`s).
    ///
    /// # Panics
    ///
    /// If the scrape has no such sample.
    pub fn counter(&self, name: &str) -> u64 {
        self.value(name) as u64
    }

    /// Every announced family as `(name, TYPE)`, sorted by name.
    pub fn families(&self) -> impl Iterator<Item = (&str, &str)> {
        self.types.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The version label stamped on `prdnn_build_info`.
    pub fn build_version(&self) -> Option<&str> {
        self.samples.keys().find_map(|k| {
            k.strip_prefix("prdnn_build_info{version=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
        })
    }

    /// The `_count` of one histogram series (`labels` as rendered, e.g.
    /// `kind="eval"`, or empty).
    ///
    /// # Panics
    ///
    /// If the scrape has no such series.
    pub fn histogram_count(&self, family: &str, labels: &str) -> u64 {
        self.counter(&suffixed(family, "count", labels))
    }

    /// The `_sum` of one histogram series.
    ///
    /// # Panics
    ///
    /// If the scrape has no such series.
    pub fn histogram_sum(&self, family: &str, labels: &str) -> f64 {
        self.value(&suffixed(family, "sum", labels))
    }

    /// The inclusive upper bound (in the family's native unit: seconds
    /// for latency families) of the bucket holding the rank-`ceil(q*n)`
    /// value, mirroring the server's own quantile rule; 0 for an empty
    /// series.
    ///
    /// # Panics
    ///
    /// If the scrape has no such series.
    pub fn histogram_quantile(&self, family: &str, labels: &str, q: f64) -> f64 {
        let buckets = self
            .histograms
            .get(family)
            .and_then(|series| series.get(labels))
            .unwrap_or_else(|| panic!("no histogram series {family}{{{labels}}}"));
        let count = buckets.last().map_or(0, |&(_, cum)| cum);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        for &(le, cum) in buckets {
            if cum >= rank && le.is_finite() {
                return le;
            }
        }
        // Only reachable if the rank falls in +Inf (values clamped past
        // the histogram range); report the largest finite bound.
        buckets
            .iter()
            .rev()
            .find(|(le, _)| le.is_finite())
            .map_or(0.0, |&(le, _)| le)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_violations_are_errors_not_panics() {
        for (doc, needle) in [
            ("prdnn_x_total 1\n", "only 1 samples"),
            ("# HELP prdnn_x\n", "malformed HELP"),
            ("# TYPE prdnn_x summary\n", "unknown TYPE"),
            (
                "# TYPE prdnn_x counter\n# TYPE prdnn_x counter\n",
                "duplicate TYPE",
            ),
            ("# random comment\n", "unexpected line"),
            ("prdnn_x one\n", "non-numeric"),
            ("prdnn_x -1\n", "out of range"),
            ("other_x 1\n", "namespace"),
            ("prdnn_x 1\nprdnn_x 2\n", "duplicate sample"),
        ] {
            let err = Scrape::parse(doc).unwrap_err();
            assert!(err.contains(needle), "{doc:?}: {err}");
        }
    }
}
