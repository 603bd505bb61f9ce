//! The run report: metrics, stamps, checks, and the in-memory span log.

use crate::manifest;
use serde::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything one run measured and checked.
pub struct Report {
    /// Operations attempted (repair attempts, served requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(&'static str, Value)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Records a metric; `name` must be declared in the manifest.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            manifest::get().declares(name),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.metrics.insert(name, value);
    }

    /// Records a stamp or a detail that is not a metric.
    pub fn info(&mut self, key: &'static str, value: Value) {
        self.info.push((key, value));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics the result line carries, with their units: every
    /// end-to-end metric untraced, every per-layer metric traced (layers the
    /// workload does not drive read 0).  A missing end-to-end metric is a
    /// bug in the workload and is reported as a problem.
    fn result_metrics(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let manifest = manifest::get();
        let mut out = Vec::new();
        if traced {
            for m in &manifest.per_layer {
                let value = self.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
                out.push((m.name.as_str(), value, m.unit.as_str()));
            }
        } else {
            for m in &manifest.end_to_end {
                let (name, unit) = (m.name.as_str(), m.unit.as_str());
                match self.metrics.get(name) {
                    Some(&v) if v.is_finite() && v != 0.0 => out.push((name, v, unit)),
                    other => {
                        self.problems
                            .push(format!("end-to-end metric {name} measured as {other:?}"));
                        out.push((name, 0.0, unit));
                    }
                }
            }
        }
        out
    }

    /// The detailed report (stamps, details, problems), the result line,
    /// and whether every check passed.
    pub fn finish(mut self, traced: bool) -> (Value, String, bool) {
        let metrics = self.result_metrics(traced);
        let metric_obj = |with_unit: bool| {
            Value::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        let v = if with_unit {
                            Value::obj([
                                ("value", Value::Num(value)),
                                ("unit", Value::Str(unit.into())),
                            ])
                        } else {
                            Value::Num(value)
                        };
                        (name.to_owned(), v)
                    })
                    .collect(),
            )
        };
        // Written by hand so that the counts print as JSON integers.
        let result = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metric_obj(true).to_json()
        );
        let mut detail: Vec<(String, Value)> = self
            .info
            .drain(..)
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        detail.push(("metrics".into(), metric_obj(false)));
        detail.push((
            "problems".into(),
            Value::Arr(
                self.problems
                    .iter()
                    .map(|p| Value::Str(p.clone()))
                    .collect(),
            ),
        ));
        (Value::Obj(detail), result, self.problems.is_empty())
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Span id (index in the log).
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// The attempt or request it belongs to.
    pub op: u64,
    /// Start, seconds since the log's epoch.
    pub start_s: f64,
    /// End, seconds since the log's epoch (`NaN` while open).
    pub end_s: f64,
}

impl Span {
    /// Its duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.duration_s()
    }

    /// Records an already-measured interval (e.g. a client request).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: None,
            op,
            start_s: at(start),
            end_s: at(end),
        });
    }

    /// The span `id`.
    #[cfg(test)]
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The direct children of span `id` (always opened after it).
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans[id..]
            .iter()
            .filter(move |s| s.parent == Some(id))
    }

    /// Total duration of the direct children of `id`.
    pub fn children_s(&self, id: usize) -> f64 {
        self.children(id).map(Span::duration_s).sum()
    }

    /// Self time per stage name: each span's duration minus the part its
    /// direct children cover (children never overlap here: every stage
    /// runs to completion before the next opens).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_total = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_total[p] += s.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.duration_s() - child_total[s.id];
        }
        out
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let v = Value::obj([
                ("name", Value::Str(s.name.into())),
                ("id", Value::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op", Value::Num(s.op as f64)),
                ("start_s", Value::Num(s.start_s)),
                ("end_s", Value::Num(s.end_s)),
            ]);
            out.push_str(&v.to_json());
            out.push('\n');
        }
        out
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let root = log.open("attempt", None, 0);
        let child = log.open("lp_solve", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        log.close(child);
        log.close(root);
        let selfs = log.self_times();
        let total = log.get(root).duration_s();
        assert!((selfs["attempt"] + selfs["lp_solve"] - total).abs() < 1e-12);
        assert!(selfs["lp_solve"] >= 0.005);
        assert_eq!(log.children_s(root), log.get(child).duration_s());
        assert_eq!(log.to_json_lines().lines().count(), 2);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::new();
        report.attempted = 3;
        let e2e = &manifest::get().end_to_end;
        for m in e2e {
            report.metric(&m.name, 1.5);
        }
        let (_, line, _) = report.finish(false);
        let v = Value::parse(&line).unwrap();
        let Value::Obj(pairs) = &v else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").unwrap();
        for m in e2e {
            assert_eq!(
                metrics.get(&m.name).unwrap().get("unit").unwrap().as_str(),
                Some(m.unit.as_str())
            );
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let mut report = Report::new();
        report.metric("setup_s", 0.5);
        let (_, line, _) = report.finish(false);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        // The traced line carries every per-layer metric, 0 when unset.
        let (_, line, _) = Report::new().finish(true);
        let v = Value::parse(&line).unwrap();
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), manifest::get().per_layer.len());
    }
}
