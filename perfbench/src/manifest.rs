//! The benchmark's definition, read from `BENCHMARK.json` at the
//! repository root: workloads, metric names, units and bounds.
//!
//! The file is written by hand and compiled in.  [`load`] checks it against
//! the format's limits before a run starts, and the metric tables the run
//! reports against are built from it, so the file is the only place a
//! workload or metric is declared.

use serde::json::Value;
use std::sync::OnceLock;

/// `BENCHMARK.json`, as committed.
pub const TEXT: &str = include_str!("../../BENCHMARK.json");

/// A metric the manifest declares.
pub struct Metric {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
}

/// What a run needs from the manifest.
pub struct Manifest {
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// The gated end-to-end metrics, reported with tracing off.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics, reported by the traced run.
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// Validates `text` and extracts the tables.
    ///
    /// # Errors
    ///
    /// Names the first violation of the format.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        validate(text)?;
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let entries = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap_or(&[]);
        let field =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
        let metrics = |key: &str| {
            entries(key)
                .iter()
                .map(|m| Metric {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64,
            workloads: entries("workloads")
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        })
    }

    /// Whether `name` is a declared metric.
    pub fn declares(&self, name: &str) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|m| m.name == name)
    }
}

/// The committed manifest, or why it is out of contract.
pub fn load() -> Result<&'static Manifest, &'static str> {
    static MANIFEST: OnceLock<Result<Manifest, String>> = OnceLock::new();
    MANIFEST
        .get_or_init(|| Manifest::parse(TEXT))
        .as_ref()
        .map_err(String::as_str)
}

/// The committed manifest; `main` has already checked that it loads.
pub fn get() -> &'static Manifest {
    load().expect("BENCHMARK.json is out of contract")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_rel_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

fn list<'a>(doc: &'a Value, key: &str, lo: usize, hi: usize) -> Result<&'a [Value], String> {
    let items = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{key}: missing or not a list"))?;
    if items.len() < lo || items.len() > hi {
        return Err(format!("{key}: {} entries, want {lo} to {hi}", items.len()));
    }
    Ok(items)
}

/// Checks a `BENCHMARK.json` document against the format: exact key sets,
/// the name and unit charsets, the entry-count limits, unique names, and
/// a `setup_s` metric.
///
/// # Errors
///
/// Names the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    if text.len() > 64 * 1024 {
        return Err("file larger than 64 KiB".into());
    }
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    let mut found = keys(&doc);
    found.sort_unstable();
    let mut want = top.to_vec();
    want.sort_unstable();
    if found != want {
        return Err(format!("top-level keys {found:?}, want {want:?}"));
    }
    for arg in list(&doc, "command", 1, 32)? {
        let arg = arg.as_str().ok_or("command: not a string")?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
            return Err(format!("command: bad argument {arg:?}"));
        }
    }
    for path in list(&doc, "paths", 1, 16)? {
        let path = path.as_str().ok_or("paths: not a string")?;
        if !is_rel_path(path) {
            return Err(format!("paths: bad path {path:?}"));
        }
    }
    match doc.get("run_seconds").and_then(Value::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => {
            return Err(format!(
                "run_seconds: {other:?} is not a whole number in 1..=60"
            ))
        }
    }
    let mut names = std::collections::BTreeSet::new();
    let mut check_name = |name: Option<&str>| -> Result<(), String> {
        let name = name.ok_or("entry without a name")?;
        if !is_name(name) {
            return Err(format!("bad name {name:?}"));
        }
        if !names.insert(name.to_owned()) {
            return Err(format!("name {name:?} used twice"));
        }
        Ok(())
    };
    for w in list(&doc, "workloads", 2, 8)? {
        if keys(w) != ["name", "why"] {
            return Err(format!("workload keys {:?}", keys(w)));
        }
        check_name(w.get("name").and_then(Value::as_str))?;
        let why = w.get("why").and_then(Value::as_str).unwrap_or("");
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            return Err(format!(
                "workload why {why:?} is not one line of ≤200 characters"
            ));
        }
    }
    let metric = |m: &Value, want: &[&str]| -> Result<(), String> {
        if keys(m) != want {
            return Err(format!("metric keys {:?}, want {want:?}", keys(m)));
        }
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        if !is_unit(unit) {
            return Err(format!("bad unit {unit:?}"));
        }
        match m.get("better").and_then(Value::as_str) {
            Some("lower" | "higher") => Ok(()),
            other => Err(format!("bad better {other:?}")),
        }
    };
    let mut has_setup = false;
    for m in list(&doc, "end_to_end", 1, 16)? {
        metric(m, &["name", "unit", "better", "bound"])?;
        let name = m.get("name").and_then(Value::as_str);
        check_name(name)?;
        match m.get("bound").and_then(Value::as_f64) {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => return Err(format!("bound {other:?} outside (0, 0.25]")),
        }
        if name == Some("setup_s") {
            has_setup = m.get("unit").and_then(Value::as_str) == Some("s")
                && m.get("better").and_then(Value::as_str) == Some("lower");
        }
    }
    if !has_setup {
        return Err("no setup_s metric in s, lower is better".into());
    }
    for m in list(&doc, "per_layer", 1, 128)? {
        metric(m, &["name", "unit", "better"])?;
        check_name(m.get("name").and_then(Value::as_str))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_valid() {
        let m = load().unwrap();
        assert_eq!(m.workloads, ["task2_lines", "task1_points", "serve_mixed"]);
        assert!(m.declares("setup_s") && m.declares("lp.zero_pivot_solves"));
        assert!(!m.declares("no.such_metric"));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let doc = Value::parse(TEXT).unwrap();
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).unwrap();
        let name = |m: &Value| m.get("name").and_then(Value::as_str).unwrap().to_owned();
        let setup = e2e.iter().find(|m| name(m) == "setup_s").unwrap();
        assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        assert!(is_name("serve.cache.hit_ms_p50"));
        assert!(is_name("9lives-x"));
        assert!(!is_name("_leading"));
        assert!(!is_name("has space"));
        assert!(!is_name("pct%"));
        assert!(!is_name(&"x".repeat(65)));
        assert!(is_unit("1/s") && is_unit("%") && is_unit("count"));
        assert!(!is_unit("") && !is_unit("m s") && !is_unit(&"u".repeat(17)));
        assert!(is_rel_path("perfbench") && !is_rel_path("/abs") && !is_rel_path("a/../b"));
    }

    fn with(edit: impl Fn(&mut String)) -> Result<(), String> {
        let mut text = TEXT.to_owned();
        edit(&mut text);
        validate(&text)
    }

    #[test]
    fn validation_rejects_out_of_contract_files() {
        assert!(with(|_| {}).is_ok());
        // A metric name outside the charset.
        assert!(with(|t| *t = t.replace("\"ok_frac\"", "\"ok frac\"")).is_err());
        // A duplicated name.
        assert!(with(|t| *t = t.replace("\"lp.rows\"", "\"lp.cols\"")).is_err());
        // A bound above 0.25.
        assert!(with(|t| *t = t.replacen("\"bound\":0.", "\"bound\":0.9", 1)).is_err());
        // No setup_s.
        assert!(with(|t| *t = t.replace("\"setup_s\"", "\"set_up_s\"")).is_err());
        // An extra key.
        assert!(with(|t| *t = t.replacen("{\n", "{\n  \"extra\": 1,\n", 1)).is_err());
    }

    #[test]
    fn validation_enforces_count_limits() {
        let many_e2e: Vec<String> = (0..17)
            .map(|i| {
                format!("{{\"name\":\"m{i}\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.1}}")
            })
            .collect();
        let doc = format!(
            "{{\"command\":[\"cargo\"],\"paths\":[\"perfbench\"],\"run_seconds\":10,\
             \"workloads\":[{{\"name\":\"a\",\"why\":\"x\"}},{{\"name\":\"b\",\"why\":\"y\"}}],\
             \"end_to_end\":[{{\"name\":\"setup_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.2}},{}],\
             \"per_layer\":[{{\"name\":\"l\",\"unit\":\"count\",\"better\":\"higher\"}}]}}",
            many_e2e[..15].join(",")
        );
        assert!(validate(&doc).is_ok(), "{:?}", validate(&doc));
        let one_workload = doc.replace(",{\"name\":\"b\",\"why\":\"y\"}", "");
        assert!(validate(&one_workload).unwrap_err().contains("workloads"));
        let too_many = doc.replace(&many_e2e[14], &format!("{},{}", many_e2e[14], many_e2e[16]));
        assert!(validate(&too_many).unwrap_err().contains("end_to_end"));
        let per_layer: Vec<String> = (0..129)
            .map(|i| format!("{{\"name\":\"p{i}\",\"unit\":\"count\",\"better\":\"lower\"}}"))
            .collect();
        let too_many_layers = doc.replace(
            "{\"name\":\"l\",\"unit\":\"count\",\"better\":\"higher\"}",
            &per_layer.join(","),
        );
        assert!(validate(&too_many_layers)
            .unwrap_err()
            .contains("per_layer"));
    }
}
