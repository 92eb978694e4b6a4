//! Machine-readable benchmark baselines.
//!
//! Every figure bench emits, alongside its plain-text rows, a JSON
//! baseline at `<QNP_BASELINE_DIR>/<figure>.json` (default
//! `target/qnp-bench/`) recording the run configuration, one record per
//! plotted point, and run metadata. `cargo run --example bench_diff`
//! compares two baseline directories and fails on any metric that
//! differs beyond a relative tolerance, in either direction; CI runs it
//! against the committed `baselines/` reference.
//!
//! The build environment has no crates.io access, so the JSON encoder
//! and parser are hand-rolled here. Numbers are formatted with Rust's
//! shortest round-trip representation (`{:?}`), which makes the emitted
//! point values **bit-identical** across runs and thread counts as long
//! as the simulation itself is deterministic. NaN (e.g. "no requests
//! completed") encodes as `null`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// JSON value
// ---------------------------------------------------------------------

/// A JSON value. Objects preserve insertion order so emitted baselines
/// are deterministic and diff cleanly in git.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values encode as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number value; `null` reads back as NaN (the inverse of encoding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialise with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escapes unsupported")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

/// One plotted point: a label (the x-coordinate / panel / series) and
/// its metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct PointRecord {
    /// Stable identifier, e.g. `"empty/interval_ms=500"`.
    pub label: String,
    /// Metric name → value, insertion-ordered.
    pub metrics: Vec<(String, f64)>,
}

/// A figure's machine-readable baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// The figure/bench name; also the output file stem.
    pub figure: String,
    /// Knob settings the run was produced with.
    pub config: Vec<(String, Json)>,
    /// One record per plotted point, in plot order.
    pub points: Vec<PointRecord>,
    /// Run metadata (timestamps, thread counts…); never diffed.
    pub meta: Vec<(String, Json)>,
}

impl Baseline {
    /// Start a baseline for `figure`.
    pub fn new(figure: &str) -> Self {
        Baseline {
            figure: figure.to_string(),
            config: Vec::new(),
            points: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Record a config knob.
    pub fn config_num(mut self, key: &str, value: f64) -> Self {
        self.config.push((key.to_string(), Json::Num(value)));
        self
    }

    /// Record a string config knob.
    pub fn config_str(mut self, key: &str, value: &str) -> Self {
        self.config
            .push((key.to_string(), Json::Str(value.to_string())));
        self
    }

    /// Attach a numeric metadata entry (recorded, never diffed).
    pub fn meta_num(mut self, key: &str, value: f64) -> Self {
        self.meta.push((key.into(), Json::Num(value)));
        self
    }

    /// Attach a string metadata entry (recorded, never diffed).
    pub fn meta_str(mut self, key: &str, value: &str) -> Self {
        self.meta.push((key.into(), Json::Str(value.into())));
        self
    }

    /// Append a point record.
    pub fn point(&mut self, label: impl Into<String>, metrics: &[(&str, f64)]) {
        self.points.push(PointRecord {
            label: label.into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Serialise to the baseline JSON schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("figure".into(), Json::Str(self.figure.clone())),
            ("config".into(), Json::Obj(self.config.clone())),
            (
                "points".into(),
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(p.label.clone())),
                                (
                                    "metrics".into(),
                                    Json::Obj(
                                        p.metrics
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("meta".into(), Json::Obj(self.meta.clone())),
        ])
    }

    /// Parse a baseline from its JSON schema.
    pub fn from_json(json: &Json) -> Result<Baseline, String> {
        let figure = json
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("baseline missing \"figure\"")?
            .to_string();
        let config = json
            .get("config")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .to_vec();
        let mut points = Vec::new();
        for p in json
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("baseline missing \"points\"")?
        {
            let label = p
                .get("label")
                .and_then(Json::as_str)
                .ok_or("point missing \"label\"")?
                .to_string();
            let metrics = p
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("point missing \"metrics\"")?
                .iter()
                .map(|(k, v)| {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| format!("metric {k:?} is not a number"))?;
                    Ok((k.clone(), x))
                })
                .collect::<Result<Vec<_>, String>>()?;
            points.push(PointRecord { label, metrics });
        }
        let meta = json
            .get("meta")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .to_vec();
        Ok(Baseline {
            figure,
            config,
            points,
            meta,
        })
    }

    /// Parse from raw JSON text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        Baseline::from_json(&Json::parse(text)?)
    }

    /// Write to `<dir>/<figure>.json`, creating the directory. Standard
    /// run metadata (engine thread count, timestamp, crate version) is
    /// stamped in here.
    pub fn write_to(&mut self, dir: &Path) -> io::Result<PathBuf> {
        self.stamp_meta();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.figure));
        std::fs::write(&path, self.to_json().to_pretty_string())?;
        Ok(path)
    }

    /// Write to the default baseline directory ([`baseline_dir`]).
    pub fn write(&mut self) -> io::Result<PathBuf> {
        self.write_to(&baseline_dir())
    }

    fn stamp_meta(&mut self) {
        if self.meta.iter().any(|(k, _)| k == "qnp_threads") {
            return; // already stamped (re-write of the same baseline)
        }
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs() as f64)
            .unwrap_or(0.0);
        self.meta
            .push(("qnp_threads".into(), Json::Num(crate::threads() as f64)));
        self.meta
            .push(("generated_at_unix".into(), Json::Num(unix_secs)));
        self.meta.push((
            "qn_bench_version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ));
    }
}

/// The baseline output directory: `QNP_BASELINE_DIR`, default
/// `target/qnp-bench` under the workspace root (anchored at compile
/// time — bench executables run with the package dir, not the
/// workspace root, as their cwd).
pub fn baseline_dir() -> PathBuf {
    std::env::var_os("QNP_BASELINE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/qnp-bench"))
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// One metric that differs between two baselines.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Point label the metric belongs to.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Reference value; `None` when the reference lacks the point or
    /// the metric.
    pub reference: Option<f64>,
    /// Candidate value; `None` when the candidate lacks the point or
    /// the metric.
    pub candidate: Option<f64>,
}

impl DiffEntry {
    /// `(candidate - reference) / |reference|`, infinite from a zero
    /// reference and NaN when either side is absent or NaN.
    pub fn rel_change(&self) -> f64 {
        match (self.reference, self.candidate) {
            (Some(r), Some(c)) => rel_change(r, c),
            _ => f64::NAN,
        }
    }
}

/// The comparison of one figure's baselines.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Flagged entries, in point order.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// True if the two baselines agree within the tolerance.
    pub fn is_clean(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What became of one reference baseline in [`diff_dirs`].
#[derive(Clone, Debug)]
pub enum FigureDiff {
    /// The candidate directory has no file of that name: the bench was
    /// not run. Local runs of a subset of the benches rely on this.
    CandidateMissing,
    /// The reference or the candidate file could not be read or parsed:
    /// a gate failure, since it compares nothing.
    Unreadable(String),
    /// Both files parsed: the reference's point count and the diff.
    Compared {
        /// Points in the reference.
        points: usize,
        /// The metric-by-metric comparison.
        report: DiffReport,
    },
}

/// Diff every `*.json` baseline in the `reference` directory against the
/// candidate file of the same name, in file-name order. An error means
/// the reference directory itself could not be listed.
pub fn diff_dirs(
    reference: &Path,
    candidate: &Path,
    tolerance: f64,
) -> io::Result<Vec<(String, FigureDiff)>> {
    let mut figures: Vec<PathBuf> = std::fs::read_dir(reference)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    figures.sort();
    let load = |path: &Path| -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(figures
        .iter()
        .map(|ref_path| {
            let name = ref_path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            let cand_path = candidate.join(&name);
            let diff = if !cand_path.exists() {
                FigureDiff::CandidateMissing
            } else {
                match (load(ref_path), load(&cand_path)) {
                    (Ok(r), Ok(c)) => FigureDiff::Compared {
                        points: r.points.len(),
                        report: diff_baselines(&r, &c, tolerance),
                    },
                    (Err(e), _) | (_, Err(e)) => FigureDiff::Unreadable(e),
                }
            };
            (name, diff)
        })
        .collect())
}

/// Compare `candidate` against `reference`, metric by metric. Flagged
/// are a metric whose relative change exceeds `tolerance` in either
/// direction, a NaN on one side only, and a metric on one side only
/// (a point on one side only is flagged once per metric it carries).
/// NaN against NaN is equal.
pub fn diff_baselines(reference: &Baseline, candidate: &Baseline, tolerance: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let mut labels = BTreeSet::new();
    for label in reference
        .points
        .iter()
        .chain(&candidate.points)
        .map(|p| &p.label)
    {
        if !labels.insert(label) {
            continue;
        }
        let rp = reference.points.iter().find(|p| &p.label == label);
        let cp = candidate.points.iter().find(|p| &p.label == label);
        let mut metrics = BTreeSet::new();
        for (metric, _) in rp.into_iter().chain(cp).flat_map(|p| &p.metrics) {
            if !metrics.insert(metric) {
                continue;
            }
            let (rv, cv) = (value(rp, metric), value(cp, metric));
            let flagged = match (rv, cv) {
                (Some(r), Some(c)) => {
                    r.is_nan() != c.is_nan() || rel_change(r, c).abs() > tolerance
                }
                _ => true,
            };
            if flagged {
                report.entries.push(DiffEntry {
                    point: label.clone(),
                    metric: metric.clone(),
                    reference: rv,
                    candidate: cv,
                });
            }
        }
    }
    report
}

fn value(point: Option<&PointRecord>, metric: &str) -> Option<f64> {
    let (_, v) = point?.metrics.iter().find(|(m, _)| m == metric)?;
    Some(*v)
}

fn rel_change(r: f64, c: f64) -> f64 {
    if r == c {
        0.0
    } else if r.is_nan() || c.is_nan() {
        f64::NAN
    } else if r == 0.0 || r.is_infinite() {
        f64::INFINITY.copysign(c - r)
    } else {
        (c - r) / r.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("c".into(), Json::Str("x \"y\"\nz".into())),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Num(-3.0))]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn f64_encoding_is_bit_exact() {
        for x in [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -1.23456789e-200,
            9007199254740993.0,
        ] {
            let text = Json::Num(x).to_pretty_string();
            let back = Json::parse(text.trim()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x:?} via {text:?}");
        }
    }

    #[test]
    fn nan_encodes_as_null_and_reads_back_nan() {
        let text = Json::Num(f64::NAN).to_pretty_string();
        assert_eq!(text.trim(), "null");
        assert!(Json::parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn baseline_round_trips() {
        let mut b = Baseline::new("fig_test")
            .config_num("runs", 3.0)
            .config_str("case", "empty");
        b.point("x=1", &[("throughput", 4.25), ("latency_s", 0.5)]);
        b.point("x=2", &[("throughput", f64::NAN), ("latency_s", 0.75)]);
        let parsed = Baseline::parse(&b.to_json().to_pretty_string()).unwrap();
        assert_eq!(parsed.figure, "fig_test");
        assert_eq!(parsed.config, b.config);
        assert_eq!(parsed.points[0], b.points[0]);
        // NaN survives as NaN (PartialEq would fail, so check by hand).
        assert!(parsed.points[1].metrics[0].1.is_nan());
        assert_eq!(parsed.points[1].metrics[1].1, 0.75);
    }

    /// A fall and a rise past the tolerance are both flagged, whichever
    /// way the metric counts as better, and each entry's `rel_change`
    /// keeps which way it moved.
    #[test]
    fn diff_flags_direction_aware_regressions() {
        let mut reference = Baseline::new("f");
        reference.point("p", &[("thr", 10.0), ("lat", 1.0)]);
        let mut candidate = reference.clone();
        for ((thr, lat), moves) in [((8.0, 1.3), [-0.2, 0.3]), ((12.0, 0.7), [0.2, -0.3])] {
            candidate.points[0].metrics = vec![("thr".into(), thr), ("lat".into(), lat)];
            let report = diff_baselines(&reference, &candidate, 0.05);
            assert!(!report.is_clean());
            let flagged: Vec<_> = report
                .entries
                .iter()
                .map(|e| (e.metric.as_str(), e.reference, e.candidate))
                .collect();
            assert_eq!(
                flagged,
                [
                    ("thr", Some(10.0), Some(thr)),
                    ("lat", Some(1.0), Some(lat))
                ]
            );
            for (entry, moved) in report.entries.iter().zip(moves) {
                assert!((entry.rel_change() - moved).abs() < 1e-12, "{entry:?}");
            }
        }
    }

    /// A value turning NaN is flagged, and so is the converse, whether
    /// or not the metric was once declared informational.
    #[test]
    fn value_vanishing_into_nan_is_a_regression() {
        let mut reference = Baseline::new("f");
        reference.point("p", &[("thr", 10.0), ("note", 1.0)]);
        let mut candidate = reference.clone();
        candidate.points[0].metrics = vec![("thr".into(), f64::NAN), ("note".into(), f64::NAN)];
        for (r, c) in [(&reference, &candidate), (&candidate, &reference)] {
            let report = diff_baselines(r, c, 0.05);
            let metrics: Vec<_> = report.entries.iter().map(|e| e.metric.as_str()).collect();
            assert_eq!(metrics, ["thr", "note"]);
            assert!(report.entries.iter().all(|e| e.rel_change().is_nan()));
        }
    }

    /// At tolerance 0 any other difference is one flagged entry too: a
    /// parameter once recorded as informational, an added metric and an
    /// added point, and the converse of each. Moves inside the tolerance
    /// stay clean in either direction.
    #[test]
    fn diff_flags_any_difference_in_either_direction() {
        let mut reference = Baseline::new("f");
        reference.point(
            "p",
            &[("thr", 10.0), ("lat", 1.0), ("t2_s", 60.0), ("x", f64::NAN)],
        );
        type Edit = fn(&mut Baseline);
        let edits: [(&str, Edit); 3] = [
            ("parameter", |b| b.points[0].metrics[2].1 = 30.0),
            ("added metric", |b| {
                b.points[0].metrics.push(("new".into(), 1.0))
            }),
            ("added point", |b| b.point("q", &[("thr", 2.0)])),
        ];
        for (what, edit) in edits {
            let mut candidate = reference.clone();
            edit(&mut candidate);
            for (r, c, dir) in [
                (&reference, &candidate, ""),
                (&candidate, &reference, ", reversed"),
            ] {
                let report = diff_baselines(r, c, 0.0);
                assert!(!report.is_clean(), "{what}{dir}");
                assert_eq!(report.entries.len(), 1, "{what}{dir}: {:?}", report.entries);
            }
        }
        // NaN against NaN is equal, and 4% either way is inside 5%.
        assert!(diff_baselines(&reference, &reference, 0.0).is_clean());
        let mut candidate = reference.clone();
        candidate.points[0].metrics[0].1 = 10.4;
        candidate.points[0].metrics[1].1 = 0.96;
        assert!(diff_baselines(&reference, &candidate, 0.05).is_clean());
        assert_eq!(
            diff_baselines(&reference, &candidate, 0.03).entries.len(),
            2
        );
    }

    #[test]
    fn diff_within_tolerance_is_clean() {
        let mut reference = Baseline::new("f");
        reference.point("p", &[("thr", 100.0)]);
        let mut candidate = reference.clone();
        candidate.points[0].metrics = vec![("thr".into(), 99.0)];
        assert!(diff_baselines(&reference, &candidate, 0.05).is_clean());
    }

    #[test]
    fn diff_dirs_fails_unreadable_files_and_skips_missing_ones() {
        let root = std::env::temp_dir().join(format!("qn_bench_diff_dirs_{}", std::process::id()));
        let (ref_dir, cand_dir) = (root.join("ref"), root.join("cand"));
        std::fs::create_dir_all(&cand_dir).unwrap();
        let mut base = Baseline::new("fig");
        for i in 0..40 {
            base.point(format!("p{i}"), &[("thr", 1.0 + i as f64)]);
        }
        for name in ["a", "b", "c"] {
            base.figure = name.into();
            base.write_to(&ref_dir).unwrap();
        }
        // a: identical; b: truncated mid-file; c: not run.
        std::fs::copy(ref_dir.join("a.json"), cand_dir.join("a.json")).unwrap();
        let text = std::fs::read_to_string(ref_dir.join("b.json")).unwrap();
        std::fs::write(cand_dir.join("b.json"), &text[..text.len() / 2]).unwrap();
        // An unreadable reference fails the same way.
        std::fs::write(ref_dir.join("d.json"), "{").unwrap();
        std::fs::copy(ref_dir.join("a.json"), cand_dir.join("d.json")).unwrap();

        let diffs = diff_dirs(&ref_dir, &cand_dir, 0.0).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        let names: Vec<&str> = diffs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.json", "b.json", "c.json", "d.json"]);
        assert!(
            matches!(&diffs[0].1, FigureDiff::Compared { points: 40, report } if report.is_clean())
        );
        assert!(matches!(&diffs[1].1, FigureDiff::Unreadable(e) if e.contains("b.json")));
        assert!(matches!(diffs[2].1, FigureDiff::CandidateMissing));
        assert!(matches!(&diffs[3].1, FigureDiff::Unreadable(e) if e.contains("d.json")));
    }

    #[test]
    fn diff_reports_missing_and_new_points() {
        let mut reference = Baseline::new("f");
        reference.point("old", &[("m", 1.0)]);
        let mut candidate = Baseline::new("f");
        candidate.point("new", &[("m", 1.0)]);
        let report = diff_baselines(&reference, &candidate, 0.0);
        let sides: Vec<_> = report
            .entries
            .iter()
            .map(|e| (e.point.as_str(), e.reference, e.candidate))
            .collect();
        assert_eq!(sides, [("old", Some(1.0), None), ("new", None, Some(1.0))]);
    }
}
