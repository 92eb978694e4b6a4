//! Machine-readable benchmark baselines.
//!
//! Every figure bench emits, alongside its plain-text rows, a JSON
//! baseline at `<QNP_BASELINE_DIR>/<figure>.json` (default
//! `target/qnp-bench/`) recording the run configuration, one record per
//! plotted point, and run metadata. `cargo run --example bench_diff`
//! compares two baseline directories and flags throughput/latency
//! regressions; CI runs it against the committed `baselines/` reference.
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

/// Which way a metric should move to count as an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// e.g. throughput, completed requests.
    HigherIsBetter,
    /// e.g. latency, wall-clock.
    LowerIsBetter,
    /// Recorded but never flagged as a regression (e.g. a cutoff value).
    Informational,
}

impl Direction {
    fn as_str(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher_is_better",
            Direction::LowerIsBetter => "lower_is_better",
            Direction::Informational => "informational",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "higher_is_better" => Some(Direction::HigherIsBetter),
            "lower_is_better" => Some(Direction::LowerIsBetter),
            "informational" => Some(Direction::Informational),
            _ => None,
        }
    }
}

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
    /// Per-metric improvement direction (drives regression flagging).
    pub directions: Vec<(String, Direction)>,
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
            directions: Vec::new(),
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

    /// Declare a metric's improvement direction.
    pub fn direction(mut self, metric: &str, direction: Direction) -> Self {
        self.directions.push((metric.to_string(), direction));
        self
    }

    /// Append a point record.
    pub fn point(&mut self, label: impl Into<String>, metrics: &[(&str, f64)]) {
        self.points.push(PointRecord {
            label: label.into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// The direction declared for `metric` (default: informational).
    pub fn direction_of(&self, metric: &str) -> Direction {
        self.directions
            .iter()
            .find(|(m, _)| m == metric)
            .map(|(_, d)| *d)
            .unwrap_or(Direction::Informational)
    }

    /// Serialise to the baseline JSON schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("figure".into(), Json::Str(self.figure.clone())),
            ("config".into(), Json::Obj(self.config.clone())),
            (
                "directions".into(),
                Json::Obj(
                    self.directions
                        .iter()
                        .map(|(m, d)| (m.clone(), Json::Str(d.as_str().into())))
                        .collect(),
                ),
            ),
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
        let directions = json
            .get("directions")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .map(|(m, v)| {
                let d = v
                    .as_str()
                    .and_then(Direction::from_str)
                    .ok_or_else(|| format!("bad direction for metric {m:?}"))?;
                Ok((m.clone(), d))
            })
            .collect::<Result<Vec<_>, String>>()?;
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
            directions,
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

/// How one metric moved between two baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Worse than the reference beyond tolerance, per the metric's
    /// declared direction.
    Regression,
    /// Better than the reference beyond tolerance.
    Improvement,
    /// Moved beyond tolerance, no direction declared (or NaN ↔ value).
    Change,
    /// Point or metric present in the reference but not the candidate.
    Missing,
    /// Point or metric present in the candidate but not the reference.
    New,
}

/// One flagged metric movement.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Point label the metric belongs to.
    pub point: String,
    /// Metric name.
    pub metric: String,
    /// Reference value (NaN when [`DiffKind::New`]).
    pub reference: f64,
    /// Candidate value (NaN when [`DiffKind::Missing`]).
    pub candidate: f64,
    /// `(candidate - reference) / |reference|` (NaN if undefined).
    pub rel_change: f64,
    /// Classification.
    pub kind: DiffKind,
}

/// The comparison of one figure's baselines.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Flagged entries, in point order.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Number of regressions.
    pub fn regressions(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == DiffKind::Regression)
            .count()
    }

    /// Number of reference points/metrics absent from the candidate —
    /// structural coverage loss, which a blocking gate should also fail
    /// on (a metric that vanishes can't regress any other way).
    pub fn missing(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == DiffKind::Missing)
            .count()
    }

    /// True if nothing moved beyond tolerance at all.
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

/// Compare `candidate` against `reference`: every metric of every point
/// whose relative movement exceeds `tolerance` is flagged, classified by
/// the metric's declared direction (the reference's declaration wins).
/// NaN ↔ NaN is never flagged; NaN ↔ value always is.
pub fn diff_baselines(reference: &Baseline, candidate: &Baseline, tolerance: f64) -> DiffReport {
    let mut report = DiffReport::default();
    let find = |b: &Baseline, label: &str| -> Option<PointRecord> {
        b.points.iter().find(|p| p.label == label).cloned()
    };

    let mut labels: Vec<String> = Vec::new();
    let mut seen = BTreeSet::new();
    for p in reference.points.iter().chain(&candidate.points) {
        if seen.insert(p.label.clone()) {
            labels.push(p.label.clone());
        }
    }

    for label in labels {
        let (rp, cp) = (find(reference, &label), find(candidate, &label));
        match (rp, cp) {
            (Some(rp), Some(cp)) => {
                let mut metrics: Vec<String> = Vec::new();
                let mut seen = BTreeSet::new();
                for (m, _) in rp.metrics.iter().chain(&cp.metrics) {
                    if seen.insert(m.clone()) {
                        metrics.push(m.clone());
                    }
                }
                for metric in metrics {
                    let rv = rp
                        .metrics
                        .iter()
                        .find(|(m, _)| *m == metric)
                        .map(|(_, v)| *v);
                    let cv = cp
                        .metrics
                        .iter()
                        .find(|(m, _)| *m == metric)
                        .map(|(_, v)| *v);
                    match (rv, cv) {
                        (Some(rv), Some(cv)) => {
                            if let Some(entry) =
                                classify(&label, &metric, rv, cv, reference, tolerance)
                            {
                                report.entries.push(entry);
                            }
                        }
                        (Some(rv), None) => report.entries.push(DiffEntry {
                            point: label.clone(),
                            metric,
                            reference: rv,
                            candidate: f64::NAN,
                            rel_change: f64::NAN,
                            kind: DiffKind::Missing,
                        }),
                        (None, Some(cv)) => report.entries.push(DiffEntry {
                            point: label.clone(),
                            metric,
                            reference: f64::NAN,
                            candidate: cv,
                            rel_change: f64::NAN,
                            kind: DiffKind::New,
                        }),
                        (None, None) => unreachable!("metric came from one of the two"),
                    }
                }
            }
            (Some(_), None) => report.entries.push(DiffEntry {
                point: label.clone(),
                metric: "*".into(),
                reference: f64::NAN,
                candidate: f64::NAN,
                rel_change: f64::NAN,
                kind: DiffKind::Missing,
            }),
            (None, Some(_)) => report.entries.push(DiffEntry {
                point: label.clone(),
                metric: "*".into(),
                reference: f64::NAN,
                candidate: f64::NAN,
                rel_change: f64::NAN,
                kind: DiffKind::New,
            }),
            (None, None) => unreachable!("label came from one of the two"),
        }
    }
    report
}

fn classify(
    label: &str,
    metric: &str,
    rv: f64,
    cv: f64,
    reference: &Baseline,
    tolerance: f64,
) -> Option<DiffEntry> {
    if rv.is_nan() && cv.is_nan() {
        return None;
    }
    let entry = |rel: f64, kind: DiffKind| DiffEntry {
        point: label.to_string(),
        metric: metric.to_string(),
        reference: rv,
        candidate: cv,
        rel_change: rel,
        kind,
    };
    if rv.is_nan() != cv.is_nan() {
        // A directional metric vanishing into NaN (e.g. "no request
        // completed any more") is the worst possible regression, not a
        // neutral change; NaN recovering into a value is the converse.
        let kind = match reference.direction_of(metric) {
            Direction::Informational => DiffKind::Change,
            _ if cv.is_nan() => DiffKind::Regression,
            _ => DiffKind::Improvement,
        };
        return Some(entry(f64::NAN, kind));
    }
    let rel = if rv == cv {
        0.0
    } else if rv == 0.0 {
        f64::INFINITY * (cv - rv).signum()
    } else {
        (cv - rv) / rv.abs()
    };
    if rel.abs() <= tolerance {
        return None;
    }
    let kind = match reference.direction_of(metric) {
        Direction::Informational => DiffKind::Change,
        Direction::HigherIsBetter => {
            if rel < 0.0 {
                DiffKind::Regression
            } else {
                DiffKind::Improvement
            }
        }
        Direction::LowerIsBetter => {
            if rel > 0.0 {
                DiffKind::Regression
            } else {
                DiffKind::Improvement
            }
        }
    };
    Some(entry(rel, kind))
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
            .config_str("case", "empty")
            .direction("throughput", Direction::HigherIsBetter)
            .direction("latency_s", Direction::LowerIsBetter);
        b.point("x=1", &[("throughput", 4.25), ("latency_s", 0.5)]);
        b.point("x=2", &[("throughput", f64::NAN), ("latency_s", 0.75)]);
        let parsed = Baseline::parse(&b.to_json().to_pretty_string()).unwrap();
        assert_eq!(parsed.figure, "fig_test");
        assert_eq!(parsed.directions, b.directions);
        assert_eq!(parsed.points[0], b.points[0]);
        // NaN survives as NaN (PartialEq would fail, so check by hand).
        assert!(parsed.points[1].metrics[0].1.is_nan());
        assert_eq!(parsed.points[1].metrics[1].1, 0.75);
    }

    #[test]
    fn diff_flags_direction_aware_regressions() {
        let mut reference = Baseline::new("f")
            .direction("thr", Direction::HigherIsBetter)
            .direction("lat", Direction::LowerIsBetter);
        reference.point("p", &[("thr", 10.0), ("lat", 1.0)]);
        let mut candidate = reference.clone();
        candidate.points[0].metrics = vec![("thr".into(), 8.0), ("lat".into(), 1.3)];
        let report = diff_baselines(&reference, &candidate, 0.05);
        assert_eq!(report.regressions(), 2);
        // Improvements are flagged but not regressions.
        candidate.points[0].metrics = vec![("thr".into(), 12.0), ("lat".into(), 0.7)];
        let report = diff_baselines(&reference, &candidate, 0.05);
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.entries.len(), 2);
        assert!(report
            .entries
            .iter()
            .all(|e| e.kind == DiffKind::Improvement));
    }

    #[test]
    fn value_vanishing_into_nan_is_a_regression() {
        let mut reference = Baseline::new("f")
            .direction("thr", Direction::HigherIsBetter)
            .direction("note", Direction::Informational);
        reference.point("p", &[("thr", 10.0), ("note", 1.0)]);
        let mut candidate = reference.clone();
        candidate.points[0].metrics = vec![("thr".into(), f64::NAN), ("note".into(), f64::NAN)];
        let report = diff_baselines(&reference, &candidate, 0.05);
        assert_eq!(report.regressions(), 1, "directional value -> NaN");
        assert!(report
            .entries
            .iter()
            .any(|e| e.metric == "note" && e.kind == DiffKind::Change));
        // And the converse: NaN recovering into a value is an improvement.
        let report = diff_baselines(&candidate, &reference, 0.05);
        assert_eq!(report.regressions(), 0);
        assert!(report
            .entries
            .iter()
            .any(|e| e.metric == "thr" && e.kind == DiffKind::Improvement));
    }

    #[test]
    fn diff_within_tolerance_is_clean() {
        let mut reference = Baseline::new("f").direction("thr", Direction::HigherIsBetter);
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
        let mut base = Baseline::new("fig").direction("thr", Direction::HigherIsBetter);
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
        let kinds: Vec<DiffKind> = report.entries.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![DiffKind::Missing, DiffKind::New]);
    }
}
