//! Point-in-time snapshots and their exporters. Text is for humans;
//! CSV and JSON are machine-readable and parse back losslessly (the
//! round-trip is pinned by tests), which is what lets `results/perf.json`
//! serve as a benchmark trajectory across PRs without any serde
//! dependency.

use crate::json::{self, Value};
use std::fmt;
use std::str::FromStr;

/// One histogram bucket: inclusive upper bound (`None` = `+inf`) and
/// the number of recorded values that landed in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    pub le: Option<u64>,
    pub count: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<BucketSnapshot>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// A point-in-time copy of a [`crate::Registry`], plus optional derived
/// rates (e.g. events/sec) attached by the caller before export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: Vec<SpanSnapshot>,
    pub derived: Vec<(String, f64)>,
}

impl Snapshot {
    /// Value of a named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A named span snapshot, if present.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// A named histogram snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Attach a derived metric. Non-finite values are dropped (they
    /// cannot round-trip through JSON).
    pub fn push_derived(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.derived.push((name.to_string(), value));
        }
    }

    // ------------------------------------------------------------------
    // Text
    // ------------------------------------------------------------------

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::from("== telemetry snapshot ==\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("  {n:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (n, v) in &self.gauges {
                out.push_str(&format!("  {n:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} count={} sum={}\n",
                    h.name, h.count, h.sum
                ));
                for b in &h.buckets {
                    match b.le {
                        Some(le) => out.push_str(&format!("    le {le:<10} {}\n", b.count)),
                        None => out.push_str(&format!("    le +inf      {}\n", b.count)),
                    }
                }
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<44} count={} total={:.3}ms\n",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6
                ));
            }
        }
        if !self.derived.is_empty() {
            out.push_str("derived:\n");
            for (n, v) in &self.derived {
                out.push_str(&format!("  {n:<44} {v:.3}\n"));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // CSV
    // ------------------------------------------------------------------

    /// `kind,name,field,value` rows (instrument names never contain
    /// commas; they are `&'static str` identifiers chosen in-tree).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (n, v) in &self.counters {
            out.push_str(&format!("counter,{n},value,{v}\n"));
        }
        for (n, v) in &self.gauges {
            out.push_str(&format!("gauge,{n},value,{v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("histogram,{},count,{}\n", h.name, h.count));
            out.push_str(&format!("histogram,{},sum,{}\n", h.name, h.sum));
            for b in &h.buckets {
                match b.le {
                    Some(le) => {
                        out.push_str(&format!("histogram,{},le:{le},{}\n", h.name, b.count))
                    }
                    None => out.push_str(&format!("histogram,{},le:inf,{}\n", h.name, b.count)),
                }
            }
        }
        for s in &self.spans {
            out.push_str(&format!("span,{},count,{}\n", s.name, s.count));
            out.push_str(&format!("span,{},total_ns,{}\n", s.name, s.total_ns));
        }
        for (n, v) in &self.derived {
            out.push_str(&format!("derived,{n},value,{v}\n"));
        }
        out
    }

    /// Parse a snapshot back from [`Snapshot::to_csv`] output.
    pub fn from_csv(text: &str) -> Result<Snapshot, ParseError> {
        let mut snap = Snapshot::default();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.is_empty() {
                continue;
            }
            let err = |msg: &str| ParseError::new(format!("csv line {}: {msg}", i + 1));
            let mut parts = line.splitn(4, ',');
            let (kind, name, field, value) =
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(k), Some(n), Some(f), Some(v)) => (k, n, f, v),
                    _ => return Err(err("expected kind,name,field,value")),
                };
            let as_u64 =
                |v: &str| -> Result<u64, ParseError> { v.parse().map_err(|_| err("bad u64")) };
            match (kind, field) {
                ("counter", "value") => snap.counters.push((name.to_string(), as_u64(value)?)),
                ("gauge", "value") => snap
                    .gauges
                    .push((name.to_string(), value.parse().map_err(|_| err("bad i64"))?)),
                ("derived", "value") => snap
                    .derived
                    .push((name.to_string(), value.parse().map_err(|_| err("bad f64"))?)),
                ("histogram", _) => {
                    if snap.histograms.last().map(|h| h.name.as_str()) != Some(name) {
                        snap.histograms.push(HistogramSnapshot {
                            name: name.to_string(),
                            count: 0,
                            sum: 0,
                            buckets: Vec::new(),
                        });
                    }
                    let h = snap.histograms.last_mut().expect("just pushed");
                    match field {
                        "count" => h.count = as_u64(value)?,
                        "sum" => h.sum = as_u64(value)?,
                        _ => {
                            let le = field
                                .strip_prefix("le:")
                                .ok_or_else(|| err("unknown histogram field"))?;
                            let le = if le == "inf" {
                                None
                            } else {
                                Some(le.parse().map_err(|_| err("bad bucket bound"))?)
                            };
                            h.buckets.push(BucketSnapshot {
                                le,
                                count: as_u64(value)?,
                            });
                        }
                    }
                }
                ("span", _) => {
                    if snap.spans.last().map(|s| s.name.as_str()) != Some(name) {
                        snap.spans.push(SpanSnapshot {
                            name: name.to_string(),
                            count: 0,
                            total_ns: 0,
                        });
                    }
                    let s = snap.spans.last_mut().expect("just pushed");
                    match field {
                        "count" => s.count = as_u64(value)?,
                        "total_ns" => s.total_ns = as_u64(value)?,
                        _ => return Err(err("unknown span field")),
                    }
                }
                _ => return Err(err("unknown kind/field")),
            }
        }
        Ok(snap)
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    /// JSON object with `counters` / `gauges` / `histograms` / `spans` /
    /// `derived` sections. Histogram buckets are `[le, count]` pairs
    /// with `null` as the `+inf` bound.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_json_map(&mut out, &self.counters, |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_json_map(&mut out, &self.gauges, |v| v.to_string());
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json::quote(&h.name),
                h.count,
                h.sum
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match b.le {
                    Some(le) => out.push_str(&format!("[{le}, {}]", b.count)),
                    None => out.push_str(&format!("[null, {}]", b.count)),
                }
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"total_ns\": {}}}",
                json::quote(&s.name),
                s.count,
                s.total_ns
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"derived\": {");
        push_json_map(&mut out, &self.derived, |v| {
            debug_assert!(v.is_finite());
            format!("{v}")
        });
        out.push_str("}\n}\n");
        out
    }

    /// Parse a snapshot back from [`Snapshot::to_json`] output (accepts
    /// any standard JSON with the same shape).
    pub fn from_json(text: &str) -> Result<Snapshot, ParseError> {
        let value = json::parse(text).map_err(ParseError::new)?;
        let root = object(&value, "top level")?;
        let mut snap = Snapshot::default();
        for (key, section) in root {
            match key.as_str() {
                "counters" => {
                    for (n, v) in object(section, "counters")? {
                        snap.counters
                            .push((n.clone(), number(v, "counter value", "u64")?));
                    }
                }
                "gauges" => {
                    for (n, v) in object(section, "gauges")? {
                        snap.gauges
                            .push((n.clone(), number(v, "gauge value", "i64")?));
                    }
                }
                "histograms" => {
                    for (n, v) in object(section, "histograms")? {
                        let fields = object(v, "histogram")?;
                        let mut h = HistogramSnapshot {
                            name: n.clone(),
                            count: 0,
                            sum: 0,
                            buckets: Vec::new(),
                        };
                        for (f, fv) in fields {
                            match f.as_str() {
                                "count" => h.count = number(fv, "histogram count", "u64")?,
                                "sum" => h.sum = number(fv, "histogram sum", "u64")?,
                                "buckets" => {
                                    for pair in array(fv, "buckets")? {
                                        let pair = array(pair, "bucket pair")?;
                                        if pair.len() != 2 {
                                            return Err(ParseError::new(
                                                "bucket pair must have 2 elements",
                                            ));
                                        }
                                        let le = if pair[0] == Value::Null {
                                            None
                                        } else {
                                            Some(number(&pair[0], "bucket bound", "u64")?)
                                        };
                                        h.buckets.push(BucketSnapshot {
                                            le,
                                            count: number(&pair[1], "bucket count", "u64")?,
                                        });
                                    }
                                }
                                other => {
                                    return Err(ParseError::new(format!(
                                        "unknown histogram field {other:?}"
                                    )))
                                }
                            }
                        }
                        snap.histograms.push(h);
                    }
                }
                "spans" => {
                    for (n, v) in object(section, "spans")? {
                        let fields = object(v, "span")?;
                        let mut s = SpanSnapshot {
                            name: n.clone(),
                            count: 0,
                            total_ns: 0,
                        };
                        for (f, fv) in fields {
                            match f.as_str() {
                                "count" => s.count = number(fv, "span count", "u64")?,
                                "total_ns" => s.total_ns = number(fv, "span total_ns", "u64")?,
                                other => {
                                    return Err(ParseError::new(format!(
                                        "unknown span field {other:?}"
                                    )))
                                }
                            }
                        }
                        snap.spans.push(s);
                    }
                }
                "derived" => {
                    for (n, v) in object(section, "derived")? {
                        snap.derived
                            .push((n.clone(), number(v, "derived value", "f64")?));
                    }
                }
                other => return Err(ParseError::new(format!("unknown section {other:?}"))),
            }
        }
        Ok(snap)
    }
}

fn push_json_map<V: Copy>(out: &mut String, entries: &[(String, V)], fmt: impl Fn(V) -> String) {
    for (i, (n, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {}", json::quote(n), fmt(*v)));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

/// `v` as a JSON object, or a [`ParseError`] naming `what`.
fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], ParseError> {
    v.as_object()
        .ok_or_else(|| ParseError::new(format!("{what}: expected object")))
}

/// `v` as a JSON array, or a [`ParseError`] naming `what`.
fn array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ParseError> {
    v.as_array()
        .ok_or_else(|| ParseError::new(format!("{what}: expected array")))
}

/// `v`'s number text parsed as `T` (named `ty` in the error), or a
/// [`ParseError`] naming `what`.
fn number<T: FromStr>(v: &Value, what: &str, ty: &str) -> Result<T, ParseError> {
    match v {
        Value::Num(raw) => raw
            .parse()
            .map_err(|_| ParseError::new(format!("{what}: expected {ty}, got {raw}"))),
        _ => Err(ParseError::new(format!("{what}: expected number"))),
    }
}

/// Error from [`Snapshot::from_json`] / [`Snapshot::from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "telemetry parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}
