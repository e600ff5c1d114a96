//! Point-in-time snapshots and their exporters. Text is for humans;
//! CSV and JSON are for scripts (`repro --telemetry csv|json`). The JSON
//! form reads back with the crate's own [`json`] codec.

use crate::json;

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

/// A point-in-time copy of a [`crate::Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: Vec<SpanSnapshot>,
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
        out
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    /// JSON object with `counters` / `gauges` / `histograms` / `spans`
    /// sections. Histogram buckets are `[le, count]` pairs with `null` as
    /// the `+inf` bound.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_json_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_json_map(&mut out, &self.gauges);
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
        out.push_str("}\n}\n");
        out
    }
}

fn push_json_map<V: std::fmt::Display>(out: &mut String, entries: &[(String, V)]) {
    for (i, (n, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {v}", json::quote(n)));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}
