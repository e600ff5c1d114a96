//! Exporter round-trips: `to_json` output, read back with the crate's
//! own JSON codec, carries every value of the [`Snapshot`] exactly; the
//! CSV rows and the text report are pinned line by line.

use databp_telemetry::json::{self, Value};
use databp_telemetry::{Registry, Snapshot};

fn sample_snapshot() -> Snapshot {
    let reg = Registry::new();
    reg.counter("machine.instructions.retired")
        .add_always(1234567);
    reg.counter("wms.lookups").add_always(42);
    reg.gauge("wms.monitors.active").add_always(-3);
    let h = reg.histogram("wms.pagemap.probe_depth", &[1, 2, 4, 8]);
    for v in [1, 1, 2, 3, 9, 40] {
        h.record_always(v);
    }
    let s = reg.span("harness.table4");
    s.record_ns(1_500_000);
    s.record_ns(2_500_000);
    reg.snapshot()
}

/// `to_json` output parsed back into a JSON value.
fn parsed(snap: &Snapshot) -> Value {
    json::parse(&snap.to_json()).expect("to_json emits valid JSON")
}

/// The member names of `section` in `root`, in order.
fn keys<'a>(root: &'a Value, section: &str) -> Vec<&'a str> {
    root.get(section)
        .and_then(Value::as_object)
        .unwrap_or_else(|| panic!("section {section:?} is an object"))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The member of `v` at `path`, one object key per step.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no member {key:?} in {v:?}"))
    })
}

/// The names of `entries`, in order.
fn names<V>(entries: &[(String, V)]) -> Vec<&str> {
    entries.iter().map(|(n, _)| n.as_str()).collect()
}

/// `v` as an exact integer: its number text parsed as `T`.
fn int<T: std::str::FromStr>(v: &Value) -> T {
    match v {
        Value::Num(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("{raw} is not an integer")),
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn json_round_trips() {
    let snap = sample_snapshot();
    let root = parsed(&snap);
    assert_eq!(
        root.as_object().expect("top level").len(),
        4,
        "exactly the four sections"
    );

    assert_eq!(keys(&root, "counters"), names(&snap.counters));
    for (n, v) in &snap.counters {
        assert_eq!(
            int::<u64>(at(&root, &["counters", n.as_str()])),
            *v,
            "counter {n}"
        );
    }
    assert_eq!(keys(&root, "gauges"), names(&snap.gauges));
    for (n, v) in &snap.gauges {
        assert_eq!(
            int::<i64>(at(&root, &["gauges", n.as_str()])),
            *v,
            "gauge {n}"
        );
    }

    assert_eq!(
        keys(&root, "histograms"),
        snap.histograms
            .iter()
            .map(|h| h.name.as_str())
            .collect::<Vec<_>>()
    );
    for h in &snap.histograms {
        let j = at(&root, &["histograms", h.name.as_str()]);
        assert_eq!(int::<u64>(at(j, &["count"])), h.count, "{} count", h.name);
        assert_eq!(int::<u64>(at(j, &["sum"])), h.sum, "{} sum", h.name);
        let buckets = at(j, &["buckets"]).as_array().expect("buckets array");
        assert_eq!(buckets.len(), h.buckets.len(), "{} buckets", h.name);
        for (pair, b) in buckets.iter().zip(&h.buckets) {
            let pair = pair.as_array().expect("[le, count] pair");
            assert_eq!(pair.len(), 2);
            match b.le {
                Some(le) => assert_eq!(int::<u64>(&pair[0]), le),
                None => assert_eq!(pair[0], Value::Null, "+inf bound is null"),
            }
            assert_eq!(int::<u64>(&pair[1]), b.count, "{} le {:?}", h.name, b.le);
        }
    }

    assert_eq!(
        keys(&root, "spans"),
        snap.spans
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
    );
    for s in &snap.spans {
        let j = at(&root, &["spans", s.name.as_str()]);
        assert_eq!(int::<u64>(at(j, &["count"])), s.count, "{} count", s.name);
        assert_eq!(
            int::<u64>(at(j, &["total_ns"])),
            s.total_ns,
            "{} total_ns",
            s.name
        );
    }
}

#[test]
fn csv_round_trips() {
    // One row per value, in snapshot order, under the fixed header.
    assert_eq!(
        sample_snapshot().to_csv(),
        "kind,name,field,value\n\
         counter,machine.instructions.retired,value,1234567\n\
         counter,wms.lookups,value,42\n\
         gauge,wms.monitors.active,value,-3\n\
         histogram,wms.pagemap.probe_depth,count,6\n\
         histogram,wms.pagemap.probe_depth,sum,56\n\
         histogram,wms.pagemap.probe_depth,le:1,2\n\
         histogram,wms.pagemap.probe_depth,le:2,1\n\
         histogram,wms.pagemap.probe_depth,le:4,1\n\
         histogram,wms.pagemap.probe_depth,le:8,0\n\
         histogram,wms.pagemap.probe_depth,le:inf,2\n\
         span,harness.table4,count,2\n\
         span,harness.table4,total_ns,4000000\n"
    );
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = Snapshot::default();
    let root = parsed(&snap);
    for section in ["counters", "gauges", "histograms", "spans"] {
        assert!(keys(&root, section).is_empty(), "{section}");
    }
    assert_eq!(snap.to_csv(), "kind,name,field,value\n");
    assert_eq!(snap.to_text(), "== telemetry snapshot ==\n");
}

#[test]
fn large_u64_counters_survive_json() {
    // Values beyond f64's 2^53 integer precision must not be mangled.
    let reg = Registry::new();
    reg.counter("big").add_always(u64::MAX - 1);
    let root = parsed(&reg.snapshot());
    assert_eq!(
        *at(&root, &["counters", "big"]),
        Value::Num((u64::MAX - 1).to_string())
    );
    assert_eq!(int::<u64>(at(&root, &["counters", "big"])), u64::MAX - 1);
}

#[test]
fn json_escapes_are_handled() {
    let name = "weird\"name\n";
    let mut snap = Snapshot::default();
    snap.counters.push((name.to_string(), 7));
    snap.gauges.push((name.to_string(), -7));
    let root = parsed(&snap);
    assert_eq!(keys(&root, "counters"), [name]);
    assert_eq!(int::<u64>(at(&root, &["counters", name])), 7);
    assert_eq!(int::<i64>(at(&root, &["gauges", name])), -7);
}

#[test]
fn text_exporter_mentions_every_section() {
    let text = sample_snapshot().to_text();
    let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
    let pad = |n: &str| format!("  {n:<44}");
    assert_eq!(
        lines,
        [
            "== telemetry snapshot ==".to_string(),
            "counters:".to_string(),
            format!("{} 1234567", pad("machine.instructions.retired")),
            format!("{} 42", pad("wms.lookups")),
            "gauges:".to_string(),
            format!("{} -3", pad("wms.monitors.active")),
            "histograms:".to_string(),
            format!("{} count=6 sum=56", pad("wms.pagemap.probe_depth")),
            "    le 1          2".to_string(),
            "    le 2          1".to_string(),
            "    le 4          1".to_string(),
            "    le 8          0".to_string(),
            "    le +inf      2".to_string(),
            "spans:".to_string(),
            format!("{} count=2 total=4.000ms", pad("harness.table4")),
        ]
    );
}
