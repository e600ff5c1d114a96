//! Exporter round-trips: JSON and CSV output must parse back into an
//! identical [`Snapshot`]. Also sanity-checks the text exporter and the
//! parsers' error paths.

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
    let mut snap = reg.snapshot();
    snap.push_derived("events_per_sec", 123456.789);
    snap.push_derived("instructions_per_sec", 9.875e8);
    snap
}

#[test]
fn json_round_trips() {
    let snap = sample_snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("parse back");
    assert_eq!(snap, back);
}

#[test]
fn csv_round_trips() {
    let snap = sample_snapshot();
    let csv = snap.to_csv();
    let back = Snapshot::from_csv(&csv).expect("parse back");
    assert_eq!(snap, back);
}

#[test]
fn empty_snapshot_round_trips() {
    let snap = Snapshot::default();
    assert_eq!(Snapshot::from_json(&snap.to_json()).expect("json"), snap);
    assert_eq!(Snapshot::from_csv(&snap.to_csv()).expect("csv"), snap);
}

#[test]
fn large_u64_counters_survive_json() {
    // Values beyond f64's 2^53 integer precision must not be mangled.
    let reg = Registry::new();
    reg.counter("big").add_always(u64::MAX - 1);
    let snap = reg.snapshot();
    let back = Snapshot::from_json(&snap.to_json()).expect("parse");
    assert_eq!(back.counter("big"), Some(u64::MAX - 1));
}

#[test]
fn json_escapes_are_handled() {
    let parsed = Snapshot::from_json("{\"counters\": {\"weird\\\"name\\n\": 7}, \"gauges\": {}}")
        .expect("parse");
    assert_eq!(parsed.counter("weird\"name\n"), Some(7));
}

#[test]
fn text_exporter_mentions_every_section() {
    let text = sample_snapshot().to_text();
    assert!(text.contains("counters:"));
    assert!(text.contains("machine.instructions.retired"));
    assert!(text.contains("gauges:"));
    assert!(text.contains("histograms:"));
    assert!(text.contains("le +inf"));
    assert!(text.contains("spans:"));
    assert!(text.contains("harness.table4"));
    assert!(text.contains("derived:"));
}

#[test]
fn malformed_inputs_error_cleanly() {
    assert!(Snapshot::from_json("{").is_err());
    assert!(Snapshot::from_json("{\"counters\": [1]}").is_err());
    assert!(Snapshot::from_json("{\"counters\": {\"x\": -1}}").is_err());
    assert!(Snapshot::from_json("{\"bogus\": {}}").is_err());
    // Hostile nesting is a parse error, not a stack overflow.
    let deep = format!("{{\"counters\": {}", "[".repeat(200_000));
    assert!(Snapshot::from_json(&deep).is_err());
    assert!(Snapshot::from_csv("kind,name,field,value\nbogus,x,value,1").is_err());
    assert!(Snapshot::from_csv("kind,name,field,value\ncounter,x,value,notanum").is_err());
}

#[test]
fn non_finite_derived_values_are_dropped() {
    let mut snap = Snapshot::default();
    snap.push_derived("ok", 1.5);
    snap.push_derived("bad", f64::INFINITY);
    snap.push_derived("worse", f64::NAN);
    assert_eq!(snap.derived.len(), 1);
}
