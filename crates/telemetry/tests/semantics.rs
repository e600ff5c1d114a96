//! Instrument semantics: counters, gauges, histograms, spans, registry
//! get-or-create behavior, reset, and the enable gate.

use databp_telemetry::{global, set_enabled, Counter, Registry};
use std::sync::Mutex;

/// Tests that flip the process-wide enable flag serialize on this lock
/// (integration tests in one binary run multi-threaded).
static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
    let _g = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(true);
    let r = f();
    set_enabled(false);
    r
}

#[test]
fn counter_counts_and_resets() {
    let reg = Registry::new();
    let c = reg.counter("test.counter");
    c.inc_always();
    c.add_always(4);
    assert_eq!(c.get(), 5);
    // Same name returns the same underlying instrument.
    assert_eq!(reg.counter("test.counter").get(), 5);
    reg.reset();
    assert_eq!(c.get(), 0);
}

#[test]
fn gauge_goes_up_and_down() {
    let reg = Registry::new();
    let g = reg.gauge("test.gauge");
    g.add_always(10);
    g.add_always(-3);
    assert_eq!(g.get(), 7);
    reg.reset();
    assert_eq!(g.get(), 0);
}

#[test]
fn histogram_buckets_values_by_upper_bound() {
    let reg = Registry::new();
    let h = reg.histogram("test.hist", &[1, 4, 16]);
    for v in [0, 1, 2, 4, 5, 100] {
        h.record_always(v);
    }
    assert_eq!(h.count(), 6);
    assert_eq!(h.sum(), 112);
    let buckets = h.buckets();
    // le=1 gets {0,1}; le=4 gets {2,4}; le=16 gets {5}; +inf gets {100}.
    assert_eq!(buckets[0], (Some(1), 2));
    assert_eq!(buckets[1], (Some(4), 2));
    assert_eq!(buckets[2], (Some(16), 1));
    assert_eq!(buckets[3], (None, 1));
}

#[test]
fn span_accumulates_count_and_time() {
    let reg = Registry::new();
    let s = reg.span("test.span");
    s.record_ns(120);
    s.record_ns(80);
    assert_eq!(s.count(), 2);
    assert_eq!(s.total_ns(), 200);
    with_enabled(|| {
        let guard = s.start();
        std::hint::black_box(17u64 * 3);
        drop(guard);
    });
    assert_eq!(s.count(), 3);
    assert!(s.total_ns() >= 200);
}

#[test]
fn disabled_gated_ops_record_nothing() {
    // The default state is disabled; gated operations are no-ops.
    let reg = Registry::new();
    let _g = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(false);
    let c = reg.counter("test.gated.counter");
    let g = reg.gauge("test.gated.gauge");
    let h = reg.histogram("test.gated.hist", &[10]);
    let s = reg.span("test.gated.span");
    c.inc();
    c.add(100);
    g.add(5);
    g.set(9);
    h.record(3);
    drop(s.start());
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(s.count(), 0);
}

#[test]
fn enabled_gated_ops_record() {
    let reg = Registry::new();
    let c = reg.counter("test.enabled.counter");
    let h = reg.histogram("test.enabled.hist", &[10]);
    with_enabled(|| {
        c.inc();
        c.add(2);
        h.record(7);
    });
    assert_eq!(c.get(), 3);
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), 7);
}

#[test]
fn snapshot_is_sorted_and_complete() {
    let reg = Registry::new();
    reg.counter("zeta").add_always(1);
    reg.counter("alpha").add_always(2);
    reg.gauge("mid").add_always(-4);
    reg.histogram("h", &[2]).record_always(1);
    reg.span("s").record_ns(10);
    let snap = reg.snapshot();
    let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["alpha", "zeta"]);
    assert_eq!(snap.counter("alpha"), Some(2));
    assert_eq!(snap.gauge("mid"), Some(-4));
    assert_eq!(snap.histogram("h").expect("h").count, 1);
    assert_eq!(snap.span("s").expect("s").total_ns, 10);
    assert_eq!(snap.counter("missing"), None);
}

#[test]
fn macros_register_in_global_registry() {
    with_enabled(|| {
        databp_telemetry::count!("test.macro.counter");
        databp_telemetry::count!("test.macro.counter", 9);
        databp_telemetry::gauge_add!("test.macro.gauge", -2);
        databp_telemetry::observe!("test.macro.hist", &[8, 64], 5);
        {
            let _t = databp_telemetry::time!("test.macro.span");
            std::hint::black_box(1 + 1);
        }
    });
    let snap = global().snapshot();
    assert_eq!(snap.counter("test.macro.counter"), Some(10));
    assert_eq!(snap.gauge("test.macro.gauge"), Some(-2));
    assert_eq!(snap.histogram("test.macro.hist").expect("hist").count, 1);
    let span = snap.span("test.macro.span").expect("span");
    assert_eq!(span.count, 1);
}

#[test]
fn clones_share_state() {
    let a = Counter::detached();
    let b = a.clone();
    a.inc_always();
    b.inc_always();
    assert_eq!(a.get(), 2);
}
