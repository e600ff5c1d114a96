//! Pins the columnar DBPT codec on **real** traces — every bundled
//! workload (Table 1 set plus the benchmark corpus) rather than the
//! synthetic property-test traces in `databp-trace`. A trace that
//! survives DBPT encode → decode unchanged, meta blob included, is
//! exactly what the trace store, the server cache and `repro trace
//! convert` rely on.

use databp_trace::{read_columnar, write_columnar};
use databp_workloads::{prepare, Workload};

#[test]
fn dbpt_round_trip_is_lossless_on_all_bundled_workloads() {
    for w in Workload::all().into_iter().chain(Workload::bench()) {
        let w = w.scaled_down();
        let p = prepare(&w).expect("workload runs");
        assert!(!p.trace.is_empty(), "{}: empty trace", w.name);

        let mut bytes = Vec::new();
        write_columnar(&p.trace, b"converted", &mut bytes).expect("DBPT encode");
        let (back, meta) = read_columnar(&bytes).expect("DBPT decode");
        assert_eq!(back, p.trace, "{}: DBPT round trip diverged", w.name);
        assert_eq!(meta, b"converted");
    }
}
