//! Differential query-pushdown suite: random queries × random traces ×
//! random block boundaries, three independent answer paths, one result.
//!
//! For every generated (trace, query, block size) triple, the
//! event-at-a-time engine ([`databp_sim::run_query`]) is the oracle and
//! the zone-mapped pushdown scan ([`databp_sim::scan_query`]) must
//! reproduce its `QueryResult` exactly — sequentially (`jobs = 1`) and
//! with a parallel block fan-out (`jobs = 4`). A file whose zone-map
//! trailer is corrupted, cut short or missing is refused with
//! `ScanError::Codec`, never answered wrongly. Accounting invariants
//! ride along: every block is either scanned or skipped, and the write
//! total matches the trace.

use databp_core::WriterMap;
use databp_sim::{run_query, scan_query, ScanError};
use databp_trace::{write_columnar_with, Event, ObjectDesc, Trace};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    let write =
        (0u32..0x400, 0u32..0x8000, any::<u32>(), any::<u32>()).prop_map(|(pc, ba, value, old)| {
            Event::Write {
                pc: 0x1000 + pc * 4,
                ba: 0x10_0000 + ba * 4,
                ea: 0x10_0000 + ba * 4 + 4,
                value,
                old,
            }
        });
    prop_oneof![
        // Writes dominate real traces and are all a query inspects:
        // repeating the strategy weights the choice toward them.
        write.clone(),
        write.clone(),
        write.clone(),
        write.clone(),
        write,
        (1u32..64, 0u32..0x100).prop_map(|(id, ba)| Event::Install {
            obj: ObjectDesc::Global { id },
            ba: 0x20_0000 + ba * 16,
            ea: 0x20_0000 + ba * 16 + 16,
        }),
        (1u32..64, 0u32..0x100).prop_map(|(id, ba)| Event::Remove {
            obj: ObjectDesc::Global { id },
            ba: 0x20_0000 + ba * 16,
            ea: 0x20_0000 + ba * 16 + 16,
        }),
        (0u16..8).prop_map(|f| Event::Enter { func: f }),
        (0u16..8).prop_map(|f| Event::Exit { func: f }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_event(), 0..600).prop_map(Trace::from_events)
}

/// Query pool: every aggregation, predicates over every term the zone
/// maps bound (`value`, `old`, `hits`, `writer`), plus arithmetic the
/// interval evaluator must stay conservative on.
fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("count".to_string()),
        Just("first".to_string()),
        Just("last".to_string()),
        Just("hist".to_string()),
        Just("watch".to_string()),
        (0usize..5, any::<u32>()).prop_map(|(agg, k)| {
            let agg = ["count", "first", "last", "hist", "watch"][agg];
            format!("{agg} if value > {k}")
        }),
        (0u32..0x100).prop_map(|k| format!("count if old < {k}")),
        (0u64..3000).prop_map(|k| format!("count if hits > {k}")),
        (0u64..3000).prop_map(|k| format!("first if hits > {k}")),
        (0u16..8).prop_map(|f| format!("count if writer in f{f}")),
        (0u16..8, any::<u32>())
            .prop_map(|(f, k)| format!("last if writer in f{f} && value <= {k}")),
        (any::<u32>()).prop_map(|k| format!("hist if value - old > {k}")),
        (1u32..64).prop_map(|k| format!("count if value % {k} == 0")),
        Just("count if value == old + 1".to_string()),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| format!(
            "watch if value > {} && old < {}",
            a.min(b),
            a.max(b)
        )),
    ]
}

/// Function entries spread across the generated pc range so `writer in`
/// predicates see below-first-entry pcs, interior segments, and a
/// duplicate entry (last id wins).
fn writer_map() -> WriterMap {
    WriterMap::new([
        (0x1100, 0u16),
        (0x1300, 1u16),
        (0x1300, 2u16),
        (0x1500, 3u16),
        (0x1900, 4u16),
        (0x2000, 5u16),
    ])
}

fn resolve(name: &str) -> Option<u16> {
    name.strip_prefix('f').and_then(|s| s.parse().ok())
}

fn encoded(trace: &Trace, block_events: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    write_columnar_with(trace, b"pushdown-suite", &mut buf, block_events)
        .expect("in-memory encode");
    buf
}

/// Bytes of the zone-map trailer: 24 bytes of framing, 64 per block.
fn trailer_len(trace: &Trace, block_events: usize) -> usize {
    24 + 64 * trace.len().div_ceil(block_events)
}

fn assert_codec_error(bytes: &[u8], query: &str, ctx: &str) {
    for jobs in [1usize, 4] {
        let res = scan_query(bytes, query, resolve, &writer_map(), jobs);
        assert!(
            matches!(res, Err(ScanError::Codec(_))),
            "{ctx}: `{query}` with jobs={jobs} answered {res:?}"
        );
    }
}

fn check_all_paths(trace: &Trace, bytes: &[u8], query: &str, ctx: &str) {
    let writers = writer_map();
    let want = run_query(query, trace.events(), resolve, writers.clone())
        .expect("oracle accepts every generated query");
    let n_writes = trace
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Write { .. }))
        .count() as u64;
    for jobs in [1usize, 4] {
        let (got, stats) = scan_query(bytes, query, resolve, &writers, jobs)
            .expect("pushdown accepts every generated query");
        assert_eq!(got, want, "{ctx}: `{query}` diverged with jobs={jobs}");
        assert_eq!(
            stats.writes, n_writes,
            "{ctx}: `{query}` write accounting diverged with jobs={jobs}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equality: full scan == pushdown == parallel merge,
    /// under random block boundaries.
    #[test]
    fn pushdown_matches_full_scan(
        trace in arb_trace(),
        query in arb_query(),
        block_events in 1usize..96,
    ) {
        let bytes = encoded(&trace, block_events);
        check_all_paths(&trace, &bytes, &query, "trailered");
    }

    /// Corrupting any single byte of the zone-map trailer never changes
    /// an answer: the file is refused with a codec error.
    #[test]
    fn trailer_corruption_never_changes_an_answer(
        trace in arb_trace(),
        query in arb_query(),
        block_events in 1usize..96,
        flip in any::<u8>(),
        at in any::<u16>(),
    ) {
        let mut bytes = encoded(&trace, block_events);
        let at = bytes.len() - 1 - (usize::from(at) % trailer_len(&trace, block_events));
        bytes[at] ^= flip | 1; // always a real flip
        assert_codec_error(&bytes, &query, "corrupted trailer");
    }

    /// A file whose blocks are intact but whose trailer is missing
    /// altogether (what a trailer-less writer would emit) is an error.
    #[test]
    fn trailerless_file_is_a_codec_error(
        trace in arb_trace(),
        query in arb_query(),
        block_events in 1usize..96,
    ) {
        let full = encoded(&trace, block_events);
        let bytes = &full[..full.len() - trailer_len(&trace, block_events)];
        assert_codec_error(bytes, &query, "trailer-less");
    }

    /// Truncating the trailer, down to dropping it whole (a
    /// trailer-less file), never changes an answer either.
    #[test]
    fn trailer_truncation_never_changes_an_answer(
        trace in arb_trace(),
        query in arb_query(),
        block_events in 1usize..96,
        keep in any::<u16>(),
    ) {
        let full = encoded(&trace, block_events);
        let trailer_len = trailer_len(&trace, block_events);
        let keep = usize::from(keep) % trailer_len;
        let bytes = &full[..full.len() - trailer_len + keep];
        assert_codec_error(bytes, &query, "truncated trailer");
    }
}

/// Deterministic spot-check that skipping actually happens on the kind
/// of selective query the CI smoke step sends — the differential
/// properties above prove equality, this proves the "push" in pushdown.
#[test]
fn selective_query_skips_blocks() {
    let mut evs = Vec::new();
    for i in 0u32..1000 {
        evs.push(Event::Write {
            pc: 0x1000 + (i % 7) * 4,
            ba: 0x10_0000 + i * 4,
            ea: 0x10_0000 + i * 4 + 4,
            value: i,
            old: 0,
        });
    }
    let trace = Trace::from_events(evs);
    let bytes = encoded(&trace, 64);
    let writers = writer_map();
    let (result, stats) = scan_query(&bytes, "count if value > 950", resolve, &writers, 4).unwrap();
    let want = run_query("count if value > 950", trace.events(), resolve, writers).unwrap();
    assert_eq!(result, want);
    assert!(
        stats.blocks_skipped >= 14,
        "a selective query over 16 blocks must skip most of them, skipped {}",
        stats.blocks_skipped
    );
}
