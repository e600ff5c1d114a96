//! Columnar query pushdown: answer trace queries straight from DBPT
//! bytes, skipping blocks their zone maps refute.
//!
//! [`scan_query`] is the block-granular counterpart of
//! [`run_query`](crate::run_query). Instead of decoding the whole trace
//! and interpreting every event, it:
//!
//! 1. opens the file with [`databp_trace::ColumnarReader`] (header and
//!    block directory only — no column decode);
//! 2. compiles the query's predicate into a *block-level refutation
//!    test* via [`CompiledPredicate::decide_over`]: the block's
//!    [`ZoneMap`] bounds `value`, `old` and (through cumulative write
//!    counts) `hits`, and `writer in f` becomes a tri-state pc-range
//!    test against the [`WriterMap`] segments plus the zone's write-pc
//!    occupancy filter. Blocks the interval abstraction refutes are
//!    never decoded — yet still advance the write totals and the `hits`
//!    numbering, exactly, from their zone counts;
//! 3. decodes each surviving block lazily — only the columns the query
//!    actually reads (`count if value > 100` touches just the values
//!    column);
//! 4. fans surviving blocks across worker threads (a shared block
//!    cursor, the calling thread participating) and merges the
//!    per-block partial aggregates **in block order**, so the answer is
//!    deterministic and byte-identical to the full-scan engine's.
//!    `first` (and `last`, scanned back-to-front) short-circuit: once
//!    an earlier block answers, later slots are cut without decoding.
//!
//! Soundness: every skip decision is conservative. Zone maps are
//! checksummed and cross-checked against block headers on open (a
//! damaged trailer is a [`ScanError::Codec`]), `decide_over` only returns
//! a definite answer when *no* write consistent with the zone bounds
//! could disagree, and scanned blocks verify their decoded write count
//! against the zone that predicted it. The differential property suite
//! (`harness/tests/query_pushdown.rs`) pins equality with the
//! event-at-a-time engine across random traces, queries, and block
//! boundaries.

use crate::query::{Aggregation, CompiledQuery, Query, QueryError, QueryResult, WriteHit};
use crate::MAX_WATCH_SAMPLES;
use databp_core::{CompiledPredicate, WriteSpan, WriterMap, NO_WRITER};
use databp_trace::{BlockWrites, ColumnarReader, RawBlock, TraceCodecError, WriteCols, ZoneMap};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Scan accounting for one [`scan_query`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks whose columns were (partially) decoded.
    pub blocks_scanned: u64,
    /// Blocks never decoded: zone-refuted, empty of writes, answered
    /// from counts alone, or cut by a `first`/`last` short-circuit.
    pub blocks_skipped: u64,
    /// Total writes in the trace per the zone maps.
    pub writes: u64,
}

/// A failed [`scan_query`]: either the query itself is malformed or the
/// trace bytes are.
#[derive(Debug)]
pub enum ScanError {
    /// Malformed query or unresolvable `writer in f` name.
    Query(QueryError),
    /// Malformed trace bytes.
    Codec(TraceCodecError),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Query(e) => write!(f, "{e}"),
            ScanError::Codec(e) => write!(f, "bad trace: {e}"),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<QueryError> for ScanError {
    fn from(e: QueryError) -> Self {
        ScanError::Query(e)
    }
}

impl From<TraceCodecError> for ScanError {
    fn from(e: TraceCodecError) -> Self {
        ScanError::Codec(e)
    }
}

/// What to do with one block, decided from its zone map alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// No write in the block can match (or it has no writes): never
    /// decode it; its zone write count still feeds the totals.
    Skip,
    /// Every write matches and the aggregation only needs counts: add
    /// the zone's write count to `matched` without decoding.
    CountOnly,
    /// Decode (the needed columns) and evaluate per write.
    Scan,
}

/// Per-block partial aggregate, merged in block order.
#[derive(Debug, Default)]
struct BlockPartial {
    matched: u64,
    first: Option<WriteHit>,
    last: Option<WriteHit>,
    /// Sorted `(pc, count)` rows, merged once per block.
    hist: Vec<(u32, u64)>,
    samples: Vec<u32>,
}

/// What a parallel slot produced.
enum Outcome {
    Scanned(BlockPartial),
    /// Cut by a `first`/`last` short-circuit before being decoded.
    Cut,
}

/// Tri-state writer presence for a block: `Some(true)` = every write's
/// writer is `f`, `Some(false)` = no write's writer can be `f`, `None`
/// = mixed/unknown. Uses the zone's write-pc range against the sorted
/// `WriterMap` segments, sharpened by the 64-bucket pc occupancy
/// filter.
fn writer_presence(zone: &ZoneMap, writers: &WriterMap, f: u16) -> Option<bool> {
    let (pc_min, pc_max) = zone.write_pc_range()?;
    let segs = writers.segments();
    let idx_min = segs.partition_point(|&(entry, _)| entry <= pc_min);
    let idx_max = segs.partition_point(|&(entry, _)| entry <= pc_max);
    if idx_min == idx_max {
        // The whole pc range lies in one segment (or below every
        // entry): every write has that segment's id.
        let id = if idx_min == 0 {
            NO_WRITER
        } else {
            segs[idx_min - 1].1
        };
        return Some(id == f);
    }
    // Mixed range: definite only if no write pc can land in any of
    // `f`'s segments.
    for (i, &(entry, id)) in segs.iter().enumerate() {
        if id != f {
            continue;
        }
        let seg_hi = match segs.get(i + 1) {
            // A duplicate entry shadows this segment entirely.
            Some(&(next, _)) if next <= entry => continue,
            Some(&(next, _)) => next - 1,
            None => u32::MAX,
        };
        if zone.any_write_pc_in(entry, seg_hi) {
            return None;
        }
    }
    Some(false)
}

/// Decides a block from its zone map. `base` is the number of writes in
/// all earlier blocks (the `hits` ordinal base).
fn decide_block(
    zone: &ZoneMap,
    base: u64,
    pred: Option<&CompiledPredicate>,
    agg: Aggregation,
    writers: &WriterMap,
) -> Action {
    if zone.writes == 0 {
        return Action::Skip;
    }
    let all_match = match pred {
        None => Some(true),
        Some(p) => {
            let span = WriteSpan {
                value: zone.write_value_range().expect("writes > 0"),
                old: zone.write_old_range().expect("writes > 0"),
                hits: (base + 1, base + u64::from(zone.writes)),
            };
            p.decide_over(&span, &mut |f| writer_presence(zone, writers, f))
        }
    };
    match all_match {
        Some(false) => Action::Skip,
        Some(true) if agg == Aggregation::Count => Action::CountOnly,
        _ => Action::Scan,
    }
}

/// The columns `agg`/`pred` actually read.
fn needed_columns(agg: Aggregation, pred: Option<&CompiledPredicate>) -> WriteCols {
    let hit_detail = matches!(agg, Aggregation::First | Aggregation::Last);
    WriteCols {
        pcs: hit_detail
            || agg == Aggregation::Histogram
            || pred.is_some_and(CompiledPredicate::uses_writer),
        addrs: hit_detail,
        values: hit_detail
            || agg == Aggregation::ValueWatch
            || pred.is_some_and(CompiledPredicate::uses_value),
        olds: hit_detail || pred.is_some_and(CompiledPredicate::uses_old),
    }
}

/// Scans one block: decodes the needed columns and folds its writes
/// into a [`BlockPartial`]. `expect_writes` (from the zone map) is
/// cross-checked against the decode.
fn scan_block(
    block: &RawBlock<'_>,
    base: u64,
    q: &CompiledQuery,
    writers: &WriterMap,
    want: WriteCols,
    expect_writes: u64,
    bw: &mut BlockWrites,
) -> Result<BlockPartial, TraceCodecError> {
    let n = u64::from(block.decode_writes(want, bw)?);
    if expect_writes != n {
        return Err(TraceCodecError::Malformed(format!(
            "zone map promises {expect_writes} writes, block decodes {n}"
        )));
    }
    let mut out = BlockPartial::default();
    let uses_writer = q.pred.as_ref().is_some_and(CompiledPredicate::uses_writer);
    let eval = |i: u64| -> bool {
        match &q.pred {
            None => true,
            Some(p) => {
                let value = if want.values {
                    bw.values[i as usize]
                } else {
                    0
                };
                let old = if want.olds { bw.olds[i as usize] } else { 0 };
                let writer = if uses_writer {
                    writers.writer_of(bw.pcs[i as usize])
                } else {
                    NO_WRITER
                };
                p.eval(value, old, base + i + 1, writer)
            }
        }
    };
    let hit = |i: u64| -> WriteHit {
        WriteHit {
            seq: base + i + 1,
            pc: bw.pcs[i as usize],
            ba: bw.bas[i as usize],
            ea: bw.eas[i as usize],
            value: bw.values[i as usize],
            old: bw.olds[i as usize],
        }
    };
    match q.agg {
        Aggregation::Count => {
            for i in 0..n {
                out.matched += u64::from(eval(i));
            }
        }
        Aggregation::First => {
            for i in 0..n {
                if eval(i) {
                    out.matched += 1;
                    out.first = Some(hit(i));
                    break;
                }
            }
        }
        Aggregation::Last => {
            for i in (0..n).rev() {
                if eval(i) {
                    out.matched += 1;
                    out.last = Some(hit(i));
                    break;
                }
            }
        }
        Aggregation::Histogram => {
            // Coalesce consecutive same-pc matches, then sort and merge
            // once — no per-event map insertion.
            let mut runs: Vec<(u32, u64)> = Vec::new();
            for i in 0..n {
                if !eval(i) {
                    continue;
                }
                out.matched += 1;
                let pc = bw.pcs[i as usize];
                match runs.last_mut() {
                    Some((run_pc, c)) if *run_pc == pc => *c += 1,
                    _ => runs.push((pc, 1)),
                }
            }
            runs.sort_unstable_by_key(|&(pc, _)| pc);
            for (pc, c) in runs {
                match out.hist.last_mut() {
                    Some((last_pc, total)) if *last_pc == pc => *total += c,
                    _ => out.hist.push((pc, c)),
                }
            }
        }
        Aggregation::ValueWatch => {
            for i in 0..n {
                if eval(i) {
                    out.matched += 1;
                    if out.samples.len() < MAX_WATCH_SAMPLES {
                        out.samples.push(bw.values[i as usize]);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Runs the scan items (block index, hits base) with `jobs`-way
/// parallelism over a shared cursor; the calling thread participates.
/// `short_circuit` cuts slots after the first item (in `items` order)
/// that produces a hit. Slot results come back in `items` order.
fn run_items(
    reader: &ColumnarReader<'_>,
    items: &[(usize, u64)],
    q: &CompiledQuery,
    writers: &WriterMap,
    want: WriteCols,
    jobs: usize,
    short_circuit: bool,
) -> Result<Vec<Outcome>, TraceCodecError> {
    let zones = reader.zones();
    let slots: Vec<OnceLock<Result<Outcome, TraceCodecError>>> =
        (0..items.len()).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let worker = || {
        let mut bw = BlockWrites::default();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            if short_circuit && i > stop_at.load(Ordering::Relaxed) {
                let _ = slots[i].set(Ok(Outcome::Cut));
                continue;
            }
            let (bidx, base) = items[i];
            let res = scan_block(
                &reader.blocks()[bidx],
                base,
                q,
                writers,
                want,
                u64::from(zones[bidx].writes),
                &mut bw,
            );
            if short_circuit {
                if let Ok(p) = &res {
                    if p.first.is_some() || p.last.is_some() {
                        stop_at.fetch_min(i, Ordering::Relaxed);
                    }
                }
            }
            let _ = slots[i].set(res.map(Outcome::Scanned));
        }
    };
    let helpers = jobs.max(1).min(items.len()).saturating_sub(1);
    if helpers == 0 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(worker);
            }
            worker();
        });
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match slot.into_inner().expect("every slot claimed") {
            Ok(o) => out.push(o),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Parses, compiles, and runs `query` directly over DBPT `bytes` —
/// the pushdown counterpart of [`run_query`](crate::run_query),
/// returning the identical [`QueryResult`] plus scan accounting.
///
/// `jobs` bounds the worker threads for the block scan (`1` = fully
/// sequential; the result does not depend on it).
///
/// # Errors
///
/// [`ScanError::Query`] when the query is malformed or a `writer in f`
/// name does not resolve; [`ScanError::Codec`] when the bytes are —
/// including a missing or damaged zone-map trailer, which
/// [`ColumnarReader::open`] rejects before any block is decided.
pub fn scan_query(
    bytes: &[u8],
    query: &str,
    resolve: impl FnMut(&str) -> Option<u16>,
    writers: &WriterMap,
    jobs: usize,
) -> Result<(QueryResult, ScanStats), ScanError> {
    let q = Query::parse(query)?.compile(resolve)?;
    let reader = ColumnarReader::open(bytes)?;
    let pred = q.pred.as_ref();
    let want = needed_columns(q.agg, pred);
    let n_blocks = reader.blocks().len();

    // Decide every block up front from its zone map.
    let mut items: Vec<(usize, u64)> = Vec::new();
    let mut count_only = 0u64;
    let mut total_writes = 0u64;
    for (idx, zone) in reader.zones().iter().enumerate() {
        match decide_block(zone, total_writes, pred, q.agg, writers) {
            Action::Skip => {}
            Action::CountOnly => count_only += u64::from(zone.writes),
            Action::Scan => items.push((idx, total_writes)),
        }
        total_writes += u64::from(zone.writes);
    }

    // `last` short-circuits back-to-front; everything else runs
    // front-to-back.
    let short_circuit = matches!(q.agg, Aggregation::First | Aggregation::Last);
    if q.agg == Aggregation::Last {
        items.reverse();
    }
    let outcomes = run_items(&reader, &items, &q, writers, want, jobs, short_circuit)?;

    // Deterministic in-order merge (slot order == items order).
    let mut scanned = 0u64;
    let mut matched = count_only;
    let mut first: Option<WriteHit> = None;
    let mut last: Option<WriteHit> = None;
    let mut hist: Vec<(u32, u64)> = Vec::new();
    let mut samples: Vec<u32> = Vec::new();
    let mut watch_total = 0u64;
    for outcome in &outcomes {
        let partial = match outcome {
            Outcome::Scanned(p) => p,
            Outcome::Cut => continue,
        };
        scanned += 1;
        match q.agg {
            Aggregation::Count => matched += partial.matched,
            Aggregation::First => {
                if first.is_none() {
                    first = partial.first;
                }
            }
            Aggregation::Last => {
                // Items are reversed, so the first hit seen is the
                // latest in trace order.
                if last.is_none() {
                    last = partial.last;
                }
            }
            Aggregation::Histogram => {
                // Merge two sorted row lists.
                if hist.is_empty() {
                    hist = partial.hist.clone();
                } else if !partial.hist.is_empty() {
                    let mut merged = Vec::with_capacity(hist.len() + partial.hist.len());
                    let (mut a, mut b) = (hist.iter().peekable(), partial.hist.iter().peekable());
                    while let (Some(&&(pa, ca)), Some(&&(pb, cb))) = (a.peek(), b.peek()) {
                        match pa.cmp(&pb) {
                            std::cmp::Ordering::Less => {
                                merged.push((pa, ca));
                                a.next();
                            }
                            std::cmp::Ordering::Greater => {
                                merged.push((pb, cb));
                                b.next();
                            }
                            std::cmp::Ordering::Equal => {
                                merged.push((pa, ca + cb));
                                a.next();
                                b.next();
                            }
                        }
                    }
                    merged.extend(a.copied());
                    merged.extend(b.copied());
                    hist = merged;
                }
            }
            Aggregation::ValueWatch => {
                watch_total += partial.matched;
                let room = MAX_WATCH_SAMPLES - samples.len();
                samples.extend(partial.samples.iter().take(room).copied());
            }
        }
    }

    let result = match q.agg {
        Aggregation::Count => QueryResult::Count {
            matched,
            writes: total_writes,
        },
        Aggregation::First => QueryResult::First(first),
        Aggregation::Last => QueryResult::Last(last),
        Aggregation::Histogram => QueryResult::Histogram(hist),
        Aggregation::ValueWatch => QueryResult::ValueWatch {
            samples,
            total: watch_total,
        },
    };
    let stats = ScanStats {
        blocks_scanned: scanned,
        blocks_skipped: n_blocks as u64 - scanned,
        writes: total_writes,
    };
    record(&stats);
    Ok((result, stats))
}

fn record(stats: &ScanStats) {
    databp_telemetry::count!("query.blocks_scanned", stats.blocks_scanned);
    databp_telemetry::count!("query.blocks_skipped", stats.blocks_skipped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_query;
    use databp_trace::{write_columnar_with, Event, Trace};

    fn w(pc: u32, ba: u32, value: u32, old: u32) -> Event {
        Event::Write {
            pc,
            ba,
            ea: ba + 4,
            value,
            old,
        }
    }

    /// A trace whose value ranges differ sharply per 8-event block.
    fn blocky_trace() -> Trace {
        let mut evs = Vec::new();
        for b in 0u32..6 {
            for i in 0u32..8 {
                let pc = 0x100 + b * 0x40 + (i % 2) * 4;
                evs.push(w(pc, 0x1000 + i * 4, b * 100 + i, i));
            }
        }
        Trace::from_events(evs)
    }

    fn encoded(trace: &Trace, block_events: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_columnar_with(trace, &[], &mut buf, block_events).unwrap();
        buf
    }

    #[test]
    fn pushdown_matches_full_scan_and_skips_blocks() {
        let t = blocky_trace();
        let bytes = encoded(&t, 8);
        for q in [
            "count",
            "count if value > 450",
            "count if value > 250 && old < 4",
            "first if value > 250",
            "last if value < 100",
            "hist if value % 2 == 0",
            "watch if value > 499",
            "count if hits > 40",
        ] {
            let want = run_query(q, t.events(), |_| None, WriterMap::default()).unwrap();
            for jobs in [1, 4] {
                let (got, stats) =
                    scan_query(&bytes, q, |_| None, &WriterMap::default(), jobs).unwrap();
                assert_eq!(got, want, "query `{q}` with jobs={jobs}");
                assert_eq!(stats.writes, 48);
                assert_eq!(stats.blocks_scanned + stats.blocks_skipped, 6);
            }
        }
        // A fully selective query answers without scanning at all: the
        // last block's values (500..=507) all pass, earlier blocks all
        // refute, so zone counts settle everything.
        let (r, stats) = scan_query(
            &bytes,
            "count if value > 450",
            |_| None,
            &WriterMap::default(),
            1,
        )
        .unwrap();
        assert_eq!(
            r,
            QueryResult::Count {
                matched: 8,
                writes: 48
            }
        );
        assert_eq!(stats.blocks_skipped, 6);
        assert_eq!(stats.blocks_scanned, 0);
        // A predicate straddling one block's value range scans exactly
        // that block.
        let (_, stats) = scan_query(
            &bytes,
            "count if value > 500",
            |_| None,
            &WriterMap::default(),
            1,
        )
        .unwrap();
        assert_eq!(stats.blocks_skipped, 5);
        assert_eq!(stats.blocks_scanned, 1);
        // `count` with no predicate answers entirely from zone counts.
        let (r, stats) = scan_query(&bytes, "count", |_| None, &WriterMap::default(), 1).unwrap();
        assert_eq!(
            r,
            QueryResult::Count {
                matched: 48,
                writes: 48
            }
        );
        assert_eq!(stats.blocks_scanned, 0);
    }

    #[test]
    fn first_short_circuits_and_last_scans_backwards() {
        let t = blocky_trace();
        let bytes = encoded(&t, 8);
        // Everything matches: `first` needs exactly one block.
        let (r, stats) = scan_query(&bytes, "first", |_| None, &WriterMap::default(), 4).unwrap();
        let want = run_query("first", t.events(), |_| None, WriterMap::default()).unwrap();
        assert_eq!(r, want);
        assert_eq!(stats.blocks_scanned, 1);
        // `last` answers from the final block alone.
        let (r, stats) = scan_query(&bytes, "last", |_| None, &WriterMap::default(), 4).unwrap();
        let want = run_query("last", t.events(), |_| None, WriterMap::default()).unwrap();
        assert_eq!(r, want);
        assert_eq!(stats.blocks_scanned, 1);
    }

    #[test]
    fn corrupted_trailer_is_a_codec_error() {
        let t = blocky_trace();
        let mut bytes = encoded(&t, 8);
        // Flip a checksum-covered byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x5a;
        assert!(matches!(
            scan_query(
                &bytes,
                "count if value > 450",
                |_| None,
                &WriterMap::default(),
                2
            ),
            Err(ScanError::Codec(_))
        ));
    }

    #[test]
    fn trailerless_file_is_a_codec_error() {
        let t = blocky_trace();
        let good = encoded(&t, 8);
        // Cut where the trailer begins (6 zones of 64 bytes + 24 bytes
        // of framing): every block is intact, but no zones follow.
        let cut = &good[..good.len() - (24 + 6 * 64)];
        assert!(matches!(
            scan_query(
                cut,
                "count if value > 450",
                |_| None,
                &WriterMap::default(),
                2
            ),
            Err(ScanError::Codec(_))
        ));
    }

    #[test]
    fn writer_filter_refutes_by_pc_range() {
        let t = blocky_trace();
        let bytes = encoded(&t, 8);
        // Blocks 0..6 use pcs 0x100+b*0x40: function `f5` owns
        // [0x240, ...), i.e. exactly block 5's pcs.
        let writers = WriterMap::new((0u16..6).map(|b| (0x100 + u32::from(b) * 0x40, b)));
        let resolve = |name: &str| name.strip_prefix('f').and_then(|s| s.parse::<u16>().ok());
        let q = "count if writer in f5";
        let want = run_query(q, t.events(), resolve, writers.clone()).unwrap();
        let (got, stats) = scan_query(&bytes, q, resolve, &writers, 1).unwrap();
        assert_eq!(got, want);
        // Whole-block pc homogeneity: every non-f5 block refutes, and
        // block 5 affirms into a count-only skip.
        assert_eq!(stats.blocks_scanned, 0);
        assert_eq!(stats.blocks_skipped, 6);
    }

    #[test]
    fn empty_trace_scans_cleanly() {
        let t = Trace::new();
        let bytes = encoded(&t, 8);
        let (r, stats) = scan_query(&bytes, "count", |_| None, &WriterMap::default(), 1).unwrap();
        assert_eq!(
            r,
            QueryResult::Count {
                matched: 0,
                writes: 0
            }
        );
        assert_eq!(stats.blocks_scanned + stats.blocks_skipped, 0);
        let (r, _) = scan_query(&bytes, "first", |_| None, &WriterMap::default(), 1).unwrap();
        assert_eq!(r, QueryResult::First(None));
    }

    #[test]
    fn malformed_query_and_bytes_error_cleanly() {
        let t = blocky_trace();
        let bytes = encoded(&t, 8);
        assert!(matches!(
            scan_query(&bytes, "bogus", |_| None, &WriterMap::default(), 1),
            Err(ScanError::Query(_))
        ));
        assert!(matches!(
            scan_query(b"NOPE", "count", |_| None, &WriterMap::default(), 1),
            Err(ScanError::Codec(_))
        ));
    }
}
