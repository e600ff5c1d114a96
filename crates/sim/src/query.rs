//! The online trace-query engine.
//!
//! A query is a *predicate* (the same language the strategies compile
//! into their inline checks — see `databp_core::Predicate`) plus an
//! *aggregation* over the writes that satisfy it. The engine is
//! incremental: [`QueryEngine::feed`] accepts event batches in trace
//! order — straight from phase 1 as the tracer produces them, or
//! replayed out of a stored trace — and [`QueryEngine::result`]
//! snapshots the answer at any point. Feeding the same events in any
//! batch partitioning yields the same result, so online and replayed
//! evaluation agree exactly (a property the harness tests pin).
//!
//! Unlike the strategies, which evaluate predicates only over
//! *candidate* writes (those overlapping an installed monitor), a query
//! ranges over **all traced writes**: its `hits` counter advances on
//! every write event. That makes queries answerable from a cached trace
//! with no monitor-session replay at all — the replay service exploits
//! this to answer queries against cached traces with zero phase-1 work.

use databp_core::{CompiledPredicate, PredEval, Predicate, PredicateError, WriterMap};
use databp_trace::Event;
use std::collections::BTreeMap;
use std::fmt;

/// Value samples retained by a `watch` aggregation; the total keeps
/// counting past this.
pub const MAX_WATCH_SAMPLES: usize = 4096;

/// What to compute over the matching writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// How many writes matched (and how many writes there were).
    Count,
    /// The first matching write.
    First,
    /// The last matching write.
    Last,
    /// Matching-write counts per store site (pc).
    Histogram,
    /// The sequence of values the matching writes stored.
    ValueWatch,
}

impl Aggregation {
    /// The keyword naming this aggregation in query syntax.
    pub fn keyword(self) -> &'static str {
        match self {
            Aggregation::Count => "count",
            Aggregation::First => "first",
            Aggregation::Last => "last",
            Aggregation::Histogram => "hist",
            Aggregation::ValueWatch => "watch",
        }
    }
}

/// A malformed query string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query was empty.
    Empty,
    /// The leading word is not an aggregation keyword.
    UnknownAggregation(String),
    /// The `if` clause failed to parse or compile.
    Predicate(PredicateError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => {
                write!(
                    f,
                    "empty query: expected `count|first|last|hist|watch [if <predicate>]`"
                )
            }
            QueryError::UnknownAggregation(w) => {
                write!(
                    f,
                    "unknown aggregation `{w}`: expected count, first, last, hist, or watch"
                )
            }
            QueryError::Predicate(e) => write!(f, "bad predicate: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<PredicateError> for QueryError {
    fn from(e: PredicateError) -> Self {
        QueryError::Predicate(e)
    }
}

/// A parsed query: `<aggregation> [if <predicate>]`.
#[derive(Debug, Clone)]
pub struct Query {
    /// The aggregation.
    pub agg: Aggregation,
    pred: Option<Predicate>,
}

impl Query {
    /// Parses `count | first | last | hist | watch [if <predicate>]`.
    ///
    /// # Errors
    ///
    /// [`QueryError`] on an empty string, unknown aggregation keyword,
    /// or malformed predicate.
    pub fn parse(src: &str) -> Result<Query, QueryError> {
        let src = src.trim();
        if src.is_empty() {
            return Err(QueryError::Empty);
        }
        let (head, rest) = match src.find(char::is_whitespace) {
            Some(i) => (&src[..i], src[i..].trim_start()),
            None => (src, ""),
        };
        let agg = match head {
            "count" => Aggregation::Count,
            "first" => Aggregation::First,
            "last" => Aggregation::Last,
            "hist" => Aggregation::Histogram,
            "watch" => Aggregation::ValueWatch,
            other => return Err(QueryError::UnknownAggregation(other.to_string())),
        };
        let pred = if rest.is_empty() {
            None
        } else {
            let body = rest
                .strip_prefix("if")
                .filter(|r| r.is_empty() || r.starts_with(char::is_whitespace))
                .ok_or_else(|| QueryError::UnknownAggregation(rest.to_string()))?;
            Some(Predicate::parse(body)?)
        };
        Ok(Query { agg, pred })
    }

    /// The predicate source, if the query has an `if` clause.
    pub fn predicate_src(&self) -> Option<&str> {
        self.pred.as_ref().map(Predicate::src)
    }

    /// Resolves `writer in f` names to function ids, producing a
    /// runnable query.
    ///
    /// # Errors
    ///
    /// [`QueryError::Predicate`] when a function name does not resolve.
    pub fn compile(
        &self,
        resolve: impl FnMut(&str) -> Option<u16>,
    ) -> Result<CompiledQuery, QueryError> {
        let pred = match &self.pred {
            Some(p) => Some(p.compile(resolve)?),
            None => None,
        };
        Ok(CompiledQuery {
            agg: self.agg,
            pred,
        })
    }
}

/// A compiled, runnable query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The aggregation.
    pub agg: Aggregation,
    /// The compiled `if` clause, if any.
    pub pred: Option<CompiledPredicate>,
}

/// One matching write, as reported by `first`/`last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteHit {
    /// 1-based ordinal of this write among all traced writes — the
    /// value the predicate's `hits` variable had when it matched.
    pub seq: u64,
    /// Program counter of the writing instruction.
    pub pc: u32,
    /// Beginning address written.
    pub ba: u32,
    /// Ending address written (exclusive).
    pub ea: u32,
    /// Value written (masked to the store width).
    pub value: u32,
    /// Value overwritten (masked to the store width).
    pub old: u32,
}

/// A query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// `count`: matching writes out of all traced writes.
    Count {
        /// Writes satisfying the predicate.
        matched: u64,
        /// All traced writes seen.
        writes: u64,
    },
    /// `first`: the earliest matching write, if any matched.
    First(Option<WriteHit>),
    /// `last`: the latest matching write so far, if any matched.
    Last(Option<WriteHit>),
    /// `hist`: per-site (pc, matching-write count), ascending by pc.
    Histogram(Vec<(u32, u64)>),
    /// `watch`: the first [`MAX_WATCH_SAMPLES`] matching values, plus
    /// the total match count.
    ValueWatch {
        /// Values stored by matching writes, in trace order (capped).
        samples: Vec<u32>,
        /// Total matching writes (uncapped).
        total: u64,
    },
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryResult::Count { matched, writes } => {
                write!(f, "count {matched}/{writes}")
            }
            QueryResult::First(h) | QueryResult::Last(h) => {
                let label = if matches!(self, QueryResult::First(_)) {
                    "first"
                } else {
                    "last"
                };
                match h {
                    Some(h) => write!(
                        f,
                        "{label} write #{} pc={:#x} [{:#x},{:#x}) value={} old={}",
                        h.seq, h.pc, h.ba, h.ea, h.value, h.old
                    ),
                    None => write!(f, "{label} (no match)"),
                }
            }
            QueryResult::Histogram(rows) => {
                write!(f, "hist")?;
                for (pc, n) in rows {
                    write!(f, " {pc:#x}:{n}")?;
                }
                Ok(())
            }
            QueryResult::ValueWatch { samples, total } => {
                write!(f, "watch {total} match(es):")?;
                for v in samples {
                    write!(f, " {v}")?;
                }
                if *total > samples.len() as u64 {
                    write!(f, " …")?;
                }
                Ok(())
            }
        }
    }
}

/// Evaluates one [`CompiledQuery`] incrementally over event batches.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    agg: Aggregation,
    pred: Option<PredEval>,
    writers: WriterMap,
    writes: u64,
    matched: u64,
    first: Option<WriteHit>,
    last: Option<WriteHit>,
    hist: BTreeMap<u32, u64>,
    /// Pending `(pc, count)` histogram run: consecutive matches at the
    /// same site coalesce here and flush to the map only when the site
    /// changes, so tight store loops don't pay a map lookup per event.
    hist_run: Option<(u32, u64)>,
    samples: Vec<u32>,
}

impl QueryEngine {
    /// An engine for `query`; `writers` maps store pcs to their owning
    /// function for `writer in f` filters (pass an empty map when the
    /// predicate has no writer clauses).
    pub fn new(query: CompiledQuery, writers: WriterMap) -> Self {
        QueryEngine {
            agg: query.agg,
            pred: query.pred.map(PredEval::new),
            writers,
            writes: 0,
            matched: 0,
            first: None,
            last: None,
            hist: BTreeMap::new(),
            hist_run: None,
            samples: Vec::new(),
        }
    }

    /// Consumes the next batch of events, in trace order. Non-write
    /// events are ignored; any partitioning of the same event sequence
    /// into batches produces the same result.
    pub fn feed(&mut self, events: &[Event]) {
        for ev in events {
            self.feed_event(ev);
        }
    }

    /// Consumes one event.
    pub fn feed_event(&mut self, ev: &Event) {
        let &Event::Write {
            pc,
            ba,
            ea,
            value,
            old,
        } = ev
        else {
            return;
        };
        self.writes += 1;
        let fire = match self.pred.as_mut() {
            Some(pe) => pe.observe(value, old, self.writers.writer_of(pc)),
            None => true,
        };
        if !fire {
            return;
        }
        self.matched += 1;
        let hit = WriteHit {
            seq: self.writes,
            pc,
            ba,
            ea,
            value,
            old,
        };
        match self.agg {
            Aggregation::Count => {}
            Aggregation::First => {
                self.first.get_or_insert(hit);
            }
            Aggregation::Last => self.last = Some(hit),
            Aggregation::Histogram => match &mut self.hist_run {
                Some((run_pc, n)) if *run_pc == pc => *n += 1,
                run => {
                    if let Some((p, n)) = run.take() {
                        *self.hist.entry(p).or_insert(0) += n;
                    }
                    *run = Some((pc, 1));
                }
            },
            Aggregation::ValueWatch => {
                if self.samples.len() < MAX_WATCH_SAMPLES {
                    self.samples.push(value);
                }
            }
        }
    }

    /// The answer over everything fed so far.
    pub fn result(&self) -> QueryResult {
        match self.agg {
            Aggregation::Count => QueryResult::Count {
                matched: self.matched,
                writes: self.writes,
            },
            Aggregation::First => QueryResult::First(self.first),
            Aggregation::Last => QueryResult::Last(self.last),
            Aggregation::Histogram => {
                let mut rows: Vec<(u32, u64)> = self.hist.iter().map(|(&pc, &n)| (pc, n)).collect();
                if let Some((pc, n)) = self.hist_run {
                    match rows.binary_search_by_key(&pc, |&(p, _)| p) {
                        Ok(i) => rows[i].1 += n,
                        Err(i) => rows.insert(i, (pc, n)),
                    }
                }
                QueryResult::Histogram(rows)
            }
            Aggregation::ValueWatch => QueryResult::ValueWatch {
                samples: self.samples.clone(),
                total: self.matched,
            },
        }
    }
}

/// Parses, compiles, and runs `query` over a complete event list in one
/// call — the replay-service and CLI entry point for cached traces.
///
/// # Errors
///
/// [`QueryError`] when the query is malformed or a `writer in f` name
/// does not resolve.
pub fn run_query(
    query: &str,
    events: &[Event],
    resolve: impl FnMut(&str) -> Option<u16>,
    writers: WriterMap,
) -> Result<QueryResult, QueryError> {
    let q = Query::parse(query)?.compile(resolve)?;
    let mut eng = QueryEngine::new(q, writers);
    eng.feed(events);
    Ok(eng.result())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(pc: u32, ba: u32, value: u32, old: u32) -> Event {
        Event::Write {
            pc,
            ba,
            ea: ba + 4,
            value,
            old,
        }
    }

    fn events() -> Vec<Event> {
        vec![
            Event::Enter { func: 0 },
            w(0x100, 0x40, 1, 0),
            w(0x104, 0x44, 7, 0),
            w(0x100, 0x40, 9, 1),
            Event::Exit { func: 0 },
        ]
    }

    fn run(q: &str) -> QueryResult {
        run_query(q, &events(), |_| None, WriterMap::default()).unwrap()
    }

    #[test]
    fn parse_accepts_each_aggregation() {
        for (src, agg) in [
            ("count", Aggregation::Count),
            ("first", Aggregation::First),
            ("last", Aggregation::Last),
            ("hist", Aggregation::Histogram),
            ("watch", Aggregation::ValueWatch),
        ] {
            assert_eq!(Query::parse(src).unwrap().agg, agg);
            let with_pred = format!("{src} if value > 0");
            let q = Query::parse(&with_pred).unwrap();
            assert_eq!(q.agg, agg);
            assert_eq!(q.predicate_src(), Some("value > 0"));
        }
    }

    #[test]
    fn parse_rejects_malformed_queries() {
        assert!(matches!(Query::parse("   "), Err(QueryError::Empty)));
        assert!(matches!(
            Query::parse("sum"),
            Err(QueryError::UnknownAggregation(w)) if w == "sum"
        ));
        assert!(matches!(
            Query::parse("count value > 0"),
            Err(QueryError::UnknownAggregation(_)),
        ));
        assert!(matches!(
            Query::parse("count if value >"),
            Err(QueryError::Predicate(_))
        ));
        // `iffy` is not the keyword `if`.
        assert!(matches!(
            Query::parse("count iffy"),
            Err(QueryError::UnknownAggregation(_))
        ));
    }

    #[test]
    fn unresolved_writer_name_fails_compile() {
        let q = Query::parse("count if writer in nosuch").unwrap();
        assert_eq!(
            q.compile(|_| None).unwrap_err(),
            QueryError::Predicate(PredicateError::UnknownFunction {
                name: "nosuch".to_string()
            })
        );
    }

    #[test]
    fn count_with_and_without_predicate() {
        assert_eq!(
            run("count"),
            QueryResult::Count {
                matched: 3,
                writes: 3
            }
        );
        assert_eq!(
            run("count if value > 5"),
            QueryResult::Count {
                matched: 2,
                writes: 3
            }
        );
    }

    #[test]
    fn first_and_last_carry_hit_details() {
        let QueryResult::First(Some(h)) = run("first if value > 5") else {
            panic!("expected a first hit");
        };
        assert_eq!((h.seq, h.pc, h.value, h.old), (2, 0x104, 7, 0));
        let QueryResult::Last(Some(h)) = run("last if value > 5") else {
            panic!("expected a last hit");
        };
        assert_eq!((h.seq, h.pc, h.value, h.old), (3, 0x100, 9, 1));
        assert_eq!(run("first if value > 100"), QueryResult::First(None));
    }

    #[test]
    fn histogram_groups_by_site() {
        assert_eq!(
            run("hist"),
            QueryResult::Histogram(vec![(0x100, 2), (0x104, 1)])
        );
        assert_eq!(
            run("hist if old == 0"),
            QueryResult::Histogram(vec![(0x100, 1), (0x104, 1)])
        );
    }

    #[test]
    fn watch_collects_matching_values() {
        assert_eq!(
            run("watch if value % 2 == 1"),
            QueryResult::ValueWatch {
                samples: vec![1, 7, 9],
                total: 3
            }
        );
    }

    #[test]
    fn hits_counts_all_writes_not_just_matches() {
        // `hits` advances on every traced write, so `hits % 2 == 0`
        // selects the 2nd write regardless of other clauses.
        assert_eq!(
            run("watch if hits % 2 == 0"),
            QueryResult::ValueWatch {
                samples: vec![7],
                total: 1
            }
        );
    }

    #[test]
    fn batch_partitioning_is_invisible() {
        let evs = events();
        let q = Query::parse("hist if value > 0")
            .unwrap()
            .compile(|_| None)
            .unwrap();
        let mut whole = QueryEngine::new(q.clone(), WriterMap::default());
        whole.feed(&evs);
        for split in 0..=evs.len() {
            let mut parts = QueryEngine::new(q.clone(), WriterMap::default());
            parts.feed(&evs[..split]);
            parts.feed(&evs[split..]);
            assert_eq!(parts.result(), whole.result());
        }
    }

    #[test]
    fn writer_filter_uses_the_pc_map() {
        let writers = WriterMap::new([(0x100, 0), (0x104, 1)]);
        let q = Query::parse("count if writer in put")
            .unwrap()
            .compile(|n| (n == "put").then_some(1))
            .unwrap();
        let mut eng = QueryEngine::new(q, writers);
        eng.feed(&events());
        assert_eq!(
            eng.result(),
            QueryResult::Count {
                matched: 1,
                writes: 3
            }
        );
    }

    #[test]
    fn display_renders_each_result() {
        assert_eq!(run("count").to_string(), "count 3/3");
        assert_eq!(run("hist").to_string(), "hist 0x100:2 0x104:1");
        assert_eq!(run("first if value > 100").to_string(), "first (no match)");
        assert_eq!(run("watch").to_string(), "watch 3 match(es): 1 7 9");
    }
}
