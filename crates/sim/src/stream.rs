//! Streaming replay: phase 2 consuming events while phase 1 produces
//! them.
//!
//! [`StreamingReplay`] wraps the fused ladder engine
//! (`crate::engine::EngineCore`) behind a feed-batches API: hand it
//! event slices in program order — from a channel, a file reader, or a
//! materialized trace — and call [`StreamingReplay::finish`] for the
//! per-size, per-session [`Counts`]. One `StreamingReplay` is one trace
//! walk (`sim.trace_walks` counts them), no matter how many page sizes
//! or batches.
//!
//! Because the replay starts before the program run ends, session
//! membership can no longer be precomputed from the full trace. The
//! [`StreamMembership`] trait abstracts that: [`FixedMembership`] adapts
//! any ordinary [`Membership`] table (static session universe), while
//! `databp-sessions`' `StreamSessionSet` discovers heap sessions online
//! from the event stream itself, growing the engine's session universe
//! as it goes ([`EngineCore::ensure_sessions`] makes that sound).

use crate::engine::EngineCore;
use crate::membership::Membership;
use databp_machine::PageSize;
use databp_models::Counts;
use databp_trace::{Event, ObjectDesc};
use rustc_hash::FxHashMap;

/// Online session membership: resolves objects to member sessions while
/// the event stream is still being produced.
///
/// Implementations may *create* sessions during resolution (heap
/// sessions exist only once the allocation is seen), so `resolve` takes
/// `&mut self` and [`StreamMembership::count`] is the session universe
/// *so far* — it only ever grows.
pub trait StreamMembership {
    /// Number of sessions discovered so far.
    fn count(&self) -> usize;

    /// Observes control entering function `func`.
    fn on_enter(&mut self, func: u16) {
        let _ = func;
    }

    /// Observes control leaving function `func`.
    fn on_exit(&mut self, func: u16) {
        let _ = func;
    }

    /// Writes the sessions monitoring `obj` into `out` (cleared first),
    /// without duplicates. Must be stable: resolving the same
    /// descriptor twice yields the same sessions.
    fn resolve(&mut self, obj: &ObjectDesc, out: &mut Vec<u32>);
}

/// Adapts a precomputed [`Membership`] table (the materialized-trace
/// pipeline's session universe) to the streaming interface.
#[derive(Debug)]
pub struct FixedMembership<'m, M: Membership + ?Sized> {
    table: &'m M,
}

impl<'m, M: Membership + ?Sized> FixedMembership<'m, M> {
    /// Wraps `table`.
    pub fn new(table: &'m M) -> Self {
        FixedMembership { table }
    }
}

impl<M: Membership + ?Sized> StreamMembership for FixedMembership<'_, M> {
    fn count(&self) -> usize {
        self.table.count()
    }

    fn resolve(&mut self, obj: &ObjectDesc, out: &mut Vec<u32>) {
        self.table.sessions_of(obj, out);
    }
}

/// The incremental replay engine: feed event batches in program order,
/// then [`finish`](StreamingReplay::finish).
pub struct StreamingReplay<S: StreamMembership> {
    membership: S,
    core: EngineCore,
    /// Object descriptor -> interned member-list index in the core.
    /// Memoizes `membership.resolve` per object (all instantiations of
    /// a local share one descriptor).
    member_cache: FxHashMap<ObjectDesc, u32>,
    scratch: Vec<u32>,
}

impl<S: StreamMembership> StreamingReplay<S> {
    /// A replay counting at every size in `ladder` (nonempty, strictly
    /// ascending — see [`crate::simulate_sizes`] for an entry point
    /// that sorts and dedups for you).
    pub fn new(membership: S, ladder: &[PageSize]) -> Self {
        databp_telemetry::count!("sim.replays");
        databp_telemetry::count!("sim.trace_walks");
        databp_telemetry::count!("sim.page_sizes.fused", ladder.len() as u64);
        StreamingReplay {
            membership,
            core: EngineCore::new(ladder),
            member_cache: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Replays `events`, which must follow all previously fed batches
    /// in program order. Batch boundaries are arbitrary — results are
    /// identical for any split of the same event sequence.
    pub fn feed(&mut self, events: &[Event]) {
        let _replay_timer = databp_telemetry::time!("sim.replay");
        databp_telemetry::count!("sim.events.replayed", events.len() as u64);
        for ev in events {
            match *ev {
                Event::Install { obj, ba, ea } => {
                    // Resolve membership before any validity check:
                    // session discovery must see every install, even of
                    // an empty (zero-size) object.
                    let members = match self.member_cache.get(&obj) {
                        Some(&i) => i,
                        None => {
                            self.membership.resolve(&obj, &mut self.scratch);
                            let i = self.core.intern(&self.scratch);
                            self.member_cache.insert(obj, i);
                            i
                        }
                    };
                    self.core.ensure_sessions(self.membership.count());
                    self.core.install(obj, ba, ea, members);
                }
                Event::Remove { obj, ba, .. } => self.core.remove(obj, ba),
                Event::Write { ba, ea, .. } => self.core.write(ba, ea),
                Event::Enter { func } => self.membership.on_enter(func),
                Event::Exit { func } => self.membership.on_exit(func),
            }
        }
    }

    /// Ends the replay: returns the membership (whose discovered
    /// session universe the caller may need to canonicalize) and the
    /// per-size, per-session counts (`[k][s]` = ladder size `k`,
    /// session `s`, for `s` in `0..membership.count()`).
    pub fn finish(mut self) -> (S, Vec<Vec<Counts>>) {
        let n = self.membership.count();
        databp_telemetry::count!("sim.sessions.simulated", n as u64);
        let stats = self.core.stats();
        databp_telemetry::count!("sim.memo.hits", stats.memo_hits);
        databp_telemetry::count!("sim.memo.stale", stats.memo_stale);
        databp_telemetry::count!("sim.memo.new", stats.memo_new);
        databp_telemetry::count!("sim.states.interned", stats.states_interned);
        databp_telemetry::count!("sim.states.transitions", stats.transitions);
        let counts = self.core.counts(n);
        (self.membership, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::TableMembership;
    use crate::simulate_sizes;
    use databp_trace::Trace;

    fn g(id: u32) -> ObjectDesc {
        ObjectDesc::Global { id }
    }

    fn demo_trace() -> Trace {
        Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1010,
            },
            Event::Write {
                pc: 0,
                ba: 0x1000,
                ea: 0x1004,
                value: 0,
                old: 0,
            },
            Event::Write {
                pc: 4,
                ba: 0x1800,
                ea: 0x1804,
                value: 0,
                old: 0,
            },
            Event::Write {
                pc: 8,
                ba: 0x5000,
                ea: 0x5004,
                value: 0,
                old: 0,
            },
            Event::Remove {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1010,
            },
        ])
    }

    #[test]
    fn batched_feed_matches_single_feed() {
        let m = TableMembership::new(vec![(g(0), vec![0])], 1);
        let trace = demo_trace();
        let whole = simulate_sizes(&trace, &m, &[PageSize::K4, PageSize::K8]);
        for batch in [1usize, 2, 3] {
            let mut r =
                StreamingReplay::new(FixedMembership::new(&m), &[PageSize::K4, PageSize::K8]);
            for chunk in trace.events().chunks(batch) {
                r.feed(chunk);
            }
            let (_, counts) = r.finish();
            assert_eq!(counts, whole, "batch size {batch}");
        }
    }

    #[test]
    fn empty_feed_is_harmless() {
        let m = TableMembership::new(vec![], 2);
        let mut r = StreamingReplay::new(FixedMembership::new(&m), &[PageSize::K4]);
        r.feed(&[]);
        let (_, counts) = r.finish();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].len(), 2);
        assert_eq!(counts[0][0], Counts::default());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ladder_is_rejected() {
        let m = TableMembership::new(vec![], 0);
        let _ = StreamingReplay::new(FixedMembership::new(&m), &[PageSize::K8, PageSize::K4]);
    }

    mod properties {
        use super::*;
        use crate::naive::testgen::arb_trace_and_membership;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Streamed replay is byte-identical to the materialized
            /// replay for every batch size — including degenerate
            /// one-event batches and batches larger than the trace.
            #[test]
            fn streamed_matches_materialized((trace, membership) in arb_trace_and_membership()) {
                let ladder = [PageSize::K4, PageSize::K8];
                let whole = simulate_sizes(&trace, &membership, &ladder);
                for batch in [1usize, 7, 4096] {
                    let mut r = StreamingReplay::new(FixedMembership::new(&membership), &ladder);
                    for chunk in trace.events().chunks(batch) {
                        r.feed(chunk);
                    }
                    let (_, counts) = r.finish();
                    prop_assert_eq!(&counts, &whole, "batch size {}", batch);
                }
            }
        }
    }
}
