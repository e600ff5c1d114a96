//! [`StreamSessionSet`]: online session discovery for the streaming
//! pipeline.
//!
//! The materialized pipeline enumerates sessions *after* the run
//! ([`crate::enumerate_sessions`] needs the whole trace for heap
//! allocation contexts) and then replays against a fixed
//! [`crate::SessionSet`]. When replay overlaps trace generation, the
//! session universe cannot be known up front, so this type discovers it
//! from the event stream itself: the statically-known sessions (locals,
//! per-function groups, globals) are indexed at construction from debug
//! info alone, and heap sessions (`OneHeap`, `AllHeapInFunc`) are
//! appended to the same [`crate::SessionSet`] index the moment the
//! first install of the allocation is resolved —
//! with the dynamic call stack at that instant as the allocation
//! context, exactly what [`crate::heap_contexts`] would later compute.
//!
//! Discovery order is a run artifact, so [`StreamSessionSet::into_canonical`]
//! finishes the job: it returns the session list in
//! [`crate::enumerate_sessions`] order plus the permutation taking
//! discovery indices to canonical ones, letting callers reorder
//! per-session counts and stay byte-compatible with the materialized
//! pipeline.

use crate::enumerate::static_sessions;
use crate::kinds::Session;
use crate::setindex::SessionSet;
use databp_sim::{Membership, StreamMembership};
use databp_tinyc::DebugInfo;
use databp_trace::ObjectDesc;
use std::collections::HashMap;

/// Session membership that grows as the event stream reveals heap
/// allocations. Resolution is [`crate::SessionSet::sessions_of`] over
/// a [`SessionSet`] indexed in discovery order.
#[derive(Debug, Clone)]
pub struct StreamSessionSet {
    /// Discovery order: the static prefix, then heap sessions as seen.
    set: SessionSet,
    /// Dynamic call stack, maintained from `Enter`/`Exit` events.
    stack: Vec<u16>,
    n_static: usize,
}

impl StreamSessionSet {
    /// Indexes the statically-known sessions of `debug`; heap sessions
    /// are discovered during the stream.
    pub fn new(debug: &DebugInfo) -> Self {
        let statics = static_sessions(debug);
        StreamSessionSet {
            n_static: statics.len(),
            set: SessionSet::with_contexts(statics, debug, HashMap::new()),
            stack: Vec::new(),
        }
    }

    /// The discovered sessions so far, in discovery order.
    pub fn sessions(&self) -> &[Session] {
        self.set.sessions()
    }

    /// Finishes discovery: the session list reordered to match
    /// [`crate::enumerate_sessions`] (static prefix, then `OneHeap` by
    /// ascending sequence number, then `AllHeapInFunc` by ascending
    /// function id), plus the permutation `perm` with
    /// `canonical[perm[i]] == discovered[i]` — apply it to per-session
    /// results indexed by discovery order.
    pub fn into_canonical(self) -> (Vec<Session>, Vec<u32>) {
        let sessions = self.set.sessions();
        let mut order: Vec<u32> = (0..sessions.len() as u32).collect();
        // The tail holds only heap sessions, and `Session`'s derived
        // order puts `OneHeap` before `AllHeapInFunc`, each by id.
        order[self.n_static..].sort_unstable_by_key(|&i| sessions[i as usize]);
        let mut perm = vec![0u32; order.len()];
        for (c, &d) in order.iter().enumerate() {
            perm[d as usize] = c as u32;
        }
        let canonical = order.iter().map(|&d| sessions[d as usize]).collect();
        (canonical, perm)
    }
}

impl StreamMembership for StreamSessionSet {
    fn count(&self) -> usize {
        self.set.count()
    }

    fn on_enter(&mut self, func: u16) {
        self.stack.push(func);
    }

    fn on_exit(&mut self, _func: u16) {
        self.stack.pop();
    }

    fn resolve(&mut self, obj: &ObjectDesc, out: &mut Vec<u32>) {
        if let ObjectDesc::Heap { seq } = *obj {
            self.set.discover_heap(seq, &self.stack);
        }
        self.set.sessions_of(obj, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_sessions;
    use crate::setindex::SessionSet;
    use databp_machine::{Machine, StopReason};
    use databp_sim::Membership;
    use databp_tinyc::{compile, Options};
    use databp_trace::{Event, Trace, Tracer};

    fn trace_of(src: &str) -> (DebugInfo, Trace) {
        let c = compile(src, &Options::plain()).unwrap();
        let mut m = Machine::new();
        m.load(&c.program);
        let mut tracer = Tracer::new(c.debug.frame_map(), c.debug.global_specs())
            .with_untraced(c.debug.untraced_store_pcs.clone());
        tracer.begin();
        assert_eq!(m.run(&mut tracer, 50_000_000).unwrap(), StopReason::Halted);
        (c.debug, tracer.finish())
    }

    const SRC: &str = r#"
        int g;
        int alloc_one(int n) {
            int *p;
            p = (int*)malloc(8);
            p[0] = n;
            free((char*)p);
            return n;
        }
        int worker() { static int calls; calls = calls + 1; return alloc_one(calls); }
        int main() { g = worker() + worker(); return g; }
    "#;

    /// Drives a StreamSessionSet over a trace the way the streaming
    /// replay does: enter/exit bookkeeping plus resolve at installs.
    fn discover(debug: &DebugInfo, trace: &Trace) -> StreamSessionSet {
        let mut set = StreamSessionSet::new(debug);
        let mut out = Vec::new();
        for ev in trace.events() {
            match *ev {
                Event::Enter { func } => set.on_enter(func),
                Event::Exit { func } => set.on_exit(func),
                Event::Install { obj, .. } => set.resolve(&obj, &mut out),
                _ => {}
            }
        }
        set
    }

    #[test]
    fn canonical_order_matches_enumerate_sessions() {
        let (debug, trace) = trace_of(SRC);
        let expected = enumerate_sessions(&debug, &trace);
        let (canonical, perm) = discover(&debug, &trace).into_canonical();
        assert_eq!(canonical, expected);
        // perm is a permutation: every canonical index hit exactly once.
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn permutation_maps_discovery_to_canonical() {
        let (debug, trace) = trace_of(SRC);
        let set = discover(&debug, &trace);
        let discovered = set.sessions().to_vec();
        let (canonical, perm) = set.into_canonical();
        for (i, s) in discovered.iter().enumerate() {
            assert_eq!(canonical[perm[i] as usize], *s);
        }
    }

    #[test]
    fn resolution_agrees_with_session_set_up_to_permutation() {
        let (debug, trace) = trace_of(SRC);
        let sessions = enumerate_sessions(&debug, &trace);
        let fixed = SessionSet::new(sessions, &debug, &trace);

        let mut stream = StreamSessionSet::new(&debug);
        let mut out = Vec::new();
        let mut resolved: Vec<(databp_trace::ObjectDesc, Vec<u32>)> = Vec::new();
        for ev in trace.events() {
            match *ev {
                Event::Enter { func } => stream.on_enter(func),
                Event::Exit { func } => stream.on_exit(func),
                Event::Install { obj, .. } => {
                    stream.resolve(&obj, &mut out);
                    resolved.push((obj, out.clone()));
                }
                _ => {}
            }
        }
        let (_, perm) = stream.into_canonical();
        let mut expect = Vec::new();
        for (obj, got) in resolved {
            fixed.sessions_of(&obj, &mut expect);
            let mut mapped: Vec<u32> = got.iter().map(|&i| perm[i as usize]).collect();
            mapped.sort_unstable();
            let mut want = expect.clone();
            want.sort_unstable();
            assert_eq!(mapped, want, "membership mismatch for {obj}");
        }
    }

    #[test]
    fn no_heap_program_discovers_only_the_static_prefix() {
        let (debug, trace) = trace_of("int g; int main() { g = 1; return g; }");
        let expected = enumerate_sessions(&debug, &trace);
        let set = discover(&debug, &trace);
        assert_eq!(set.sessions(), expected.as_slice());
        let (canonical, perm) = set.into_canonical();
        assert_eq!(canonical, expected);
        assert!(perm.iter().enumerate().all(|(i, &p)| p as usize == i));
    }
}
