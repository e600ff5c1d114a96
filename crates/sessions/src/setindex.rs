//! [`SessionSet`]: indexed membership for the one-pass simulator.

use crate::enumerate::heap_contexts;
use crate::kinds::Session;
use databp_sim::Membership;
use databp_tinyc::DebugInfo;
use databp_trace::{ObjectDesc, Trace};
use std::collections::HashMap;

/// A set of sessions indexed for O(1) object→sessions lookup, the
/// [`Membership`] implementation fed to [`databp_sim::simulate_sizes`].
#[derive(Debug, Clone)]
pub struct SessionSet {
    sessions: Vec<Session>,
    by_local: HashMap<(u16, u16), u32>,
    by_allloc: HashMap<u16, u32>,
    by_global: HashMap<u32, u32>,
    static_owner: HashMap<u32, u16>,
    by_heap: HashMap<u32, u32>,
    by_allheap: HashMap<u16, u32>,
    heap_ctx: HashMap<u32, Vec<u16>>,
}

impl SessionSet {
    /// Indexes `sessions` for the program described by `debug` and the
    /// run recorded in `trace` (needed for heap allocation contexts).
    pub fn new(sessions: Vec<Session>, debug: &DebugInfo, trace: &Trace) -> Self {
        SessionSet::with_contexts(sessions, debug, heap_contexts(trace))
    }

    /// Indexes `sessions`, resolving heap objects through `heap_ctx`
    /// (allocation sequence number → context function ids) — which the
    /// streaming path starts empty and grows with
    /// [`SessionSet::discover_heap`].
    pub(crate) fn with_contexts(
        sessions: Vec<Session>,
        debug: &DebugInfo,
        heap_ctx: HashMap<u32, Vec<u16>>,
    ) -> Self {
        let static_owner = debug
            .globals
            .iter()
            .filter_map(|g| Some((g.id, g.owner?)))
            .collect();
        let mut s = SessionSet {
            sessions: Vec::with_capacity(sessions.len()),
            by_local: HashMap::new(),
            by_allloc: HashMap::new(),
            by_global: HashMap::new(),
            static_owner,
            by_heap: HashMap::new(),
            by_allheap: HashMap::new(),
            heap_ctx,
        };
        for sess in sessions {
            s.push(sess);
        }
        s
    }

    /// Appends `sess` and indexes it under the next session index.
    fn push(&mut self, sess: Session) {
        let i = self.sessions.len() as u32;
        match sess {
            Session::OneLocalAuto { func, var } => self.by_local.insert((func, var), i),
            Session::AllLocalInFunc { func } => self.by_allloc.insert(func, i),
            Session::OneGlobalStatic { global } => self.by_global.insert(global, i),
            Session::OneHeap { seq } => self.by_heap.insert(seq, i),
            Session::AllHeapInFunc { func } => self.by_allheap.insert(func, i),
        };
        self.sessions.push(sess);
    }

    /// Online heap discovery: on the first sighting of allocation
    /// `seq`, records `stack` (the dynamic call stack at that instant,
    /// deduplicated) as its context and appends its `OneHeap` session
    /// plus an `AllHeapInFunc` session for every context function not
    /// seen before. Later sightings (realloc re-installs) change
    /// nothing.
    pub(crate) fn discover_heap(&mut self, seq: u32, stack: &[u16]) {
        if self.by_heap.contains_key(&seq) {
            return;
        }
        self.push(Session::OneHeap { seq });
        let mut fids = stack.to_vec();
        fids.sort_unstable();
        fids.dedup();
        for &func in &fids {
            if !self.by_allheap.contains_key(&func) {
                self.push(Session::AllHeapInFunc { func });
            }
        }
        self.heap_ctx.insert(seq, fids);
    }

    /// The indexed sessions, in index order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The session at index `i`.
    pub fn session(&self, i: u32) -> Session {
        self.sessions[i as usize]
    }
}

impl Membership for SessionSet {
    fn count(&self) -> usize {
        self.sessions.len()
    }

    fn sessions_of(&self, obj: &ObjectDesc, out: &mut Vec<u32>) {
        out.clear();
        match *obj {
            ObjectDesc::Local { func, var } => {
                if let Some(&i) = self.by_local.get(&(func, var)) {
                    out.push(i);
                }
                if let Some(&i) = self.by_allloc.get(&func) {
                    out.push(i);
                }
            }
            ObjectDesc::Global { id } => match self.static_owner.get(&id) {
                Some(owner) => {
                    if let Some(&i) = self.by_allloc.get(owner) {
                        out.push(i);
                    }
                }
                None => {
                    if let Some(&i) = self.by_global.get(&id) {
                        out.push(i);
                    }
                }
            },
            ObjectDesc::Heap { seq } => {
                if let Some(&i) = self.by_heap.get(&seq) {
                    out.push(i);
                }
                if let Some(fids) = self.heap_ctx.get(&seq) {
                    for f in fids {
                        if let Some(&i) = self.by_allheap.get(f) {
                            out.push(i);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_sessions;
    use databp_machine::{Machine, StopReason};
    use databp_tinyc::{compile, Options};
    use databp_trace::Tracer;

    fn setup(src: &str) -> (DebugInfo, Trace, SessionSet) {
        let c = compile(src, &Options::plain()).unwrap();
        let mut m = Machine::new();
        m.load(&c.program);
        let mut tracer = Tracer::new(c.debug.frame_map(), c.debug.global_specs())
            .with_untraced(c.debug.untraced_store_pcs.clone());
        tracer.begin();
        assert_eq!(m.run(&mut tracer, 50_000_000).unwrap(), StopReason::Halted);
        let trace = tracer.finish();
        let sessions = enumerate_sessions(&c.debug, &trace);
        let set = SessionSet::new(sessions, &c.debug, &trace);
        (c.debug, trace, set)
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

    #[test]
    fn local_objects_map_to_both_local_session_types() {
        let (debug, _, set) = setup(SRC);
        let f = debug.func_id("alloc_one").unwrap();
        let mut out = Vec::new();
        set.sessions_of(&ObjectDesc::Local { func: f, var: 0 }, &mut out);
        assert_eq!(out.len(), 2);
        let kinds: Vec<_> = out.iter().map(|&i| set.session(i).kind()).collect();
        assert!(kinds.contains(&crate::SessionKind::OneLocalAuto));
        assert!(kinds.contains(&crate::SessionKind::AllLocalInFunc));
    }

    #[test]
    fn statics_map_to_owner_allloc_only() {
        let (debug, _, set) = setup(SRC);
        let worker = debug.func_id("worker").unwrap();
        let static_gid = debug
            .globals
            .iter()
            .find(|g| g.owner == Some(worker))
            .unwrap()
            .id;
        let mut out = Vec::new();
        set.sessions_of(&ObjectDesc::Global { id: static_gid }, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            set.session(out[0]),
            Session::AllLocalInFunc { func: worker }
        );
    }

    #[test]
    fn file_scope_global_maps_to_one_global_static() {
        let (debug, _, set) = setup(SRC);
        let gid = debug.global("g").unwrap().id;
        let mut out = Vec::new();
        set.sessions_of(&ObjectDesc::Global { id: gid }, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            set.session(out[0]),
            Session::OneGlobalStatic { global: gid }
        );
    }

    #[test]
    fn heap_objects_map_to_one_heap_and_context_funcs() {
        let (debug, _, set) = setup(SRC);
        let mut out = Vec::new();
        set.sessions_of(&ObjectDesc::Heap { seq: 0 }, &mut out);
        // OneHeap(0) + AllHeapInFunc for alloc_one, worker, main.
        assert_eq!(out.len(), 4, "{out:?}");
        let _ = debug;
    }

    #[test]
    fn unknown_objects_map_to_nothing() {
        let (_, _, set) = setup(SRC);
        let mut out = Vec::new();
        set.sessions_of(&ObjectDesc::Heap { seq: 999 }, &mut out);
        assert!(out.is_empty());
        set.sessions_of(&ObjectDesc::Local { func: 99, var: 0 }, &mut out);
        assert!(out.is_empty());
    }
}
