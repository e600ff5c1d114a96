//! Machine instrumentation: turning a run into a program event trace.
//!
//! [`Tracer`] plugs into [`databp_machine::Machine::run`] as a
//! [`Hooks`] implementation. It needs two pieces of static information
//! from the compiler:
//!
//! * a [`FrameMap`] — for each function id, where its local automatic
//!   variables live relative to the frame pointer, so `Enter`/`Exit`
//!   marks expand into per-instantiation `Install`/`Remove` events
//!   ("write monitors for automatic variables are installed and removed
//!   on function boundaries", Section 6);
//! * a [`GlobalSpec`] table — address ranges of globals and
//!   function-statics, installed once at run start.

use crate::event::{Event, EventSink, ObjectDesc, Trace};
use databp_machine::{Hooks, StoreEvent, CODE_BASE};
use std::collections::HashMap;

/// Set of store pcs excluded from the trace, as a bitset indexed by code
/// word — [`Tracer::on_store`] runs once per traced store, so membership
/// must be O(1) rather than a binary search.
#[derive(Debug, Clone, Default)]
struct UntracedPcs {
    /// Bit `(pc - CODE_BASE) / 4` is set when `pc` is untraced.
    bits: Vec<u64>,
}

impl UntracedPcs {
    fn new(pcs: &[u32]) -> Self {
        let mut bits = Vec::new();
        for &pc in pcs {
            let word = (pc.wrapping_sub(CODE_BASE) / 4) as usize;
            let slot = word / 64;
            if slot >= bits.len() {
                bits.resize(slot + 1, 0u64);
            }
            bits[slot] |= 1u64 << (word % 64);
        }
        UntracedPcs { bits }
    }

    #[inline]
    fn contains(&self, pc: u32) -> bool {
        let word = (pc.wrapping_sub(CODE_BASE) / 4) as usize;
        match self.bits.get(word / 64) {
            Some(slot) => slot & (1u64 << (word % 64)) != 0,
            None => false,
        }
    }
}

/// One local automatic variable's slot in a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameVar {
    /// Variable index within the function (matches
    /// [`ObjectDesc::Local::var`]).
    pub var: u16,
    /// Offset of the variable's first byte relative to the frame pointer
    /// (negative: below `fp`).
    pub offset: i32,
    /// Size in bytes.
    pub size: u32,
}

/// Per-function frame layouts, indexed by function id.
#[derive(Debug, Clone, Default)]
pub struct FrameMap {
    /// `funcs[fid]` lists the local automatic variables of function `fid`.
    pub funcs: Vec<Vec<FrameVar>>,
}

impl FrameMap {
    /// Frame variables of function `fid`; unknown functions have none.
    pub fn vars(&self, fid: u16) -> &[FrameVar] {
        self.funcs
            .get(fid as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// A global or function-static variable's placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSpec {
    /// Global table index (matches [`ObjectDesc::Global::id`]).
    pub id: u32,
    /// Beginning address.
    pub ba: u32,
    /// Ending address (exclusive).
    pub ea: u32,
}

/// A [`Hooks`] implementation that records the program event trace.
///
/// Use [`Tracer::begin`] before running (it installs global monitors) and
/// [`Tracer::finish`] afterwards (it unwinds outstanding frames, frees
/// live heap objects, and removes globals so every `Install` has a
/// matching `Remove`).
///
/// The tracer is generic over its [`EventSink`]: [`Tracer::new`] records
/// into a materialized [`Trace`], while [`Tracer::with_sink`] streams the
/// same events into any sink (e.g. [`BatchSink`](crate::BatchSink), which
/// feeds the replay engine while the run goes on).
#[derive(Debug)]
pub struct Tracer<S: EventSink = Trace> {
    frame_map: FrameMap,
    globals: Vec<GlobalSpec>,
    sink: S,
    /// Stack of (fid, fp) for frames currently live.
    frames: Vec<(u16, u32)>,
    /// Live heap objects: seq -> (ba, ea).
    live_heap: HashMap<u32, (u32, u32)>,
    /// Byte pcs of implicit stores to exclude from the trace
    /// (the paper: "implicit writes (e.g., register spilling) do not
    /// appear in the trace").
    untraced_pcs: UntracedPcs,
    begun: bool,
}

impl Tracer<Trace> {
    /// Creates a tracer for a program with the given frame layouts and
    /// globals, recording into a materialized [`Trace`].
    pub fn new(frame_map: FrameMap, globals: Vec<GlobalSpec>) -> Self {
        Tracer::with_sink(frame_map, globals, Trace::new())
    }

    /// The trace recorded so far (mainly for tests).
    pub fn trace(&self) -> &Trace {
        &self.sink
    }
}

impl<S: EventSink> Tracer<S> {
    /// Creates a tracer emitting into `sink`.
    pub fn with_sink(frame_map: FrameMap, globals: Vec<GlobalSpec>, sink: S) -> Self {
        Tracer {
            frame_map,
            globals,
            sink,
            frames: Vec::new(),
            live_heap: HashMap::new(),
            untraced_pcs: UntracedPcs::default(),
            begun: false,
        }
    }

    /// Excludes the given store pcs from the trace — pass the compiler's
    /// implicit-store list (`DebugInfo::untraced_store_pcs`).
    pub fn with_untraced(mut self, pcs: Vec<u32>) -> Self {
        self.untraced_pcs = UntracedPcs::new(&pcs);
        self
    }

    /// Emits `Install` events for all globals. Call once, before the run.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn begin(&mut self) {
        assert!(!self.begun, "Tracer::begin called twice");
        self.begun = true;
        for g in &self.globals {
            self.sink.emit(Event::Install {
                obj: ObjectDesc::Global { id: g.id },
                ba: g.ba,
                ea: g.ea,
            });
        }
    }

    /// Closes the trace: removes monitors for any still-live frames
    /// (program may have exited from a nested call), live heap objects,
    /// and globals. Returns the sink.
    pub fn finish(mut self) -> S {
        while let Some((fid, fp)) = self.frames.pop() {
            Self::emit_frame(&self.frame_map, &mut self.sink, fid, fp, false);
            self.sink.emit(Event::Exit { func: fid });
        }
        let mut live: Vec<(u32, (u32, u32))> = self.live_heap.drain().collect();
        live.sort_unstable();
        for (seq, (ba, ea)) in live {
            self.sink.emit(Event::Remove {
                obj: ObjectDesc::Heap { seq },
                ba,
                ea,
            });
        }
        for g in self.globals.iter().rev() {
            self.sink.emit(Event::Remove {
                obj: ObjectDesc::Global { id: g.id },
                ba: g.ba,
                ea: g.ea,
            });
        }
        self.sink
    }

    fn emit_frame(map: &FrameMap, sink: &mut S, fid: u16, fp: u32, install: bool) {
        for v in map.vars(fid) {
            let ba = fp.wrapping_add(v.offset as u32);
            let ea = ba + v.size;
            let obj = ObjectDesc::Local {
                func: fid,
                var: v.var,
            };
            sink.emit(if install {
                Event::Install { obj, ba, ea }
            } else {
                Event::Remove { obj, ba, ea }
            });
        }
    }
}

impl<S: EventSink> Hooks for Tracer<S> {
    fn on_store(&mut self, ev: &StoreEvent) {
        if self.untraced_pcs.contains(ev.pc) {
            return;
        }
        self.sink.emit(Event::Write {
            pc: ev.pc,
            ba: ev.addr,
            ea: ev.addr + ev.len,
            value: ev.value,
            old: ev.old,
        });
    }

    fn on_enter(&mut self, fid: u16, fp: u32, _sp: u32) {
        self.frames.push((fid, fp));
        self.sink.emit(Event::Enter { func: fid });
        Self::emit_frame(&self.frame_map, &mut self.sink, fid, fp, true);
    }

    fn on_exit(&mut self, fid: u16, fp: u32, _sp: u32) {
        match self.frames.pop() {
            Some((top_fid, top_fp)) => {
                debug_assert_eq!(top_fid, fid, "mismatched function exit");
                debug_assert_eq!(top_fp, fp, "frame pointer changed between enter and exit");
            }
            None => debug_assert!(false, "exit with no live frame"),
        }
        Self::emit_frame(&self.frame_map, &mut self.sink, fid, fp, false);
        self.sink.emit(Event::Exit { func: fid });
    }

    fn on_heap_alloc(&mut self, seq: u32, ba: u32, ea: u32) {
        self.live_heap.insert(seq, (ba, ea));
        self.sink.emit(Event::Install {
            obj: ObjectDesc::Heap { seq },
            ba,
            ea,
        });
    }

    fn on_heap_free(&mut self, seq: u32, ba: u32, ea: u32) {
        self.live_heap.remove(&seq);
        self.sink.emit(Event::Remove {
            obj: ObjectDesc::Heap { seq },
            ba,
            ea,
        });
    }

    fn on_heap_realloc(&mut self, seq: u32, old: (u32, u32), new: (u32, u32)) {
        self.live_heap.insert(seq, new);
        let obj = ObjectDesc::Heap { seq };
        self.sink.emit(Event::Remove {
            obj,
            ba: old.0,
            ea: old.1,
        });
        self.sink.emit(Event::Install {
            obj,
            ba: new.0,
            ea: new.1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_machine::{asm, Machine, NoHooks, Program, StopReason, DATA_BASE};

    fn frame_map_one_func() -> FrameMap {
        FrameMap {
            funcs: vec![vec![
                FrameVar {
                    var: 0,
                    offset: -4,
                    size: 4,
                },
                FrameVar {
                    var: 1,
                    offset: -12,
                    size: 8,
                },
            ]],
        }
    }

    #[test]
    fn untraced_pc_bitset_membership() {
        let pcs = vec![CODE_BASE, CODE_BASE + 8, CODE_BASE + 4 * 1000];
        let set = UntracedPcs::new(&pcs);
        for &pc in &pcs {
            assert!(set.contains(pc), "pc {pc:#x} should be untraced");
        }
        assert!(!set.contains(CODE_BASE + 4));
        assert!(!set.contains(CODE_BASE + 4 * 999));
        assert!(!set.contains(CODE_BASE + 4 * 1001));
        assert!(!set.contains(0)); // below the code segment
        assert!(!UntracedPcs::default().contains(CODE_BASE));
    }

    #[test]
    fn untraced_stores_do_not_reach_the_trace() {
        let mut tr = Tracer::new(FrameMap::default(), vec![]).with_untraced(vec![CODE_BASE + 4]);
        tr.begin();
        tr.on_store(&StoreEvent {
            pc: CODE_BASE + 4,
            addr: DATA_BASE,
            len: 4,
            value: 0,
            old: 0,
        });
        tr.on_store(&StoreEvent {
            pc: CODE_BASE + 8,
            addr: DATA_BASE,
            len: 4,
            value: 0,
            old: 0,
        });
        let t = tr.finish();
        assert_eq!(t.stats().writes, 1, "only the traced store appears");
    }

    #[test]
    fn begin_installs_globals_finish_removes_them() {
        let globals = vec![
            GlobalSpec {
                id: 0,
                ba: DATA_BASE,
                ea: DATA_BASE + 4,
            },
            GlobalSpec {
                id: 1,
                ba: DATA_BASE + 4,
                ea: DATA_BASE + 104,
            },
        ];
        let mut tr = Tracer::new(FrameMap::default(), globals);
        tr.begin();
        let t = tr.finish();
        assert_eq!(t.len(), 4);
        assert!(matches!(
            t.events()[0],
            Event::Install {
                obj: ObjectDesc::Global { id: 0 },
                ..
            }
        ));
        assert!(matches!(
            t.events()[3],
            Event::Remove {
                obj: ObjectDesc::Global { id: 0 },
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "begin called twice")]
    fn double_begin_panics() {
        let mut tr = Tracer::new(FrameMap::default(), vec![]);
        tr.begin();
        tr.begin();
    }

    #[test]
    fn enter_exit_install_remove_locals_at_fp_relative_addresses() {
        let mut tr = Tracer::new(frame_map_one_func(), vec![]);
        tr.begin();
        tr.on_enter(0, 0x00F0_0000, 0x00EF_FFE0);
        tr.on_exit(0, 0x00F0_0000, 0x00EF_FFE0);
        let t = tr.finish();
        let ev = t.events();
        assert_eq!(ev[0], Event::Enter { func: 0 });
        assert_eq!(
            ev[1],
            Event::Install {
                obj: ObjectDesc::Local { func: 0, var: 0 },
                ba: 0x00F0_0000 - 4,
                ea: 0x00F0_0000,
            }
        );
        assert_eq!(
            ev[2],
            Event::Install {
                obj: ObjectDesc::Local { func: 0, var: 1 },
                ba: 0x00F0_0000 - 12,
                ea: 0x00F0_0000 - 4,
            }
        );
        assert!(matches!(
            ev[3],
            Event::Remove {
                obj: ObjectDesc::Local { var: 0, .. },
                ..
            }
        ));
        assert!(matches!(
            ev[4],
            Event::Remove {
                obj: ObjectDesc::Local { var: 1, .. },
                ..
            }
        ));
        assert_eq!(ev[5], Event::Exit { func: 0 });
    }

    #[test]
    fn finish_unwinds_outstanding_frames() {
        let mut tr = Tracer::new(frame_map_one_func(), vec![]);
        tr.begin();
        tr.on_enter(0, 0x00F0_0000, 0);
        // Program exits without returning.
        let t = tr.finish();
        let removes = t
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Remove {
                        obj: ObjectDesc::Local { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(removes, 2);
        assert_eq!(t.stats().installs, t.stats().removes);
    }

    #[test]
    fn finish_removes_live_heap_objects() {
        let mut tr = Tracer::new(FrameMap::default(), vec![]);
        tr.begin();
        tr.on_heap_alloc(0, 0x40_0000, 0x40_0010);
        tr.on_heap_alloc(1, 0x40_0010, 0x40_0020);
        tr.on_heap_free(0, 0x40_0000, 0x40_0010);
        let t = tr.finish();
        assert_eq!(t.stats().installs, 2);
        assert_eq!(t.stats().removes, 2);
    }

    #[test]
    fn realloc_is_remove_plus_install_of_same_object() {
        let mut tr = Tracer::new(FrameMap::default(), vec![]);
        tr.begin();
        tr.on_heap_alloc(7, 0x40_0000, 0x40_0008);
        tr.on_heap_realloc(7, (0x40_0000, 0x40_0008), (0x40_0100, 0x40_0140));
        let t = tr.finish();
        let heap_events: Vec<_> = t
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Install {
                        obj: ObjectDesc::Heap { seq: 7 },
                        ..
                    } | Event::Remove {
                        obj: ObjectDesc::Heap { seq: 7 },
                        ..
                    }
                )
            })
            .collect();
        // install, remove(old), install(new), remove(at finish)
        assert_eq!(heap_events.len(), 4);
    }

    #[test]
    fn traces_a_real_machine_run() {
        // One function with a local at fp-4; writes it twice.
        let prog = Program::from_asm(&[
            asm::addi(29, 29, -16), // sp -= 16
            asm::addi(30, 29, 16),  // fp = sp + 16
            asm::mark_enter(0),
            asm::addi(9, 0, 1),
            asm::sw(9, 30, -4),
            asm::addi(9, 0, 2),
            asm::sw(9, 30, -4),
            asm::mark_exit(0),
            asm::halt(),
        ]);
        let mut machine = Machine::new();
        machine.load(&prog);
        let fm = FrameMap {
            funcs: vec![vec![FrameVar {
                var: 0,
                offset: -4,
                size: 4,
            }]],
        };
        let mut tracer = Tracer::new(fm, vec![]);
        tracer.begin();
        assert_eq!(machine.run(&mut tracer, 1000).unwrap(), StopReason::Halted);
        let t = tracer.finish();
        let s = t.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.installs, 1);
        assert_eq!(s.removes, 1);
        // The write events land inside the installed local's range.
        let (ba, ea) = t
            .events()
            .iter()
            .find_map(|e| match e {
                Event::Install { ba, ea, .. } => Some((*ba, *ea)),
                _ => None,
            })
            .unwrap();
        for e in t.events() {
            if let Event::Write {
                ba: wba, ea: wea, ..
            } = e
            {
                assert!(*wba >= ba && *wea <= ea);
            }
        }
        // NoHooks run for comparison: same machine behaviour.
        let mut m2 = Machine::new();
        m2.load(&prog);
        m2.run(&mut NoHooks, 1000).unwrap();
        assert_eq!(m2.cpu().pc(), machine.cpu().pc());
    }
}
