//! Naive single-session replay — the oracle for the one-pass engine.
//!
//! Replays the trace tracking only one session's monitors, with plain
//! data structures and no event-stamp tricks. O(sessions × trace), used
//! only in tests and as a benchmark baseline.

use crate::membership::Membership;
use databp_machine::PageSize;
use databp_models::Counts;
use databp_trace::{Event, ObjectDesc, Trace};
use std::collections::HashMap;

/// Counts for session `session` alone, by direct replay.
pub fn simulate_naive<M: Membership>(
    trace: &Trace,
    membership: &M,
    page_size: PageSize,
    session: u32,
) -> Counts {
    let mut c = Counts::default();
    let mut active: HashMap<(ObjectDesc, u32), (u32, u32)> = HashMap::new();
    let mut page_count: HashMap<u32, u32> = HashMap::new();
    let mut scratch = Vec::new();
    let mut total_writes = 0u64;

    let is_member = |obj: &ObjectDesc, scratch: &mut Vec<u32>| {
        membership.sessions_of(obj, scratch);
        scratch.contains(&session)
    };

    for ev in trace.events() {
        match *ev {
            Event::Install { obj, ba, ea } => {
                if ba < ea && is_member(&obj, &mut scratch) {
                    active.insert((obj, ba), (ba, ea));
                    c.install += 1;
                    for page in page_size.pages_of_range(ba, ea) {
                        let n = page_count.entry(page).or_insert(0);
                        *n += 1;
                        if *n == 1 {
                            c.vm_protect += 1;
                        }
                    }
                }
            }
            Event::Remove { obj, ba, .. } => {
                if let Some((ba, ea)) = active.remove(&(obj, ba)) {
                    c.remove += 1;
                    for page in page_size.pages_of_range(ba, ea) {
                        let n = page_count.get_mut(&page).expect("counted page");
                        *n -= 1;
                        if *n == 0 {
                            page_count.remove(&page);
                            c.vm_unprotect += 1;
                        }
                    }
                }
            }
            Event::Write { ba, ea, .. } => {
                total_writes += 1;
                if ba >= ea {
                    continue;
                }
                let hit = active.values().any(|&(mba, mea)| ba < mea && mba < ea);
                if hit {
                    c.hit += 1;
                } else {
                    let touches_active_page = page_size
                        .pages_of_range(ba, ea)
                        .any(|p| page_count.contains_key(&p));
                    if touches_active_page {
                        c.vm_active_page_miss += 1;
                    }
                }
            }
            Event::Enter { .. } | Event::Exit { .. } => {}
        }
    }
    c.miss = total_writes - c.hit;
    c
}

/// Shared proptest generators for engine-vs-oracle equivalence tests
/// (also used by the streaming replay's tests).
#[cfg(test)]
pub(crate) mod testgen {
    use crate::membership::TableMembership;
    use databp_trace::{Event, ObjectDesc, Trace};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Random traces where every object is eventually installed before
    /// use and removed at most once per install.
    pub(crate) fn arb_trace_and_membership() -> impl Strategy<Value = (Trace, TableMembership)> {
        // A small universe of objects and a small address space so that
        // page sharing and overlap happen constantly.
        let objs: Vec<ObjectDesc> = vec![
            ObjectDesc::Global { id: 0 },
            ObjectDesc::Global { id: 1 },
            ObjectDesc::Local { func: 0, var: 0 },
            ObjectDesc::Local { func: 0, var: 1 },
            ObjectDesc::Heap { seq: 0 },
            ObjectDesc::Heap { seq: 1 },
        ];
        let n_sessions = 3usize;
        let membership = prop::collection::vec(
            prop::collection::vec(0u32..n_sessions as u32, 0..3),
            objs.len(),
        );
        let script = prop::collection::vec(
            prop_oneof![
                // install object k at a random small range
                (0usize..6, 0u32..0x3000u32, 4u32..64).prop_map(|(k, ba, len)| (0u8, k, ba, len)),
                // remove object k
                (0usize..6).prop_map(|k| (1u8, k, 0, 0)),
                // write
                (0u32..0x3400u32, 1u32..8).prop_map(|(ba, len)| (2u8, 0, ba, len)),
            ],
            1..150,
        );
        (membership, script).prop_map(move |(mem, script)| {
            let objs = objs.clone();
            let mut live: HashMap<usize, (u32, u32)> = HashMap::new();
            let mut tr = Trace::new();
            for (op, k, ba, len) in script {
                match op {
                    0 => {
                        if let std::collections::hash_map::Entry::Vacant(e) = live.entry(k) {
                            let range = (ba, ba + len);
                            e.insert(range);
                            tr.push(Event::Install {
                                obj: objs[k],
                                ba: range.0,
                                ea: range.1,
                            });
                        }
                    }
                    1 => {
                        if let Some((ba, ea)) = live.remove(&k) {
                            tr.push(Event::Remove {
                                obj: objs[k],
                                ba,
                                ea,
                            });
                        }
                    }
                    _ => tr.push(Event::Write {
                        pc: 0,
                        ba,
                        ea: ba + len,
                        value: 0,
                        old: 0,
                    }),
                }
            }
            // Close out, like Tracer::finish.
            let mut leftover: Vec<(usize, (u32, u32))> = live.into_iter().collect();
            leftover.sort_unstable();
            for (k, (ba, ea)) in leftover {
                tr.push(Event::Remove {
                    obj: objs[k],
                    ba,
                    ea,
                });
            }
            let membership = TableMembership::new(
                objs.iter().zip(mem).map(|(o, ss)| (*o, ss)).collect(),
                n_sessions,
            );
            (tr, membership)
        })
    }

    /// Random call loops: the same body runs each iteration between an
    /// enter that installs a frame's locals at the same frame pointer
    /// and an exit that removes them, so page contents keep returning
    /// to earlier states. Body steps write locals, a heap block, the
    /// globals or the frame's surroundings, free the heap block and
    /// allocate it again at the same address, or make a nested call one
    /// frame down. Some iterations run at a deeper frame pointer, so a
    /// span sometimes meets a page state it has not seen before.
    pub(crate) fn arb_call_loop() -> impl Strategy<Value = (Trace, TableMembership)> {
        let objs: Vec<ObjectDesc> = vec![
            ObjectDesc::Global { id: 0 },
            ObjectDesc::Global { id: 1 },
            ObjectDesc::Local { func: 0, var: 0 },
            ObjectDesc::Local { func: 0, var: 1 },
            ObjectDesc::Local { func: 0, var: 2 },
            ObjectDesc::Heap { seq: 0 },
            ObjectDesc::Heap { seq: 1 },
        ];
        let n_sessions = 3usize;
        let membership = prop::collection::vec(
            prop::collection::vec(0u32..n_sessions as u32, 0..3),
            objs.len(),
        );
        let layout = (
            // Frame pointer, locals as (offset below it, length), the
            // heap block, and the two globals' base addresses.
            0x1c00u32..0x4400,
            prop::collection::vec((0u32..0x60, 4u32..16), 1..4),
            (0x0f00u32..0x4800, 8u32..48),
            prop::collection::vec(0x0f00u32..0x4800, 2),
        );
        let body = prop::collection::vec((0u8..6, 0u32..0x100), 1..8);
        // One in five iterations runs a frame deeper.
        let deep = prop::collection::vec(0u8..5, 1..24);
        (membership, layout, body, deep).prop_map(
            move |(mem, (fp, locals, (heap_ba, heap_len), globals), body, deep)| {
                let mut tr = Trace::new();
                let write = |tr: &mut Trace, ba: u32, len: u32| {
                    tr.push(Event::Write {
                        pc: 0,
                        ba,
                        ea: ba + len,
                        value: 0,
                        old: 0,
                    })
                };
                let frame = |tr: &mut Trace, fp: u32, install: bool| {
                    for (k, &(off, len)) in locals.iter().enumerate() {
                        let (obj, ba, ea) = (objs[2 + k], fp - off - len, fp - off);
                        tr.push(if install {
                            Event::Install { obj, ba, ea }
                        } else {
                            Event::Remove { obj, ba, ea }
                        });
                    }
                };
                for (k, &ba) in globals.iter().enumerate() {
                    tr.push(Event::Install {
                        obj: objs[k],
                        ba,
                        ea: ba + 8,
                    });
                }
                let mut heap = 0usize;
                let heap_obj = |k: usize| objs[5 + k];
                tr.push(Event::Install {
                    obj: heap_obj(heap),
                    ba: heap_ba,
                    ea: heap_ba + heap_len,
                });
                for deep in deep {
                    let fp = if deep == 0 { fp - 0x180 } else { fp };
                    frame(&mut tr, fp, true);
                    for &(op, a) in &body {
                        match op {
                            0 => {
                                let (off, len) = locals[a as usize % locals.len()];
                                write(&mut tr, fp - off - len + a % len, 1 + a % 4);
                            }
                            1 => write(&mut tr, heap_ba + a % heap_len, 1 + a % 8),
                            2 => write(&mut tr, globals[a as usize % 2] + a % 8, 4),
                            3 => write(&mut tr, fp - 0x100 + a, 4),
                            4 => {
                                tr.push(Event::Remove {
                                    obj: heap_obj(heap),
                                    ba: heap_ba,
                                    ea: heap_ba + heap_len,
                                });
                                heap = a as usize % 2;
                                tr.push(Event::Install {
                                    obj: heap_obj(heap),
                                    ba: heap_ba,
                                    ea: heap_ba + heap_len,
                                });
                            }
                            _ => {
                                frame(&mut tr, fp - 0x80, true);
                                write(&mut tr, fp - 0x80 - 4 - a % 0x40, 4);
                                frame(&mut tr, fp - 0x80, false);
                            }
                        }
                    }
                    frame(&mut tr, fp, false);
                }
                tr.push(Event::Remove {
                    obj: heap_obj(heap),
                    ba: heap_ba,
                    ea: heap_ba + heap_len,
                });
                for (k, &ba) in globals.iter().enumerate() {
                    tr.push(Event::Remove {
                        obj: objs[k],
                        ba,
                        ea: ba + 8,
                    });
                }
                let membership = TableMembership::new(
                    objs.iter().zip(mem).map(|(o, ss)| (*o, ss)).collect(),
                    n_sessions,
                );
                (tr, membership)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testgen::{arb_call_loop, arb_trace_and_membership};
    use super::*;
    use crate::engine::simulate_sizes;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass engine agrees with per-session naive replay on
        /// every counter, for both page sizes.
        #[test]
        fn engine_matches_naive_oracle((trace, membership) in arb_trace_and_membership()) {
            for ps in [PageSize::K4, PageSize::K8] {
                let fast = simulate_sizes(&trace, &membership, &[ps]).remove(0);
                for s in 0..membership.count() as u32 {
                    let slow = simulate_naive(&trace, &membership, ps, s);
                    prop_assert_eq!(
                        fast[s as usize], slow,
                        "divergence for session {} at page size {}", s, ps
                    );
                }
            }
        }

        /// The fused dual-page-size replay (one walk at `[4K, 8K]`) is
        /// bit-identical to the naive oracle run separately at 4K and
        /// at 8K.
        #[test]
        fn fused_engine_matches_naive_oracle((trace, membership) in arb_trace_and_membership()) {
            let fused = simulate_sizes(&trace, &membership, &[PageSize::K4, PageSize::K8]);
            let (c4, c8) = (&fused[0], &fused[1]);
            for s in 0..membership.count() as u32 {
                let slow4 = simulate_naive(&trace, &membership, PageSize::K4, s);
                let slow8 = simulate_naive(&trace, &membership, PageSize::K8, s);
                prop_assert_eq!(
                    c4[s as usize], slow4,
                    "fused 4K divergence for session {}", s
                );
                prop_assert_eq!(
                    c8[s as usize], slow8,
                    "fused 8K divergence for session {}", s
                );
            }
        }

        /// Call loops, where page contents keep returning to earlier
        /// states and the write memo reuses effects across calls, agree
        /// with the oracle at 4K, 8K and 16K.
        #[test]
        fn call_loops_match_naive_oracle((trace, membership) in arb_call_loop()) {
            let ladder = [PageSize::K4, PageSize::K8, PageSize::K16];
            let fused = simulate_sizes(&trace, &membership, &ladder);
            for (k, &ps) in ladder.iter().enumerate() {
                for s in 0..membership.count() as u32 {
                    let slow = simulate_naive(&trace, &membership, ps, s);
                    prop_assert_eq!(
                        fused[k][s as usize], slow,
                        "call-loop divergence for session {} at page size {}", s, ps
                    );
                }
            }
        }

        /// The fused `[4K, 8K]` ladder is byte-identical to two
        /// single-size replays.
        #[test]
        fn ladder_pair_matches_fused((trace, membership) in arb_trace_and_membership()) {
            let ladder = simulate_sizes(&trace, &membership, &[PageSize::K4, PageSize::K8]);
            let c4 = simulate_sizes(&trace, &membership, &[PageSize::K4]).remove(0);
            let c8 = simulate_sizes(&trace, &membership, &[PageSize::K8]).remove(0);
            prop_assert_eq!(&ladder[0], &c4);
            prop_assert_eq!(&ladder[1], &c8);
        }

        /// A four-size ladder matches the naive oracle at every size —
        /// one trace walk, four sets of page-derived counters.
        #[test]
        fn ladder_matches_naive_oracle((trace, membership) in arb_trace_and_membership()) {
            let ladder = [PageSize::K4, PageSize::K8, PageSize::K16, PageSize::K32];
            let fused = simulate_sizes(&trace, &membership, &ladder);
            for (k, &ps) in ladder.iter().enumerate() {
                for s in 0..membership.count() as u32 {
                    let slow = simulate_naive(&trace, &membership, ps, s);
                    prop_assert_eq!(
                        fused[k][s as usize], slow,
                        "ladder divergence for session {} at page size {}", s, ps
                    );
                }
            }
        }
    }
}
