//! A naive interval-list monitor index.
//!
//! Linear scan over all installed monitors. Used two ways:
//!
//! * as the **oracle** for property-testing [`PageMap`] — the two must
//!   agree on byte-exact hits for any operation sequence;
//! * as the **ablation baseline** for the lookup structure (the
//!   lookup-structure paragraph of EXPERIMENTS.md's "Benchmarks"
//!   section records the measurement): the paper's
//!   hash-table-of-bitmaps design exists because per-write lookups
//!   must be cheap even with hundreds of monitors installed.

use crate::monitor::{Monitor, MonitorId};

/// A flat list of installed monitors with linear-scan lookup.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    entries: Vec<(MonitorId, Monitor)>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Number of installed monitors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs monitor `m` under identity `id`.
    pub fn install(&mut self, id: MonitorId, m: Monitor) {
        self.entries.push((id, m));
    }

    /// Removes the monitor installed under `id`; returns whether it was
    /// present.
    pub fn remove(&mut self, id: MonitorId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(eid, _)| *eid != id);
        self.entries.len() != before
    }

    /// Byte-exact hit test.
    pub fn hit_exact(&self, ba: u32, ea: u32) -> bool {
        ba < ea && self.entries.iter().any(|(_, m)| m.overlaps(ba, ea))
    }

    /// Collects every monitor id overlapping the write.
    pub fn hits(&self, ba: u32, ea: u32, out: &mut Vec<MonitorId>) {
        out.clear();
        if ba >= ea {
            return;
        }
        for &(id, m) in &self.entries {
            if m.overlaps(ba, ea) && !out.contains(&id) {
                out.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagemap::PageMap;
    use proptest::prelude::*;

    fn m(ba: u32, ea: u32) -> Monitor {
        Monitor::new(ba, ea).unwrap()
    }

    #[test]
    fn basic_install_remove_hit() {
        let mut s = IntervalSet::new();
        s.install(MonitorId(1), m(10, 20));
        assert!(s.hit_exact(15, 16));
        assert!(!s.hit_exact(20, 24));
        assert!(s.remove(MonitorId(1)));
        assert!(!s.remove(MonitorId(1)));
        assert!(s.is_empty());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Install(u32, u32),
        RemoveNth(usize),
        Check(u32, u32),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Small address space so operations collide often.
        let addr = 0u32..0x4000;
        prop_oneof![
            (addr.clone(), 1u32..64).prop_map(|(ba, len)| Op::Install(ba, ba + len)),
            (0usize..8).prop_map(Op::RemoveNth),
            (addr, 1u32..16).prop_map(|(ba, len)| Op::Check(ba, ba + len)),
        ]
    }

    proptest! {
        /// PageMap and IntervalSet agree on byte-exact hits under any
        /// interleaving of installs, removes, and checks.
        #[test]
        fn pagemap_matches_interval_oracle(ops in prop::collection::vec(arb_op(), 1..120)) {
            let mut pm = PageMap::new();
            let mut oracle = IntervalSet::new();
            let mut live: Vec<(MonitorId, Monitor)> = Vec::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Install(ba, ea) => {
                        let id = MonitorId(next);
                        next += 1;
                        let mon = m(ba, ea);
                        pm.install(id, mon);
                        oracle.install(id, mon);
                        live.push((id, mon));
                    }
                    Op::RemoveNth(n) => {
                        if !live.is_empty() {
                            let (id, mon) = live.remove(n % live.len());
                            prop_assert!(pm.remove(id, mon));
                            prop_assert!(oracle.remove(id));
                        }
                    }
                    Op::Check(ba, ea) => {
                        prop_assert_eq!(
                            pm.hit_exact(ba, ea),
                            oracle.hit_exact(ba, ea),
                            "exact hit mismatch for [{:#x},{:#x})", ba, ea
                        );
                        // The word-granular lookup may only err toward
                        // true (false positives), never toward false.
                        if oracle.hit_exact(ba, ea) {
                            prop_assert!(pm.lookup(ba, ea));
                        }
                        let mut a = Vec::new();
                        let mut b = Vec::new();
                        pm.hits(ba, ea, &mut a);
                        oracle.hits(ba, ea, &mut b);
                        a.sort();
                        b.sort();
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(pm.len(), oracle.len());
            }
        }
    }
}
