//! The session-membership interface between the simulator and whoever
//! defines sessions — plus the bitset-lane representation the
//! vectorized engine consumes.

use databp_trace::ObjectDesc;
use rustc_hash::FxHashMap;

/// Maps trace objects to the monitor sessions that watch them.
///
/// Implemented by `databp-sessions` for the paper's five session types;
/// the simulator itself is session-type-agnostic.
pub trait Membership {
    /// Number of sessions (session indices are `0..count()`).
    fn count(&self) -> usize;

    /// Appends the indices of every session monitoring `obj` to `out`
    /// (which is cleared first). Indices must be `< count()` and unique.
    fn sessions_of(&self, obj: &ObjectDesc, out: &mut Vec<u32>);
}

/// One object's member sessions as packed `u64` bitset lanes.
///
/// Bit `s & 63` of lane word `s / 64` is set iff session `s` is a
/// member. The lanes are *sparse*: only nonzero words are stored, as
/// ascending `(word index, bits)` pairs. Real memberships are a handful
/// of sessions whose indices may sit anywhere in the session universe —
/// a session-dense workload like `cc` spreads one object's members
/// across a dozen lane words — so storing pairs keeps the engine's
/// per-instance cost at one word op per *occupied* word, never per
/// spanned word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionLanes {
    pairs: Box<[(u32, u64)]>,
}

impl SessionLanes {
    /// Packs a list of (unique) session indices.
    pub fn from_sessions(sessions: &[u32]) -> SessionLanes {
        if sessions.is_empty() {
            return SessionLanes::default();
        }
        let mut sorted = sessions.to_vec();
        sorted.sort_unstable();
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        for s in sorted {
            let (word, bit) = (s / 64, 1u64 << (s & 63));
            match pairs.last_mut() {
                Some(p) if p.0 == word => p.1 |= bit,
                _ => pairs.push((word, bit)),
            }
        }
        SessionLanes {
            pairs: pairs.into_boxed_slice(),
        }
    }

    /// True when no session is a member.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of member sessions (a popcount over the lanes).
    pub fn len(&self) -> usize {
        self.pairs.iter().map(|p| p.1.count_ones() as usize).sum()
    }

    /// The stored `(word index, bits)` pairs, ascending by word, every
    /// `bits` nonzero.
    pub fn pairs(&self) -> &[(u32, u64)] {
        &self.pairs
    }

    /// Member session indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.pairs.iter().flat_map(|&(word, bits)| {
            let base = word * 64;
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let s = base + bits.trailing_zeros();
                bits &= bits - 1;
                Some(s)
            })
        })
    }
}

/// A direct table-backed membership, convenient in tests: a hash index
/// from object descriptor to its (sorted, deduplicated) member-session
/// list, built once at construction.
#[derive(Debug, Clone, Default)]
pub struct TableMembership {
    index: FxHashMap<ObjectDesc, Vec<u32>>,
    sessions: usize,
}

impl TableMembership {
    /// Builds the index from explicit `(object, sessions)` pairs.
    /// Duplicate objects merge; each list is sorted and deduplicated,
    /// so `sessions_of` is a single hash probe at lookup time.
    pub fn new(entries: Vec<(ObjectDesc, Vec<u32>)>, sessions: usize) -> TableMembership {
        let mut index: FxHashMap<ObjectDesc, Vec<u32>> = FxHashMap::default();
        for (obj, ss) in entries {
            index.entry(obj).or_default().extend(ss);
        }
        index.retain(|_, ss| {
            ss.sort_unstable();
            ss.dedup();
            !ss.is_empty()
        });
        TableMembership { index, sessions }
    }
}

impl Membership for TableMembership {
    fn count(&self) -> usize {
        self.sessions
    }

    fn sessions_of(&self, obj: &ObjectDesc, out: &mut Vec<u32>) {
        out.clear();
        if let Some(ss) = self.index.get(obj) {
            out.extend_from_slice(ss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_membership_lookups() {
        let m = TableMembership::new(
            vec![
                (ObjectDesc::Global { id: 0 }, vec![1, 0]),
                (ObjectDesc::Heap { seq: 3 }, vec![1]),
                (ObjectDesc::Global { id: 0 }, vec![1]),
            ],
            2,
        );
        let mut out = Vec::new();
        m.sessions_of(&ObjectDesc::Global { id: 0 }, &mut out);
        assert_eq!(out, vec![0, 1], "merged, sorted, deduplicated");
        m.sessions_of(&ObjectDesc::Heap { seq: 3 }, &mut out);
        assert_eq!(out, vec![1]);
        m.sessions_of(&ObjectDesc::Heap { seq: 4 }, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn lanes_pack_and_iterate() {
        let lanes = SessionLanes::from_sessions(&[0, 63, 64, 200]);
        assert_eq!(
            lanes.pairs(),
            &[(0, 1 | (1u64 << 63)), (1, 1), (3, 1 << 8)],
            "nonzero words only; word 2 is not stored"
        );
        assert_eq!(lanes.iter().collect::<Vec<_>>(), vec![0, 63, 64, 200]);
        assert_eq!(lanes.len(), 4);
        assert!(!lanes.is_empty());
    }

    #[test]
    fn lanes_skip_empty_words() {
        // Sessions 130 and 900 occupy words 2 and 14: exactly two pairs
        // are stored regardless of the gap or the universe size.
        let lanes = SessionLanes::from_sessions(&[900, 130]);
        assert_eq!(lanes.pairs().len(), 2);
        assert_eq!(lanes.pairs()[0].0, 2);
        assert_eq!(lanes.pairs()[1].0, 14);
        assert_eq!(lanes.iter().collect::<Vec<_>>(), vec![130, 900]);
    }

    #[test]
    fn empty_lanes() {
        let lanes = SessionLanes::from_sessions(&[]);
        assert!(lanes.is_empty());
        assert_eq!(lanes.len(), 0);
        assert_eq!(lanes.iter().count(), 0);
    }
}
