//! The one-pass multi-session counting engine, fused across a page-size
//! ladder and vectorized across sessions.
//!
//! One call to [`simulate_sizes`] walks the trace **once** and
//! accumulates [`Counts`] for every requested page size simultaneously —
//! any set of power-of-two sizes, not just the 4K/8K buddy pair the
//! paper reports. The engine keeps a single page index at the *smallest*
//! (base) size and derives every coarser size's page walk from it by
//! shifting: a size-`k` page of a write expands to the base-page range
//!
//! ```text
//! lo[k] = (ba >> shift_k) << d_k
//! hi[k] = (((ea - 1) >> shift_k) << d_k) | ((1 << d_k) - 1)
//! ```
//!
//! where `d_k = shift_k - base_shift`. Because the sizes are sorted
//! ascending, these ranges nest (`lo` nonincreasing, `hi` nondecreasing
//! in `k`), so one sweep over the widest range classifies every base
//! page with its *level* `m` — the smallest `k` whose range contains it
//! — and an instance found at level `m` is touched at exactly the sizes
//! `m..n`. Active-page-miss tallies and protection counts stay per
//! size; the interned page contents, membership interning, and
//! install/remove/hit/miss accounting are shared, so the dominant replay
//! work is paid once regardless of ladder length.
//!
//! # Lane-packed session sweep
//!
//! Session state within a write is held in `u64` bitset lanes, 64
//! sessions per word (see [`SessionLanes`]). Each monitored instance
//! carries its member set as sparse `(word, bits)` lane pairs, so
//! charging a write to all member sessions is one word OR per *occupied*
//! lane word into per-level *touch lanes* (`touch_lanes[k]`) and a *hit
//! lane*, instead of a per-member scalar loop with stamp branches. A
//! post-pass over the (few) dirty lane words then settles counters: set
//! bits of the hit lane bump `MonitorHit`; for active-page misses the
//! ascending-level scan `t = touch_lanes[k] & !below; below |= t`
//! isolates each session's *minimum* touch level in exactly one `t`,
//! and a hit (folded into `below` first) suppresses the APM at every
//! size. Lane words are zeroed lazily via per-word write stamps, so a
//! write that touches no monitored page pays nothing and a sparse touch
//! pays per dirty word, not per session universe. Because the per-write
//! state is all bitsets, charging is idempotent — an instance spanning
//! several base pages may be swept more than once with no stamp
//! bookkeeping. Each page content state carries the *union* of its
//! instances' member lanes, built once when the state is interned, so
//! touch charging is one OR pass per page rather than per instance;
//! individual instances are only walked at level 0, where byte overlap
//! decides hits.
//!
//! # Page content states
//!
//! What a base page holds — the multiset of `(ba, ea, members)`
//! instances overlapping it — is interned as a *page state* with an id:
//! equal contents have equal ids. Install and remove move each covered
//! page to its next state through a cached `(state, instance, ±) →
//! state` transition table, so a call that pushes a frame at the same
//! frame pointer as the last call, or a block freed and allocated again
//! at the same address, puts its pages back in the very state they held
//! before — the same id, not a fresh one. The interning tables only
//! grow while instances with fresh addresses keep arriving; once they
//! exceed `STATE_TABLE_FLOOR` and four times the states pages held at
//! the last collection, states no page holds are dropped and the
//! transition table is cleared. Ids carry the collection epoch they
//! were interned in, so a dropped state's id is never handed out again.
//!
//! Page states are the only record of what is monitored where, and the
//! paper's VM counting variables are read off them: a member session of
//! an installed instance is newly protected on a size-`k` page exactly
//! when no base page under that page held a state whose lane union
//! contains it before the install, and a removal unprotects it when
//! none does afterwards.
//!
//! # Memoized write effects
//!
//! Traced programs are loops: the same store site writes the same
//! `(ba, ea)` span thousands of times, and the per-session effect of
//! such a write — which sessions take a `MonitorHit`, which take an
//! active-page miss and at which minimum ladder level — is a pure
//! function of the span and the contents of its probed pages. The
//! engine therefore memoizes settled effects keyed by exactly that: the
//! span and the state ids of its probed base pages. A span written
//! under several page states (a global next to a callee's locals,
//! written inside and outside the call) keeps one effect per state
//! combination, and none is ever superseded. Effects are applied
//! *deferred*: a memo hit only increments the effect's multiplicity,
//! and the accumulated counts are flushed into the per-session counters
//! at the final `counts` settle. A repeated write then costs one
//! occupancy probe, one hash lookup over a few page ids, and one
//! increment — O(1) no matter how many sessions it touches; the full
//! page sweep runs only for a combination not seen before. Each effect
//! owns one range of one append-only arena of packed entries (a hit, or
//! an APM at its minimum level), so a flush is one counter walk. The
//! table is bounded by `EFFECT_TABLE_CAP` arena entries: reaching it
//! flushes every effect and empties the table. An effect recorded under
//! a collected state never matches again, since ids are never reused.
//! The engine counts memo hits, sweeps, interned states and transitions
//! in [`EngineStats`].
//!
//! Hits are page-size-independent by construction: a write that overlaps
//! a monitored instance shares at least one byte with it, hence shares a
//! base page inside the write's own range (level 0), so the sweep always
//! discovers every overlapping instance at level 0 and byte-checks it
//! there. A hit suppresses the active-page miss at every size.
//!
//! The engine core ([`EngineCore`]) is event-driven — it has no
//! dependency on a materialized [`Trace`] — which is what lets the
//! streaming pipeline (`crate::stream`) replay batches concurrently with
//! trace generation. [`simulate_sizes`] remains the materialized-trace
//! entry point.

use crate::membership::{Membership, SessionLanes};
use crate::stream::{FixedMembership, StreamingReplay};
use databp_machine::PageSize;
use databp_models::Counts;
use databp_trace::{ObjectDesc, Trace};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A live monitored object instance, as page contents hold it. The
/// derived order gives a page's instance multiset one canonical
/// (sorted) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Instance {
    ba: u32,
    ea: u32,
    /// Index into the engine's interned membership lanes.
    members: u32,
}

/// An interned page content: the sorted multiset of instances on one
/// base page, and the union of their member lanes as nonzero
/// `(word, bits)` pairs ascending by word. A free slot holds no
/// instances. The instance list is shared with the state's key in the
/// content map.
#[derive(Debug, Default)]
struct PageState {
    id: u64,
    insts: Arc<[Instance]>,
    union: Box<[(u32, u64)]>,
}

/// The id of the empty page content (slot 0 of epoch 0, never
/// collected).
const EMPTY: u64 = 0;

/// Interning-table entries (states plus transitions) tolerated before
/// unheld states are collected. The full-scale paper workloads peak at
/// about 6K states and 6.5K transitions, well below this.
const STATE_TABLE_FLOOR: usize = 1 << 15;

/// Effect-arena entries the write memo may hold; reaching the cap
/// flushes every effect and empties the table. The full-scale paper
/// workloads peak at about 3.5M entries (`bps`), below this.
const EFFECT_TABLE_CAP: usize = 1 << 23;

/// A memoized, settled write effect: where its key starts in
/// `eff_keys`, the range of the effect arena holding its packed
/// entries, and its multiplicity — how many writes produced it since it was last
/// flushed into the per-session counters. Deferring the application
/// this way makes a repeated write O(1) no matter how many sessions it
/// touches.
#[derive(Debug, Clone, Copy)]
struct Effect {
    count: u64,
    key: u32,
    entries: (u32, u32),
}

/// How often the engine's write memo and page-state interning did
/// their work: the engine's own counting variables, published once per
/// replay by [`StreamingReplay::finish`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineStats {
    /// Writes answered by a memoized effect.
    pub(crate) memo_hits: u64,
    /// Sweeps of a span under page states it was not memoized with.
    pub(crate) memo_new: u64,
    /// Page states interned (a state collected and seen again counts
    /// again).
    pub(crate) states_interned: u64,
    /// Transitions computed rather than found in the transition table.
    pub(crate) transitions: u64,
}

/// The state ids of base pages `lo..=hi` (`EMPTY` past the index).
fn page_ids(page_state: &[u64], lo: u32, hi: u32) -> impl Iterator<Item = u64> + '_ {
    (lo..=hi).map(|p| page_state.get(p as usize).copied().unwrap_or(EMPTY))
}

/// Effect-arena entries pack `tag << LEVEL_SHIFT | session`: tag 0 is a
/// hit, tag `k + 1` an APM at minimum ladder level `k`.
const LEVEL_SHIFT: u32 = 24;

/// Page-derived counters for one ladder size. Only the base (smallest)
/// size carries page contents; every size reads its protection
/// transitions off them and keeps its own per-session accumulators.
struct SizeState {
    page_size: PageSize,
    apm: Vec<u64>,
    vm_protect: Vec<u64>,
    vm_unprotect: Vec<u64>,
}

/// The event-driven replay core: feed it install/remove/write events in
/// program order (any batching), then read per-size, per-session
/// [`Counts`]. Sessions may appear lazily — [`EngineCore::ensure_sessions`]
/// grows every per-session accumulator — which is what dynamic
/// session discovery during streaming needs.
pub(crate) struct EngineCore {
    base_shift: u32,
    sizes: Vec<SizeState>,
    /// One bit per base page, set iff the page holds an instance. The
    /// whole 16 MiB space fits in 512 bytes, so the all-miss write probe
    /// (the overwhelmingly common case) reads L1-resident state — which
    /// matters most when replay interleaves with the traced run and
    /// shares its cache. It grows on demand so synthetic traces with
    /// larger addresses stay correct.
    occ: Vec<u64>,
    /// Base page -> id of the state it holds, indexed directly by page
    /// number (`occ.len() * 64` entries; `EMPTY` where `occ` is clear).
    page_state: Vec<u64>,
    /// Interned page states, indexed by slot (an id's low half).
    states: Vec<PageState>,
    /// Instance multiset -> slot, for every interned state.
    state_ids: FxHashMap<Arc<[Instance]>, u32>,
    /// Cached transitions: `(from slot, install?, instance) -> to id`.
    transitions: FxHashMap<(u32, bool, Instance), u64>,
    /// Slots freed by collections, reused by later interning.
    free_states: Vec<u32>,
    /// Collections so far: an id's high half, so an id is never reused.
    epoch: u64,
    /// Interning-table size that triggers the next collection.
    table_limit: usize,
    /// Live lookup by (object, install base address).
    live: FxHashMap<(ObjectDesc, u32), Instance>,
    /// Interned membership lane sets (see [`EngineCore::intern`]).
    member_lanes: Vec<SessionLanes>,
    // Per-session accumulators (page-size-independent).
    hits: Vec<u64>,
    installs: Vec<u64>,
    removes: Vec<u64>,
    /// Lane words per session array (`ceil(sessions / 64)`).
    width: usize,
    /// Per-level touch lanes for the current write, flattened as
    /// `[level * width + word]`. Zeroed lazily via `word_stamp`.
    touch_lanes: Vec<u64>,
    /// Hit lanes for the current write (`[word]`), lazily zeroed.
    hit_lanes: Vec<u64>,
    /// Stamp of the write that last initialized lane `word` across all
    /// levels; a stale stamp means the word's lanes are garbage and get
    /// zeroed on first touch.
    word_stamp: Vec<u64>,
    /// Scratch: lane words dirtied by the current write (reused).
    dirty: Vec<u32>,
    /// Scratch: per-lane-pair coverage of one page (see
    /// [`EngineCore::count_exposed`]).
    cover: Vec<u64>,
    /// Hash of an effect's key -> its index in `effects`. A key is
    /// `[ba << 32 | ea, probed state ids..]`.
    memo: FxHashMap<u64, u32>,
    /// Scratch: the current write's memo key.
    key: Vec<u64>,
    /// The effect table: the effects, their keys and their entries,
    /// each append-only until the table is emptied.
    effects: Vec<Effect>,
    eff_keys: Vec<u64>,
    eff_entries: Vec<u32>,
    stats: EngineStats,
    total_writes: u64,
    /// Sweep stamp, pre-incremented per sweep; 0 is the never-stamped
    /// sentinel.
    stamp: u64,
    /// Scratch: per-size expanded base-page bounds of the current write.
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl EngineCore {
    /// A core counting at every size in `ladder`, which must be
    /// nonempty and strictly ascending.
    pub(crate) fn new(ladder: &[PageSize]) -> EngineCore {
        assert!(!ladder.is_empty(), "page-size ladder must be nonempty");
        assert!(
            ladder.windows(2).all(|w| w[0].shift() < w[1].shift()),
            "page-size ladder must be strictly ascending"
        );
        let base_shift = ladder[0].shift();
        let n = ladder.len();
        // Pre-size for the machine's whole data space; traces from real
        // workloads never grow this.
        let occ_words = ((databp_machine::MEM_SIZE >> base_shift) as usize).div_ceil(64);
        let mut state_ids = FxHashMap::default();
        state_ids.insert(Arc::default(), 0);
        EngineCore {
            base_shift,
            sizes: ladder
                .iter()
                .map(|&ps| SizeState {
                    page_size: ps,
                    apm: Vec::new(),
                    vm_protect: Vec::new(),
                    vm_unprotect: Vec::new(),
                })
                .collect(),
            occ: vec![0; occ_words],
            page_state: vec![EMPTY; occ_words * 64],
            states: vec![PageState::default()],
            state_ids,
            transitions: FxHashMap::default(),
            free_states: Vec::new(),
            epoch: 0,
            table_limit: STATE_TABLE_FLOOR,
            live: FxHashMap::default(),
            member_lanes: Vec::new(),
            hits: Vec::new(),
            installs: Vec::new(),
            removes: Vec::new(),
            width: 0,
            touch_lanes: Vec::new(),
            hit_lanes: Vec::new(),
            word_stamp: Vec::new(),
            dirty: Vec::new(),
            cover: Vec::new(),
            memo: FxHashMap::default(),
            key: Vec::new(),
            effects: Vec::new(),
            eff_keys: Vec::new(),
            eff_entries: Vec::new(),
            stats: EngineStats::default(),
            total_writes: 0,
            stamp: 0,
            lo: vec![0; n],
            hi: vec![0; n],
        }
    }

    /// Grows every per-session accumulator to cover sessions `0..n`.
    /// New sessions start with zeroed counters, which is correct because
    /// they could not have been touched by any event replayed before
    /// they existed. Lane scratch re-strides on growth; that is safe
    /// because growth only happens between writes and every lane word is
    /// stamp-gated, so stale content is zeroed before its next use.
    pub(crate) fn ensure_sessions(&mut self, n: usize) {
        if self.hits.len() >= n {
            return;
        }
        assert!(
            n < (1 << LEVEL_SHIFT),
            "session universe exceeds the effect-arena packing"
        );
        self.hits.resize(n, 0);
        self.installs.resize(n, 0);
        self.removes.resize(n, 0);
        self.width = n.div_ceil(64);
        self.touch_lanes.resize(self.sizes.len() * self.width, 0);
        self.hit_lanes.resize(self.width, 0);
        self.word_stamp.resize(self.width, 0);
        for st in &mut self.sizes {
            st.apm.resize(n, 0);
            st.vm_protect.resize(n, 0);
            st.vm_unprotect.resize(n, 0);
        }
    }

    /// Interns a member-session set, returning its index for
    /// [`EngineCore::install`]. Callers cache per object descriptor —
    /// all instantiations of a local share one descriptor, so this
    /// interns per variable.
    pub(crate) fn intern(&mut self, sessions: &[u32]) -> u32 {
        let i = self.member_lanes.len() as u32;
        self.member_lanes
            .push(SessionLanes::from_sessions(sessions));
        i
    }

    /// The engine's operation counts so far.
    pub(crate) fn stats(&self) -> EngineStats {
        self.stats
    }

    pub(crate) fn install(&mut self, obj: ObjectDesc, ba: u32, ea: u32, members: u32) {
        if self.member_lanes[members as usize].is_empty() || ba >= ea {
            return;
        }
        self.collect_states_if_full();
        let inst = Instance { ba, ea, members };
        self.live.insert((obj, ba), inst);
        let last = ((ea - 1) >> self.base_shift) as usize;
        if last >= self.page_state.len() {
            self.occ.resize((last + 1).div_ceil(64), 0);
            self.page_state.resize(self.occ.len() * 64, EMPTY);
        }
        self.count_exposed(inst, true);
        for page in (ba >> self.base_shift) as usize..=last {
            self.page_state[page] = self.step(self.page_state[page], inst, true);
            self.occ[page >> 6] |= 1u64 << (page & 63);
        }
        for s in self.member_lanes[members as usize].iter() {
            self.installs[s as usize] += 1;
        }
    }

    pub(crate) fn remove(&mut self, obj: ObjectDesc, ba: u32) {
        let Some(inst) = self.live.remove(&(obj, ba)) else {
            // Object not monitored by any session.
            return;
        };
        self.collect_states_if_full();
        let first = (inst.ba >> self.base_shift) as usize;
        for page in first..=((inst.ea - 1) >> self.base_shift) as usize {
            let to = self.step(self.page_state[page], inst, false);
            self.page_state[page] = to;
            if to == EMPTY {
                self.occ[page >> 6] &= !(1u64 << (page & 63));
            }
        }
        self.count_exposed(inst, false);
        for s in self.member_lanes[inst.members as usize].iter() {
            self.removes[s as usize] += 1;
        }
    }

    /// Counts, at every ladder size, each page under `inst` on which a
    /// member session of `inst` is held by no instance: no base page
    /// under that page holds a state whose lane union contains the
    /// session. Run before an install's page step, that is the install's
    /// `vm_protect` (`install`); after a remove's step, its
    /// `vm_unprotect`.
    fn count_exposed(&mut self, inst: Instance, install: bool) {
        let EngineCore {
            base_shift,
            sizes,
            page_state,
            states,
            member_lanes,
            cover,
            ..
        } = self;
        let lanes = member_lanes[inst.members as usize].pairs();
        for st in sizes.iter_mut() {
            let d = st.page_size.shift() - *base_shift;
            let counter = if install {
                &mut st.vm_protect
            } else {
                &mut st.vm_unprotect
            };
            for page in st.page_size.pages_of_range(inst.ba, inst.ea) {
                cover.clear();
                cover.resize(lanes.len(), 0);
                let lo = page << d;
                for id in page_ids(page_state, lo, lo | ((1u32 << d) - 1)) {
                    // Both pair lists ascend by word: one merge pass.
                    let union = &states[id as u32 as usize].union;
                    let mut j = 0;
                    for (c, &(w, _)) in cover.iter_mut().zip(lanes) {
                        while j < union.len() && union[j].0 < w {
                            j += 1;
                        }
                        match union.get(j) {
                            Some(&(uw, bits)) if uw == w => *c |= bits,
                            Some(_) => {}
                            None => break,
                        }
                    }
                }
                for (&c, &(w, bits)) in cover.iter().zip(lanes) {
                    let mut exposed = bits & !c;
                    while exposed != 0 {
                        counter[(w * 64 + exposed.trailing_zeros()) as usize] += 1;
                        exposed &= exposed - 1;
                    }
                }
            }
        }
    }

    /// The id of the state a page holding state `from` moves to when
    /// `inst` is installed on it (`add`) or removed from it.
    fn step(&mut self, from: u64, inst: Instance, add: bool) -> u64 {
        let key = (from as u32, add, inst);
        if let Some(&to) = self.transitions.get(&key) {
            return to;
        }
        let mut insts = self.states[from as u32 as usize].insts.to_vec();
        let at = insts.partition_point(|i| *i < inst);
        if add {
            insts.insert(at, inst);
        } else {
            assert_eq!(
                insts.get(at),
                Some(&inst),
                "removed instance is on its page"
            );
            insts.remove(at);
        }
        let to = self.intern_state(insts);
        self.transitions.insert(key, to);
        self.stats.transitions += 1;
        to
    }

    /// The id of the state holding exactly `insts` (sorted), interned
    /// with its lane union on first sight.
    fn intern_state(&mut self, insts: Vec<Instance>) -> u64 {
        if let Some(&slot) = self.state_ids.get(insts.as_slice()) {
            return self.states[slot as usize].id;
        }
        let mut union: Vec<(u32, u64)> = Vec::new();
        for inst in &insts {
            'pair: for &(w, bits) in self.member_lanes[inst.members as usize].pairs() {
                for p in union.iter_mut() {
                    if p.0 == w {
                        p.1 |= bits;
                        continue 'pair;
                    }
                }
                union.push((w, bits));
            }
        }
        union.sort_unstable_by_key(|p| p.0);
        let slot = self.free_states.pop().unwrap_or_else(|| {
            self.states.push(PageState::default());
            (self.states.len() - 1) as u32
        });
        let id = (self.epoch << 32) | u64::from(slot);
        let insts: Arc<[Instance]> = insts.into();
        self.state_ids.insert(Arc::clone(&insts), slot);
        self.states[slot as usize] = PageState {
            id,
            insts,
            union: union.into(),
        };
        self.stats.states_interned += 1;
        id
    }

    /// Bounds the interning tables: once they exceed `table_limit`,
    /// frees every state no page holds and clears the transition table
    /// (whose entries may name freed slots). The next limit is four
    /// times the held states (at least the floor), so collections are
    /// amortized over the interning that filled the tables. Opening a
    /// new epoch keeps ids unique: a memoized effect recorded under a
    /// freed state can never match the slot's next occupant.
    fn collect_states_if_full(&mut self) {
        if self.state_ids.len() + self.transitions.len() <= self.table_limit {
            return;
        }
        let mut held = vec![false; self.states.len()];
        held[EMPTY as usize] = true;
        for &id in &self.page_state {
            held[id as u32 as usize] = true;
        }
        self.epoch += 1;
        let mut live = 0;
        for (slot, st) in self.states.iter_mut().enumerate() {
            if held[slot] {
                live += 1;
            } else if !st.insts.is_empty() {
                self.state_ids.remove(&st.insts);
                *st = PageState::default();
                self.free_states.push(slot as u32);
            }
        }
        self.transitions.clear();
        self.table_limit = STATE_TABLE_FLOOR.max(4 * live);
    }

    pub(crate) fn write(&mut self, ba: u32, ea: u32) {
        self.total_writes += 1;
        if ba >= ea {
            return;
        }
        let n = self.sizes.len();
        let top_shift = self.sizes[n - 1].page_size.shift();
        let d_top = top_shift - self.base_shift;
        let lo_top = (ba >> top_shift) << d_top;
        let hi_top = (((ea - 1) >> top_shift) << d_top) | ((1u32 << d_top) - 1);
        // Occupancy probe: the overwhelmingly common case is a write
        // whose probed range holds no monitored page — it pays a couple
        // of L1 loads and nothing else.
        let occupied = (lo_top..=hi_top).any(|page| {
            self.occ
                .get((page >> 6) as usize)
                .is_some_and(|word| word & (1u64 << (page & 63)) != 0)
        });
        if !occupied {
            return;
        }
        // The span's effect under its probed pages' current states.
        self.key.clear();
        self.key.push((u64::from(ba) << 32) | u64::from(ea));
        self.key.extend(page_ids(&self.page_state, lo_top, hi_top));
        let mut hasher = FxHasher::default();
        self.key.hash(&mut hasher);
        let hash = hasher.finish();
        if let Some(&i) = self.memo.get(&hash) {
            let e = &mut self.effects[i as usize];
            let at = e.key as usize;
            if self.eff_keys.get(at..at + self.key.len()) == Some(&self.key[..]) {
                e.count += 1;
                self.stats.memo_hits += 1;
                return;
            }
        }
        // A combination not seen before — or, rarely, a hash collision,
        // which costs a sweep: the effect it displaces from the memo is
        // still flushed.
        self.stats.memo_new += 1;
        let entries = self.sweep(ba, ea, lo_top, hi_top);
        self.memo.insert(hash, self.effects.len() as u32);
        self.effects.push(Effect {
            count: 1,
            key: self.eff_keys.len() as u32,
            entries,
        });
        self.eff_keys.extend_from_slice(&self.key);
        if self.eff_entries.len() >= EFFECT_TABLE_CAP {
            self.flush_effects();
            self.memo.clear();
            self.effects.clear();
            self.eff_keys.clear();
            self.eff_entries.clear();
        }
    }

    /// Settles every effect's accumulated multiplicity into the
    /// per-session counters (idempotent: flushed multiplicities zero
    /// out). Each packed entry is a hit or an APM at its minimum level,
    /// charged `count` times.
    fn flush_effects(&mut self) {
        for e in &mut self.effects {
            let count = std::mem::take(&mut e.count);
            if count == 0 {
                continue;
            }
            for &a in &self.eff_entries[e.entries.0 as usize..e.entries.1 as usize] {
                let s = (a & ((1 << LEVEL_SHIFT) - 1)) as usize;
                match (a >> LEVEL_SHIFT) as usize {
                    // Page-size-independent; counted once per write and
                    // suppressing the active-page miss at every size.
                    0 => self.hits[s] += count,
                    // Touched at level k ⇒ touched at every coarser size.
                    tag => {
                        for st in self.sizes[tag - 1..].iter_mut() {
                            st.apm[s] += count;
                        }
                    }
                }
            }
        }
    }

    /// The full page sweep for one write: classifies each occupied base
    /// page in the probed range with its minimum ladder level, charges
    /// member lanes, settles the dirty lane words, and records the
    /// resulting effect in the arena. Returns the new arena range.
    fn sweep(&mut self, ba: u32, ea: u32, lo_top: u32, hi_top: u32) -> (u32, u32) {
        self.stamp += 1;
        let stamp = self.stamp;
        let n = self.sizes.len();
        let width = self.width;
        let EngineCore {
            base_shift,
            sizes,
            occ,
            page_state,
            states,
            member_lanes,
            touch_lanes,
            hit_lanes,
            word_stamp,
            dirty,
            eff_entries,
            lo,
            hi,
            ..
        } = self;
        let mut ranges_ready = false;
        dirty.clear();
        // One sweep of the widest range; the level `m` of each base page
        // is the smallest size whose (nested) range contains it. The
        // per-size bounds are computed once on the first occupied page.
        for page in lo_top..=hi_top {
            let Some(&word) = occ.get((page >> 6) as usize) else {
                break;
            };
            if word & (1u64 << (page & 63)) == 0 {
                continue;
            }
            // A set bit guarantees the page holds a nonempty state.
            let state = &states[page_state[page as usize] as u32 as usize];
            if !ranges_ready {
                for (k, st) in sizes.iter().enumerate() {
                    let shift = st.page_size.shift();
                    let d = shift - *base_shift;
                    lo[k] = (ba >> shift) << d;
                    hi[k] = (((ea - 1) >> shift) << d) | ((1u32 << d) - 1);
                }
                ranges_ready = true;
            }
            let mut m = 0usize;
            while page < lo[m] || page > hi[m] {
                m += 1;
            }
            // Charge the whole page's touch from its state's lane union
            // — one OR charges up to 64 member sessions at once, and
            // only occupied lane words cost.
            for &(w, bits) in state.union.iter() {
                let w = w as usize;
                if word_stamp[w] != stamp {
                    word_stamp[w] = stamp;
                    hit_lanes[w] = 0;
                    for k in 0..n {
                        touch_lanes[k * width + w] = 0;
                    }
                    dirty.push(w as u32);
                }
                touch_lanes[m * width + w] |= bits;
            }
            // Byte overlap implies a shared base page at level 0, so
            // per-instance hit checks only run there — and lane ORs are
            // idempotent, so an instance spanning several pages needs no
            // dedup stamp.
            if m == 0 {
                for inst in state.insts.iter() {
                    if ba < inst.ea && inst.ba < ea {
                        for &(w, bits) in member_lanes[inst.members as usize].pairs() {
                            hit_lanes[w as usize] |= bits;
                        }
                    }
                }
            }
        }
        // Settle the dirty lane words into the effect arena. `below`
        // carries every session already accounted for at a finer level
        // (or by a hit), so each session's minimum touch level survives
        // in exactly one masked `t`.
        let start = eff_entries.len() as u32;
        for &w in dirty.iter() {
            let w = w as usize;
            let base = (w as u32) * 64;
            let mut below = 0;
            for (tag, lanes) in std::iter::once(hit_lanes[w])
                .chain((0..n).map(|k| touch_lanes[k * width + w]))
                .enumerate()
            {
                let mut t = lanes & !below;
                below |= t;
                while t != 0 {
                    let s = base + t.trailing_zeros();
                    t &= t - 1;
                    eff_entries.push(((tag as u32) << LEVEL_SHIFT) | s);
                }
            }
        }
        (start, eff_entries.len() as u32)
    }

    /// Per-size, per-session counting variables for sessions `0..n`
    /// (result `[k][s]` is ladder size `k`, session `s`).
    pub(crate) fn counts(&mut self, n: usize) -> Vec<Vec<Counts>> {
        self.ensure_sessions(n);
        self.flush_effects();
        self.sizes
            .iter()
            .map(|st| {
                (0..n)
                    .map(|s| Counts {
                        install: self.installs[s],
                        remove: self.removes[s],
                        hit: self.hits[s],
                        miss: self.total_writes - self.hits[s],
                        vm_protect: st.vm_protect[s],
                        vm_unprotect: st.vm_unprotect[s],
                        vm_active_page_miss: st.apm[s],
                    })
                    .collect()
            })
            .collect()
    }
}

/// Replays `trace` once, producing per-session counting variables for
/// **each** page size in `sizes` (result `[i]` corresponds to
/// `sizes[i]`; duplicates and any ordering are fine — the engine sorts
/// and dedups internally). One replay is one trace walk regardless of
/// how many page sizes are requested.
pub fn simulate_sizes<M: Membership>(
    trace: &Trace,
    membership: &M,
    sizes: &[PageSize],
) -> Vec<Vec<Counts>> {
    if sizes.is_empty() {
        return Vec::new();
    }
    let mut ladder = sizes.to_vec();
    ladder.sort_unstable_by_key(|ps| ps.shift());
    ladder.dedup();
    let mut replay = StreamingReplay::new(FixedMembership::new(membership), &ladder);
    replay.feed(trace.events());
    let (_, counts) = replay.finish();
    sizes
        .iter()
        .map(|ps| {
            let k = ladder
                .iter()
                .position(|l| l == ps)
                .expect("requested size is in the deduped ladder");
            counts[k].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::TableMembership;
    use databp_trace::Event;

    fn g(id: u32) -> ObjectDesc {
        ObjectDesc::Global { id }
    }

    fn write(ba: u32, ea: u32) -> Event {
        Event::Write {
            pc: 0,
            ba,
            ea,
            value: 0,
            old: 0,
        }
    }

    #[test]
    fn single_session_hit_miss_accounting() {
        let m = TableMembership::new(vec![(g(0), vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1000, 0x1004), // hit
            write(0x2000, 0x2004), // miss (different page)
            write(0x1008, 0x100c), // active-page miss
            Event::Remove {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1000, 0x1004), // after removal: plain miss
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].hit, 1);
        assert_eq!(c[0].miss, 3);
        assert_eq!(c[0].vm_active_page_miss, 1);
        assert_eq!(c[0].install, 1);
        assert_eq!(c[0].remove, 1);
        assert_eq!(c[0].vm_protect, 1);
        assert_eq!(c[0].vm_unprotect, 1);
    }

    #[test]
    fn page_size_affects_apm() {
        let m = TableMembership::new(vec![(g(0), vec![0])], 1);
        let trace = Trace::from_events(vec![
            // Monitor on 4K page 1 == 8K page 0.
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1800, 0x1804), // same 4K page and same 8K page
            write(0x0800, 0x0804), // different 4K page, same 8K page
        ]);
        let c4 = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        let c8 = simulate_sizes(&trace, &m, &[PageSize::K8]).remove(0);
        assert_eq!(c4[0].vm_active_page_miss, 1);
        assert_eq!(c8[0].vm_active_page_miss, 2);
        assert_eq!(c4[0].hit, 0);
        assert_eq!(c4[0].miss, 2);
    }

    #[test]
    fn fused_replay_matches_separate_replays() {
        let m = TableMembership::new(
            vec![(g(0), vec![0, 1]), (g(1), vec![1]), (g(2), vec![2])],
            3,
        );
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x0ff0,
                ea: 0x1010, // spans 4K pages 0-1 (one 8K page)
            },
            Event::Install {
                obj: g(1),
                ba: 0x1ffc,
                ea: 0x2004, // spans 4K pages 1-2 and 8K pages 0-1
            },
            write(0x1000, 0x1004), // hits g(0)
            write(0x1800, 0x1804), // APM at 4K and 8K
            write(0x2800, 0x2804), // APM at 4K (page 2) and 8K (page 1)
            write(0x4000, 0x4004), // plain miss everywhere
            Event::Remove {
                obj: g(0),
                ba: 0x0ff0,
                ea: 0x1010,
            },
            write(0x0ff0, 0x0ff4), // g(0) gone: miss/APM only
            Event::Remove {
                obj: g(1),
                ba: 0x1ffc,
                ea: 0x2004,
            },
        ]);
        let fused = simulate_sizes(&trace, &m, &[PageSize::K4, PageSize::K8]);
        assert_eq!(
            fused[0],
            simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0)
        );
        assert_eq!(
            fused[1],
            simulate_sizes(&trace, &m, &[PageSize::K8]).remove(0)
        );
    }

    #[test]
    fn ladder_matches_separate_replays_and_any_order() {
        let m = TableMembership::new(vec![(g(0), vec![0, 1]), (g(1), vec![1])], 2);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x0ff0,
                ea: 0x1010,
            },
            Event::Install {
                obj: g(1),
                ba: 0x7ffc,
                ea: 0x8004, // spans 16K pages 1-2, 32K page 0-1
            },
            write(0x1000, 0x1004),
            write(0x3800, 0x3804),   // APM at 16K/32K only for g(0)
            write(0x9000, 0x9004),   // near g(1): APM at coarse sizes
            write(0x20000, 0x20004), // plain miss everywhere
            Event::Remove {
                obj: g(0),
                ba: 0x0ff0,
                ea: 0x1010,
            },
            write(0x0ff0, 0x0ff4),
        ]);
        let ladder = [PageSize::K4, PageSize::K8, PageSize::K16, PageSize::K32];
        let fused = simulate_sizes(&trace, &m, &ladder);
        for (k, &ps) in ladder.iter().enumerate() {
            assert_eq!(
                fused[k],
                simulate_sizes(&trace, &m, &[ps]).remove(0),
                "size {ps}"
            );
        }
        // Order and duplicates in the request don't change the results.
        let shuffled = [PageSize::K32, PageSize::K4, PageSize::K4, PageSize::K16];
        let out = simulate_sizes(&trace, &m, &shuffled);
        assert_eq!(out[0], fused[3]);
        assert_eq!(out[1], fused[0]);
        assert_eq!(out[2], fused[0]);
        assert_eq!(out[3], fused[2]);
    }

    #[test]
    fn one_write_hitting_two_objects_counts_once_per_session() {
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![0, 1])], 2);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x1004,
                ea: 0x1008,
            },
            write(0x1000, 0x1008), // straddles both objects
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 1, "session 0 hit once despite two member objects");
        assert_eq!(c[1].hit, 1);
    }

    #[test]
    fn hit_suppresses_active_page_miss_for_same_write() {
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x1100,
                ea: 0x1104,
            },
            // Hits g(0); also touches g(1)'s page (same page) — counts
            // as a hit, not an APM.
            write(0x1000, 0x1004),
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 1);
        assert_eq!(c[0].vm_active_page_miss, 0);
    }

    #[test]
    fn fused_hit_suppression_is_per_page_size() {
        // A monitor on 4K page 1; a second monitor on 4K page 0 (same
        // 8K page). A write that hits the second monitor must suppress
        // the APM at both sizes; a near-miss on page 0 is an APM at 4K
        // (page 0 is active) and at 8K too.
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x0100,
                ea: 0x0104,
            },
            write(0x0100, 0x0104), // hit on g(1): no APM at either size
            write(0x0200, 0x0204), // APM at both sizes
            write(0x2100, 0x2104), // plain miss at 4K; APM at 8K? no —
                                   // 8K page 1 (0x2000-0x3fff) holds no monitor: plain miss.
        ]);
        let fused = simulate_sizes(&trace, &m, &[PageSize::K4, PageSize::K8]);
        let (c4, c8) = (&fused[0], &fused[1]);
        assert_eq!(c4[0].hit, 1);
        assert_eq!(c8[0].hit, 1);
        assert_eq!(c4[0].vm_active_page_miss, 1);
        assert_eq!(c8[0].vm_active_page_miss, 1);
        assert_eq!(c4[0].miss, 2);
        assert_eq!(c8[0].miss, 2);
    }

    #[test]
    fn reinstalled_object_keeps_counting() {
        // Realloc pattern: remove + install of the same descriptor.
        let h = ObjectDesc::Heap { seq: 5 };
        let m = TableMembership::new(vec![(h, vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: h,
                ba: 0x1000,
                ea: 0x1010,
            },
            write(0x1000, 0x1004),
            Event::Remove {
                obj: h,
                ba: 0x1000,
                ea: 0x1010,
            },
            Event::Install {
                obj: h,
                ba: 0x3000,
                ea: 0x3040,
            },
            write(0x3000, 0x3004),
            Event::Remove {
                obj: h,
                ba: 0x3000,
                ea: 0x3040,
            },
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 2);
        assert_eq!(c[0].install, 2);
        assert_eq!(c[0].remove, 2);
        assert_eq!(c[0].vm_protect, 2);
    }

    #[test]
    fn recursion_instances_tracked_independently() {
        let l = ObjectDesc::Local { func: 1, var: 0 };
        let m = TableMembership::new(vec![(l, vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: l,
                ba: 0xF000,
                ea: 0xF004,
            }, // outer
            Event::Install {
                obj: l,
                ba: 0xE000,
                ea: 0xE004,
            }, // inner
            write(0xE000, 0xE004), // hits inner instance
            Event::Remove {
                obj: l,
                ba: 0xE000,
                ea: 0xE004,
            },
            write(0xE000, 0xE004), // inner gone: miss (different page from outer)
            write(0xF000, 0xF004), // hits outer
            Event::Remove {
                obj: l,
                ba: 0xF000,
                ea: 0xF004,
            },
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 2);
        assert_eq!(c[0].install, 2);
        assert_eq!(c[0].remove, 2);
        assert_eq!(c[0].miss, 1);
    }

    #[test]
    fn unmonitored_objects_cost_nothing() {
        let m = TableMembership::new(vec![], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(9),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1000, 0x1004),
            Event::Remove {
                obj: g(9),
                ba: 0x1000,
                ea: 0x1004,
            },
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 0);
        assert_eq!(c[0].miss, 1);
        assert_eq!(c[0].install, 0);
        assert_eq!(c[0].vm_active_page_miss, 0);
    }

    #[test]
    fn overlapping_monitors_page_counts_stay_protected() {
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![0])], 1);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x1004,
                ea: 0x1008,
            },
            Event::Remove {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            // Page still has g(1): a nearby write is an APM.
            write(0x1800, 0x1804),
            Event::Remove {
                obj: g(1),
                ba: 0x1004,
                ea: 0x1008,
            },
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].vm_protect, 1, "page protected once");
        assert_eq!(
            c[0].vm_unprotect, 1,
            "unprotected only when last monitor left"
        );
        assert_eq!(c[0].vm_active_page_miss, 1);
    }

    #[test]
    fn high_session_indices_span_many_lane_words() {
        // Sessions 0, 63, 64, and 200 exercise lane-word boundaries and
        // the sparse-pair path (an object whose only member is a
        // high-indexed session must not pay for the words below it).
        let m = TableMembership::new(vec![(g(0), vec![0, 63, 64]), (g(1), vec![200])], 201);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x1100,
                ea: 0x1104,
            },
            write(0x1000, 0x1004), // hits g(0); APM for g(1)'s session
            write(0x1800, 0x1804), // APM for all four sessions
            write(0x5000, 0x5004), // plain miss everywhere
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        for s in [0usize, 63, 64] {
            assert_eq!(c[s].hit, 1, "session {s}");
            assert_eq!(c[s].vm_active_page_miss, 1, "session {s}");
            assert_eq!(c[s].miss, 2, "session {s}");
        }
        assert_eq!(c[200].hit, 0);
        assert_eq!(c[200].vm_active_page_miss, 2);
        assert_eq!(c[200].miss, 3);
    }

    #[test]
    fn repeated_writes_reuse_and_invalidate_the_memo() {
        // The same span written before and after a remove on its page
        // must not reuse the stale effect; a remove on an unrelated page
        // must not invalidate it either (the counts prove both).
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![1])], 2);
        let trace = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x9000,
                ea: 0x9004,
            },
            write(0x1000, 0x1004), // hit (memo fill)
            write(0x1000, 0x1004), // hit (memo reuse)
            Event::Remove {
                obj: g(1),
                ba: 0x9000,
                ea: 0x9004,
            },
            write(0x1000, 0x1004), // unrelated remove: still a hit
            Event::Remove {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1000, 0x1004), // monitor gone: plain miss
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            write(0x1000, 0x1004), // reinstalled: hit again
        ]);
        let c = simulate_sizes(&trace, &m, &[PageSize::K4]).remove(0);
        assert_eq!(c[0].hit, 4);
        assert_eq!(c[0].miss, 1);
        assert_eq!(c[1].vm_active_page_miss, 0);
    }

    /// Replays `events` through a bare `core`, calling `after_write`
    /// after every write, and checks every count against the naive
    /// oracle before handing the core back for inspection.
    fn replay_checked(
        mut core: EngineCore,
        events: Vec<Event>,
        m: &impl Membership,
        mut after_write: impl FnMut(&EngineCore),
    ) -> EngineCore {
        core.ensure_sessions(m.count());
        // Intern per distinct member list, not per object, so traces
        // with many objects stay cheap.
        let mut interned: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut scratch = Vec::new();
        for ev in &events {
            match *ev {
                Event::Install { obj, ba, ea } => {
                    m.sessions_of(&obj, &mut scratch);
                    let i = match interned.get(&scratch) {
                        Some(&i) => i,
                        None => {
                            let i = core.intern(&scratch);
                            interned.insert(scratch.clone(), i);
                            i
                        }
                    };
                    core.install(obj, ba, ea, i);
                }
                Event::Remove { obj, ba, .. } => core.remove(obj, ba),
                Event::Write { ba, ea, .. } => {
                    core.write(ba, ea);
                    after_write(&core);
                }
                _ => {}
            }
        }
        let trace = Trace::from_events(events);
        let counts = core.counts(m.count());
        let ladder: Vec<PageSize> = core.sizes.iter().map(|st| st.page_size).collect();
        for (row, ps) in counts.iter().zip(ladder) {
            for (s, c) in row.iter().enumerate() {
                let naive = crate::simulate_naive(&trace, m, ps, s as u32);
                assert_eq!(*c, naive, "size {ps} session {s}");
            }
        }
        core
    }

    #[test]
    fn alternating_page_states_sweep_a_constant_number_of_times() {
        // Install/remove churn of `a` around one hot span (and a coarse
        // neighbour) alternates the span's page between two states on
        // every write, while `b` keeps it occupied. Each (span, states)
        // combination is swept once and kept, so the sweep count must
        // not grow with the iteration count, and every other write is a
        // memo hit. The `c`/`d` span is written once before the churn
        // and once after, and `e` leaves the hot page before the churn.
        let (a, b, c, d, e) = (g(0), g(1), g(2), g(3), g(4));
        let m = TableMembership::new(
            vec![
                (a, (0..64).collect()),
                (b, (60..70).collect()),
                (c, (40..60).collect()),
                (d, (64..70).collect()),
                (e, vec![69]),
            ],
            70,
        );
        let install = |obj, ba| Event::Install {
            obj,
            ba,
            ea: ba + 4,
        };
        let remove = |obj, ba| Event::Remove {
            obj,
            ba,
            ea: ba + 4,
        };
        let churn = |iterations: usize| {
            let mut events = vec![
                install(c, 0x8000),
                install(d, 0x8100),
                install(e, 0x1200),
                write(0x1000, 0x1004),
                write(0x8000, 0x8004),
                remove(e, 0x1200),
                install(b, 0x1100),
            ];
            for _ in 0..iterations {
                for op in [install, remove] {
                    events.push(op(a, 0x1000));
                    // Hot span: hits `a`'s members; `0x3000` is an APM
                    // at 16K only.
                    events.extend([write(0x1000, 0x1004), write(0x3000, 0x3004)]);
                }
            }
            events.push(write(0x8000, 0x8004));
            let ladder = [PageSize::K4, PageSize::K8, PageSize::K16];
            replay_checked(EngineCore::new(&ladder), events, &m, |_| {}).stats()
        };
        let (few, many) = (churn(10), churn(1000));
        // The hot span under {e}, {a, b} and {b}; `0x3000` under
        // {a, b} and {b}; the `c`/`d` span under one state.
        assert_eq!(many.memo_new, 6, "{many:?}");
        assert_eq!(few.memo_new, 6, "{few:?}");
        assert_eq!(many.memo_hits, 4 * 1000 + 3 - 6);
    }

    #[test]
    fn effect_table_stays_under_its_cap() {
        // 1024 sessions watch `g(0)` and the even ones `g(1)`, on one
        // page; two passes write 12288 distinct spans across it. Every
        // sweep settles an entry per session, so each pass alone drives
        // more entries than the cap: the table must be flushed and
        // emptied without ever exceeding the cap, and the counts must
        // stay exact.
        let sessions = 1024u32;
        let m = TableMembership::new(
            vec![
                (g(0), (0..sessions).collect()),
                (g(1), (0..sessions).step_by(2).collect()),
            ],
            sessions as usize,
        );
        let mut events = vec![
            Event::Install {
                obj: g(0),
                ba: 0x1000,
                ea: 0x1004,
            },
            Event::Install {
                obj: g(1),
                ba: 0x1800,
                ea: 0x1804,
            },
        ];
        for _ in 0..2 {
            for len in 1..=3 {
                events.extend((0x1000..0x2000).map(|ba| write(ba, ba + len)));
            }
        }
        let mut core = EngineCore::new(&[PageSize::K4, PageSize::K8]);
        core.ensure_sessions(sessions as usize);
        let (g0, g1) = (
            core.intern(&members_of(&m, g(0))),
            core.intern(&members_of(&m, g(1))),
        );
        let (mut peak, mut clears) = (0, 0);
        for ev in &events {
            match *ev {
                Event::Install { obj, ba, ea } => {
                    core.install(obj, ba, ea, if obj == g(0) { g0 } else { g1 })
                }
                Event::Write { ba, ea, .. } => {
                    let before = core.eff_entries.len();
                    core.write(ba, ea);
                    let after = core.eff_entries.len();
                    assert!(after < EFFECT_TABLE_CAP, "{after} arena entries");
                    assert!(core.effects.len() <= after, "an effect has entries");
                    clears += usize::from(after < before);
                    peak = peak.max(after);
                }
                _ => unreachable!(),
            }
        }
        assert!(clears >= 2, "{clears} clears");
        assert!(peak > EFFECT_TABLE_CAP / 2, "peak {peak}");
        let counts = core.counts(sessions as usize);
        let trace = Trace::from_events(events);
        for (row, ps) in counts.iter().zip([PageSize::K4, PageSize::K8]) {
            for s in [0, 1] {
                assert_eq!(row[s], crate::simulate_naive(&trace, &m, ps, s as u32));
            }
            for (s, c) in row.iter().enumerate() {
                assert_eq!(*c, row[s % 2], "size {ps} session {s}");
            }
        }
    }

    fn members_of(m: &impl Membership, obj: ObjectDesc) -> Vec<u32> {
        let mut out = Vec::new();
        m.sessions_of(&obj, &mut out);
        out
    }

    #[test]
    fn a_call_loop_resweeps_a_constant_number_of_times() {
        // A caller's loop: enter (install two locals at the same frame
        // pointer), write a local and a caller global on the same page,
        // exit (remove the locals), then write a second global on
        // another page. Every call puts the frame's page back in the
        // state the previous call left it in, so after the first
        // iteration every write is a memo hit: the sweep count must not
        // grow with the iteration count.
        let (l0, l1) = (
            ObjectDesc::Local { func: 1, var: 0 },
            ObjectDesc::Local { func: 1, var: 1 },
        );
        let m = TableMembership::new(
            vec![
                (g(0), vec![0]),
                (g(1), vec![0, 2]),
                (l0, vec![1]),
                (l1, vec![1, 2]),
            ],
            3,
        );
        let call_loop = |iterations: usize| {
            let mut events = vec![
                Event::Install {
                    obj: g(0),
                    ba: 0x1000,
                    ea: 0x1004,
                },
                Event::Install {
                    obj: g(1),
                    ba: 0x5000,
                    ea: 0x5004,
                },
            ];
            for _ in 0..iterations {
                events.extend([
                    Event::Install {
                        obj: l0,
                        ba: 0x1f00,
                        ea: 0x1f04,
                    },
                    Event::Install {
                        obj: l1,
                        ba: 0x1f08,
                        ea: 0x1f10,
                    },
                    write(0x1f00, 0x1f04),
                    write(0x1000, 0x1004),
                    Event::Remove {
                        obj: l1,
                        ba: 0x1f08,
                        ea: 0x1f10,
                    },
                    Event::Remove {
                        obj: l0,
                        ba: 0x1f00,
                        ea: 0x1f04,
                    },
                    write(0x5000, 0x5004),
                ]);
            }
            let core = EngineCore::new(&[PageSize::K4, PageSize::K8]);
            replay_checked(core, events, &m, |_| {}).stats()
        };
        let (few, many) = (call_loop(10), call_loop(1000));
        assert_eq!(many.memo_new, 3, "{many:?}");
        assert_eq!(few.memo_new, 3, "{few:?}");
        assert_eq!(many.memo_hits, 3 * 1000 - 3);
        assert_eq!(few.states_interned, many.states_interned);
        assert_eq!(few.transitions, many.transitions);
    }

    #[test]
    fn interning_tables_stay_bounded_under_fresh_addresses() {
        // 2^17 heap blocks, each allocated at an address no block had
        // before, written, and freed while the seven blocks allocated
        // after it are still live; a global shares the first page.
        // Every install and free makes page contents never seen before,
        // so without collection the tables would grow with the trace.
        // Alive at any time are at most a handful of page states.
        struct HeapParity;
        impl Membership for HeapParity {
            fn count(&self) -> usize {
                2
            }
            fn sessions_of(&self, obj: &ObjectDesc, out: &mut Vec<u32>) {
                out.clear();
                match *obj {
                    ObjectDesc::Heap { seq } => out.push(seq & 1),
                    _ => out.extend([0, 1]),
                }
            }
        }
        let blocks = 1u32 << 17;
        let block = |seq: u32| (ObjectDesc::Heap { seq }, 0x1000 + 24 * seq);
        let mut events = vec![Event::Install {
            obj: g(0),
            ba: 0x1000,
            ea: 0x1008,
        }];
        for seq in 0..blocks {
            let (obj, ba) = block(seq);
            events.extend([
                Event::Install {
                    obj,
                    ba,
                    ea: ba + 16,
                },
                write(ba, ba + 4),       // hit
                write(ba + 16, ba + 20), // between blocks: APM
            ]);
            if seq >= 7 {
                let (obj, ba) = block(seq - 7);
                events.push(Event::Remove {
                    obj,
                    ba,
                    ea: ba + 16,
                });
            }
        }
        let limit = STATE_TABLE_FLOOR + 8;
        let core = EngineCore::new(&[PageSize::K4, PageSize::K8]);
        let core = replay_checked(core, events, &HeapParity, |core| {
            let tables = core.state_ids.len() + core.transitions.len();
            assert!(tables <= limit, "{tables} table entries");
        });
        let held: std::collections::HashSet<u64> = core.page_state.iter().copied().collect();
        assert!(held.len() <= 4, "{} states held at the end", held.len());
        assert!(
            core.states.len() <= limit,
            "{} state slots",
            core.states.len()
        );
        assert!(
            core.stats().states_interned > 4 * STATE_TABLE_FLOOR as u64,
            "the trace must outgrow the floor several times over"
        );
        assert!(core.epoch >= 4, "{} collections", core.epoch);
    }

    #[test]
    fn identical_instances_on_a_page_count_as_a_multiset() {
        // Two objects with the same range and the same members: the page
        // holds the instance twice, and removing one copy must leave the
        // other in place (and, on the second removal, nothing).
        let m = TableMembership::new(vec![(g(0), vec![0]), (g(1), vec![0])], 1);
        let inst = |obj| Event::Install {
            obj,
            ba: 0x1000,
            ea: 0x1004,
        };
        let rem = |obj| Event::Remove {
            obj,
            ba: 0x1000,
            ea: 0x1004,
        };
        let mut events = Vec::new();
        for _ in 0..3 {
            events.extend([
                inst(g(0)),
                inst(g(1)),
                write(0x1000, 0x1004), // hit
                rem(g(1)),
                write(0x1000, 0x1004), // hit: g(0) is still there
                rem(g(0)),
                write(0x1000, 0x1004), // miss
            ]);
        }
        let core = replay_checked(EngineCore::new(&[PageSize::K4]), events, &m, |_| {});
        assert_eq!(core.stats().states_interned, 2, "{{X}} and {{X, X}}");
    }

    #[test]
    fn collected_states_never_revalidate_a_memo() {
        // With no room left in the tables, the install of `b` collects
        // first: the state `a` left behind is freed and its slot goes
        // to the next content interned, `b` on the same page. The span
        // written next to `a` must not take `b`'s state for `a`'s.
        let mut core = EngineCore::new(&[PageSize::K4]);
        core.ensure_sessions(2);
        let (a, b) = (core.intern(&[0]), core.intern(&[1]));
        core.install(g(0), 0x1000, 0x1004, a);
        core.write(0x1800, 0x1804); // APM for session 0
        core.remove(g(0), 0x1000);
        core.table_limit = 0;
        core.install(g(1), 0x1000, 0x1004, b);
        core.write(0x1800, 0x1804); // APM for session 1
        assert_eq!(core.epoch, 1, "one collection");
        assert_eq!(core.stats().memo_new, 2);
        let c = core.counts(2).remove(0);
        assert_eq!((c[0].vm_active_page_miss, c[1].vm_active_page_miss), (1, 1));
    }

    #[test]
    fn engine_outputs_are_send() {
        // The parallel pipeline moves counts (and everything the engine
        // produces) across threads; pin that the engine's result type
        // stays Send.
        fn assert_send<T: Send>(_: &T) {}
        let m = TableMembership::new(vec![(g(0), vec![0])], 1);
        let trace = Trace::from_events(vec![Event::Install {
            obj: g(0),
            ba: 0x1000,
            ea: 0x1004,
        }]);
        let out = simulate_sizes(&trace, &m, &[PageSize::K4, PageSize::K8]);
        assert_send(&out);
    }
}
