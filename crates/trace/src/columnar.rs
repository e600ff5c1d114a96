//! DBPT — the columnar, delta-encoded binary trace format, and the only
//! binary form of a trace (text, in `codec.rs`, is for debugging).
//!
//! Events are split into per-field *columns* packed in fixed-size
//! blocks, which is what the persistent trace store serializes:
//!
//! ```text
//! "DBPT" u32:4
//! u32:meta_len  meta bytes            (opaque application blob)
//! u64:n_events
//! u32:dict_len  { u8:kind u32:payload }*   (dense ObjectDesc dictionary)
//! u32:n_blocks
//! blocks: u32:block_events  8 × ( u32:col_len col_bytes )
//! trailer: "ZMAP" u32:payload_len u64:fnv1a64(payload) payload
//! ```
//!
//! The eight columns per block, in order: **tags** (run-length pairs
//! `u8:tag varint:run`), **objs** (varint dictionary ids, one per
//! install/remove), **pcs** (zigzag-delta varints, one per write),
//! **bas** (zigzag-delta varints, one per install/remove/write),
//! **lens** (zigzag varints of `ea − ba`, same events as `bas`),
//! **funcs** (varint function ids, one per enter/exit), **values**
//! (zigzag-delta varints of the written value, one per write), and
//! **olds** (likewise for the overwritten value). Delta state resets at
//! block boundaries, so blocks decode independently.
//!
//! Run-length tags are what remove per-event decode branching: the
//! reader dispatches once per *run* and then decodes a straight-line
//! batch of same-shaped events from the column cursors. A whole file is
//! loaded with one read into a byte arena ([`read_columnar`] takes
//! `&[u8]`) and columns are sliced out of it — no per-event I/O, no
//! intermediate buffers.
//!
//! # Zone-map trailer
//!
//! The trailer carries one fixed-width [`ZoneMap`] per block — per-tag
//! event counts, min/max of write `pc`/`value`/`old` and of addressed
//! `ba`, and a 64-bucket write-pc occupancy filter — which is what the
//! query engine's block-skipping pushdown consumes. It is part of the
//! one layout: every file carries it, and [`ColumnarReader::open`]
//! (which [`read_columnar`] is built on) validates it in full — framing,
//! FNV-1a checksum, zone version, block count, and each zone's per-tag
//! counts against its block header. A missing or damaged trailer is a
//! [`TraceCodecError`], like any other defect.
//!
//! Malformed or truncated input yields a clean [`TraceCodecError`] —
//! every proper prefix of a written file fails, never a panic — and
//! allocation sizes are bounded by the input length so corrupted headers
//! cannot trigger huge reservations.

use crate::codec::TraceCodecError;
use crate::event::{Event, ObjectDesc, Trace};
use std::io::{self, Write};

const MAGIC: &[u8; 4] = b"DBPT";
/// The one columnar version: eight columns and a zone-map trailer.
const VERSION4: u32 = 4;

/// Events per column block. 64K events keeps every block's columns in
/// cache during decode while bounding the delta chains corruption can
/// damage.
pub const BLOCK_EVENTS: usize = 1 << 16;

const TAG_INSTALL: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_WRITE: u8 = 3;
const TAG_ENTER: u8 = 4;
const TAG_EXIT: u8 = 5;

const OBJ_GLOBAL: u8 = 1;
const OBJ_LOCAL: u8 = 2;
const OBJ_HEAP: u8 = 3;

const TRAILER_MAGIC: &[u8; 4] = b"ZMAP";
const ZONE_VERSION: u32 = 1;
/// Serialized size of one [`ZoneMap`]: 14 × u32 + u64 filter.
const ZONE_BYTES: usize = 64;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a over `bytes`; guards the zone-map trailer against the random
/// corruption the property suites throw at it (not cryptographic).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A read cursor over one column slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, TraceCodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| truncated("column byte"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, TraceCodecError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| truncated("u32"))?;
        let v = u32::from_le_bytes(self.bytes[self.pos..end].try_into().expect("4 bytes"));
        self.pos = end;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, TraceCodecError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| truncated("u64"))?;
        let v = u64::from_le_bytes(self.bytes[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    fn varint(&mut self) -> Result<u64, TraceCodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(TraceCodecError::Malformed("varint overflow".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Slices off a `u32`-length-prefixed segment.
    fn segment(&mut self) -> Result<&'a [u8], TraceCodecError> {
        let len = self.u32()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| truncated("column segment"))?;
        let seg = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(seg)
    }
}

fn truncated(what: &str) -> TraceCodecError {
    TraceCodecError::Malformed(format!("truncated {what}"))
}

fn obj_key(obj: &ObjectDesc) -> (u8, u32) {
    match *obj {
        ObjectDesc::Global { id } => (OBJ_GLOBAL, id),
        ObjectDesc::Local { func, var } => (OBJ_LOCAL, (u32::from(func) << 16) | u32::from(var)),
        ObjectDesc::Heap { seq } => (OBJ_HEAP, seq),
    }
}

fn obj_from_key(kind: u8, payload: u32) -> Result<ObjectDesc, TraceCodecError> {
    Ok(match kind {
        OBJ_GLOBAL => ObjectDesc::Global { id: payload },
        OBJ_LOCAL => ObjectDesc::Local {
            func: (payload >> 16) as u16,
            var: (payload & 0xffff) as u16,
        },
        OBJ_HEAP => ObjectDesc::Heap { seq: payload },
        k => return Err(TraceCodecError::Malformed(format!("dictionary kind {k}"))),
    })
}

fn event_tag(e: &Event) -> u8 {
    match e {
        Event::Install { .. } => TAG_INSTALL,
        Event::Remove { .. } => TAG_REMOVE,
        Event::Write { .. } => TAG_WRITE,
        Event::Enter { .. } => TAG_ENTER,
        Event::Exit { .. } => TAG_EXIT,
    }
}

/// Per-block summary statistics, serialized in the `ZMAP` trailer and
/// consumed by the query engine's block-skipping pushdown.
///
/// Range fields use `min = u32::MAX, max = 0` as the empty sentinel
/// (checked through the `*_range` accessors). `ba` covers every
/// addressed event (install/remove/write); `pc`, `value` and `old`
/// cover writes only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    /// Total events in the block.
    pub events: u32,
    /// Install events in the block.
    pub installs: u32,
    /// Remove events in the block.
    pub removes: u32,
    /// Write events in the block.
    pub writes: u32,
    /// Enter events in the block.
    pub enters: u32,
    /// Exit events in the block.
    pub exits: u32,
    /// Min `ba` over install/remove/write events.
    pub ba_min: u32,
    /// Max `ba` over install/remove/write events.
    pub ba_max: u32,
    /// Min write `pc`.
    pub pc_min: u32,
    /// Max write `pc`.
    pub pc_max: u32,
    /// Min written value.
    pub value_min: u32,
    /// Max written value.
    pub value_max: u32,
    /// Min overwritten (old) value.
    pub old_min: u32,
    /// Max overwritten (old) value.
    pub old_max: u32,
    /// 64-bucket occupancy filter over `[pc_min, pc_max]`: bit `i` is
    /// set iff some write pc falls in equal-width bucket `i`.
    pub pc_filter: u64,
}

impl ZoneMap {
    fn empty(events: u32) -> ZoneMap {
        ZoneMap {
            events,
            installs: 0,
            removes: 0,
            writes: 0,
            enters: 0,
            exits: 0,
            ba_min: u32::MAX,
            ba_max: 0,
            pc_min: u32::MAX,
            pc_max: 0,
            value_min: u32::MAX,
            value_max: 0,
            old_min: u32::MAX,
            old_max: 0,
            pc_filter: 0,
        }
    }

    #[inline]
    fn filter_bucket_width(&self) -> u32 {
        (self.pc_max - self.pc_min) / 64 + 1
    }

    /// Inclusive `(min, max)` of write pcs, or `None` when the block
    /// has no writes.
    pub fn write_pc_range(&self) -> Option<(u32, u32)> {
        (self.writes > 0).then_some((self.pc_min, self.pc_max))
    }

    /// Inclusive `(min, max)` of written values, or `None` when the
    /// block has no writes.
    pub fn write_value_range(&self) -> Option<(u32, u32)> {
        (self.writes > 0).then_some((self.value_min, self.value_max))
    }

    /// Inclusive `(min, max)` of overwritten (old) values, or `None`
    /// when the block has no writes.
    pub fn write_old_range(&self) -> Option<(u32, u32)> {
        (self.writes > 0).then_some((self.old_min, self.old_max))
    }

    /// Could any write pc fall within `[lo, hi]` (inclusive)? `false`
    /// is definitive; `true` is a may-answer (the filter buckets are
    /// coarse).
    pub fn any_write_pc_in(&self, lo: u32, hi: u32) -> bool {
        if self.writes == 0 || lo > hi {
            return false;
        }
        let lo = lo.max(self.pc_min);
        let hi = hi.min(self.pc_max);
        if lo > hi {
            return false;
        }
        let w = self.filter_bucket_width();
        let b_lo = (lo - self.pc_min) / w;
        let b_hi = (hi - self.pc_min) / w;
        let mask = if b_hi - b_lo >= 63 {
            !0u64
        } else {
            ((1u64 << (b_hi - b_lo + 1)) - 1) << b_lo
        };
        self.pc_filter & mask != 0
    }

    /// Do *all* write pcs fall within `[lo, hi]` (inclusive)? `false`
    /// when the block has no writes.
    pub fn all_write_pcs_in(&self, lo: u32, hi: u32) -> bool {
        self.writes > 0 && lo <= self.pc_min && self.pc_max <= hi
    }

    fn observe_write_pcs(&mut self, pcs: &[u32]) {
        let w = self.filter_bucket_width();
        for &pc in pcs {
            self.pc_filter |= 1u64 << ((pc - self.pc_min) / w);
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.events,
            self.installs,
            self.removes,
            self.writes,
            self.enters,
            self.exits,
            self.ba_min,
            self.ba_max,
            self.pc_min,
            self.pc_max,
            self.value_min,
            self.value_max,
            self.old_min,
            self.old_max,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.pc_filter.to_le_bytes());
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<ZoneMap, TraceCodecError> {
        Ok(ZoneMap {
            events: cur.u32()?,
            installs: cur.u32()?,
            removes: cur.u32()?,
            writes: cur.u32()?,
            enters: cur.u32()?,
            exits: cur.u32()?,
            ba_min: cur.u32()?,
            ba_max: cur.u32()?,
            pc_min: cur.u32()?,
            pc_max: cur.u32()?,
            value_min: cur.u32()?,
            value_max: cur.u32()?,
            old_min: cur.u32()?,
            old_max: cur.u32()?,
            pc_filter: cur.u64()?,
        })
    }
}

/// The eight per-block column buffers, reused across blocks.
#[derive(Default)]
struct Columns {
    tags: Vec<u8>,
    objs: Vec<u8>,
    pcs: Vec<u8>,
    bas: Vec<u8>,
    lens: Vec<u8>,
    funcs: Vec<u8>,
    values: Vec<u8>,
    olds: Vec<u8>,
}

impl Columns {
    fn clear(&mut self) {
        self.tags.clear();
        self.objs.clear();
        self.pcs.clear();
        self.bas.clear();
        self.lens.clear();
        self.funcs.clear();
        self.values.clear();
        self.olds.clear();
    }
}

/// Serializes `trace` in DBPT version 4 with its zone-map trailer,
/// embedding `meta` as an opaque application blob (the trace store keeps
/// workload provenance there; pass `&[]` for a plain trace file).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_columnar(trace: &Trace, meta: &[u8], w: &mut impl Write) -> io::Result<()> {
    write_columnar_with(trace, meta, w, BLOCK_EVENTS)
}

/// [`write_columnar`] with `block_events` events per block, clamped to
/// `1..=BLOCK_EVENTS`. Small blocks exist for tests that want many block
/// boundaries on tiny traces.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_columnar_with(
    trace: &Trace,
    meta: &[u8],
    w: &mut impl Write,
    block_events: usize,
) -> io::Result<()> {
    let block_events = block_events.clamp(1, BLOCK_EVENTS);
    // Dense object dictionary, ids in order of first appearance. The
    // dictionary is small (hundreds of objects), so the standard hasher
    // is fine and keeps this crate dependency-free.
    let mut dict_ids: std::collections::HashMap<(u8, u32), u32> = std::collections::HashMap::new();
    let mut dict: Vec<(u8, u32)> = Vec::new();
    for e in trace.events() {
        if let Event::Install { obj, .. } | Event::Remove { obj, .. } = e {
            let key = obj_key(obj);
            dict_ids.entry(key).or_insert_with(|| {
                dict.push(key);
                (dict.len() - 1) as u32
            });
        }
    }

    w.write_all(MAGIC)?;
    w.write_all(&VERSION4.to_le_bytes())?;
    w.write_all(&(meta.len() as u32).to_le_bytes())?;
    w.write_all(meta)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    w.write_all(&(dict.len() as u32).to_le_bytes())?;
    for &(kind, payload) in &dict {
        w.write_all(&[kind])?;
        w.write_all(&payload.to_le_bytes())?;
    }
    let n_blocks = trace.len().div_ceil(block_events);
    w.write_all(&(n_blocks as u32).to_le_bytes())?;

    let mut cols = Columns::default();
    let mut zones: Vec<ZoneMap> = Vec::with_capacity(n_blocks);
    let mut pc_scratch: Vec<u32> = Vec::new();
    for block in trace.events().chunks(block_events) {
        cols.clear();
        pc_scratch.clear();
        let mut zone = ZoneMap::empty(block.len() as u32);
        let mut prev_pc = 0i64;
        let mut prev_ba = 0i64;
        let mut prev_value = 0i64;
        let mut prev_old = 0i64;
        let mut run_tag = 0u8;
        let mut run_len = 0u64;
        for e in block {
            let tag = event_tag(e);
            if tag == run_tag {
                run_len += 1;
            } else {
                if run_len > 0 {
                    cols.tags.push(run_tag);
                    put_varint(&mut cols.tags, run_len);
                }
                run_tag = tag;
                run_len = 1;
            }
            match *e {
                Event::Install { obj, ba, ea } | Event::Remove { obj, ba, ea } => {
                    if tag == TAG_INSTALL {
                        zone.installs += 1;
                    } else {
                        zone.removes += 1;
                    }
                    zone.ba_min = zone.ba_min.min(ba);
                    zone.ba_max = zone.ba_max.max(ba);
                    let id = dict_ids[&obj_key(&obj)];
                    put_varint(&mut cols.objs, u64::from(id));
                    put_varint(&mut cols.bas, zigzag(i64::from(ba) - prev_ba));
                    prev_ba = i64::from(ba);
                    put_varint(&mut cols.lens, zigzag(i64::from(ea) - i64::from(ba)));
                }
                Event::Write {
                    pc,
                    ba,
                    ea,
                    value,
                    old,
                } => {
                    zone.writes += 1;
                    zone.ba_min = zone.ba_min.min(ba);
                    zone.ba_max = zone.ba_max.max(ba);
                    zone.pc_min = zone.pc_min.min(pc);
                    zone.pc_max = zone.pc_max.max(pc);
                    zone.value_min = zone.value_min.min(value);
                    zone.value_max = zone.value_max.max(value);
                    zone.old_min = zone.old_min.min(old);
                    zone.old_max = zone.old_max.max(old);
                    pc_scratch.push(pc);
                    put_varint(&mut cols.pcs, zigzag(i64::from(pc) - prev_pc));
                    prev_pc = i64::from(pc);
                    put_varint(&mut cols.bas, zigzag(i64::from(ba) - prev_ba));
                    prev_ba = i64::from(ba);
                    put_varint(&mut cols.lens, zigzag(i64::from(ea) - i64::from(ba)));
                    put_varint(&mut cols.values, zigzag(i64::from(value) - prev_value));
                    prev_value = i64::from(value);
                    put_varint(&mut cols.olds, zigzag(i64::from(old) - prev_old));
                    prev_old = i64::from(old);
                }
                Event::Enter { func } => {
                    zone.enters += 1;
                    put_varint(&mut cols.funcs, u64::from(func));
                }
                Event::Exit { func } => {
                    zone.exits += 1;
                    put_varint(&mut cols.funcs, u64::from(func));
                }
            }
        }
        if run_len > 0 {
            cols.tags.push(run_tag);
            put_varint(&mut cols.tags, run_len);
        }
        if zone.writes > 0 {
            zone.observe_write_pcs(&pc_scratch);
        }
        zones.push(zone);
        w.write_all(&(block.len() as u32).to_le_bytes())?;
        for col in [
            &cols.tags,
            &cols.objs,
            &cols.pcs,
            &cols.bas,
            &cols.lens,
            &cols.funcs,
            &cols.values,
            &cols.olds,
        ] {
            w.write_all(&(col.len() as u32).to_le_bytes())?;
            w.write_all(col)?;
        }
    }
    let mut payload = Vec::with_capacity(8 + zones.len() * ZONE_BYTES);
    payload.extend_from_slice(&ZONE_VERSION.to_le_bytes());
    payload.extend_from_slice(&(zones.len() as u32).to_le_bytes());
    for z in &zones {
        z.encode(&mut payload);
    }
    w.write_all(TRAILER_MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&fnv1a64(&payload).to_le_bytes())?;
    w.write_all(&payload)
}

/// One block's raw (still encoded) column slices, borrowed from the
/// file arena. Decoding is explicit and column-selective — this is the
/// unit of lazy decode for query pushdown.
#[derive(Clone, Copy)]
pub struct RawBlock<'a> {
    events: u32,
    tags: &'a [u8],
    objs: &'a [u8],
    pcs: &'a [u8],
    bas: &'a [u8],
    lens: &'a [u8],
    funcs: &'a [u8],
    values: &'a [u8],
    olds: &'a [u8],
}

/// Which write-bearing columns [`RawBlock::decode_writes`] should
/// materialize. Unrequested columns are never touched.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteCols {
    /// Decode write pcs.
    pub pcs: bool,
    /// Decode write `(ba, ea)` pairs (walks the tags/bas/lens chain,
    /// which interleaves install/remove entries).
    pub addrs: bool,
    /// Decode written values.
    pub values: bool,
    /// Decode overwritten (old) values.
    pub olds: bool,
}

/// Decoded per-write columns for one block, reusable across blocks.
/// Only the vectors requested via [`WriteCols`] are filled.
#[derive(Default, Debug)]
pub struct BlockWrites {
    /// Write pcs (if requested).
    pub pcs: Vec<u32>,
    /// Write base addresses (if `addrs` requested).
    pub bas: Vec<u32>,
    /// Write end addresses (if `addrs` requested).
    pub eas: Vec<u32>,
    /// Written values (if requested).
    pub values: Vec<u32>,
    /// Overwritten values (if requested).
    pub olds: Vec<u32>,
}

impl BlockWrites {
    fn clear(&mut self) {
        self.pcs.clear();
        self.bas.clear();
        self.eas.clear();
        self.values.clear();
        self.olds.clear();
    }
}

impl<'a> RawBlock<'a> {
    /// Events in this block (from the block header, no decode).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// `(column name, encoded byte length)` for the eight columns —
    /// what `repro trace dump --meta` prints.
    pub fn column_sizes(&self) -> [(&'static str, usize); 8] {
        [
            ("tags", self.tags.len()),
            ("objs", self.objs.len()),
            ("pcs", self.pcs.len()),
            ("bas", self.bas.len()),
            ("lens", self.lens.len()),
            ("funcs", self.funcs.len()),
            ("values", self.values.len()),
            ("olds", self.olds.len()),
        ]
    }

    /// Decodes only the write rows of the requested columns into
    /// `out` (cleared first), returning the block's write count.
    ///
    /// # Errors
    ///
    /// [`TraceCodecError::Malformed`] on any column inconsistency —
    /// including requested columns disagreeing on the write count.
    pub fn decode_writes(
        &self,
        want: WriteCols,
        out: &mut BlockWrites,
    ) -> Result<u32, TraceCodecError> {
        out.clear();
        let mut count: Option<usize> = None;
        fn merge(count: &mut Option<usize>, n: usize, col: &str) -> Result<(), TraceCodecError> {
            match *count {
                None => {
                    *count = Some(n);
                    Ok(())
                }
                Some(c) if c == n => Ok(()),
                Some(c) => Err(TraceCodecError::Malformed(format!(
                    "write columns disagree: {c} writes vs {n} in {col}"
                ))),
            }
        }
        if want.pcs {
            let mut cur = Cursor::new(self.pcs);
            let mut prev = 0i64;
            while cur.remaining() > 0 {
                let v = prev + unzigzag(cur.varint()?);
                prev = v;
                out.pcs.push(
                    u32::try_from(v)
                        .map_err(|_| TraceCodecError::Malformed("pc delta out of range".into()))?,
                );
            }
            merge(&mut count, out.pcs.len(), "pcs")?;
        }
        if want.values {
            let mut cur = Cursor::new(self.values);
            let mut prev = 0i64;
            while cur.remaining() > 0 {
                let v = prev + unzigzag(cur.varint()?);
                prev = v;
                out.values.push(word_value(v)?);
            }
            merge(&mut count, out.values.len(), "values")?;
        }
        if want.olds {
            let mut cur = Cursor::new(self.olds);
            let mut prev = 0i64;
            while cur.remaining() > 0 {
                let v = prev + unzigzag(cur.varint()?);
                prev = v;
                out.olds.push(word_value(v)?);
            }
            merge(&mut count, out.olds.len(), "olds")?;
        }
        if want.addrs || count.is_none() {
            // The bas/lens delta chain interleaves install/remove and
            // write entries, so write addresses require the tag runs;
            // when no column was requested at all, the tags alone still
            // yield the write count.
            let mut tags = Cursor::new(self.tags);
            let mut bas = Cursor::new(self.bas);
            let mut lens = Cursor::new(self.lens);
            let mut prev_ba = 0i64;
            let mut decoded = 0usize;
            let mut writes = 0usize;
            let events = self.events as usize;
            while decoded < events {
                let tag = tags.u8()?;
                let run = tags.varint()? as usize;
                if run == 0 || run > events - decoded {
                    return Err(TraceCodecError::Malformed(format!(
                        "tag run of {run} overflows block"
                    )));
                }
                match tag {
                    TAG_INSTALL | TAG_REMOVE => {
                        if want.addrs {
                            for _ in 0..run {
                                let ba = prev_ba + unzigzag(bas.varint()?);
                                prev_ba = ba;
                                let len = unzigzag(lens.varint()?);
                                addr_pair(ba, len)?;
                            }
                        }
                    }
                    TAG_WRITE => {
                        writes += run;
                        if want.addrs {
                            for _ in 0..run {
                                let ba = prev_ba + unzigzag(bas.varint()?);
                                prev_ba = ba;
                                let len = unzigzag(lens.varint()?);
                                let (ba, ea) = addr_pair(ba, len)?;
                                out.bas.push(ba);
                                out.eas.push(ea);
                            }
                        }
                    }
                    TAG_ENTER | TAG_EXIT => {}
                    t => return Err(TraceCodecError::Malformed(format!("event tag {t}"))),
                }
                decoded += run;
            }
            merge(&mut count, writes, "tags")?;
        }
        Ok(count.unwrap_or(0) as u32)
    }

    /// Fully decodes this block's events, appending to `out`.
    fn decode_into(&self, dict: &[ObjectDesc], out: &mut Trace) -> Result<(), TraceCodecError> {
        let block_events = self.events as usize;
        let mut tags = Cursor::new(self.tags);
        let mut objs = Cursor::new(self.objs);
        let mut pcs = Cursor::new(self.pcs);
        let mut bas = Cursor::new(self.bas);
        let mut lens = Cursor::new(self.lens);
        let mut funcs = Cursor::new(self.funcs);
        let mut values = Cursor::new(self.values);
        let mut olds = Cursor::new(self.olds);
        let mut prev_pc = 0i64;
        let mut prev_ba = 0i64;
        let mut prev_value = 0i64;
        let mut prev_old = 0i64;
        let mut decoded = 0usize;
        while decoded < block_events {
            let tag = tags.u8()?;
            let run = tags.varint()? as usize;
            if run == 0 || run > block_events - decoded {
                return Err(TraceCodecError::Malformed(format!(
                    "tag run of {run} overflows block"
                )));
            }
            // One dispatch per run; the loop body is branch-free on the
            // event shape.
            match tag {
                TAG_INSTALL | TAG_REMOVE => {
                    for _ in 0..run {
                        let id = objs.varint()? as usize;
                        let obj = *dict.get(id).ok_or_else(|| {
                            TraceCodecError::Malformed(format!("dictionary id {id} out of range"))
                        })?;
                        let ba = prev_ba + unzigzag(bas.varint()?);
                        prev_ba = ba;
                        let len = unzigzag(lens.varint()?);
                        let (ba, ea) = addr_pair(ba, len)?;
                        out.push(if tag == TAG_INSTALL {
                            Event::Install { obj, ba, ea }
                        } else {
                            Event::Remove { obj, ba, ea }
                        });
                    }
                }
                TAG_WRITE => {
                    for _ in 0..run {
                        let pc = prev_pc + unzigzag(pcs.varint()?);
                        prev_pc = pc;
                        let pc = u32::try_from(pc).map_err(|_| {
                            TraceCodecError::Malformed("pc delta out of range".into())
                        })?;
                        let ba = prev_ba + unzigzag(bas.varint()?);
                        prev_ba = ba;
                        let len = unzigzag(lens.varint()?);
                        let (ba, ea) = addr_pair(ba, len)?;
                        let value = prev_value + unzigzag(values.varint()?);
                        prev_value = value;
                        let old = prev_old + unzigzag(olds.varint()?);
                        prev_old = old;
                        out.push(Event::Write {
                            pc,
                            ba,
                            ea,
                            value: word_value(value)?,
                            old: word_value(old)?,
                        });
                    }
                }
                TAG_ENTER | TAG_EXIT => {
                    for _ in 0..run {
                        let func = u16::try_from(funcs.varint()?).map_err(|_| {
                            TraceCodecError::Malformed("function id out of range".into())
                        })?;
                        out.push(if tag == TAG_ENTER {
                            Event::Enter { func }
                        } else {
                            Event::Exit { func }
                        });
                    }
                }
                t => return Err(TraceCodecError::Malformed(format!("event tag {t}"))),
            }
            decoded += run;
        }
        for (cur, name) in [
            (&tags, "tags"),
            (&objs, "objs"),
            (&pcs, "pcs"),
            (&bas, "bas"),
            (&lens, "lens"),
            (&funcs, "funcs"),
            (&values, "values"),
            (&olds, "olds"),
        ] {
            if cur.remaining() != 0 {
                return Err(TraceCodecError::Malformed(format!(
                    "{name} column has trailing bytes"
                )));
            }
        }
        Ok(())
    }
}

/// Validates the zone-map trailer, which must be exactly the bytes after
/// the last block: framing, FNV-1a checksum, zone version, one zone per
/// block, and each zone's per-tag counts against its block header.
fn parse_zone_trailer(
    trailer: &[u8],
    blocks: &[RawBlock<'_>],
) -> Result<Vec<ZoneMap>, TraceCodecError> {
    let malformed = |what: String| TraceCodecError::Malformed(format!("zone-map trailer: {what}"));
    if trailer.len() < 16 {
        return Err(truncated("zone-map trailer"));
    }
    if &trailer[..4] != TRAILER_MAGIC {
        return Err(malformed("bad magic".into()));
    }
    let mut cur = Cursor::new(&trailer[4..16]);
    let len = cur.u32()? as usize;
    let checksum = cur.u64()?;
    let payload = &trailer[16..];
    if payload.len() != len {
        return Err(malformed(format!(
            "{len} payload bytes promised, {} present",
            payload.len()
        )));
    }
    if fnv1a64(payload) != checksum {
        return Err(malformed("checksum mismatch".into()));
    }
    let mut cur = Cursor::new(payload);
    let version = cur.u32()?;
    if version != ZONE_VERSION {
        return Err(malformed(format!("unsupported version {version}")));
    }
    let n = cur.u32()? as usize;
    if n != blocks.len() || payload.len() != 8 + n * ZONE_BYTES {
        return Err(malformed(format!("{n} zones for {} blocks", blocks.len())));
    }
    let mut zones = Vec::with_capacity(n);
    for (i, block) in blocks.iter().enumerate() {
        let z = ZoneMap::decode(&mut cur)?;
        let tag_sum: u64 = [z.installs, z.removes, z.writes, z.enters, z.exits]
            .iter()
            .map(|&c| u64::from(c))
            .sum();
        if z.events != block.events || tag_sum != u64::from(z.events) {
            return Err(malformed(format!(
                "zone {i} counts disagree with its block header"
            )));
        }
        zones.push(z);
    }
    Ok(zones)
}

/// A lazily-decoding view over a DBPT file: header, dictionary, block
/// directory and zone-map trailer are parsed and validated eagerly
/// (cheap — column contents are only sliced, not decoded), and event
/// decode happens per block, per column, on demand.
///
/// This is the substrate for query pushdown: refute a block against its
/// [`ZoneMap`], and decode only the surviving blocks' relevant columns.
pub struct ColumnarReader<'a> {
    meta: &'a [u8],
    n_events: u64,
    dict: Vec<ObjectDesc>,
    blocks: Vec<RawBlock<'a>>,
    zones: Vec<ZoneMap>,
}

impl<'a> ColumnarReader<'a> {
    /// Parses and validates the container structure of `bytes` without
    /// decoding any event column.
    ///
    /// # Errors
    ///
    /// [`TraceCodecError::Malformed`] on bad magic/version, dictionary
    /// defects, truncated block structure, block headers that disagree
    /// with the event count, and a missing, damaged or inconsistent
    /// zone-map trailer.
    pub fn open(bytes: &'a [u8]) -> Result<ColumnarReader<'a>, TraceCodecError> {
        let mut cur = Cursor::new(bytes);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = cur.u8()?;
        }
        if &magic != MAGIC {
            return Err(TraceCodecError::Malformed("bad magic".into()));
        }
        let version = cur.u32()?;
        if version != VERSION4 {
            return Err(TraceCodecError::Malformed(format!(
                "unsupported version {version}"
            )));
        }
        let meta_len = cur.u32()? as usize;
        if meta_len > cur.remaining() {
            return Err(truncated("meta blob"));
        }
        let meta = &bytes[cur.pos..cur.pos + meta_len];
        cur.pos += meta_len;

        let n_events = cur.u64()?;
        // 5 bytes is the smallest event encoding (amortized); reject counts
        // the remaining input cannot possibly hold so corrupt headers can't
        // reserve huge buffers.
        if n_events / 8 > cur.remaining() as u64 {
            return Err(truncated("event payload"));
        }
        let dict_len = cur.u32()? as usize;
        if dict_len * 5 > cur.remaining() {
            return Err(truncated("dictionary"));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let kind = cur.u8()?;
            let payload = cur.u32()?;
            dict.push(obj_from_key(kind, payload)?);
        }
        let n_blocks = cur.u32()? as usize;
        if n_blocks * 4 > cur.remaining() {
            return Err(truncated("blocks"));
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let block_events = cur.u32()?;
            if block_events as usize > BLOCK_EVENTS {
                return Err(TraceCodecError::Malformed(format!(
                    "block of {block_events} events exceeds the {BLOCK_EVENTS} cap"
                )));
            }
            blocks.push(RawBlock {
                events: block_events,
                tags: cur.segment()?,
                objs: cur.segment()?,
                pcs: cur.segment()?,
                bas: cur.segment()?,
                lens: cur.segment()?,
                funcs: cur.segment()?,
                values: cur.segment()?,
                olds: cur.segment()?,
            });
        }
        let header_sum: u64 = blocks.iter().map(|b| u64::from(b.events)).sum();
        if header_sum != n_events {
            return Err(TraceCodecError::Malformed(format!(
                "header promises {n_events} events, blocks hold {header_sum}"
            )));
        }
        let zones = parse_zone_trailer(&bytes[cur.pos..], &blocks)?;
        Ok(ColumnarReader {
            meta,
            n_events,
            dict,
            blocks,
            zones,
        })
    }

    /// The embedded opaque meta blob.
    pub fn meta(&self) -> &'a [u8] {
        self.meta
    }

    /// Total events promised by the header (equals the block sum).
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// The object dictionary.
    pub fn dict(&self) -> &[ObjectDesc] {
        &self.dict
    }

    /// The raw (undecoded) blocks.
    pub fn blocks(&self) -> &[RawBlock<'a>] {
        &self.blocks
    }

    /// The validated zone maps, one per block.
    pub fn zones(&self) -> &[ZoneMap] {
        &self.zones
    }
}

/// Deserializes a DBPT trace from an in-memory arena (load the whole
/// file with one read, then call this), returning the trace and the
/// embedded meta blob: [`ColumnarReader::open`], then every block
/// decoded.
///
/// # Errors
///
/// [`TraceCodecError::Malformed`] on anything [`ColumnarReader::open`]
/// rejects and on column inconsistencies — every proper prefix of a
/// DBPT file is an error, never a panic.
pub fn read_columnar(bytes: &[u8]) -> Result<(Trace, Vec<u8>), TraceCodecError> {
    let reader = ColumnarReader::open(bytes)?;
    let mut trace = Trace::with_capacity(reader.n_events as usize);
    for block in &reader.blocks {
        block.decode_into(&reader.dict, &mut trace)?;
    }
    Ok((trace, reader.meta.to_vec()))
}

fn word_value(v: i64) -> Result<u32, TraceCodecError> {
    u32::try_from(v).map_err(|_| TraceCodecError::Malformed("value delta out of range".into()))
}

fn addr_pair(ba: i64, len: i64) -> Result<(u32, u32), TraceCodecError> {
    let ea = ba.checked_add(len);
    match (u32::try_from(ba), ea.map(u32::try_from)) {
        (Ok(ba), Some(Ok(ea))) => Ok((ba, ea)),
        _ => Err(TraceCodecError::Malformed(
            "address delta out of range".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            Event::Install {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0x10_0000,
                ea: 0x10_0004,
            },
            Event::Enter { func: 3 },
            Event::Install {
                obj: ObjectDesc::Local { func: 3, var: 1 },
                ba: 0xeffff0,
                ea: 0xeffff4,
            },
            Event::Write {
                pc: 0x1_0010,
                ba: 0xeffff0,
                ea: 0xeffff4,
                value: 0xdead_beef,
                old: 0,
            },
            Event::Write {
                pc: 0x1_0014,
                ba: 0xeffff0,
                ea: 0xeffff1,
                value: 0x7f,
                old: 0xef,
            },
            Event::Install {
                obj: ObjectDesc::Heap { seq: 2 },
                ba: 0x40_0000,
                ea: 0x40_0010,
            },
            Event::Remove {
                obj: ObjectDesc::Heap { seq: 2 },
                ba: 0x40_0000,
                ea: 0x40_0010,
            },
            Event::Remove {
                obj: ObjectDesc::Local { func: 3, var: 1 },
                ba: 0xeffff0,
                ea: 0xeffff4,
            },
            Event::Exit { func: 3 },
            Event::Remove {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0x10_0000,
                ea: 0x10_0004,
            },
        ])
    }

    fn encoded(trace: &Trace, meta: &[u8], block_events: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_columnar_with(trace, meta, &mut buf, block_events).unwrap();
        buf
    }

    #[test]
    fn columnar_roundtrip_with_meta() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_columnar(&t, b"workload=tex", &mut buf).unwrap();
        let (back, meta) = read_columnar(&buf).unwrap();
        assert_eq!(t, back);
        assert_eq!(meta, b"workload=tex");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let mut buf = Vec::new();
        write_columnar(&t, &[], &mut buf).unwrap();
        let (back, meta) = read_columnar(&buf).unwrap();
        assert_eq!(back, t);
        assert!(meta.is_empty());
    }

    #[test]
    fn multi_block_roundtrip() {
        let mut t = Trace::new();
        for i in 0..(BLOCK_EVENTS as u32 + 100) {
            t.push(Event::Write {
                pc: 0x100 + (i % 7),
                ba: 0x1000 + i * 4,
                ea: 0x1004 + i * 4,
                value: i.wrapping_mul(2654435761),
                old: i % 3,
            });
        }
        let mut buf = Vec::new();
        write_columnar(&t, &[], &mut buf).unwrap();
        let (back, _) = read_columnar(&buf).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        assert!(matches!(
            read_columnar(b"NOPE\x02\0\0\0"),
            Err(TraceCodecError::Malformed(_))
        ));
        let mut buf = Vec::new();
        write_columnar(&sample_trace(), &[], &mut buf).unwrap();
        buf[4] = 9;
        assert!(matches!(
            read_columnar(&buf),
            Err(TraceCodecError::Malformed(_))
        ));
        // The retired row format shares the magic; version 1 and 3 row
        // files fail on their version word, as do version 2 columnar
        // files (six columns, no write values, no trailer).
        for v in [1, 2, 3] {
            buf[4] = v;
            let err = read_columnar(&buf).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("malformed trace: unsupported version {v}")
            );
        }
    }

    #[test]
    fn legacy_v2_six_column_file_is_rejected() {
        // Hand-build a version-2 container: one block, one write event,
        // six columns (no values/olds), no trailer. Both readers refuse
        // it on its version word rather than zero-filling the values.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // meta_len
        buf.extend_from_slice(&1u64.to_le_bytes()); // n_events
        buf.extend_from_slice(&0u32.to_le_bytes()); // dict_len
        buf.extend_from_slice(&1u32.to_le_bytes()); // n_blocks
        buf.extend_from_slice(&1u32.to_le_bytes()); // block_events
        let mut tags = Vec::new();
        tags.push(TAG_WRITE);
        put_varint(&mut tags, 1);
        let mut pcs = Vec::new();
        put_varint(&mut pcs, zigzag(0x1_0010));
        let mut bas = Vec::new();
        put_varint(&mut bas, zigzag(0x10_0000));
        let mut lens = Vec::new();
        put_varint(&mut lens, zigzag(4));
        for col in [&tags, &Vec::new(), &pcs, &bas, &lens, &Vec::new()] {
            buf.extend_from_slice(&(col.len() as u32).to_le_bytes());
            buf.extend_from_slice(col);
        }
        let want = "malformed trace: unsupported version 2";
        assert_eq!(read_columnar(&buf).unwrap_err().to_string(), want);
        assert_eq!(ColumnarReader::open(&buf).err().unwrap().to_string(), want);
    }

    #[test]
    fn every_truncation_prefix_is_a_clean_error() {
        // No proper prefix decodes or opens — including the one that
        // stops exactly where the trailer begins.
        let buf = encoded(&sample_trace(), b"meta", BLOCK_EVENTS);
        for cut in 0..buf.len() {
            assert!(
                read_columnar(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
            assert!(
                ColumnarReader::open(&buf[..cut]).is_err(),
                "prefix of {cut} bytes opened"
            );
        }
    }

    #[test]
    fn trailered_file_truncation_never_yields_a_wrong_trace() {
        // Many small blocks put many block boundaries, and a long
        // trailer, in front of the cut.
        let t = sample_trace();
        let buf = encoded(&t, b"meta", 3);
        let trailer_len = 24 + ZONE_BYTES * t.len().div_ceil(3);
        assert_eq!(&buf[buf.len() - trailer_len..][..4], TRAILER_MAGIC);
        for cut in 0..buf.len() {
            assert!(
                read_columnar(&buf[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert_eq!(read_columnar(&buf).unwrap(), (t, b"meta".to_vec()));
    }

    #[test]
    fn reader_exposes_validated_zone_maps() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_columnar(&t, b"m", &mut buf).unwrap();
        let r = ColumnarReader::open(&buf).unwrap();
        assert_eq!(r.n_events(), t.len() as u64);
        assert_eq!(r.meta(), b"m");
        let zones = r.zones();
        assert_eq!(zones.len(), 1);
        let z = &zones[0];
        assert_eq!(
            (z.installs, z.removes, z.writes, z.enters, z.exits),
            (3, 3, 2, 1, 1)
        );
        assert_eq!(z.write_value_range(), Some((0x7f, 0xdead_beef)));
        assert_eq!(z.write_old_range(), Some((0, 0xef)));
        assert_eq!(z.write_pc_range(), Some((0x1_0010, 0x1_0014)));
        assert!(z.any_write_pc_in(0x1_0010, 0x1_0010));
        assert!(!z.any_write_pc_in(0, 0x1_000f));
        assert!(!z.any_write_pc_in(0x1_0015, u32::MAX));
        assert!(z.all_write_pcs_in(0x1_0000, 0x2_0000));
        assert!(!z.all_write_pcs_in(0x1_0011, 0x2_0000));
    }

    #[test]
    fn corrupt_trailer_is_an_error() {
        let t = sample_trace();
        let good = encoded(&t, b"m", BLOCK_EVENTS);
        let trailer_start = good.len() - (24 + ZONE_BYTES);
        // Magic, length, checksum and payload: every flip is caught.
        for at in [
            trailer_start,
            trailer_start + 4,
            trailer_start + 8,
            good.len() - 1,
        ] {
            let mut buf = good.clone();
            buf[at] ^= 0xff;
            assert!(ColumnarReader::open(&buf).is_err(), "flip at {at} opened");
            assert!(read_columnar(&buf).is_err(), "flip at {at} decoded");
        }
        // Trailing bytes after the trailer are a length mismatch.
        let mut buf = good.clone();
        buf.push(0);
        assert!(read_columnar(&buf).is_err());
        // A checksum-valid trailer whose zone counts disagree with the
        // block header is rejected too.
        let mut buf = good;
        let payload = trailer_start + 16;
        buf[payload + 8 + 12] ^= 1; // zone 0's `writes`
        let sum = fnv1a64(&buf[payload..]);
        buf[trailer_start + 8..payload].copy_from_slice(&sum.to_le_bytes());
        let err = ColumnarReader::open(&buf).err().expect("inconsistent zone");
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn decode_writes_is_column_selective() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_columnar(&t, &[], &mut buf).unwrap();
        let r = ColumnarReader::open(&buf).unwrap();
        let mut out = BlockWrites::default();
        // No columns requested: still counts writes via tags.
        let n = r.blocks()[0]
            .decode_writes(WriteCols::default(), &mut out)
            .unwrap();
        assert_eq!(n, 2);
        assert!(out.pcs.is_empty() && out.values.is_empty());
        let n = r.blocks()[0]
            .decode_writes(
                WriteCols {
                    pcs: true,
                    addrs: true,
                    values: true,
                    olds: true,
                },
                &mut out,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(out.pcs, vec![0x1_0010, 0x1_0014]);
        assert_eq!(out.bas, vec![0xeffff0, 0xeffff0]);
        assert_eq!(out.eas, vec![0xeffff4, 0xeffff1]);
        assert_eq!(out.values, vec![0xdead_beef, 0x7f]);
        assert_eq!(out.olds, vec![0, 0xef]);
    }

    #[test]
    fn small_block_writer_roundtrips_many_blocks() {
        let t = sample_trace();
        let buf = encoded(&t, b"m", 3);
        let (back, meta) = read_columnar(&buf).unwrap();
        assert_eq!(back, t);
        assert_eq!(meta, b"m");
        let r = ColumnarReader::open(&buf).unwrap();
        assert_eq!(r.blocks().len(), t.len().div_ceil(3));
        let zones = r.zones();
        assert_eq!(zones.len(), r.blocks().len());
        let write_sum: u32 = zones.iter().map(|z| z.writes).sum();
        assert_eq!(write_sum, 2);
    }
}
