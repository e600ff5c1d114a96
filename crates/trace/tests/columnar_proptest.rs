//! Property tests for the DBPT columnar codec: arbitrary traces
//! round-trip exactly, and no truncation or byte corruption of a valid
//! file can panic the decoder — a damaged input is a clean
//! `TraceCodecError` (or, for bit flips that happen to stay
//! self-consistent, a successfully decoded trace), never a crash.
//!
//! The zone-map trailer carries its own obligations: the per-block
//! summaries must match a brute-force recomputation from the decoded
//! events (soundness of every refutation the query planner derives
//! from them), and the trailer is required — every proper prefix of a
//! file, and every single-byte flip inside the trailer, makes both the
//! full decode and the lazy reader fail.

use databp_trace::{
    read_columnar, write_columnar, write_columnar_with, ColumnarReader, Event, ObjectDesc, Trace,
};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    let obj = prop_oneof![
        (0u32..50).prop_map(|id| ObjectDesc::Global { id }),
        (0u16..20, 0u16..10).prop_map(|(func, var)| ObjectDesc::Local { func, var }),
        (0u32..100).prop_map(|seq| ObjectDesc::Heap { seq }),
    ];
    prop_oneof![
        (obj.clone(), any::<u32>(), 0u32..256).prop_map(|(obj, ba, len)| Event::Install {
            obj,
            ba,
            ea: ba.saturating_add(len)
        }),
        (obj, any::<u32>(), 0u32..256).prop_map(|(obj, ba, len)| Event::Remove {
            obj,
            ba,
            ea: ba.saturating_add(len)
        }),
        (
            any::<u32>(),
            any::<u32>(),
            0u32..16,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(pc, ba, len, value, old)| Event::Write {
                pc,
                ba,
                ea: ba.saturating_add(len),
                value,
                old
            }),
        (0u16..64).prop_map(|func| Event::Enter { func }),
        (0u16..64).prop_map(|func| Event::Exit { func }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_event(), 0..400).prop_map(Trace::from_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary event sequences (including degenerate zero-length
    /// ranges and full-range addresses) round-trip exactly, with the
    /// meta blob intact.
    #[test]
    fn roundtrip_exact(trace in arb_trace(), meta in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut buf = Vec::new();
        write_columnar(&trace, &meta, &mut buf).unwrap();
        let (back, back_meta) = read_columnar(&buf).unwrap();
        prop_assert_eq!(back, trace);
        prop_assert_eq!(back_meta, meta);
    }

    /// Every proper prefix of a valid file is an error for both the
    /// full decode and the lazy reader — the decoder must detect
    /// truncation, not invent events or panic.
    #[test]
    fn truncation_is_a_clean_error(
        trace in arb_trace(),
        block_events in 1usize..128,
        frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        write_columnar_with(&trace, b"m", &mut buf, block_events).unwrap();
        let cut = ((buf.len() as f64) * frac) as usize;
        prop_assert!(cut < buf.len());
        prop_assert!(read_columnar(&buf[..cut]).is_err());
        prop_assert!(ColumnarReader::open(&buf[..cut]).is_err());
    }

    /// Cuts inside the trailer, including the one that drops exactly
    /// the whole trailer, never yield a trace: the trailer is required.
    #[test]
    fn trailered_truncation_never_wrong(trace in arb_trace(), keep in any::<u16>()) {
        let mut buf = Vec::new();
        write_columnar(&trace, b"m", &mut buf).unwrap();
        let n_blocks = ColumnarReader::open(&buf).unwrap().blocks().len();
        let trailer_len = 24 + 64 * n_blocks;
        let cut = buf.len() - trailer_len + usize::from(keep) % trailer_len;
        prop_assert!(read_columnar(&buf[..cut]).is_err());
        prop_assert!(ColumnarReader::open(&buf[..cut]).is_err());
    }

    /// The trailer is a strict suffix of every file: the last
    /// `24 + 64 × blocks` bytes, framed by `ZMAP` and a payload length
    /// of `8 + 64 × blocks` — the size the tests above cut into.
    #[test]
    fn trailer_is_a_strict_suffix(trace in arb_trace(), block_events in 1usize..128) {
        let mut buf = Vec::new();
        write_columnar_with(&trace, b"m", &mut buf, block_events).unwrap();
        let n_blocks = trace.len().div_ceil(block_events);
        prop_assert_eq!(ColumnarReader::open(&buf).unwrap().blocks().len(), n_blocks);
        let trailer = &buf[buf.len() - (24 + 64 * n_blocks)..];
        prop_assert_eq!(&trailer[..4], b"ZMAP");
        let payload_len = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
        prop_assert_eq!(payload_len as usize, 8 + 64 * n_blocks);
    }

    /// Zone maps agree with a brute-force recomputation over the
    /// decoded events, block by block — every bound the query planner
    /// refutes with is genuinely conservative.
    #[test]
    fn zone_maps_match_brute_force(trace in arb_trace(), block_events in 1usize..128) {
        let mut buf = Vec::new();
        write_columnar_with(&trace, b"", &mut buf, block_events).unwrap();
        let reader = ColumnarReader::open(&buf).unwrap();
        let zones = reader.zones();
        prop_assert_eq!(zones.len(), reader.blocks().len());
        for (zone, chunk) in zones.iter().zip(trace.events().chunks(block_events.max(1))) {
            let mut writes = 0u32;
            for ev in chunk {
                let Event::Write { pc, ba, value, old, .. } = *ev else { continue };
                writes += 1;
                let (plo, phi) = zone.write_pc_range().expect("block has a write");
                prop_assert!(plo <= pc && pc <= phi);
                let (vlo, vhi) = zone.write_value_range().expect("block has a write");
                prop_assert!(vlo <= value && value <= vhi);
                let (olo, ohi) = zone.write_old_range().expect("block has a write");
                prop_assert!(olo <= old && old <= ohi);
                prop_assert!(zone.ba_min <= ba && ba <= zone.ba_max);
                // The occupancy filter may over-approximate but never
                // deny a pc that is present.
                prop_assert!(zone.any_write_pc_in(pc, pc));
            }
            prop_assert_eq!(zone.writes, writes);
            prop_assert_eq!(u64::from(zone.events), chunk.len() as u64);
            let tag_sum = zone.installs + zone.removes + zone.writes + zone.enters + zone.exits;
            prop_assert_eq!(tag_sum, zone.events);
        }
    }

    /// Any single-byte corruption of the trailer is an error for both
    /// the full decode and the lazy reader: the framing, the FNV-1a
    /// checksum and the per-block cross-checks leave no byte unguarded.
    #[test]
    fn trailer_corruption_is_an_error(
        trace in arb_trace(),
        block_events in 1usize..128,
        at in any::<u16>(),
        flip in any::<u8>(),
    ) {
        let mut buf = Vec::new();
        write_columnar_with(&trace, b"m", &mut buf, block_events).unwrap();
        let n_blocks = ColumnarReader::open(&buf).unwrap().blocks().len();
        let trailer_len = 24 + 64 * n_blocks;
        let at = buf.len() - 1 - (usize::from(at) % trailer_len);
        buf[at] ^= flip | 1;
        prop_assert!(read_columnar(&buf).is_err());
        prop_assert!(ColumnarReader::open(&buf).is_err());
    }

    /// Flipping arbitrary bytes never panics: the decoder either
    /// reports corruption or (if the flip keeps the file
    /// self-consistent, e.g. inside the meta blob) decodes something.
    #[test]
    fn corruption_never_panics(
        trace in arb_trace(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..8),
    ) {
        let mut buf = Vec::new();
        write_columnar(&trace, b"meta-blob", &mut buf).unwrap();
        for (idx, val) in flips {
            let i = idx as usize % buf.len();
            buf[i] ^= val;
        }
        let _ = read_columnar(&buf);
    }
}
