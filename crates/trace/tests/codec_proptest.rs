//! Property tests: arbitrary traces survive the text codec unchanged.

use databp_trace::{read_text, write_text, Event, ObjectDesc, Trace};
use proptest::prelude::*;

fn any_obj() -> impl Strategy<Value = ObjectDesc> {
    prop_oneof![
        any::<u32>().prop_map(|id| ObjectDesc::Global { id }),
        (any::<u16>(), any::<u16>()).prop_map(|(func, var)| ObjectDesc::Local { func, var }),
        any::<u32>().prop_map(|seq| ObjectDesc::Heap { seq }),
    ]
}

fn any_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any_obj(), any::<u32>(), any::<u32>()).prop_map(|(obj, ba, ea)| Event::Install {
            obj,
            ba,
            ea
        }),
        (any_obj(), any::<u32>(), any::<u32>()).prop_map(|(obj, ba, ea)| Event::Remove {
            obj,
            ba,
            ea
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(pc, ba, ea, value, old)| Event::Write {
                pc,
                ba,
                ea,
                value,
                old
            }),
        any::<u16>().prop_map(|func| Event::Enter { func }),
        any::<u16>().prop_map(|func| Event::Exit { func }),
    ]
}

proptest! {
    #[test]
    fn text_roundtrip(events in prop::collection::vec(any_event(), 0..300)) {
        let t = Trace::from_events(events);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(read_text(&text).unwrap(), t);
    }

    #[test]
    fn stats_writes_equal_write_events(events in prop::collection::vec(any_event(), 0..300)) {
        let t = Trace::from_events(events);
        let n = t.events().iter().filter(|e| e.is_write()).count() as u64;
        prop_assert_eq!(t.stats().writes, n);
    }
}
