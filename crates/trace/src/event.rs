//! Trace record types.

use std::fmt;

/// Identifies the *program object* behind a write monitor — the paper's
/// `ObjectDesc` argument to `InstallMonitorEvent`.
///
/// The phase-2 simulator uses object descriptors to decide which monitors
/// belong to which monitor session; addresses alone are insufficient
/// because stack and heap addresses are recycled across instantiations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectDesc {
    /// A file-scope global or function-scope static variable, by index in
    /// the program's global table.
    Global {
        /// Global table index.
        id: u32,
    },
    /// One *instantiation* of a local automatic variable. Distinct
    /// activations of the same `(func, var)` are distinguished positionally
    /// in the trace (install/remove pairs nest with function entry/exit).
    Local {
        /// Function id owning the variable.
        func: u16,
        /// Variable index within the function's frame map.
        var: u16,
    },
    /// A heap object, by allocation sequence number. An object keeps its
    /// number across `realloc` (the paper: "heap objects whose size is
    /// changed via a call to realloc are considered to be the same
    /// object").
    Heap {
        /// Allocation sequence number.
        seq: u32,
    },
}

impl fmt::Display for ObjectDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ObjectDesc::Global { id } => write!(f, "G{id}"),
            ObjectDesc::Local { func, var } => write!(f, "L{func}.{var}"),
            ObjectDesc::Heap { seq } => write!(f, "H{seq}"),
        }
    }
}

/// One trace record.
///
/// `ba`/`ea` are the paper's Beginning/Ending Address convention: the
/// half-open byte range `[ba, ea)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A monitorable object came into existence at `[ba, ea)`.
    Install {
        /// The object.
        obj: ObjectDesc,
        /// Beginning address.
        ba: u32,
        /// Ending address (exclusive).
        ea: u32,
    },
    /// The object at `[ba, ea)` ceased to exist (or moved, for realloc —
    /// expressed as `Remove` + `Install` of the same [`ObjectDesc`]).
    Remove {
        /// The object.
        obj: ObjectDesc,
        /// Beginning address.
        ba: u32,
        /// Ending address (exclusive).
        ea: u32,
    },
    /// A traced write instruction wrote `[ba, ea)`; `pc` is the writing
    /// instruction's address (the paper's `MonitorNotification` carries
    /// it).
    Write {
        /// Program counter of the write.
        pc: u32,
        /// Beginning address.
        ba: u32,
        /// Ending address (exclusive).
        ea: u32,
        /// The value written, masked to the store width — the input to
        /// predicate evaluation and trace queries.
        value: u32,
        /// The value the target held before the write, masked to the
        /// store width. Traces written by pre-predicate codec versions
        /// decode with `value = old = 0`.
        old: u32,
    },
    /// Control entered function `func` (frame established).
    Enter {
        /// Function id.
        func: u16,
    },
    /// Control left function `func` (frame about to die).
    Exit {
        /// Function id.
        func: u16,
    },
}

impl Event {
    /// True for [`Event::Write`].
    pub fn is_write(&self) -> bool {
        matches!(self, Event::Write { .. })
    }
}

/// Aggregate trace statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Number of `Write` events — the paper's population of checked write
    /// instructions.
    pub writes: u64,
    /// Number of `Install` events.
    pub installs: u64,
    /// Number of `Remove` events.
    pub removes: u64,
    /// Number of `Enter` events (== dynamic call count of traced
    /// functions).
    pub enters: u64,
    /// Number of `Exit` events.
    pub exits: u64,
    /// Number of distinct heap objects installed.
    pub heap_objects: u64,
}

/// A destination for trace events as they are generated.
///
/// The tracer is generic over its sink so the same instrumentation
/// serves both pipelines: [`Trace`] materializes the whole event list
/// (the paper's two sequential phases), while [`BatchSink`](crate::BatchSink)
/// hands event batches to the replay engine as they fill.
pub trait EventSink {
    /// Accepts the next event, in program order.
    fn emit(&mut self, ev: Event);
}

impl EventSink for Trace {
    fn emit(&mut self, ev: Event) {
        self.push(ev);
    }
}

/// A complete program event trace: phase-1 output, phase-2 input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for `n` events — decoders that know the
    /// event count up front allocate once.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            events: Vec::with_capacity(n),
        }
    }

    /// Wraps an event list as a trace.
    pub fn from_events(events: Vec<Event>) -> Self {
        Trace { events }
    }

    /// The events, in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Releases the event storage's growth slack, so a finished trace
    /// holds (and [`Trace::approx_bytes`] charges) only its events.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// Approximate resident size of this trace in bytes: the event
    /// storage plus the container itself. The replay service's trace
    /// cache charges entries against its byte budget with this, so it
    /// only needs to be honest about scale (events dominate), not exact
    /// about allocator overhead.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.events.capacity() * std::mem::size_of::<Event>()
    }

    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        let mut heap_seen = std::collections::HashSet::new();
        for e in &self.events {
            match e {
                Event::Write { .. } => s.writes += 1,
                Event::Install { obj, .. } => {
                    s.installs += 1;
                    if let ObjectDesc::Heap { seq } = obj {
                        if heap_seen.insert(*seq) {
                            s.heap_objects += 1;
                        }
                    }
                }
                Event::Remove { .. } => s.removes += 1,
                Event::Enter { .. } => s.enters += 1,
                Event::Exit { .. } => s.exits += 1,
            }
        }
        s
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<Event> for Trace {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(id: u32) -> ObjectDesc {
        ObjectDesc::Global { id }
    }

    #[test]
    fn stats_count_each_kind() {
        let t = Trace::from_events(vec![
            Event::Install {
                obj: g(0),
                ba: 0,
                ea: 4,
            },
            Event::Install {
                obj: ObjectDesc::Heap { seq: 1 },
                ba: 8,
                ea: 16,
            },
            Event::Install {
                obj: ObjectDesc::Heap { seq: 1 },
                ba: 16,
                ea: 32,
            }, // realloc re-install
            Event::Enter { func: 0 },
            Event::Write {
                pc: 0,
                ba: 0,
                ea: 4,
                value: 1,
                old: 0,
            },
            Event::Write {
                pc: 4,
                ba: 8,
                ea: 9,
                value: 2,
                old: 1,
            },
            Event::Exit { func: 0 },
            Event::Remove {
                obj: g(0),
                ba: 0,
                ea: 4,
            },
        ]);
        let s = t.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.installs, 3);
        assert_eq!(s.removes, 1);
        assert_eq!(s.enters, 1);
        assert_eq!(s.exits, 1);
        assert_eq!(s.heap_objects, 1, "realloc re-install is the same object");
    }

    #[test]
    fn object_desc_display() {
        assert_eq!(g(3).to_string(), "G3");
        assert_eq!(ObjectDesc::Local { func: 1, var: 2 }.to_string(), "L1.2");
        assert_eq!(ObjectDesc::Heap { seq: 9 }.to_string(), "H9");
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = vec![Event::Enter { func: 0 }].into_iter().collect();
        t.extend([Event::Exit { func: 0 }]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn is_write_classifier() {
        assert!(Event::Write {
            pc: 0,
            ba: 0,
            ea: 1,
            value: 0,
            old: 0
        }
        .is_write());
        assert!(!Event::Enter { func: 0 }.is_write());
    }
}
