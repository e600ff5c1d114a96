//! The program event trace — phase 1 of the paper's experiment.
//!
//! The paper post-processes each benchmark's assembly so that one run
//! emits a *program event trace* consisting of `InstallMonitorEvent`,
//! `RemoveMonitorEvent`, and `WriteEvent` records (Section 6). The trace
//! is **independent of any particular monitor session**: install/remove
//! events are emitted for *every* program object any session might
//! monitor, and the phase-2 simulator later decides which of them are
//! active.
//!
//! This crate defines:
//!
//! * [`Event`] / [`ObjectDesc`] — the trace record types (we add
//!   `Enter`/`Exit` function-boundary records, which the paper's
//!   `AllHeapInFunc` session type implicitly requires in order to know
//!   the dynamic call context of each allocation);
//! * [`Tracer`] — a [`databp_machine::Hooks`] implementation that emits a
//!   trace from an instrumented run, given per-function frame layouts and
//!   the global table ([`FrameMap`], [`GlobalSpec`]). The tracer is
//!   generic over an [`EventSink`], so the same instrumentation can
//!   materialize a [`Trace`] or stream batches to a concurrent consumer;
//! * the streaming pipeline's one sink, [`BatchSink`] — it tees the
//!   trace and hands fixed-size event batches to phase 2 while phase 1
//!   is still generating them, either inline ([`inline_sink`]) or over
//!   a bounded `std::sync::mpsc` channel to a consumer thread
//!   ([`channel_sink`], [`BatchStream`]);
//! * the columnar DBPT format ([`write_columnar`] / [`read_columnar`]),
//!   the only binary trace form, and the persistent [`TraceStore`]
//!   built on it, plus a text codec for debugging ([`write_text`] /
//!   [`read_text`]). DBPT has one layout: eight columns per block and
//!   a per-block [`ZoneMap`] trailer that the query engine uses to
//!   skip blocks. [`ColumnarReader`] validates the whole file, trailer
//!   included, and [`read_columnar`] is that reader plus a decode of
//!   every block; anything else is a [`TraceCodecError`].
//!
//! # Examples
//!
//! ```
//! use databp_trace::{Event, ObjectDesc, Trace};
//!
//! let trace = Trace::from_events(vec![
//!     Event::Install { obj: ObjectDesc::Global { id: 0 }, ba: 0x10_0000, ea: 0x10_0004 },
//!     Event::Write { pc: 0x1_0000, ba: 0x10_0000, ea: 0x10_0004, value: 42, old: 0 },
//!     Event::Remove { obj: ObjectDesc::Global { id: 0 }, ba: 0x10_0000, ea: 0x10_0004 },
//! ]);
//! assert_eq!(trace.stats().writes, 1);
//! ```

mod codec;
mod columnar;
mod event;
mod store;
mod stream;
mod tracer;

pub use codec::{read_text, write_text, TraceCodecError};
pub use columnar::{
    read_columnar, write_columnar, write_columnar_with, BlockWrites, ColumnarReader, RawBlock,
    WriteCols, ZoneMap, BLOCK_EVENTS,
};
pub use event::{Event, EventSink, ObjectDesc, Trace, TraceStats};
pub use store::TraceStore;
pub use stream::{channel_sink, inline_sink, BatchSink, BatchStream};
pub use tracer::{FrameMap, FrameVar, GlobalSpec, Tracer};
