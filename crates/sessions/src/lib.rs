//! Monitor sessions — the paper's Section 5.
//!
//! A *monitor session* characterizes the write-monitor activity of one
//! debugging scenario over one program run. The paper defines five
//! program-independent session types and instantiates each over every
//! matching program object:
//!
//! * [`Session::OneLocalAuto`] — one local automatic variable (all of
//!   its instantiations);
//! * [`Session::AllLocalInFunc`] — all locals of one function,
//!   *including function-static variables*;
//! * [`Session::OneGlobalStatic`] — one file-scope variable;
//! * [`Session::OneHeap`] — one heap object (identity survives
//!   `realloc`);
//! * [`Session::AllHeapInFunc`] — every heap object allocated by `f` or
//!   by functions executing in `f`'s dynamic context.
//!
//! This crate enumerates all candidate sessions from debug information
//! plus a trace ([`enumerate_sessions`]), adapts them to both evaluation
//! paths — [`databp_sim::Membership`] for trace-driven simulation
//! ([`SessionSet`]) and [`databp_core::MonitorPlan`] for executable
//! strategy runs ([`SessionPlan`]) — and mirrors the paper's filtering of
//! sessions with no monitor hits.
//!
//! [`SessionSet`] is the one object→sessions index. When replay
//! overlaps the traced run, [`StreamSessionSet`] discovers heap
//! sessions from the event stream and appends them to a `SessionSet`
//! as they appear; [`enumerate_sessions`] stays the independent,
//! whole-trace reference that online discovery is tested against.

mod enumerate;
mod kinds;
mod plan;
mod setindex;
mod stream;

pub use enumerate::{enumerate_sessions, heap_contexts};
pub use kinds::{Session, SessionKind};
pub use plan::SessionPlan;
pub use setindex::SessionSet;
pub use stream::StreamSessionSet;
