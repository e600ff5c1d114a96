//! `databp-telemetry` — a zero-dependency observability substrate for
//! the databp workspace.
//!
//! The paper's argument ("Efficient Data Breakpoints", Wahbe, ASPLOS
//! 1992) rests entirely on counting and timing variables; this crate
//! gives the reproduction one uniform way to count and time its own hot
//! paths. It provides four instrument kinds —
//!
//! * [`Counter`] — monotonic `u64`;
//! * [`Gauge`] — signed up/down value;
//! * [`Histogram`] — fixed upper-bound buckets plus count and sum;
//! * [`Span`] — scoped wall-time timer (count + total nanoseconds);
//!
//! — registered by `&'static str` name in a [`Registry`], with a process
//! [`global()`] registry, and [`Snapshot`] export to text, CSV, and
//! JSON. The [`json`] module is the workspace's one JSON reader/writer;
//! the replay service's wire protocol uses it too.
//!
//! # Overhead policy
//!
//! Telemetry is **off by default** and gated by one process-wide flag
//! ([`set_enabled`]). Every gated operation (`Counter::add`,
//! `Histogram::record`, `Span::start`, the `count!`/`observe!`/`time!`
//! macros) starts with a single relaxed atomic load; when the flag is
//! off nothing else happens — no locks, no allocation, no `Instant::now`.
//! The disabled-mode integration test pins this with a counting global
//! allocator. When enabled, hot-path cost is one relaxed `fetch_add`
//! (plus one `OnceLock` load for the macros' cached handles); handle
//! registration is the only operation that takes the registry lock.
//!
//! Handles are cheap `Arc` clones, so instrumented code can cache them
//! in structs, while one-line callsites use the macros:
//!
//! ```
//! databp_telemetry::set_enabled(true);
//! databp_telemetry::count!("doc.example.events");
//! databp_telemetry::count!("doc.example.bytes", 128);
//! databp_telemetry::observe!("doc.example.depth", &[1, 2, 4, 8], 3);
//! {
//!     let _t = databp_telemetry::time!("doc.example.phase");
//!     // ... timed region ...
//! }
//! let snap = databp_telemetry::global().snapshot();
//! assert_eq!(snap.counter("doc.example.events"), Some(1));
//! databp_telemetry::set_enabled(false);
//! ```

pub mod json;
mod metric;
mod registry;
mod snapshot;
mod span;

pub use metric::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use snapshot::{BucketSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::{Span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording currently enabled?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry used by the `count!` / `observe!` /
/// `time!` macros and the cross-crate instrumentation.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Increment a named global counter (by 1 or by an explicit amount).
/// The handle is resolved once per callsite and cached in a `OnceLock`.
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::global().counter($name))
                .add_always($n as u64);
        }
    }};
}

/// Add a (possibly negative) delta to a named global gauge.
#[macro_export]
macro_rules! gauge_add {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::global().gauge($name))
                .add_always($n as i64);
        }
    }};
}

/// Record a value into a named global histogram with the given fixed
/// bucket upper bounds (`&[u64]`, strictly increasing).
#[macro_export]
macro_rules! observe {
    ($name:literal, $bounds:expr, $v:expr) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::global().histogram($name, $bounds))
                .record_always($v as u64);
        }
    }};
}

/// Start a scoped wall-time span; bind the result to keep it alive:
/// `let _t = databp_telemetry::time!("phase.name");`. Evaluates to
/// `Option<SpanGuard>` — `None` (and no clock read) when disabled.
#[macro_export]
macro_rules! time {
    ($name:literal) => {{
        if $crate::enabled() {
            static HANDLE: ::std::sync::OnceLock<$crate::Span> = ::std::sync::OnceLock::new();
            Some(HANDLE.get_or_init(|| $crate::global().span($name)).start())
        } else {
            None
        }
    }};
}
