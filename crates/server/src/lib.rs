//! databp-server: the multi-session replay service.
//!
//! The paper's pipeline answers one question per run: trace a workload
//! (phase 1), replay the trace against every monitor session (phase
//! 2), model the overheads. This crate turns that pipeline into a
//! long-running *service* that treats (workload × session-set ×
//! strategy × page ladder) requests as traffic:
//!
//! * [`scheduler`] — one bounded FIFO job queue feeding a pool of
//!   worker threads (overload is rejected, not buffered); each request
//!   is answered on its own one-shot [`Ticket`].
//! * [`cache`] — an LRU trace cache keyed by
//!   [`workload_hash`](databp_workloads::Workload::workload_hash); a
//!   repeat request skips phase 1 entirely, and concurrent duplicates
//!   collapse onto one in-flight build.
//! * [`server`] — the batch API: "overhead of CP for these N sessions"
//!   answered in a single fused trace walk per *distinct* workload,
//!   with miss / hit / rewalk resolution per request.
//! * [`request`] / [`proto`] — wire types and the line-delimited JSON
//!   protocol over stdin/stdout (`repro serve`, `repro client`).
//! * [`json`] — the deterministic JSON reader/writer those layers
//!   share (insertion-ordered objects, canonical number text), which
//!   is what lets the service promise *byte-identical* responses for
//!   cached and fresh answers. It lives in `databp-telemetry`, which
//!   reads and writes snapshots with it, and is re-exported here.
//!
//! The crate also owns the `repro` binary (the CLI grew a service mode;
//! the binary moved here so it can drive both the harness and the
//! server without a dependency cycle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod request;
pub mod scheduler;
pub mod server;

pub use cache::{BuildGuard, Lookup, TraceCache};
pub use databp_telemetry::json;
pub use proto::serve;
pub use request::{
    body_for, query_body_for, CacheStatus, Request, RequestLine, Response, ResponseBody,
};
pub use scheduler::JobQueue;
pub use server::{Server, ServerConfig, ServerStats, Ticket};
