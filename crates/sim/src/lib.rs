//! The phase-2 simulator (Section 4).
//!
//! Phase 1 produced a program event trace; phase 2 replays it against a
//! description of which objects each *monitor session* watches, emitting
//! the paper's counting variables ([`databp_models::Counts`]) per
//! session. Those counts feed the analytical models.
//!
//! The engine processes **all sessions and all page sizes in one pass**
//! over the trace: each write consults a per-page index of active
//! monitored object instances and attributes hits / active-page misses
//! to the owning sessions with event-stamped deduplication. A naive
//! per-session replay ([`simulate_naive`]) serves as the correctness
//! oracle in property tests.
//!
//! Page-size-dependent counters (`VMProtectσ`, `VMUnprotectσ`,
//! `VMActivePageMissσ`) are kept per page size inside the engine, so one
//! replay yields a whole *page-size ladder* of columns — any set of
//! power-of-two sizes, derived from a single page index at the smallest
//! size. [`simulate_sizes`] is the one materialized-trace entry point:
//! pass `&[PageSize::K4, PageSize::K8]` for the paper's VM-4K / VM-8K
//! pair, or any ladder. Hot paths use a vendored FxHash hasher; what
//! each page holds is an interned content state, which also validates
//! the engine's memo of repeated writes (see `engine.rs`).
//!
//! The engine is event-driven: [`StreamingReplay`] accepts event
//! batches as phase 1 produces them, overlapping replay with trace
//! generation (see `databp-trace`'s `BatchSink`). Online session
//! membership goes through [`StreamMembership`]; [`FixedMembership`]
//! adapts a precomputed [`Membership`] table. Either way the engine
//! sees only an object's member session indices and packs them into
//! [`SessionLanes`] itself, once per object descriptor.

mod engine;
mod membership;
mod naive;
mod pushdown;
mod query;
mod soundness;
mod stream;

pub use engine::simulate_sizes;
pub use membership::{Membership, SessionLanes, TableMembership};
pub use naive::simulate_naive;
pub use pushdown::{scan_query, ScanError, ScanStats};
pub use query::{
    run_query, Aggregation, CompiledQuery, Query, QueryEngine, QueryError, QueryResult, WriteHit,
    MAX_WATCH_SAMPLES,
};
pub use soundness::{verify_elided_stores, ElisionViolation};
pub use stream::{FixedMembership, StreamMembership, StreamingReplay};
