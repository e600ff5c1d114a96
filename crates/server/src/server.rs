//! The replay service: job queue + cache + batch API glued together.
//!
//! A [`Server`] owns a [`JobQueue`](crate::scheduler::JobQueue) of
//! replay workers and a [`TraceCache`](crate::cache::TraceCache) of
//! completed analyses keyed by workload hash. Each submitted
//! [`Request`] becomes a job carrying the sending half of its
//! [`Ticket`], a one-shot channel; the worker that picks it up answers
//! it one of three ways:
//!
//! * **miss** — first sight of this workload: run the streamed
//!   trace→replay pipeline once
//!   ([`analyze_opts`](databp_harness::analyze_opts), which tees the
//!   trace), cache the results *with* the materialized trace, render
//!   the body.
//! * **hit** — the cached ladder covers the request: render straight
//!   from cache. No phase-1, no phase-2, no trace walk at all.
//! * **rewalk** — cached, but the request wants page sizes the cached
//!   walk didn't count: one phase-2-only
//!   [`reanalyze`](databp_harness::reanalyze) over the cached trace at
//!   the merged ladder, then update the cache so the wider entry
//!   serves future hits. Still zero phase-1 work.
//!
//! All three paths render through the same pure
//! [`body_for`](crate::request::body_for), which is what makes cached
//! answers byte-identical to fresh ones.
//!
//! With a [`ServerConfig::store`] directory configured, every phase-1
//! miss additionally persists its trace to a
//! [`TraceStore`](databp_trace::TraceStore), and `Server::start`
//! **warm-starts** from the same directory: each stored trace is
//! reconstituted into a full cache entry (plain build recompiled, one
//! phase-2 [`reanalyze`] walk, *zero* phase-1 work), so the first
//! repeat request after a restart is already a cache hit. An entry is
//! trusted only when the workload hash recorded inside it matches its
//! file name; any other entry is skipped and re-traced on demand.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;

use databp_harness::{analyze_opts, normalize_ladder, reanalyze, AnalyzeOpts, WorkloadResults};
use databp_machine::PageSize;
use databp_trace::{read_columnar, write_columnar, TraceStore};
use databp_workloads::{compile_plain, Prepared, Workload};

use crate::cache::{Lookup, TraceCache};
use crate::request::{body_for, query_body_for, CacheStatus, Request, Response};
use crate::scheduler::JobQueue;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each runs whole requests; phase-1 streaming
    /// inside a request may add its own consumer thread).
    pub workers: usize,
    /// Jobs admitted-but-not-started before submissions are rejected.
    pub queue_depth: usize,
    /// Trace-cache budget in bytes.
    pub cache_bytes: usize,
    /// Use the streamed phase-1/phase-2 overlap on cache misses.
    pub stream: bool,
    /// Directory of the persistent trace store. When set, cache misses
    /// save their trace here and `Server::start` warm-starts the cache
    /// from whatever the directory already holds.
    pub store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map_or(2, |n| n.get())
                .clamp(1, 8),
            queue_depth: 64,
            // Enough for every small-scale workload trace at once;
            // full-scale traffic will evict LRU, which is the point.
            cache_bytes: 512 << 20,
            stream: true,
            store: None,
        }
    }
}

/// Monotonic service counters, independent of the telemetry registry
/// (which is process-global and may be disabled); the `stats` wire
/// probe reads these.
#[derive(Debug, Default)]
struct StatsInner {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_rewalks: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries processed (including failed ones; excluding rejections).
    pub requests: u64,
    /// Answers rendered from a covering cached entry (no trace walk).
    pub cache_hits: u64,
    /// Answers that ran phase 1 (first sight of the workload).
    pub cache_misses: u64,
    /// Answers that re-walked a cached trace for a wider ladder
    /// (counted *in addition to* a hit — the cache did its job, the
    /// ladder just grew).
    pub cache_rewalks: u64,
    /// Submissions bounced by admission control.
    pub rejected: u64,
    /// Queries that failed (bad request or worker panic).
    pub errors: u64,
    /// Bytes currently charged to the trace cache.
    pub cache_bytes: u64,
    /// Entries currently in the trace cache.
    pub cache_entries: u64,
}

/// A one-shot handle to one in-flight request's eventual [`Response`].
///
/// The worker answers on the matching sender, at most once. If it drops
/// the sender without answering, the ticket resolves to an `internal
/// error` response instead, so every submitted request is answered
/// exactly once.
pub struct Ticket {
    id: String,
    rx: Receiver<Response>,
}

impl Ticket {
    fn new(id: &str) -> (Ticket, Sender<Response>) {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            id: id.to_string(),
            rx,
        };
        (ticket, tx)
    }

    /// Blocks until the response is ready.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or_else(|_| self.unanswered())
    }

    /// Takes the response if it is already ready. Once it has returned
    /// one, the ticket is spent.
    pub fn try_take(&self) -> Option<Response> {
        match self.rx.try_recv() {
            Ok(resp) => Some(resp),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(self.unanswered()),
        }
    }

    fn unanswered(&self) -> Response {
        Response::failure(
            &self.id,
            "internal error: request dropped without an answer",
        )
    }
}

type Job = (Request, Sender<Response>);

/// The multi-session replay service.
pub struct Server {
    jobs: JobQueue<Job>,
    cache: TraceCache<WorkloadResults>,
    stats: Arc<StatsInner>,
    config: ServerConfig,
}

impl Server {
    /// Starts the worker pool and returns a ready server. With a
    /// configured [`ServerConfig::store`], the cache is warm-started
    /// from the store directory first (synchronously — a started server
    /// answers repeat requests as hits from its very first job).
    pub fn start(config: ServerConfig) -> Server {
        let cache: TraceCache<WorkloadResults> = TraceCache::new(config.cache_bytes);
        if let Some(dir) = &config.store {
            warm_start(&cache, dir);
        }
        let stats = Arc::new(StatsInner::default());
        let jobs = {
            let cache = cache.clone();
            let stats = Arc::clone(&stats);
            let cfg = config.clone();
            JobQueue::start(
                config.workers,
                config.queue_depth,
                move |(req, reply): Job| {
                    let resp = Server::process(&cfg, &cache, &stats, &req);
                    // The ticket may already be gone; nobody is left to tell.
                    let _ = reply.send(resp);
                },
            )
        };
        Server {
            jobs,
            cache,
            stats,
            config,
        }
    }

    /// A server with default configuration.
    pub fn start_default() -> Server {
        Server::start(ServerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Submits one request. `Err` returns the request when admission
    /// control rejects it (queue full or shutting down) — the caller
    /// decides whether to retry, shed, or answer with an error.
    // Handing the whole Request back on rejection is the point of the
    // API; the Err path is the rare shed path, not a hot path.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, req: Request) -> Result<Ticket, Request> {
        let (ticket, reply) = Ticket::new(&req.id);
        match self.jobs.submit((req, reply)) {
            Ok(()) => Ok(ticket),
            Err((req, _)) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(req)
            }
        }
    }

    /// The batch API: answers N requests, responses in request order.
    /// Duplicates within the batch are deduplicated by the cache's
    /// in-flight pending slots — one trace, N answers. Rejected
    /// submissions become error responses (`ok: false`) in place.
    #[allow(clippy::result_large_err)]
    pub fn submit_batch(&self, reqs: Vec<Request>) -> Vec<Response> {
        let outcomes: Vec<Result<Ticket, Request>> =
            reqs.into_iter().map(|req| self.submit(req)).collect();
        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                Ok(ticket) => ticket.wait(),
                Err(req) => Response::failure(&req.id, "rejected: queue full"),
            })
            .collect()
    }

    /// Current service counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            cache_rewalks: self.stats.cache_rewalks.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            cache_bytes: self.cache.bytes() as u64,
            cache_entries: self.cache.len() as u64,
        }
    }

    /// Drains queued work and joins the workers.
    pub fn shutdown(self) {
        self.jobs.shutdown();
    }

    /// Answers one query (runs on a worker thread).
    fn process(
        cfg: &ServerConfig,
        cache: &TraceCache<WorkloadResults>,
        stats: &StatsInner,
        req: &Request,
    ) -> Response {
        stats.requests.fetch_add(1, Ordering::Relaxed);
        databp_telemetry::count!("server.requests");
        // Resolve and render under one `catch_unwind`: a panic in either
        // must still answer, or the ticket's waiter blocks forever.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let (status, results) = Server::answer(cfg, cache, stats, req)?;
            #[cfg(test)]
            if req.id == tests::RENDER_FAULT_ID {
                panic!("injected render fault");
            }
            let body = if req.query.is_some() {
                databp_telemetry::count!("server.trace_queries");
                query_body_for(req, &results, cfg.workers.max(1))?
            } else {
                body_for(req, &results)
            };
            Ok::<_, String>((status, body))
        }));
        match result {
            Ok(Ok((status, body))) => Response::success(&req.id, status, body),
            Ok(Err(msg)) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::failure(&req.id, msg)
            }
            Err(_) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::failure(&req.id, "internal error: request processing panicked")
            }
        }
    }

    /// Resolves the cache outcome for one query.
    fn answer(
        cfg: &ServerConfig,
        cache: &TraceCache<WorkloadResults>,
        stats: &StatsInner,
        req: &Request,
    ) -> Result<(CacheStatus, Arc<WorkloadResults>), String> {
        let workload = req.resolve_workload()?;
        if let Some(q) = &req.query {
            // Reject malformed queries before any trace work: a bad
            // query must not cost a phase-1 run.
            databp_sim::Query::parse(q).map_err(|e| format!("bad query: {e}"))?;
        }
        let key = workload.workload_hash();
        let want = req.normalized_ladder();
        match cache.lookup_or_begin(key) {
            Lookup::Hit(results) => {
                stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                // A trace query needs only the cached trace — never a
                // ladder rewalk, whatever page sizes the request names.
                if req.query.is_some() || want.iter().all(|ps| results.ladder.contains(ps)) {
                    return Ok((CacheStatus::Hit, results));
                }
                // The cached trace is good; its walk just didn't count
                // the sizes this request wants. Re-walk once at the
                // union so the entry only ever widens.
                stats.cache_rewalks.fetch_add(1, Ordering::Relaxed);
                databp_telemetry::count!("server.cache.rewalks");
                let merged = merged_ladder(&results.ladder, &want);
                let fresh = reanalyze(results.prepared.clone(), &merged);
                let bytes = entry_bytes(&fresh);
                let arc = cache.update(key, fresh, bytes);
                Ok((CacheStatus::Rewalk, arc))
            }
            Lookup::MustBuild(guard) => {
                stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                let opts = AnalyzeOpts {
                    stream: cfg.stream,
                    ladder: req.page_sizes.clone(),
                    ..AnalyzeOpts::default()
                };
                let results = analyze_opts(&workload, &opts);
                encode_entry(&results.prepared);
                let bytes = entry_bytes(&results);
                let arc = cache.fill(guard, results, bytes);
                if let Some(dir) = &cfg.store {
                    save_to_store(dir, key, &arc.prepared);
                }
                Ok((CacheStatus::Miss, arc))
            }
        }
    }
}

/// Version tag of the store meta blob (bumped if the layout changes).
const META_VERSION: u32 = 2;

/// Encodes the traced workload's hash and the base-run measurements a
/// warm start cannot rederive without re-running phase 1: base time,
/// instruction count, and the program output (the workload-integrity
/// reference). Everything else in a [`Prepared`] is recompiled or
/// decoded from the trace columns.
fn encode_meta(prepared: &Prepared) -> Vec<u8> {
    let mut out = Vec::with_capacity(36 + prepared.output.len());
    out.extend_from_slice(&META_VERSION.to_le_bytes());
    out.extend_from_slice(&prepared.workload.workload_hash().to_le_bytes());
    out.extend_from_slice(&prepared.base_us.to_bits().to_le_bytes());
    out.extend_from_slice(&prepared.instructions.to_le_bytes());
    out.extend_from_slice(&(prepared.output.len() as u64).to_le_bytes());
    out.extend_from_slice(&prepared.output);
    out
}

/// Decodes [`encode_meta`]'s blob for the store entry named `key`:
/// `(base_us, instructions, output)`. A blob recording another
/// workload's hash is an error: the file was copied or renamed over
/// this key, and its trace belongs to that other workload.
fn decode_meta(meta: &[u8], key: u64) -> Result<(f64, u64, Vec<u8>), String> {
    let take8 = |at: usize| -> Result<u64, String> {
        let bytes: [u8; 8] = meta
            .get(at..at + 8)
            .ok_or("meta blob truncated")?
            .try_into()
            .expect("slice is 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    };
    let version = u32::from_le_bytes(
        meta.get(0..4)
            .ok_or("meta blob truncated")?
            .try_into()
            .expect("slice is 4 bytes"),
    );
    if version != META_VERSION {
        return Err(format!("unknown meta version {version}"));
    }
    let traced = take8(4)?;
    if traced != key {
        return Err(format!("entry holds the trace of workload {traced:016x}"));
    }
    let base_us = f64::from_bits(take8(12)?);
    let instructions = take8(20)?;
    let output_len = take8(28)? as usize;
    let output = meta.get(36..).ok_or("meta blob truncated")?;
    if output.len() != output_len {
        return Err(format!(
            "meta output length mismatch: header says {output_len}, blob has {}",
            output.len()
        ));
    }
    Ok((base_us, instructions, output.to_vec()))
}

/// Saves one freshly traced entry to the store. Persistence is
/// best-effort: a failed save costs a warning and a re-trace after the
/// next restart, never the response.
fn save_to_store(dir: &Path, key: u64, prepared: &Prepared) {
    let result =
        TraceStore::open(dir).and_then(|store| store.save_encoded(key, prepared.columnar_bytes()));
    if let Err(e) = result {
        eprintln!(
            "warning: trace store save failed for {} ({key:016x}): {e}",
            prepared.workload.name
        );
    }
}

/// Every workload hash the store could legitimately hold: the bundled
/// corpus (Table 1 set plus benchmarks) at both scales.
fn known_workloads() -> std::collections::HashMap<u64, Workload> {
    let mut map = std::collections::HashMap::new();
    for w in Workload::all().into_iter().chain(Workload::bench()) {
        let small = w.clone().scaled_down();
        map.insert(small.workload_hash(), small);
        map.insert(w.workload_hash(), w);
    }
    map
}

/// Rebuilds cache entries from the persistent store: for each stored
/// trace whose key names a bundled workload and whose meta blob records
/// that same workload, recompile the plain build, reattach the trace,
/// its DBPT bytes (the file itself) and the base-run meta, and run one
/// phase-2 walk at the default ladder. No phase 1 runs — that is the
/// store's whole point. Entries that fail to load or decode, or hold an
/// empty trace, are skipped with a warning (the next miss simply
/// re-traces and overwrites them).
fn warm_start(cache: &TraceCache<WorkloadResults>, dir: &Path) {
    let store = match TraceStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("warning: trace store {} unusable: {e}", dir.display());
            return;
        }
    };
    let keys = match store.keys() {
        Ok(k) => k,
        Err(e) => {
            eprintln!("warning: trace store {} unlistable: {e}", dir.display());
            return;
        }
    };
    let known = known_workloads();
    for key in keys {
        let Some(workload) = known.get(&key) else {
            eprintln!("warning: trace store entry {key:016x} names no bundled workload, skipping");
            continue;
        };
        let file = match store.load_encoded(key) {
            Ok(Some(file)) => file,
            Ok(None) => continue,
            Err(e) => {
                eprintln!("warning: trace store entry {key:016x} unreadable: {e}");
                continue;
            }
        };
        let (trace, meta) = match read_columnar(&file) {
            Ok(entry) => entry,
            Err(e) => {
                eprintln!("warning: trace store entry {key:016x} unreadable: {e}");
                continue;
            }
        };
        if trace.is_empty() {
            // Every bundled workload enters `main`, so a real trace is
            // never empty; replaying this one would trust a bad entry.
            eprintln!("warning: trace store entry {key:016x} holds an empty trace, skipping");
            continue;
        }
        let (base_us, instructions, output) = match decode_meta(&meta, key) {
            Ok(parts) => parts,
            Err(e) => {
                eprintln!("warning: trace store entry {key:016x} has bad meta: {e}");
                continue;
            }
        };
        let plain = compile_plain(workload);
        let prepared = Prepared::from_parts(
            workload.clone(),
            plain,
            trace,
            base_us,
            instructions,
            output,
        );
        // The file just read is the trace's DBPT encoding, meta blob
        // and all: keep it for queries instead of encoding again.
        prepared.adopt_columnar(Arc::new(file));
        let ladder = normalize_ladder(&[]);
        let results = reanalyze(prepared, &ladder);
        let bytes = entry_bytes(&results);
        if let Lookup::MustBuild(guard) = cache.lookup_or_begin(key) {
            cache.fill(guard, results, bytes);
            databp_telemetry::count!("server.store.warm_entries");
        }
    }
}

/// Union of two normalized ladders, kept ascending by page shift.
fn merged_ladder(a: &[PageSize], b: &[PageSize]) -> Vec<PageSize> {
    let mut out: Vec<PageSize> = a.iter().chain(b).copied().collect();
    out.sort_unstable_by_key(|ps| ps.shift());
    out.dedup();
    out
}

/// Encodes `prepared`'s trace once as a store file, meta blob included,
/// and adopts it as the DBPT bytes queries scan: the cache charges it
/// from the start, and the store saves those same bytes.
fn encode_entry(prepared: &Prepared) {
    let mut file = Vec::new();
    write_columnar(&prepared.trace, &encode_meta(prepared), &mut file).expect("in-memory encode");
    prepared.adopt_columnar(Arc::new(file));
}

/// Bytes a cached entry is charged against the cache budget: the
/// materialized trace dominates; its DBPT bytes (adopted when the
/// entry was built), the counts matrix and the session list ride
/// along.
fn entry_bytes(r: &WorkloadResults) -> usize {
    r.prepared.trace.approx_bytes()
        + r.prepared.columnar_bytes().len()
        + std::mem::size_of_val(r.sessions.as_slice())
        + r.ladder_counts
            .iter()
            .map(|row| std::mem::size_of_val(row.as_slice()))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_harness::Scale;

    /// A request with this id panics after its cache outcome is
    /// resolved, while its answer is being rendered.
    pub(super) const RENDER_FAULT_ID: &str = "render-fault";

    fn tiny_server(workers: usize) -> Server {
        Server::start(ServerConfig {
            workers,
            queue_depth: 16,
            ..ServerConfig::default()
        })
    }

    #[test]
    fn meta_blob_round_trips_and_rejects_garbage() {
        let w = Workload::all().remove(0).scaled_down();
        let prepared = databp_workloads::prepare(&w).expect("workload runs");
        let meta = encode_meta(&prepared);
        let key = w.workload_hash();
        let (base_us, instructions, output) = decode_meta(&meta, key).expect("own blob decodes");
        assert_eq!(base_us.to_bits(), prepared.base_us.to_bits());
        assert_eq!(instructions, prepared.instructions);
        assert_eq!(output, prepared.output);
        for cut in 0..meta.len() {
            assert!(
                decode_meta(&meta[..cut], key).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut wrong = meta.clone();
        wrong[0] ^= 0xff; // version
        assert!(decode_meta(&wrong, key).is_err());
        assert!(
            decode_meta(&meta, key ^ 1).is_err(),
            "a blob under another workload's key"
        );
    }

    #[test]
    fn store_round_trip_warm_starts_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("databp-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 16,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let req = Request::simple("cold", "cc", Scale::Small);
        let first = cold.submit(req.clone()).unwrap().wait();
        assert_eq!(first.cache, Some(CacheStatus::Miss));
        cold.shutdown();

        // A brand-new server over the same directory starts warm: the
        // very first request is a pure hit with identical bytes.
        let warm = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 16,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        assert_eq!(warm.stats().cache_entries, 1);
        let mut again = req;
        again.id = "warm".to_string();
        let second = warm.submit(again).unwrap().wait();
        assert_eq!(second.cache, Some(CacheStatus::Hit));
        assert_eq!(
            first.body.as_ref().unwrap().to_json(),
            second.body.as_ref().unwrap().to_json(),
            "warm-started answer must be byte-identical"
        );
        assert_eq!(warm.stats().cache_misses, 0, "no phase 1 after restart");
        warm.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_miss_and_a_warm_start_charge_the_same_bytes() {
        let dir = std::env::temp_dir().join(format!("databp-charge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let start = || {
            Server::start(ServerConfig {
                workers: 1,
                queue_depth: 16,
                store: Some(dir.clone()),
                ..ServerConfig::default()
            })
        };
        let cold = start();
        let resp = cold
            .submit(Request::simple("a", "cc", Scale::Small))
            .unwrap()
            .wait();
        assert_eq!(resp.cache, Some(CacheStatus::Miss));
        let after_miss = cold.stats().cache_bytes;
        cold.shutdown();
        // The warm start decodes the file that miss saved: the same
        // trace, so the same charge, with no growth slack on either side.
        let warm = start();
        assert_eq!(warm.stats().cache_entries, 1);
        assert_eq!(warm.stats().cache_bytes, after_miss);
        warm.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_requests_hit_the_cache_with_identical_bytes() {
        let server = tiny_server(2);
        let req = Request::simple("a", "cc", Scale::Small);
        let mut dup = req.clone();
        dup.id = "b".to_string();
        let first = server.submit(req).unwrap().wait();
        let second = server.submit(dup).unwrap().wait();
        assert!(first.ok && second.ok);
        assert_eq!(first.cache, Some(CacheStatus::Miss));
        assert_eq!(second.cache, Some(CacheStatus::Hit));
        assert_eq!(
            first.body.as_ref().unwrap().to_json(),
            second.body.as_ref().unwrap().to_json(),
            "cached answer must be byte-identical"
        );
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_entries, 1);
        assert!(stats.cache_bytes > 0);
        server.shutdown();
    }

    #[test]
    fn wider_ladder_rewalks_without_retracing() {
        let server = tiny_server(1);
        let base = Request::simple("warm", "tex", Scale::Small);
        assert!(server.submit(base.clone()).unwrap().wait().ok);
        let mut wide = base.clone();
        wide.id = "wide".to_string();
        wide.page_sizes = vec![PageSize::K16, PageSize::K32];
        let widened = server.submit(wide.clone()).unwrap().wait();
        assert_eq!(widened.cache, Some(CacheStatus::Rewalk));
        // The widened entry now serves the wide ladder as a pure hit…
        let mut again = wide;
        again.id = "again".to_string();
        let hit = server.submit(again).unwrap().wait();
        assert_eq!(hit.cache, Some(CacheStatus::Hit));
        assert_eq!(
            widened.body.as_ref().unwrap().to_json(),
            hit.body.as_ref().unwrap().to_json()
        );
        // …and the original narrow request still renders identically
        // from the widened entry (body filters to the asked ladder).
        let mut narrow = base;
        narrow.id = "narrow2".to_string();
        let narrow_resp = server.submit(narrow).unwrap().wait();
        assert_eq!(narrow_resp.cache, Some(CacheStatus::Hit));
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 1, "tex was traced exactly once");
        assert_eq!(stats.cache_rewalks, 1);
        server.shutdown();
    }

    #[test]
    fn trace_queries_answer_from_cache_without_rewalks() {
        let server = tiny_server(1);
        // A malformed query must be rejected before any phase-1 work.
        let mut bad = Request::simple("q0", "cc", Scale::Small);
        bad.query = Some("count if value >".to_string());
        let resp = server.submit(bad).unwrap().wait();
        assert!(!resp.ok);
        assert_eq!(server.stats().cache_misses, 0, "bad query must not trace");

        let mut q = Request::simple("q1", "cc", Scale::Small);
        q.query = Some("count if value > 0".to_string());
        let first = server.submit(q.clone()).unwrap().wait();
        assert!(first.ok, "{:?}", first.error);
        assert_eq!(first.cache, Some(CacheStatus::Miss));
        // A repeat query is a pure hit, even when it names page sizes
        // the cached walk never counted — queries only need the trace.
        let mut again = q;
        again.id = "q2".to_string();
        again.page_sizes = vec![databp_machine::PageSize::K32];
        let second = server.submit(again).unwrap().wait();
        assert_eq!(second.cache, Some(CacheStatus::Hit));
        assert_eq!(server.stats().cache_rewalks, 0);
        assert_eq!(
            first.body.as_ref().unwrap().to_json(),
            second.body.as_ref().unwrap().to_json(),
            "cached query answer must be byte-identical"
        );
        let json = first.body.as_ref().unwrap().to_json();
        assert!(json.contains(r#""kind":"count""#), "{json}");
        server.shutdown();
    }

    #[test]
    fn cache_bytes_charge_every_retained_trace_byte() {
        let server = tiny_server(1);
        for name in ["fib", "matmul"] {
            let plain = Request::simple("p", name, Scale::Small);
            assert!(server.submit(plain.clone()).unwrap().wait().ok);
            assert!(server.submit(plain).unwrap().wait().ok);
            let mut q = Request::simple("q", name, Scale::Small);
            q.query = Some("count if value > 0".to_string());
            assert!(server.submit(q).unwrap().wait().ok);
        }
        // Recomputed footprint: the decoded trace, the DBPT bytes the
        // queries scanned, the session list and the counts matrix.
        let footprint: usize = ["fib", "matmul"]
            .iter()
            .map(|name| {
                let key = Request::simple("k", name, Scale::Small)
                    .resolve_workload()
                    .unwrap()
                    .workload_hash();
                let Lookup::Hit(entry) = server.cache.lookup_or_begin(key) else {
                    panic!("{name} is cached");
                };
                let counts: usize = entry
                    .ladder_counts
                    .iter()
                    .map(|row| size_of_val(&row[..]))
                    .sum();
                entry.prepared.trace.approx_bytes()
                    + entry.prepared.columnar_bytes().len()
                    + size_of_val(&entry.sessions[..])
                    + counts
            })
            .sum();
        assert_eq!(server.stats().cache_bytes, footprint as u64);
        server.shutdown();
    }

    #[test]
    fn a_render_panic_answers_and_leaves_the_server_clean() {
        let faulted = tiny_server(1);
        let fault = Request::simple(RENDER_FAULT_ID, "cc", Scale::Small);
        let resp = faulted.submit(fault).unwrap().wait();
        assert!(!resp.ok);
        assert!(
            resp.error.as_deref().unwrap().starts_with("internal error"),
            "{:?}",
            resp.error
        );
        assert_eq!(faulted.stats().errors, 1);
        // The fault struck after the trace was cached, so the next
        // request is a hit; a clean server that traced cc once before
        // must give the very same response line.
        let next = Request::simple("next", "cc", Scale::Small);
        let after = faulted.submit(next.clone()).unwrap().wait();
        let clean = tiny_server(1);
        clean
            .submit(Request::simple("first", "cc", Scale::Small))
            .unwrap()
            .wait();
        let want = clean.submit(next).unwrap().wait();
        assert_eq!(after.to_json_line(), want.to_json_line());
        faulted.shutdown();
        clean.shutdown();
    }

    #[test]
    fn a_job_dropped_without_an_answer_resolves_its_ticket() {
        let (waited, reply) = Ticket::new("w");
        drop(reply);
        let resp = waited.wait();
        assert_eq!(resp.id, "w");
        assert!(!resp.ok);
        assert!(resp.error.as_deref().unwrap().starts_with("internal error"));

        let (polled, reply) = Ticket::new("p");
        assert!(polled.try_take().is_none(), "nothing answered yet");
        drop(reply);
        let resp = polled
            .try_take()
            .expect("a dropped sender resolves the ticket");
        assert_eq!((resp.id.as_str(), resp.ok), ("p", false));
        assert!(resp.error.as_deref().unwrap().starts_with("internal error"));
    }

    #[test]
    fn batch_preserves_order_and_reports_bad_requests_in_place() {
        let server = tiny_server(2);
        let reqs = vec![
            Request::simple("1", "cc", Scale::Small),
            Request::simple("2", "nope", Scale::Small),
            Request::simple("3", "cc", Scale::Small),
        ];
        let resps = server.submit_batch(reqs);
        assert_eq!(
            resps.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            vec!["1", "2", "3"]
        );
        assert!(resps[0].ok);
        assert!(!resps[1].ok);
        assert!(resps[1]
            .error
            .as_ref()
            .unwrap()
            .contains("unknown workload"));
        assert!(resps[2].ok);
        assert_eq!(
            resps[0].body.as_ref().unwrap().to_json(),
            resps[2].body.as_ref().unwrap().to_json()
        );
        assert_eq!(server.stats().errors, 1);
        server.shutdown();
    }
}
