//! `service`: interactive clients of `repro serve`.
//!
//! Closed loop, one client of one in-process `Server` with [`WORKERS`]
//! worker, all on one CPU, a trace store directory, and a cache budget
//! ([`CACHE_SHARE`] of what the server holds after a warm start) below
//! the mix's working set. One op is one request line:
//! `Request::parse_line`, `Server::submit`, `Ticket::wait`,
//! `Response::to_json_line` — what `repro serve` does per line.
//!
//! The mix: seeded small-scale requests over the nine bundled programs
//! with Zipf popularity ([`PROGRAMS`] is the popularity rank): plain
//! reports, `overheads:true` reports, wider `page_sizes` (rewalks), and
//! trace `query` lines with seeded predicates. The repo holds no record
//! of real traffic, so the mix is an assumption: the rank, the Zipf
//! exponent and the request-kind shares were picked for steady
//! end-to-end metrics, not taken from any traffic. Parse and
//! render, the trace cache, rewalks and pushdown scans over cached DBPT
//! bytes dominate. The budget forces a tail of evictions whose re-traces
//! run the streamed phase-1 path and write the store; set-up warm-starts
//! the server from that store, which reads it.

use crate::rng::Rng;
use crate::spans::{Recorder, OP, PROBE};
use crate::stats::Dist;
use crate::{fnv, op_modes, Args, Outcome, Window, FNV_OFFSET};
use databp_core::WriterMap;
use databp_harness::{analyze_opts, AnalyzeOpts, Scale};
use databp_machine::PageSize;
use databp_models::Approach;
use databp_server::{
    body_for, query_body_for, CacheStatus, Request, RequestLine, Server, ServerConfig,
};
use databp_sim::scan_query;
use databp_trace::{read_columnar, write_columnar, TraceStore};
use databp_workloads::{prepare, Workload};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The nine bundled programs, most popular first. An assumption picked
/// for steadiness: with the repo's listing order instead (`cc` first,
/// whose hits render the largest bodies) the service ran ~20% fewer
/// ops per second and its runs spread wider.
pub const PROGRAMS: [&str; 9] = [
    "tex",
    "cc",
    "qcd",
    "fib",
    "spice",
    "bps",
    "matmul",
    "bitwise",
    "struct_bench",
];

/// Server worker threads. One closed-loop client and one worker keep
/// one thread busy at a time (the worker also runs pushdown scans with
/// `WORKERS` jobs), and [`pin_to_one_cpu`] keeps them on one CPU, so on
/// a host with a few shared cores the run times the service rather than
/// the scheduler: with two clients and two workers, runs of the same
/// code spread past the metrics' bounds.
pub const WORKERS: usize = 1;

/// Trace-cache budget as a share (numerator, denominator) of the bytes
/// the server holds after warm-starting all nine programs, measured at
/// set-up. A tenth of the warm working set never fits (and re-traced
/// entries are larger than warm-started ones), so the least recently
/// used programs, mostly the unpopular tail, keep being evicted and
/// re-traced: ~4% of requests. Because the budget follows the measured
/// bytes, a change in how large entries are (or how they are counted)
/// moves it along, and a few percent either way neither removes every
/// miss nor makes the cache thrash. Picked so misses stay a tail.
pub const CACHE_SHARE: (usize, usize) = (9, 10);

/// Repetitions of each codec/store probe.
const PROBE_REPS: usize = 3;

/// Distinct query lines the traced run re-scans as a probe.
const QUERY_PROBES: usize = 400;

/// Zipf weights for [`PROGRAMS`] (1/rank², scaled to integers). An
/// assumption picked for steadiness, not taken from any traffic: the
/// steep skew keeps misses a tail, so p50 and p90 fall inside the
/// dense hit and query clusters instead of the sparse gap before them.
const POPULARITY: [u64; 9] = [3600, 900, 400, 225, 144, 100, 73, 56, 44];

/// Requests per cycle. Every cycle holds the same multiset of
/// (program, request kind) pairs in a seeded order, and windows end on
/// a cycle boundary, so runs on different seeds send the same mix and
/// differ in its order and in each request's details. With requests
/// drawn independently, the share sent to the unpopular (and so
/// evicted) programs varied from seed to seed, and re-traces with it.
pub const CYCLE: usize = 1000;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Overheads,
    Rewalk,
    Query,
}

/// Request kinds in the order they are dealt to a cycle's requests,
/// grouped by program: 30% plain, 20% overheads, 15% rewalks, 35%
/// queries, interleaved so every program gets about those shares.
/// Assumed, picked so that p90 falls inside the dense query cluster.
const KINDS: [Kind; 20] = {
    use Kind::*;
    [
        Query, Plain, Overheads, Query, Rewalk, Plain, Query, Overheads, Plain, Query, Rewalk,
        Query, Plain, Overheads, Query, Plain, Rewalk, Query, Overheads, Plain,
    ]
};

const EXTRA_SIZES: [PageSize; 3] = [PageSize::K16, PageSize::K32, PageSize::K64];

fn draw_query(rng: &mut Rng) -> String {
    let agg = ["count", "first", "last", "hist"][rng.below(4)];
    let pred = match rng.below(6) {
        0 => return agg.to_string(),
        // Thresholds span nine decades, so some refute whole blocks.
        1 => format!(
            "value > {}",
            rng.range(1, 9) * 10i64.pow(rng.below(9) as u32)
        ),
        2 => format!("value == old + {}", rng.range(1, 4)),
        3 => format!("old < {}", rng.range(0, 64)),
        4 => "value != old".to_string(),
        _ => format!("writer in main && value > {}", rng.range(0, 64)),
    };
    format!("{agg} if {pred}")
}

/// One request of `kind` to `workload`, its details seeded.
fn draw_request(rng: &mut Rng, id: String, workload: &str, kind: Kind) -> Request {
    let mut req = Request::simple(&id, workload, Scale::Small);
    match kind {
        Kind::Plain => {
            if rng.chance(1, 2) {
                req.strategies = Approach::ALL
                    .into_iter()
                    .filter(|_| rng.chance(1, 2))
                    .collect();
            }
        }
        Kind::Overheads => req.overheads = true,
        Kind::Rewalk => {
            while req.page_sizes.is_empty() {
                req.page_sizes = EXTRA_SIZES
                    .into_iter()
                    .filter(|_| rng.chance(1, 2))
                    .collect();
            }
        }
        Kind::Query => req.query = Some(draw_query(rng)),
    }
    req
}

/// Requests per program in a cycle: [`POPULARITY`] shares of [`CYCLE`],
/// rounded by largest remainder.
fn cycle_counts() -> [usize; 9] {
    let total: u64 = POPULARITY.iter().sum();
    let scaled = POPULARITY.map(|w| w * CYCLE as u64);
    let mut counts = scaled.map(|x| (x / total) as usize);
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(scaled[i] % total));
    let short = CYCLE - counts.iter().sum::<usize>();
    for &i in &by_remainder[..short] {
        counts[i] += 1;
    }
    counts
}

/// The (program, kind) pairs of one cycle, in seeded order.
fn cycle(rng: &mut Rng) -> Vec<(&'static str, Kind)> {
    let mut pairs: Vec<(&'static str, Kind)> = PROGRAMS
        .into_iter()
        .zip(cycle_counts())
        .flat_map(|(name, n)| std::iter::repeat_n(name, n))
        .zip(KINDS.into_iter().cycle())
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// The requests the client sends for `seed`, in order, cycle by cycle.
pub fn requests(seed: u64) -> impl Iterator<Item = Request> {
    let mut rng = Rng::new(seed, 10);
    let mut i = 0u64;
    std::iter::repeat_with(move || {
        let pairs = cycle(&mut rng);
        pairs
            .into_iter()
            .map(|(name, kind)| {
                i += 1;
                draw_request(&mut rng, format!("r{}", i - 1), name, kind)
            })
            .collect::<Vec<_>>()
    })
    .flatten()
}

/// The request with its id cleared: responses to equal keys must carry
/// byte-identical bodies.
fn body_key(req: &Request) -> String {
    Request {
        id: String::new(),
        ..req.clone()
    }
    .to_json_line()
}

/// The `body` member of a response line, as sent on the wire.
fn wire_body(line: &str) -> Option<&str> {
    let at = line.find(",\"body\":")?;
    line.get(at + 8..line.len() - 1)
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    ms: f64,
    cache: Option<CacheStatus>,
    query: bool,
    traced: bool,
    /// The second send of a request (traced runs send each twice).
    repeat: bool,
    /// Both sends of the request found the cache in the same state, so
    /// the pair's difference is the tracing's, not the cache's.
    paired: bool,
}

#[derive(Debug)]
struct ClientOut {
    samples: Vec<Sample>,
    failed: u64,
    /// Body hash per body key (`None`: the response had no body).
    bodies: HashMap<String, Option<u64>>,
    rec: Recorder,
    cache_bytes_peak: u64,
}

fn client(
    server: &Server,
    seed: u64,
    window: Window,
    trace: bool,
    epoch: Instant,
) -> Result<ClientOut, String> {
    let mut reqs = requests(seed);
    let mut out = ClientOut {
        samples: Vec::new(),
        failed: 0,
        bodies: HashMap::new(),
        rec: Recorder::new(epoch),
        cache_bytes_peak: 0,
    };
    let mut i = 0u64;
    // Windows end on a cycle boundary, unless the hard cap has passed.
    while window.more(out.samples.len()) || (!i.is_multiple_of(CYCLE as u64) && !window.capped()) {
        let req = reqs.next().expect("endless");
        let line = req.to_json_line();
        let key = body_key(&req);
        let op = i;
        let first = out.samples.len();
        // A traced run sends the request twice, traced and untraced
        // back to back in alternating order; each send pays its own
        // bookkeeping inside its timed span.
        for &traced in op_modes(trace, i) {
            let t0 = Instant::now();
            let Ok(RequestLine::Query(parsed)) = Request::parse_line(&line) else {
                return Err(format!("request line does not parse: {line}"));
            };
            let t1 = Instant::now();
            if traced {
                out.rec.push(op, "server.parse", t0, t1);
            }
            let resp = match server.submit(parsed) {
                Ok(ticket) => ticket.wait(),
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            };
            let t2 = Instant::now();
            if traced {
                let wait = match resp.cache {
                    Some(CacheStatus::Hit) => "server.wait.hit",
                    Some(CacheStatus::Rewalk) => "server.wait.rewalk",
                    _ => "server.wait.miss",
                };
                out.rec.push(op, wait, t1, t2);
            }
            let wire = resp.to_json_line();
            let t3 = Instant::now();
            if traced {
                out.rec.push(op, "server.render", t2, t3);
                out.cache_bytes_peak = out.cache_bytes_peak.max(server.stats().cache_bytes);
            }
            let t4 = Instant::now();
            if traced {
                out.rec.push(op, OP, t0, t4);
            }

            if !resp.ok {
                out.failed += 1;
            }
            out.samples.push(Sample {
                ms: (t4 - t0).as_secs_f64() * 1e3,
                cache: resp.cache,
                query: req.query.is_some(),
                traced,
                repeat: out.samples.len() > first,
                paired: false,
            });
            let hash = wire_body(&wire).map(|b| fnv(FNV_OFFSET, b.as_bytes()));
            if let Some(prev) = out.bodies.insert(key.clone(), hash) {
                if prev != hash {
                    return Err(format!("two answers to {key} differ"));
                }
            }
        }
        if let [a, b] = &mut out.samples[first..] {
            let paired = a.cache == b.cache;
            (a.paired, b.paired) = (paired, paired);
        }
        i += 1;
    }
    Ok(out)
}

/// Every distinct request must have been answered byte-identically to a
/// one-shot rendering: a fresh materialized `analyze_opts` at the
/// request's ladder, rendered by `body_for` / `query_body_for`.
fn check_bodies(bodies: &HashMap<String, Option<u64>>) -> Result<usize, String> {
    // Requests by (workload, ladder shifts): one one-shot analysis each.
    type Group = Vec<(Request, Option<u64>)>;
    let mut groups: BTreeMap<(String, Vec<u8>), Group> = BTreeMap::new();
    for (key, &hash) in bodies {
        let Ok(RequestLine::Query(req)) = Request::parse_line(key) else {
            return Err(format!("body key does not parse: {key}"));
        };
        let ladder = req
            .normalized_ladder()
            .iter()
            .map(|ps| ps.shift() as u8)
            .collect();
        groups
            .entry((req.workload.clone(), ladder))
            .or_default()
            .push((req, hash));
    }
    for reqs in groups.values() {
        let first = &reqs[0].0;
        let w = first.resolve_workload()?;
        let one_shot = analyze_opts(
            &w,
            &AnalyzeOpts {
                ladder: first.page_sizes.clone(),
                ..AnalyzeOpts::default()
            },
        );
        for (req, hash) in reqs {
            let body = match &req.query {
                Some(_) => query_body_for(req, &one_shot, 1)?,
                None => body_for(req, &one_shot),
            };
            let want = Some(fnv(FNV_OFFSET, body.to_json().as_bytes()));
            if *hash != want {
                return Err(format!(
                    "service body for {} differs from the one-shot rendering",
                    body_key(req)
                ));
            }
        }
    }
    Ok(bodies.len())
}

fn config(store: &Path, cache_bytes: usize) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        queue_depth: 64,
        cache_bytes,
        stream: true,
        store: Some(store.to_path_buf()),
    }
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Makes glibc's allocator keep freed memory in the process instead of
/// handing it back to the kernel. In a virtual machine that reports
/// freed pages to its host, every page touched again faults in anew,
/// and that cost swings with the host's load: with the defaults a
/// 15 s run took ~650K page faults and a miss spent ~40% of its time
/// in them. Allocation itself (`malloc`/`free`) is still measured.
/// In exchange, `calloc` clears all of a reused block, where a fresh
/// mapping faults in only the pages touched: `monitor` ops, each of
/// which zeroes a 16 MiB machine memory and touches little of it, ran
/// slower with it, so only this workload sets it.
fn keep_freed_memory() -> Result<(), String> {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [
        (M_TRIM_THRESHOLD, i32::MAX),
        (M_TOP_PAD, 64 << 20),
        // glibc's largest: 32 MiB.
        (M_MMAP_THRESHOLD, 32 << 20),
    ] {
        // SAFETY: mallopt takes two integers and only changes the
        // allocator's tunables, under the allocator's own lock.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) refused"));
        }
    }
    Ok(())
}

/// Pins the calling thread, and so every thread it starts afterwards,
/// to the CPU it is running on; returns that CPU. Each op hands the
/// request to the worker and the answer back: on one CPU that is a
/// context switch, across CPUs of a shared virtual machine it is a
/// wake-up of an idle virtual CPU, whose latency swings with the load
/// of the host and dominated the spread of sub-millisecond hits. A
/// server on one CPU also replays misses inline on the tracing thread
/// (`AnalyzeOpts::auto_channel_batches`), as `repro serve` does on a
/// one-CPU host.
fn pin_to_one_cpu() -> Result<usize, String> {
    // cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: both are glibc calls on plain integers and a buffer of
    // the size passed; pid 0 is the calling thread.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} lies beyond cpu_set_t"))?;
    *word |= 1 << (cpu % 64);
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Scratch directory for this process inside the working directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(format!("service-{}", std::process::id()))
}

/// Codec, store and pushdown-query costs on the mix's own traces and
/// queries, measured outside every op.
fn probe_layers(
    rec: &mut Recorder,
    dir: &Path,
    queries: &[(String, String)],
) -> Result<(), String> {
    let store = TraceStore::open(dir.join("probe")).map_err(|e| e.to_string())?;
    let mut prepared = BTreeMap::new();
    for name in PROGRAMS {
        let w = Workload::by_name(name).expect("bundled").scaled_down();
        let p = prepare(&w).map_err(|e| format!("{name}: {e}"))?;
        let events = p.trace.len() as f64;
        for _ in 0..PROBE_REPS {
            let mut buf = Vec::new();
            rec.time(PROBE, "trace.encode", || {
                write_columnar(&p.trace, &[], &mut buf)
            })
            .map_err(|e| e.to_string())?;
            let (back, _) = rec
                .time(PROBE, "trace.decode", || read_columnar(&buf))
                .map_err(|e| e.to_string())?;
            if back.events() != p.trace.events() {
                return Err(format!("{name}: DBPT round trip changed the trace"));
            }
            rec.add("codec.events", events);
            rec.add("codec.bytes", buf.len() as f64);
            let key = w.workload_hash();
            rec.time(PROBE, "trace.store_save", || store.save(key, &p.trace, &[]))
                .map_err(|e| e.to_string())?;
            let loaded = rec
                .time(PROBE, "trace.store_load", || store.load(key))
                .map_err(|e| e.to_string())?;
            if loaded.map(|(t, _)| t.len()) != Some(p.trace.len()) {
                return Err(format!("{name}: store load lost events"));
            }
        }
        p.columnar_bytes();
        prepared.insert(name, p);
    }
    for (workload, q) in queries.iter().take(QUERY_PROBES) {
        let p = &prepared[workload.as_str()];
        let debug = &p.plain.debug;
        let writers = WriterMap::new(
            debug
                .functions
                .iter()
                .enumerate()
                .map(|(id, f)| (f.entry_pc, id as u16)),
        );
        let (_, stats) = rec
            .time(PROBE, "sim.query", || {
                scan_query(
                    p.columnar_bytes(),
                    q,
                    |n| debug.func_id(n),
                    &writers,
                    WORKERS,
                )
            })
            .map_err(|e| format!("{q}: {e}"))?;
        rec.add("query.events", p.trace.len() as f64);
        rec.add("query.blocks_scanned", stats.blocks_scanned as f64);
        rec.add("query.blocks_skipped", stats.blocks_skipped as f64);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = scratch_dir();
    let result = run_in(args, &dir);
    // Best effort: the directory holds only this run's store files.
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    match pin_to_one_cpu() {
        Ok(cpu) => out.note(format!("pinned to CPU {cpu}: one client, one worker")),
        Err(e) => out.note(format!(
            "WARNING: not pinned to one CPU ({e}); runs spread wider"
        )),
    }
    if let Err(e) = keep_freed_memory() {
        out.note(format!(
            "WARNING: allocator returns freed memory ({e}); runs spread wider"
        ));
    }
    let store = dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    // Prime the store: one miss per program, so every program has been
    // traced once before the service (re)starts.
    let primer = Server::start(config(&store, usize::MAX));
    let primed = primer.submit_batch(
        PROGRAMS
            .iter()
            .map(|name| Request::simple(name, name, Scale::Small))
            .collect(),
    );
    primer.shutdown();
    if let Some(bad) = primed.iter().find(|r| !r.ok) {
        return Err(format!(
            "priming request {} failed: {:?}",
            bad.id, bad.error
        ));
    }

    // Size the budget from what a warm start actually holds.
    let sizing = Server::start(config(&store, usize::MAX));
    let stats = sizing.stats();
    sizing.shutdown();
    if stats.cache_entries != PROGRAMS.len() as u64 {
        return Err(format!(
            "warm start holds {} of {} programs",
            stats.cache_entries,
            PROGRAMS.len()
        ));
    }
    let working_set = stats.cache_bytes as usize;
    let cache_bytes = working_set / CACHE_SHARE.1 * CACHE_SHARE.0;
    out.note(format!(
        "cache budget {cache_bytes} B: {}/{} of the {working_set} B a warm start holds",
        CACHE_SHARE.0, CACHE_SHARE.1
    ));

    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..args.setups() {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        server = Some(Server::start(config(&store, cache_bytes)));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    let window = args.window();
    let result = client(&server, args.seed, window, args.trace, epoch);
    let window_s = window.elapsed_s();
    let stats = server.stats();
    server.shutdown();
    let ClientOut {
        samples,
        failed,
        bodies,
        mut rec,
        cache_bytes_peak,
    } = result?;
    out.failed += failed;
    out.attempted = samples.len() as u64 + stats.rejected;
    let checked = check_bodies(&bodies)?;
    out.note(format!(
        "check: {} responses; all {checked} distinct requests byte-identical to a one-shot rendering",
        samples.len()
    ));
    // Cache ratios over first sends: the mix's, not its repeats'.
    let share = |f: &dyn Fn(&Sample) -> bool| {
        let firsts = samples.iter().filter(|s| !s.repeat);
        let n = firsts.clone().count().max(1) as f64;
        firsts.filter(|s| f(s)).count() as f64 / n
    };
    let hit_ratio = share(&|s| s.cache == Some(CacheStatus::Hit));
    let miss_ratio = share(&|s| s.cache == Some(CacheStatus::Miss));
    out.note(format!(
        "server: requests={} hits={} misses={} rewalks={} rejected={} errors={}",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_rewalks,
        stats.rejected,
        stats.errors
    ));

    if args.trace {
        let mut queries: Vec<(String, String)> = bodies
            .keys()
            .filter_map(|k| match Request::parse_line(k) {
                Ok(RequestLine::Query(r)) => r.query.map(|q| (r.workload, q)),
                _ => None,
            })
            .collect();
        queries.sort();
        Rng::new(args.seed, 4).shuffle(&mut queries);
        probe_layers(&mut rec, dir, &queries)?;
        let codec_events = rec.count("codec.events");
        out.set(
            "trace.encode_ns_per_event",
            rec.total_ms("trace.encode") * 1e6 / codec_events,
        );
        out.set(
            "trace.decode_ns_per_event",
            rec.total_ms("trace.decode") * 1e6 / codec_events,
        );
        out.set(
            "trace.bytes_per_event",
            rec.count("codec.bytes") / codec_events,
        );
        out.set("trace.store_save_ms", rec.mean_ms("trace.store_save"));
        out.set("trace.store_load_ms", rec.mean_ms("trace.store_load"));
        out.set(
            "sim.query_ns_per_event",
            rec.total_ms("sim.query") * 1e6 / rec.count("query.events").max(1.0),
        );
        let scanned = rec.count("query.blocks_scanned");
        let skipped = rec.count("query.blocks_skipped");
        out.set(
            "sim.blocks_skipped_ratio",
            skipped / (scanned + skipped).max(1.0),
        );
        out.set("server.parse_us", rec.mean_ms("server.parse") * 1e3);
        let p50 = |name: &str| Dist::new(&rec.durations_ms(name)).at(500).unwrap_or(0.0);
        out.set("server.hit_ms_p50", p50("server.wait.hit"));
        out.set("server.rewalk_ms_p50", p50("server.wait.rewalk"));
        out.set("server.render_us", rec.mean_ms("server.render") * 1e3);
        out.set("server.hit_ratio", hit_ratio);
        out.set("server.retrace_ratio", miss_ratio);
        out.set("server.cache_bytes_peak", cache_bytes_peak as f64);
        out.set("server.rejected", stats.rejected as f64);
        let mode = |traced: bool| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.paired && s.traced == traced)
                .map(|s| s.ms)
                .collect();
            (ms.len(), ms.iter().sum::<f64>() / 1e3)
        };
        out.reconcile(&rec, mode(false), mode(true));
    } else {
        let ops_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        out.end_to_end(&setup_s, &ops_ms, window_s);
        let cold: Vec<f64> = samples
            .iter()
            .filter(|s| s.cache == Some(CacheStatus::Miss))
            .map(|s| s.ms)
            .collect();
        let query: Vec<f64> = samples.iter().filter(|s| s.query).map(|s| s.ms).collect();
        for (name, v) in [("cold_p50_ms", &cold), ("query_p50_ms", &query)] {
            out.extra(
                name,
                Dist::new(v).at(500).unwrap_or(0.0),
                "ms",
                "lower",
                v.len(),
            );
        }
        out.note(format!(
            "hit ratio {hit_ratio:.4}, re-trace (miss) ratio {miss_ratio:.4}"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_list(seed: u64, n: usize) -> Vec<String> {
        requests(seed).take(n).map(|r| r.to_json_line()).collect()
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        assert_eq!(op_list(9, 200), op_list(9, 200));
        assert_ne!(op_list(9, 200), op_list(10, 200));
    }

    #[test]
    fn every_line_parses_and_the_mix_covers_every_kind() {
        let lines = op_list(1, 2000);
        let reqs: Vec<Request> = lines
            .iter()
            .map(|l| match Request::parse_line(l) {
                Ok(RequestLine::Query(r)) => r,
                other => panic!("{l}: {other:?}"),
            })
            .collect();
        assert!(reqs.iter().any(|r| r.overheads));
        assert!(reqs.iter().any(|r| !r.page_sizes.is_empty()));
        assert!(reqs.iter().any(|r| r.query.is_some()));
        for name in PROGRAMS {
            assert!(
                reqs.iter().any(|r| r.workload == name),
                "{name} never drawn"
            );
        }
        for q in reqs.iter().filter_map(|r| r.query.as_deref()) {
            databp_sim::Query::parse(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn every_cycle_sends_the_same_mix() {
        let counts = cycle_counts();
        assert_eq!(counts.iter().sum::<usize>(), CYCLE);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        let mix = |pairs: Vec<(&str, Kind)>| {
            let mut m: Vec<String> = pairs.iter().map(|p| format!("{p:?}")).collect();
            m.sort();
            m
        };
        let mut rng = Rng::new(3, 0);
        let (a, b) = (cycle(&mut rng), cycle(&mut rng));
        assert_ne!(format!("{a:?}"), format!("{b:?}"), "order is seeded");
        assert_eq!(mix(a), mix(b));
    }

    #[test]
    fn wire_body_is_the_body_member() {
        let resp = databp_server::Response::failure("x", "nope");
        assert_eq!(wire_body(&resp.to_json_line()), None);
        let line = r#"{"id":"c0-1","ok":true,"cache":"hit","body":{"a":[1,2]}}"#;
        assert_eq!(wire_body(line), Some(r#"{"a":[1,2]}"#));
    }
}
