//! The databp benchmark: three seeded workloads driven through the
//! workspace crates' public functions, end-to-end metrics with program
//! telemetry off, and per-layer costs timed from the benchmark's own
//! code in a separate traced run. See README.md for the workloads, the
//! metrics and the layer table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-batch|service|monitor> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object. A failed
//! correctness check exits with status 1 and prints no result.

mod monitor;
mod paper_batch;
mod rng;
mod service;
mod spans;
mod stats;

use spans::Recorder;
use stats::Dist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["paper-batch", "service", "monitor"];

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer
/// that does no work in a workload reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("tinyc.compile_plain_ms", "ms"),
    ("tinyc.compile_cp_ssa_ms", "ms"),
    ("analysis.write_safety_ms", "ms"),
    ("analysis.elision_rate", "ratio"),
    ("machine.ns_per_instr", "ns/instr"),
    ("machine.instructions", "count"),
    ("trace.hooks_ns_per_instr", "ns/instr"),
    ("trace.events", "count"),
    ("trace.encode_ns_per_event", "ns/event"),
    ("trace.decode_ns_per_event", "ns/event"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.store_save_ms", "ms"),
    ("trace.store_load_ms", "ms"),
    ("sessions.enumerate_ms", "ms"),
    ("sessions.candidates", "count"),
    ("sessions.surviving", "count"),
    ("sim.replay_ns_per_event", "ns/event"),
    ("sim.replay_ps_per_event_session", "ps/event.session"),
    ("sim.query_ns_per_event", "ns/event"),
    ("sim.blocks_skipped_ratio", "ratio"),
    ("models.overheads_ms", "ms"),
    ("harness.tables_ms", "ms"),
    ("core.cp_ns_per_instr", "ns/instr"),
    ("core.wms_lookups", "count"),
    ("core.checks_elided", "count"),
    ("core.checks_hoisted", "count"),
    ("core.pred_filtered", "count"),
    ("server.parse_us", "us"),
    ("server.hit_ms_p50", "ms"),
    ("server.rewalk_ms_p50", "ms"),
    ("server.render_us", "us"),
    ("server.hit_ratio", "ratio"),
    ("server.retrace_ratio", "ratio"),
    ("server.cache_bytes_peak", "B"),
    ("server.rejected", "count"),
    ("bench.unaccounted_pct", "%"),
    ("bench.tracing_overhead_pct", "%"),
];

/// Longest a run may take before the watchdog fails it (the benchmark's
/// limit is 180 seconds).
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Share of op wall time the layer spans may leave uncovered before the
/// traced run flags the workload.
const UNACCOUNTED_FLAG_PCT: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Fewest ops a window (per client) may end with: p90 needs ten
/// samples beyond it.
const MIN_OPS: usize = 100;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;

impl Args {
    /// Set-ups to run: a traced run reports no `setup_s`, so one.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }

    /// A fresh measurement window.
    pub fn window(&self) -> Window {
        Window::new(self.seconds, MIN_OPS)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(key, val);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Result-line metrics by name: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed above the result line: sample counts and
    /// the workload-specific end-to-end metrics.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.report.push(line);
    }

    /// A workload-specific end-to-end metric: printed in the report
    /// with its unit, direction and sample count.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str, better: &str, n: usize) {
        self.note(format!(
            "metric {name} = {value:.4} {unit} ({better} is better, n={n})"
        ));
    }

    /// The shared end-to-end metrics from a closed-loop window.
    pub fn end_to_end(&mut self, setup_s: &[f64], ops_ms: &[f64], window_s: f64) {
        let d = Dist::new(ops_ms);
        let p50 = d.at(500).unwrap_or(0.0);
        let p90 = d.at(900).unwrap_or(0.0);
        self.set("setup_s", stats::median(setup_s));
        self.set("ops_per_s", ops_ms.len() as f64 / window_s);
        self.set("op_p50_ms", p50);
        self.set("op_p90_ms", p90);
        self.set("peak_rss_mb", peak_rss_mb());
        self.note(format!(
            "setup_s median of {} set-ups; {} ops in {window_s:.2} s",
            setup_s.len(),
            ops_ms.len()
        ));
        let tail = stats::tail_percentile(d.n())
            .map_or("none".to_string(), |pm| format!("p{}", pm as f64 / 10.0));
        self.note(format!(
            "op latency: n={} p50={p50:.4} ms p90={p90:.4} ms{}; highest percentile with >=10 samples beyond: {tail}",
            d.n(),
            if d.resolved(900) { "" } else { " (UNRESOLVED: <10 samples beyond p90)" },
        ));
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.note(format!(
            "metric error_rate = {rate} ratio (lower is better, failed={} attempted={})",
            self.failed, self.attempted
        ));
    }

    /// The traced run's reconciliation and tracing-overhead rows.
    /// The overhead compares throughputs in ops over summed op wall
    /// time, so time spent outside ops (probes) counts in neither.
    /// `untraced`/`traced` are (ops, summed op wall seconds) per mode.
    pub fn reconcile(&mut self, rec: &Recorder, untraced: (usize, f64), traced: (usize, f64)) {
        for (name, ms, pct) in rec.breakdown() {
            self.note(format!(
                "span {name}: {ms:.1} ms, {pct:.1}% of op wall time"
            ));
        }
        let unaccounted_pct = rec.unaccounted_pct();
        let rate = |(n, s): (usize, f64)| if s > 0.0 { n as f64 / s } else { 0.0 };
        let (u, t) = (rate(untraced), rate(traced));
        let overhead = if t > 0.0 { 100.0 * (u / t - 1.0) } else { 0.0 };
        self.set("bench.unaccounted_pct", unaccounted_pct);
        self.set("bench.tracing_overhead_pct", overhead);
        self.note(format!(
            "traced run: untraced {} ops at {u:.3}/s, traced {} ops at {t:.3}/s",
            untraced.0, traced.0
        ));
        if unaccounted_pct > UNACCOUNTED_FLAG_PCT {
            self.note(format!(
                "FLAG: {unaccounted_pct:.1}% of op wall time is outside every layer span (limit {UNACCOUNTED_FLAG_PCT}%)"
            ));
        }
    }
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A closed-loop measurement window: at least `seconds` long, and long
/// enough for `min_ops` ops, but never past a hard cap (three times
/// `seconds`, at most a minute more) so a slow host still finishes well
/// inside the benchmark's 180-second limit.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    deadline: Instant,
    cap: Instant,
    min_ops: usize,
}

impl Window {
    pub fn new(seconds: f64, min_ops: usize) -> Window {
        let start = Instant::now();
        Window {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            cap: start + Duration::from_secs_f64((seconds * 3.0).min(seconds + 60.0)),
            min_ops,
        }
    }

    /// Whether the loop should go on after `done` ops.
    pub fn more(&self, done: usize) -> bool {
        let now = Instant::now();
        now < self.deadline || (done < self.min_ops && now < self.cap)
    }

    /// Whether the hard cap has passed.
    pub fn capped(&self) -> bool {
        Instant::now() >= self.cap
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// The modes (traced?) op `i` runs in. A traced run times every op
/// both ways, back to back in alternating order, so the two modes see
/// the same inputs under the same host conditions.
pub fn op_modes(trace: bool, i: u64) -> &'static [bool] {
    match (trace, i % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

fn result_line(o: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = o.metrics.get(name).copied().unwrap_or(0.0);
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A request the server never answers would block its client for
    // ever; the watchdog turns that into a failed run inside the limit.
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(RUN_LIMIT) {
            eprintln!("perfbench: run did not finish within {RUN_LIMIT:?}");
            std::process::exit(3);
        }
    });
    let run = match args.workload.as_str() {
        "paper-batch" => paper_batch::run(&args),
        "service" => service::run(&args),
        "monitor" => monitor::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    drop(done);
    watchdog.join().expect("watchdog thread panicked");
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: CORRECTNESS FAILURE in {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(unknown) = outcome
        .metrics
        .keys()
        .find(|k| !list.iter().any(|(n, _)| n == *k))
    {
        panic!("workload set metric {unknown} outside the result list");
    }
    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for line in &outcome.report {
        println!("{line}");
    }
    for (name, unit) in list {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("metric {name} = {v:.4} {unit}");
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_server::json::{self, Value};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload service --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload service --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload service --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload service --seed 3 --seconds 10 --trace 2")).is_err());
    }

    /// BENCHMARK.json and the metric lists above must name the same
    /// workloads and metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("op_p50_ms", 1.5);
        let line = result_line(&o, false);
        let v = json::parse(&line).unwrap();
        let m = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(unit)
            );
        }
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(3));
        let traced = json::parse(&result_line(&o, true)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("bench.unaccounted_pct")
            .is_some());
    }
}
