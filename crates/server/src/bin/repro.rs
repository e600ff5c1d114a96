//! `repro` — regenerates every table and figure of *Efficient Data
//! Breakpoints* (Wahbe, ASPLOS 1992) from the substituted workloads,
//! and runs the replay service built on the same pipeline.
//!
//! Run `repro` with no command for the usage text. It is generated from
//! the [`COMMANDS`] and [`OPTIONS`] tables below, which are the one
//! place the command line is described.

use databp_harness::figures::{figure, figure_ascii, Figure};
use databp_harness::overheads_for;
use databp_harness::render::TextTable;
use databp_harness::WorkloadResults;
use databp_harness::{analyze_all_opts, analyze_opts, default_jobs, AnalyzeOpts, Scale};
use databp_harness::{breakdown, dyncp, expansion, loopopt, nhcoverage, staticopt, tables};
use databp_machine::PageSize;
use databp_server::{Request, Server, ServerConfig};
use databp_telemetry::Snapshot;
use databp_workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// How a command runs.
#[derive(Clone, Copy)]
enum Handler {
    /// On its own arguments (those after the command name).
    Direct(fn(&[String], &Opts) -> ExitCode),
    /// Over the analyzed paper workloads, once they have all run.
    Results(fn(&[WorkloadResults], &Opts) -> ExitCode),
    /// A table over the analyzed paper workloads, emitted under the
    /// command's name.
    Table(fn(&[WorkloadResults]) -> TextTable),
    /// A figure over the analyzed paper workloads: its ASCII chart,
    /// then its value table under the command's name.
    Chart(Figure),
}
use Handler::{Chart, Direct, Results, Table};

/// One row of the command table. A command with several forms (`trace`)
/// has one row per form.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    help: &'static str,
    handler: Handler,
}

const fn cmd(
    name: &'static str,
    synopsis: &'static str,
    help: &'static str,
    handler: Handler,
) -> Command {
    Command {
        name,
        synopsis,
        help,
        handler,
    }
}

/// Every subcommand, in usage order. The name is checked against this
/// table before any workload runs, so an unknown command fails fast.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("all", "", "every experiment, in paper order", Results(all)),
    cmd("table1", "", "session counts and base execution times", Table(tables::table1)),
    cmd("table2", "", "timing variables (paper + host-measured)", Direct(table2)),
    cmd("table3", "", "mean counting variables", Table(tables::table3)),
    cmd("table4", "", "relative overhead statistics", Table(tables::table4)),
    cmd("fig7", "", "maximum relative overhead (chart + values)", Chart(Figure::Max)),
    cmd("fig8", "", "90th-percentile relative overhead", Chart(Figure::P90)),
    cmd("fig9", "", "10–90% trimmed-mean relative overhead", Chart(Figure::TMean)),
    cmd("breakdown", "", "Section 8 time-spent breakdown", Table(breakdown::breakdown_table)),
    cmd("expansion", "", "Section 8 CodePatch code expansion", Table(expansion::expansion_table)),
    cmd("loopopt", "", "Section 9 loop-check optimization (executes CodePatch)",
        Table(|r| loopopt::loopopt_table(r, 3))),
    cmd("staticopt", "[W...]",
        "SSA-driven static check elision + dominator hoisting (executes CodePatch, \
         replay-verifies every elision) over the named workloads; default: the five paper \
         workloads plus the four-kernel bench corpus",
        Direct(staticopt_cmd)),
    cmd("tinyc", "--dump-ssa W",
        "print workload W's SSA form (blocks, phis, per-site address facts, hoist plans)",
        Direct(tinyc_cmd)),
    cmd("dyncp", "", "Section 3.3 dynamic-patching hybrid (executes CodePatch)",
        Table(dyncp::dyncp_table)),
    cmd("nhcoverage", "", "watch-register coverage analysis", Table(nhcoverage::coverage_table)),
    cmd("ladder", "",
        "per-page-size counting summary over the whole ladder (pair with --page-sizes to \
         sweep beyond 4K/8K)",
        Table(ladder_table)),
    cmd("serve", "",
        "run the replay service: line-delimited JSON requests on stdin, one response line \
         each on stdout (schema: README \"Running as a service\"); --jobs sets the worker \
         count; --store DIR persists traces across restarts",
        Direct(|_, o| serve_stdio(o))),
    cmd("client", "W... | --demo",
        "in-process batch-API client: one query per listed workload (duplicates exercise the \
         trace cache), or a canned mixed batch; prints request lines, response lines, then a \
         stats line",
        Direct(client)),
    cmd("query", "Q [W...]",
        "run the trace query Q (`<agg> [if <pred>]`; aggs: count, first, last, hist, watch) \
         over each named workload's phase-1 trace (default: the bench corpus) as a \
         zone-mapped columnar pushdown scan, printing query.blocks_scanned / \
         query.blocks_skipped as key=value; a predicated Q adds a predicated CodePatch pass \
         printing cp.pred_filtered / cp.pred_fired",
        Direct(query_cmd)),
    cmd("verify", "", "run the DESIGN.md fidelity checklist (exit 1 on failure)", Results(verify)),
    cmd("perf", "",
        "instrumented small-scale run: per-table wall-clock + simulated cycles, a \
         service-mix batch, the telemetry snapshot, and a diff against the previous \
         results/perf.json (rotated to results/perf.prev.json) before writing the new one",
        Direct(|_, o| perf(o))),
    cmd("perfgate", "",
        "compare results/perf.json against results/perf.prev.json, one line per gate; fail \
         if a gated latency rose or a gated rate fell by more than PERF_GATE_TOLERANCE_PCT \
         percent (default 25); missing or unparsable snapshots pass",
        Direct(|_, _| perfgate())),
    cmd("sessions", "W", "list surviving sessions of workload W", Direct(sessions_cmd)),
    cmd("dist", "W A",
        "histogram of per-session overheads for workload W under approach A (nh, vm4k, vm8k, \
         tp, cp)",
        Direct(dist_cmd)),
    cmd("trace", "W F",
        "run workload W and save its phase-1 trace to file F (DBPT when F ends in .dbpt, \
         text otherwise)",
        Direct(trace_cmd)),
    cmd("trace", "dump [--meta] F",
        "decode a DBPT or text trace file and print it as text; --meta prints the DBPT \
         header, meta blob and per-block zone-map summary without decoding any event column",
        Direct(trace_cmd)),
    cmd("trace", "convert I O",
        "re-encode trace file I as O (format by extension, as for `trace W F`)",
        Direct(trace_cmd)),
];

/// Every global option, for the usage text (parsed in `main`).
#[rustfmt::skip]
const OPTIONS: &[(&str, &str)] = &[
    ("--small", "run scaled-down workloads (fast; for smoke tests)"),
    ("--csv DIR", "also write each table as CSV into DIR"),
    ("--telemetry FMT",
     "enable telemetry and dump a snapshot after the command (FMT: text, json, csv)"),
    ("--jobs N",
     "run up to N workloads in parallel (default: one per available core); for \
      serve/client, the service worker count"),
    ("--page-sizes LIST",
     "comma-separated page-size ladder, e.g. 4K,8K,16K,32K (4K and 8K are always included; \
      all sizes share one trace walk)"),
    ("--store DIR",
     "persistent trace store for serve: misses save DBPT files and a restarted server \
      warm-starts from them"),
];

/// The command with this name, if any.
fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The usage text, generated from [`COMMANDS`] and [`OPTIONS`].
fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--small] [--csv DIR] [--telemetry FMT] [--jobs N]\n             \
         [--page-sizes LIST] [--store DIR] <command>\n\ncommands:\n",
    );
    for c in COMMANDS {
        push_entry(&mut out, &format!("{} {}", c.name, c.synopsis), c.help);
    }
    out.push_str("\noptions:\n");
    for (flag, help) in OPTIONS {
        push_entry(&mut out, flag, help);
    }
    out
}

/// Appends `head` and `help`, word-wrapped into a hanging-indent column.
fn push_entry(out: &mut String, head: &str, help: &str) {
    const INDENT: usize = 22;
    const WIDTH: usize = 80;
    let mut line = format!("  {}", head.trim_end());
    let mut fresh = true; // no help word on `line` yet
    for word in help.split_whitespace() {
        let len = line.chars().count();
        if fresh && len < INDENT {
            line.push_str(&" ".repeat(INDENT - len));
        } else if fresh || len + 1 + word.chars().count() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(INDENT);
        } else {
            line.push(' ');
        }
        line.push_str(word);
        fresh = false;
    }
    out.push_str(&line);
    out.push('\n');
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TelemetryFormat {
    Text,
    Json,
    Csv,
}

impl TelemetryFormat {
    fn parse(s: &str) -> Option<TelemetryFormat> {
        match s {
            "text" => Some(TelemetryFormat::Text),
            "json" => Some(TelemetryFormat::Json),
            "csv" => Some(TelemetryFormat::Csv),
            _ => None,
        }
    }

    fn render(self, snap: &Snapshot) -> String {
        match self {
            TelemetryFormat::Text => snap.to_text(),
            TelemetryFormat::Json => snap.to_json(),
            TelemetryFormat::Csv => snap.to_csv(),
        }
    }
}

struct Opts {
    scale: Scale,
    csv_dir: Option<PathBuf>,
    telemetry: Option<TelemetryFormat>,
    jobs: usize,
    ladder: Vec<PageSize>,
    store: Option<PathBuf>,
}

impl Opts {
    /// `w` at this invocation's scale.
    fn scaled(&self, w: Workload) -> Workload {
        match self.scale {
            Scale::Full => w,
            Scale::Small => w.scaled_down(),
        }
    }

    /// Pipeline options for this invocation.
    fn analyze(&self) -> AnalyzeOpts {
        AnalyzeOpts {
            ladder: self.ladder.clone(),
            ..AnalyzeOpts::default()
        }
    }

    /// Service configuration for `serve`/`client`/the perf service mix.
    fn server(&self) -> ServerConfig {
        ServerConfig {
            workers: self.jobs.clamp(1, 8),
            store: self.store.clone(),
            ..ServerConfig::default()
        }
    }
}

fn emit(opts: &Opts, slug: &str, table: &TextTable) {
    println!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.render_csv()).expect("write csv");
        println!("(csv written to {})\n", path.display());
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>();
    let mut opts = Opts {
        scale: Scale::Full,
        csv_dir: None,
        telemetry: None,
        jobs: default_jobs(),
        ladder: vec![PageSize::K4, PageSize::K8],
        store: None,
    };
    if let Some(pos) = args.iter().position(|a| a == "--store") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--store needs a directory");
            return ExitCode::FAILURE;
        }
        opts.store = Some(PathBuf::from(args.remove(pos)));
    }
    if let Some(pos) = args.iter().position(|a| a == "--page-sizes") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--page-sizes needs a comma-separated list, e.g. 4K,8K,16K");
            return ExitCode::FAILURE;
        }
        let list = args.remove(pos);
        let mut ladder = Vec::new();
        for part in list.split(',') {
            let Some(ps) = PageSize::parse(part) else {
                eprintln!(
                    "--page-sizes: unknown page size '{part}' (expected one of 4K, 8K, 16K, 32K, 64K)"
                );
                return ExitCode::FAILURE;
            };
            ladder.push(ps);
        }
        // 4K and 8K are re-added by the pipeline if absent: the paper's
        // overhead models always need them.
        opts.ladder = ladder;
    }
    if let Some(pos) = args.iter().position(|a| a == "--small") {
        args.remove(pos);
        opts.scale = Scale::Small;
    }
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--csv needs a directory");
            return ExitCode::FAILURE;
        }
        opts.csv_dir = Some(PathBuf::from(args.remove(pos)));
    }
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--telemetry needs a format: text, json, or csv");
            return ExitCode::FAILURE;
        }
        let fmt = args.remove(pos);
        let Some(fmt) = TelemetryFormat::parse(&fmt) else {
            eprintln!("unknown telemetry format '{fmt}' (expected text, json, or csv)");
            return ExitCode::FAILURE;
        };
        opts.telemetry = Some(fmt);
    }
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--jobs needs a worker count");
            return ExitCode::FAILURE;
        }
        let n = args.remove(pos);
        let Ok(n) = n.parse::<usize>() else {
            eprintln!("--jobs: '{n}' is not a number");
            return ExitCode::FAILURE;
        };
        if n == 0 {
            eprintln!("--jobs must be at least 1");
            return ExitCode::FAILURE;
        }
        opts.jobs = n;
    }
    let Some(name) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(cmd) = command(name) else {
        eprint!("unknown command '{name}'\n{}", usage());
        return ExitCode::FAILURE;
    };

    // `perf` enables telemetry itself; otherwise the flag controls it.
    if opts.telemetry.is_some() || cmd.name == "perf" {
        databp_telemetry::set_enabled(true);
        databp_telemetry::global().reset();
    }

    let code = run(cmd, &args, &opts);

    // For every command except `perf` (which prints its own snapshot),
    // `--telemetry` appends a dump of everything recorded.
    if cmd.name != "perf" {
        if let Some(fmt) = opts.telemetry {
            print!("{}", fmt.render(&databp_telemetry::global().snapshot()));
        }
    }
    code
}

/// Runs `cmd`; `args` starts with the command name.
fn run(cmd: &Command, args: &[String], opts: &Opts) -> ExitCode {
    match cmd.handler {
        Direct(handler) => handler(&args[1..], opts),
        Results(handler) => handler(&analyze_paper(opts), opts),
        Table(table) => emit_ok(opts, cmd.name, &table(&analyze_paper(opts))),
        Chart(fig) => {
            emit_figure(&analyze_paper(opts), opts, fig, cmd.name);
            ExitCode::SUCCESS
        }
    }
}

/// Runs phase 1 and phase 2 over the five paper workloads.
fn analyze_paper(opts: &Opts) -> Vec<WorkloadResults> {
    eprintln!(
        "running {} workloads across {} thread(s) (this regenerates the paper's traces)...",
        match opts.scale {
            Scale::Full => "full-scale",
            Scale::Small => "scaled-down",
        },
        opts.jobs.min(Workload::all().len()),
    );
    let results = analyze_all_opts(opts.scale, opts.jobs, &opts.analyze());
    eprintln!("workloads done.\n");
    results
}

/// `emit`, as a command's whole work.
fn emit_ok(opts: &Opts, slug: &str, table: &TextTable) -> ExitCode {
    emit(opts, slug, table);
    ExitCode::SUCCESS
}

/// Prints a figure's ASCII chart, then emits its value table.
fn emit_figure(results: &[WorkloadResults], opts: &Opts, fig: Figure, slug: &str) {
    println!("{}", figure_ascii(results, fig, 48));
    emit(opts, slug, &figure(results, fig));
}

/// The `table2` command: no workload runs needed.
fn table2(_args: &[String], opts: &Opts) -> ExitCode {
    emit_ok(opts, "table2", &tables::table2())
}

/// The `all` command: every experiment, in paper order.
fn all(results: &[WorkloadResults], opts: &Opts) -> ExitCode {
    emit(opts, "table1", &tables::table1(results));
    emit(opts, "table2", &tables::table2());
    emit(opts, "table3", &tables::table3(results));
    emit(opts, "table4", &tables::table4(results));
    emit_figure(results, opts, Figure::Max, "fig7");
    emit_figure(results, opts, Figure::P90, "fig8");
    emit_figure(results, opts, Figure::TMean, "fig9");
    emit(opts, "breakdown", &breakdown::breakdown_table(results));
    emit(opts, "expansion", &expansion::expansion_table(results));
    emit(opts, "nhcoverage", &nhcoverage::coverage_table(results));
    emit(opts, "loopopt", &loopopt::loopopt_table(results, 3));
    emit(opts, "staticopt", &staticopt::staticopt_report(results));
    emit(opts, "dyncp", &dyncp::dyncp_table(results));
    ExitCode::SUCCESS
}

/// The `verify` command: the DESIGN.md fidelity checklist.
fn verify(results: &[WorkloadResults], _opts: &Opts) -> ExitCode {
    let checks = databp_harness::verify::verify(results);
    let (text, all) = databp_harness::verify::render(&checks);
    println!("{text}");
    if all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `dist W A` command.
fn dist_cmd(args: &[String], opts: &Opts) -> ExitCode {
    let (Some(name), Some(approach)) = (args.first(), args.get(1)) else {
        eprintln!("usage: repro dist <workload> <nh|vm4k|vm8k|tp|cp>");
        return ExitCode::FAILURE;
    };
    let approach = match approach.as_str() {
        "nh" => databp_models::Approach::Nh,
        "vm4k" => databp_models::Approach::Vm4k,
        "vm8k" => databp_models::Approach::Vm8k,
        "tp" => databp_models::Approach::Tp,
        "cp" => databp_models::Approach::Cp,
        other => {
            eprintln!("unknown approach '{other}'");
            return ExitCode::FAILURE;
        }
    };
    let Some(w) = Workload::by_name(name) else {
        eprintln!("unknown workload '{name}'");
        return ExitCode::FAILURE;
    };
    let r = analyze_opts(&opts.scaled(w), &opts.analyze());
    let ovs = overheads_for(&r, approach);
    let h = databp_stats::Histogram::from_samples(&ovs, 16);
    println!(
        "{name} under {approach}: {} sessions, relative overhead distribution",
        ovs.len()
    );
    print!("{}", h.render_ascii(48));
    let s = databp_stats::Summary::from_samples(&ovs);
    println!(
        "min={:.2} t-mean={:.2} mean={:.2} p90={:.2} p98={:.2} max={:.2}",
        s.min, s.t_mean, s.mean, s.p90, s.p98, s.max
    );
    ExitCode::SUCCESS
}

/// The `tinyc --dump-ssa W` command.
fn tinyc_cmd(args: &[String], _opts: &Opts) -> ExitCode {
    let (Some(flag), Some(name)) = (args.first(), args.get(1)) else {
        eprintln!("usage: repro tinyc --dump-ssa <workload>");
        return ExitCode::FAILURE;
    };
    if flag != "--dump-ssa" {
        eprintln!("unknown tinyc flag '{flag}' (expected --dump-ssa)");
        return ExitCode::FAILURE;
    }
    let Some(w) = Workload::by_name(name) else {
        eprintln!("unknown workload '{name}'");
        return ExitCode::FAILURE;
    };
    let hir = match databp_tinyc::lower(w.source) {
        Ok(hir) => hir,
        Err(e) => {
            eprintln!("workload '{name}' does not lower: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", databp_tinyc::ssa::dump(&hir));
    ExitCode::SUCCESS
}

/// The `staticopt [W...]` command. It resolves its own corpus: the SSA
/// elision table defaults to the five paper workloads *plus* the bench
/// kernels (where pointer hoisting pays), and takes explicit names too.
fn staticopt_cmd(args: &[String], opts: &Opts) -> ExitCode {
    let mut workloads = Vec::new();
    if args.is_empty() {
        workloads.extend(Workload::all());
        workloads.extend(Workload::bench());
    } else {
        for name in args {
            let Some(w) = Workload::by_name(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            workloads.push(w);
        }
    }
    eprintln!(
        "running {} workload(s) for the staticopt comparison...",
        workloads.len()
    );
    let results: Vec<WorkloadResults> = workloads
        .into_iter()
        .map(|w| analyze_opts(&opts.scaled(w), &opts.analyze()))
        .collect();
    emit_ok(opts, "staticopt", &staticopt::staticopt_report(&results))
}

/// The `sessions W` command.
fn sessions_cmd(args: &[String], opts: &Opts) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("usage: repro sessions <workload>");
        return ExitCode::FAILURE;
    };
    let Some(w) = Workload::by_name(name) else {
        eprintln!("unknown workload '{name}' (cc, tex, spice, qcd, bps)");
        return ExitCode::FAILURE;
    };
    let r = analyze_opts(&opts.scaled(w), &opts.analyze());
    println!(
        "{}: {} candidate sessions, {} with hits",
        name,
        r.candidates,
        r.sessions.len()
    );
    for (i, s) in r.sessions.iter().enumerate() {
        println!(
            "  [{i:4}] {:+30} hits={:8} misses={:9}  {}",
            s.to_string(),
            r.counts4[i].hit,
            r.counts4[i].miss,
            s.describe(&r.prepared.plain.debug)
        );
    }
    ExitCode::SUCCESS
}

/// Encodes `trace` in the format `path`'s extension names: columnar
/// DBPT for `.dbpt`, text otherwise. `meta` only survives into the DBPT
/// form (text has no meta slot).
fn encode_trace_as(trace: &databp_trace::Trace, meta: &[u8], path: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    if path.ends_with(".dbpt") {
        databp_trace::write_columnar(trace, meta, &mut buf).expect("encode");
    } else {
        databp_trace::write_text(trace, &mut buf).expect("encode");
    }
    buf
}

/// Decodes a trace file: DBPT first, falling back to the text form.
/// Returns the trace plus the DBPT meta blob (empty for text).
fn decode_trace_file(path: &str) -> Result<(databp_trace::Trace, Vec<u8>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match databp_trace::read_columnar(&bytes) {
        Ok(out) => Ok(out),
        Err(binary_err) => match std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| databp_trace::read_text(text).ok())
        {
            Some(trace) => Ok((trace, Vec::new())),
            None => Err(format!("cannot decode {path}: {binary_err}")),
        },
    }
}

/// `trace dump --meta F`: print a DBPT file's header, meta blob,
/// dictionary size, and per-block summary (event counts, encoded column
/// sizes, zone-map ranges) straight off the container framing — no
/// event column is ever decoded.
fn trace_dump_meta(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace dump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reader = match databp_trace::ColumnarReader::open(&bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace dump: {path} is not a DBPT columnar file: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{path}: DBPT v{}, {} events, {} blocks, {} dict entries, {} meta bytes, zone maps: {}",
        reader.version(),
        reader.n_events(),
        reader.blocks().len(),
        reader.dict().len(),
        reader.meta().len(),
        if reader.zones().is_some() {
            "yes"
        } else {
            "no"
        }
    );
    if !reader.meta().is_empty() {
        println!("meta: {}", String::from_utf8_lossy(reader.meta()));
    }
    for (i, block) in reader.blocks().iter().enumerate() {
        let cols = block
            .column_sizes()
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(name, n)| format!("{name}={n}B"))
            .collect::<Vec<_>>()
            .join(" ");
        print!("block[{i}] events={} {cols}", block.events());
        if let Some(zones) = reader.zones() {
            let z = &zones[i];
            print!(
                " | writes={} installs={} removes={} enters={} exits={}",
                z.writes, z.installs, z.removes, z.enters, z.exits
            );
            if let Some((lo, hi)) = z.write_pc_range() {
                print!(" pc=[{lo:#x},{hi:#x}]");
            }
            if let Some((lo, hi)) = z.write_value_range() {
                print!(" value=[{lo},{hi}]");
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// The `trace` subcommand family: `trace W F` runs a workload and saves
/// its phase-1 trace; `trace dump F` decodes any trace file to text
/// (`--meta` prints the columnar container summary without decoding
/// event columns); `trace convert I O` re-encodes between the text and
/// DBPT forms.
fn trace_cmd(args: &[String], opts: &Opts) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("dump") => {
            let rest: Vec<&String> = args[1..].iter().filter(|a| *a != "--meta").collect();
            let meta_only = rest.len() < args.len() - 1;
            let Some(&path) = rest.first() else {
                eprintln!("usage: repro trace dump [--meta] <file>");
                return ExitCode::FAILURE;
            };
            if meta_only {
                return trace_dump_meta(path);
            }
            let (trace, meta) = match decode_trace_file(path) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("trace dump: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let st = trace.stats();
            eprintln!(
                "{path}: {} events ({} writes, {} installs), {} meta bytes",
                trace.len(),
                st.writes,
                st.installs,
                meta.len()
            );
            let mut out = Vec::new();
            databp_trace::write_text(&trace, &mut out).expect("encode");
            print!("{}", String::from_utf8(out).expect("text form is UTF-8"));
            ExitCode::SUCCESS
        }
        Some("convert") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: repro trace convert <in> <out>");
                return ExitCode::FAILURE;
            };
            let (trace, meta) = match decode_trace_file(input) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("trace convert: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let buf = encode_trace_as(&trace, &meta, output);
            std::fs::write(output, &buf).expect("write trace file");
            println!(
                "{input}: {} events -> {output} ({} bytes)",
                trace.len(),
                buf.len()
            );
            ExitCode::SUCCESS
        }
        Some(name) => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: repro trace <workload> <file>");
                return ExitCode::FAILURE;
            };
            let Some(w) = Workload::by_name(name) else {
                eprintln!("unknown workload '{name}'");
                return ExitCode::FAILURE;
            };
            let w = opts.scaled(w);
            let p = databp_workloads::prepare(&w).expect("workload runs");
            let buf = encode_trace_as(&p.trace, &[], path);
            std::fs::write(path, &buf).expect("write trace file");
            let st = p.trace.stats();
            println!(
                "{}: {} events ({} writes, {} installs) -> {} ({} bytes)",
                name,
                p.trace.len(),
                st.writes,
                st.installs,
                path,
                buf.len()
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("usage: repro trace <workload> <file> | trace dump <file> | trace convert <in> <out>");
            ExitCode::FAILURE
        }
    }
}

/// The `serve` subcommand: the replay service on stdin/stdout. One
/// request per line in, one response per line out, in input order;
/// EOF drains the queue and exits cleanly.
fn serve_stdio(opts: &Opts) -> ExitCode {
    let cfg = opts.server();
    eprintln!(
        "replay service ready: {} workers, queue depth {}, {}MiB trace cache{} \
         (one JSON request per line on stdin; Ctrl-D to finish)",
        cfg.workers,
        cfg.queue_depth,
        cfg.cache_bytes >> 20,
        match &cfg.store {
            Some(dir) => format!(", trace store at {}", dir.display()),
            None => String::new(),
        }
    );
    let server = Server::start(cfg);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    match databp_server::serve(&server, stdin.lock(), &mut stdout) {
        Ok(handled) => {
            let stats = server.stats();
            eprintln!(
                "served {handled} request(s): {} hits, {} misses, {} rewalks, {} rejected",
                stats.cache_hits, stats.cache_misses, stats.cache_rewalks, stats.rejected
            );
            server.shutdown();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `client` subcommand: an in-process batch-API client. Builds one
/// query per listed workload name (at the invocation's scale and
/// ladder), pipes the request lines through a fresh service, and
/// prints each request/response pair plus a trailing stats probe —
/// the same bytes a networked client would see.
fn client(args: &[String], opts: &Opts) -> ExitCode {
    let names: Vec<String> = if args.iter().any(|a| a == "--demo") {
        // Canned mix: duplicates hit the cache, the spread exercises
        // every strategy column.
        ["cc", "tex", "cc", "tex", "cc"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else if args.is_empty() {
        eprintln!("usage: repro client <workload>... | repro client --demo");
        return ExitCode::FAILURE;
    } else {
        args.to_vec()
    };
    let mut lines = String::new();
    for (i, name) in names.iter().enumerate() {
        let req = Request {
            id: format!("q{}", i + 1),
            workload: name.clone(),
            scale: opts.scale,
            strategies: Vec::new(),
            page_sizes: opts.ladder.clone(),
            overheads: false,
            query: None,
        };
        lines.push_str(&req.to_json_line());
        lines.push('\n');
    }
    lines.push_str("{\"stats\":true}\n");

    let server = Server::start(opts.server());
    let mut out = Vec::new();
    if let Err(e) = databp_server::serve(&server, std::io::Cursor::new(lines.as_bytes()), &mut out)
    {
        eprintln!("client: I/O error: {e}");
        return ExitCode::FAILURE;
    }
    server.shutdown();
    let responses = String::from_utf8(out).expect("responses are UTF-8");
    for (req_line, resp_line) in lines.lines().zip(responses.lines()) {
        println!("> {req_line}");
        println!("< {resp_line}");
    }
    ExitCode::SUCCESS
}

/// The `query` subcommand: parses the query once, then for each
/// workload runs phase 1 and feeds the trace through the online
/// [`QueryEngine`](databp_sim::QueryEngine) — no monitor replay, no
/// overhead models. When the query carries a predicate, a predicated
/// CodePatch pass (monitoring everything) follows so the inline-check
/// predicate counters are exercised end to end; they print as
/// `key=value` pairs for scripts and the CI smoke step to grep.
fn query_cmd(args: &[String], opts: &Opts) -> ExitCode {
    let Some(qsrc) = args.first() else {
        eprintln!(
            "usage: repro query '<agg> [if <predicate>]' [workload...]\n\
             aggs: count, first, last, hist, watch; default workloads: the bench corpus"
        );
        return ExitCode::FAILURE;
    };
    let parsed = match databp_sim::Query::parse(qsrc) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("bad query: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut workloads = Vec::new();
    if args.len() > 1 {
        for name in &args[1..] {
            let Some(w) = Workload::by_name(name) else {
                let known: Vec<&str> = Workload::all()
                    .iter()
                    .chain(Workload::bench().iter())
                    .map(|w| w.name)
                    .collect();
                eprintln!("unknown workload '{name}'; available: {}", known.join(", "));
                return ExitCode::FAILURE;
            };
            workloads.push(w);
        }
    } else {
        workloads.extend(Workload::bench());
    }
    for w in workloads {
        let w = opts.scaled(w);
        let name = w.name;
        let prepared = match databp_workloads::prepare(&w) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("workload '{name}' failed to run: {e}");
                return ExitCode::FAILURE;
            }
        };
        let debug = &prepared.plain.debug;
        let writers = databp_core::WriterMap::from_debug(debug);
        let (result, stats) = match databp_sim::scan_query(
            prepared.columnar_bytes(),
            qsrc,
            |n| debug.func_id(n),
            &writers,
            opts.jobs.max(1),
        ) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("query failed on '{name}': {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("query[{name}] {result} (writes={})", stats.writes);
        println!(
            "query[{name}] query.blocks_scanned={} query.blocks_skipped={}",
            stats.blocks_scanned, stats.blocks_skipped
        );
        let Some(psrc) = parsed.predicate_src() else {
            continue;
        };
        let build = prepared.codepatch();
        let pred = match databp_core::Predicate::parse(psrc)
            .expect("predicate re-parses")
            .compile(|n| build.debug.func_id(n))
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("query predicate does not resolve in '{name}': {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut m = databp_machine::Machine::new();
        m.load(&build.program);
        m.set_args(w.args.clone());
        let rep = databp_core::CodePatch::default()
            .with_predicate(pred)
            .run(
                &mut m,
                &build.debug,
                &databp_core::MonitorEverything,
                w.max_steps * 2,
            )
            .expect("CodePatch run failed");
        println!(
            "query[{name}] cp.pred_filtered={} cp.pred_fired={} cp.pred_dead_skips={} notifications={}",
            rep.pred_filtered + rep.pred_dead_skips,
            rep.pred_fired,
            rep.pred_dead_skips,
            rep.notification_count
        );
    }
    ExitCode::SUCCESS
}

/// The `perf` subcommand: a fully instrumented small-scale pass over
/// every experiment. The registry is reset first, so counters reflect
/// exactly this run (and are deterministic run to run); spans and the
/// derived rates carry the host's wall-clock timings.
///
/// Each table is timed on two clocks: host wall time and *simulated
/// cycles*, the delta of the machine's retired-instruction counter.
/// Tables that only do arithmetic over the collected results burn zero
/// simulated cycles; the ones that execute CodePatch (loopopt,
/// staticopt, dyncp) show exactly how much virtual work they re-run.
/// The deltas land in `perf.vcycles.*` counters before the snapshot is
/// taken, so the trajectory diff tracks them like any other counter.
///
/// After the tables, a *service-mix* phase drives an in-process replay
/// service with a duplicate-heavy batch so the `server.*` counters
/// appear in the snapshot and the batch rate lands as the
/// `server.batch_throughput` derived metric (gated by `perfgate`).
fn perf(opts: &Opts) -> ExitCode {
    eprintln!("running scaled-down workloads under telemetry...");
    let vclock = || {
        databp_telemetry::global()
            .counter("machine.instructions.retired")
            .get()
    };
    let mut vrows: Vec<(&'static str, f64, u64)> = Vec::new();
    // Evaluates one table expression under both clocks and records the
    // simulated-cycle delta as a `perf.vcycles.<slug>` counter.
    macro_rules! timed {
        ($slug:literal, $table:expr) => {{
            let t0 = std::time::Instant::now();
            let v0 = vclock();
            let table = $table;
            let dv = vclock() - v0;
            databp_telemetry::global()
                .counter(concat!("perf.vcycles.", $slug))
                .add_always(dv);
            vrows.push(($slug, t0.elapsed().as_secs_f64(), dv));
            ($slug, table)
        }};
    }

    let wall = std::time::Instant::now();
    let v_start = vclock();
    // perf takes the default streaming pipeline (its `pipeline.*`
    // counters and spans are what the snapshot tracks) with the teed
    // trace, because loopopt/staticopt/dyncp below re-execute against it.
    let results = analyze_all_opts(
        Scale::Small,
        opts.jobs,
        &AnalyzeOpts {
            ladder: opts.ladder.clone(),
            // Wider batches amortize the replay engine's cache refill
            // per feed; ~1 MiB of buffering is still far below a
            // materialized trace.
            batch_events: 64 * 1024,
            ..AnalyzeOpts::default()
        },
    );
    let dv = vclock() - v_start;
    databp_telemetry::global()
        .counter("perf.vcycles.workloads")
        .add_always(dv);
    vrows.push(("workloads", wall.elapsed().as_secs_f64(), dv));

    // Exercise every harness path so each `harness.*` span is recorded;
    // the tables themselves go to the CSV dir if requested, not stdout.
    let tables = [
        timed!("table1", tables::table1(&results)),
        timed!("table2", tables::table2()),
        timed!("table3", tables::table3(&results)),
        timed!("table4", tables::table4(&results)),
        timed!("fig7", figure(&results, Figure::Max)),
        timed!("fig8", figure(&results, Figure::P90)),
        timed!("fig9", figure(&results, Figure::TMean)),
        timed!("breakdown", breakdown::breakdown_table(&results)),
        timed!("expansion", expansion::expansion_table(&results)),
        timed!("nhcoverage", nhcoverage::coverage_table(&results)),
        timed!("loopopt", loopopt::loopopt_table(&results, 3)),
        timed!("staticopt", staticopt::staticopt_report(&results)),
        // The bench kernels join the staticopt phase: their
        // pointer-heavy loops are where SSA hoisting pays, and their
        // cp.stores_* counters pool with the paper workloads' to form
        // the gated cp.elision_rate metric.
        timed!("staticopt-bench", {
            let bench: Vec<WorkloadResults> = Workload::bench()
                .into_iter()
                .map(|w| analyze_opts(&w.scaled_down(), &AnalyzeOpts::default()))
                .collect();
            staticopt::staticopt_report(&bench)
        }),
        timed!("dyncp", dyncp::dyncp_table(&results)),
    ];
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (slug, table) in &tables {
            std::fs::write(dir.join(format!("{slug}.csv")), table.render_csv()).expect("write csv");
        }
    }

    // Service-mix phase: the same duplicate-heavy batch the CI smoke
    // step sends, driven through a fresh in-process service. Two
    // distinct workloads trace (cache misses), the duplicates hit, and
    // one widened ladder forces a rewalk — so every `server.cache.*`
    // counter is exercised and lands in the snapshot below.
    let batch_secs = {
        let t0 = std::time::Instant::now();
        let v0 = vclock();
        let server = Server::start(ServerConfig {
            workers: opts.jobs.clamp(1, 4),
            ..ServerConfig::default()
        });
        let mut batch = vec![
            Request::simple("mix1", "cc", Scale::Small),
            Request::simple("mix2", "tex", Scale::Small),
            Request::simple("mix3", "cc", Scale::Small),
            Request::simple("mix4", "tex", Scale::Small),
            Request::simple("mix5", "cc", Scale::Small),
        ];
        batch[4].page_sizes = vec![PageSize::K16]; // rewalk, not re-trace
        let n = batch.len();
        let responses = server.submit_batch(batch);
        let failed = responses.iter().filter(|r| !r.ok).count();
        if failed > 0 {
            eprintln!("perf: {failed}/{n} service-mix requests failed");
        }
        server.shutdown();
        let secs = t0.elapsed().as_secs_f64();
        vrows.push(("server-mix", secs, vclock() - v0));
        secs
    };

    // Bench-corpus replay phase: trace the four benchmark workloads,
    // round-trip each trace through a TraceStore (so the
    // `trace.store.*` counters land in the snapshot), and replay the
    // *loaded* trace at a three-size ladder. The `sim.replay` span this
    // accumulates — together with the Table 1 replays above — is the
    // lane-packed engine's gated latency metric.
    {
        let t0 = std::time::Instant::now();
        let v0 = vclock();
        let dir = std::env::temp_dir().join(format!("databp-perf-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = databp_trace::TraceStore::open(&dir).expect("open perf trace store");
        for w in Workload::bench() {
            let w = w.scaled_down();
            let p = databp_workloads::prepare(&w).expect("workload runs");
            let key = p.workload.workload_hash();
            store.save(key, &p.trace, &[]).expect("save bench trace");
            let (trace, _meta) = store
                .load(key)
                .expect("load bench trace")
                .expect("entry exists");
            assert_eq!(trace.len(), p.trace.len(), "store round-trip lost events");
            let _ = databp_harness::reanalyze(&p, &[PageSize::K4, PageSize::K8, PageSize::K16]);
        }
        let _ = std::fs::remove_dir_all(&dir);
        vrows.push(("bench-replay", t0.elapsed().as_secs_f64(), vclock() - v0));
    }

    // Predicate phase: one online trace query plus a predicated
    // CodePatch pass over a bench kernel, so the inline-check predicate
    // counters (`cp.pred_filtered`, `cp.pred_fired`) land in the
    // snapshot and the trajectory diff tracks them.
    {
        let t0 = std::time::Instant::now();
        let v0 = vclock();
        let w = Workload::by_name("fib")
            .expect("bench workload exists")
            .scaled_down();
        let p = databp_workloads::prepare(&w).expect("workload runs");
        let debug = &p.plain.debug;
        let writers = databp_core::WriterMap::from_debug(debug);
        databp_sim::run_query(
            "count if value > 5",
            p.trace.events(),
            |n| debug.func_id(n),
            writers,
        )
        .expect("perf query runs");
        let build = p.codepatch();
        let pred = databp_core::Predicate::parse("value > 5")
            .expect("perf predicate parses")
            .compile(|n| build.debug.func_id(n))
            .expect("perf predicate compiles");
        let mut m = databp_machine::Machine::new();
        m.load(&build.program);
        m.set_args(w.args.clone());
        databp_core::CodePatch::default()
            .with_predicate(pred)
            .run(
                &mut m,
                &build.debug,
                &databp_core::MonitorEverything,
                w.max_steps * 2,
            )
            .expect("predicated CodePatch run");
        vrows.push(("predicates", t0.elapsed().as_secs_f64(), vclock() - v0));
    }

    // Query phase: the same query mix over the bench corpus' cached
    // columnar traces, answered twice from the encoded bytes — once by
    // full decode + the event-at-a-time engine (what the server's query
    // path did before pushdown), once by the zone-mapped pushdown scan
    // — so the snapshot carries both `query.ns_per_event` (pushdown,
    // gated) and `query.fullscan_ns_per_event` (baseline), plus the
    // `query.blocks_scanned` / `query.blocks_skipped` counters the CI
    // smoke step pins nonzero.
    let query_rates = {
        let t0 = std::time::Instant::now();
        let v0 = vclock();
        const QUERIES: &[&str] = &[
            "count",
            "count if value > 100000000",
            "count if value > 1000",
            "first if value > 100000000",
            "hist if old < 16",
        ];
        const REPS: u32 = 5;
        let corpus: Vec<databp_workloads::Prepared> = Workload::bench()
            .into_iter()
            .map(|w| databp_workloads::prepare(&w.scaled_down()).expect("workload runs"))
            .collect();
        let mut full_ns = 0u64;
        let mut push_ns = 0u64;
        let mut events = 0u64;
        for p in &corpus {
            let debug = &p.plain.debug;
            let writers = databp_core::WriterMap::from_debug(debug);
            let bytes = p.columnar_bytes().clone();
            for q in QUERIES {
                for _ in 0..REPS {
                    let t = std::time::Instant::now();
                    let (decoded, _) =
                        databp_trace::read_columnar(&bytes).expect("perf trace decodes");
                    let full = databp_sim::run_query(
                        q,
                        decoded.events(),
                        |n| debug.func_id(n),
                        writers.clone(),
                    )
                    .expect("perf query runs");
                    full_ns += t.elapsed().as_nanos() as u64;
                    let t = std::time::Instant::now();
                    let (pushed, _) =
                        databp_sim::scan_query(&bytes, q, |n| debug.func_id(n), &writers, 1)
                            .expect("perf pushdown query runs");
                    push_ns += t.elapsed().as_nanos() as u64;
                    assert_eq!(
                        pushed, full,
                        "pushdown diverged on `{q}` over {}",
                        p.workload.name
                    );
                    events += p.trace.len() as u64;
                }
            }
        }
        vrows.push(("queries", t0.elapsed().as_secs_f64(), vclock() - v0));
        (events, full_ns, push_ns)
    };
    let wall_secs = wall.elapsed().as_secs_f64();
    eprintln!("workloads done in {wall_secs:.2}s.\n");

    let mut vt = TextTable::new(
        "per-phase wall-clock and simulated cycles (retired instructions)",
        &["phase", "wall", "simulated cycles"],
    );
    for (slug, secs, dv) in &vrows {
        vt.row(vec![
            slug.to_string(),
            format!("{:.1}ms", secs * 1e3),
            dv.to_string(),
        ]);
    }

    let mut snap = databp_telemetry::global().snapshot();
    let instructions = snap.counter("machine.instructions.retired").unwrap_or(0);
    let events = snap.counter("sim.events.replayed").unwrap_or(0);
    let replay_secs = snap
        .span("sim.replay")
        .map_or(0.0, |s| s.total_ns as f64 / 1e9);
    snap.push_derived("wall_seconds", wall_secs);
    if replay_secs > 0.0 {
        snap.push_derived("events_per_sec", events as f64 / replay_secs);
    }
    if wall_secs > 0.0 {
        snap.push_derived("instructions_per_sec", instructions as f64 / wall_secs);
    }
    if batch_secs > 0.0 {
        snap.push_derived("server.batch_throughput", 5.0 / batch_secs);
    }
    // Static-elision effectiveness over the staticopt phases (paper +
    // bench corpus): the fraction of traced stores — each counted once,
    // in the plain-CP baseline run — whose check the optimized variant
    // either statically elided or skipped behind a dominating preheader
    // guard. Matches the staticopt TOTAL row's rate column. Gated by
    // `perfgate` — the analysis must not silently lose precision.
    let traced = snap.counter("staticopt.stores_base").unwrap_or(0);
    let elided = snap.counter("staticopt.stores_elided").unwrap_or(0);
    let hoisted = snap.counter("staticopt.stores_hoisted").unwrap_or(0);
    if traced > 0 {
        snap.push_derived("cp.elision_rate", (elided + hoisted) as f64 / traced as f64);
    }
    // Query-pushdown latency over the bench corpus (lower is better,
    // gated) against its own full-scan baseline; the speedup ratio is
    // the acceptance headline.
    let (q_events, q_full_ns, q_push_ns) = query_rates;
    if q_events > 0 {
        snap.push_derived("query.ns_per_event", q_push_ns as f64 / q_events as f64);
        snap.push_derived(
            "query.fullscan_ns_per_event",
            q_full_ns as f64 / q_events as f64,
        );
        if q_push_ns > 0 {
            snap.push_derived("query.speedup", q_full_ns as f64 / q_push_ns as f64);
        }
    }

    let fmt = opts.telemetry.unwrap_or(TelemetryFormat::Text);
    // The dual-clock table is commentary; keep stdout machine-readable
    // when a structured snapshot format was requested.
    if matches!(fmt, TelemetryFormat::Text) {
        println!("{}", vt.render());
    } else {
        eprintln!("{}", vt.render());
    }
    print!("{}", fmt.render(&snap));

    // Tracked regression baseline: the previous snapshot (if any) moves
    // to results/perf.prev.json and a counter/span diff is printed, so
    // each run shows its trajectory against the last one.
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("perf: cannot create results dir: {e}");
        return ExitCode::FAILURE;
    }
    match load_snapshot("results/perf.json") {
        Ok(Some((baseline, text))) => {
            if let Err(e) = std::fs::write("results/perf.prev.json", text) {
                eprintln!("perf: cannot write results/perf.prev.json: {e}");
                return ExitCode::FAILURE;
            }
            let diff = perf_diff(&baseline, &snap).render();
            // With a machine-readable snapshot format on stdout, the diff
            // table is progress commentary and belongs on stderr.
            if matches!(fmt, TelemetryFormat::Text) {
                println!("{diff}");
            } else {
                eprintln!("{diff}");
            }
        }
        Ok(None) => {
            // First run: nothing to diff against is a clean start, not
            // an error.
            eprintln!(
                "(no previous results/perf.json — baseline created; run `repro perf` again \
                 for a trajectory diff)"
            );
        }
        Err(e) => eprintln!("(ignoring previous results/perf.json: {e})"),
    }
    if let Err(e) = std::fs::write("results/perf.json", snap.to_json()) {
        eprintln!("perf: cannot write results/perf.json: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("(snapshot written to results/perf.json; baseline kept in results/perf.prev.json)");
    ExitCode::SUCCESS
}

/// The `ladder` subcommand's table: per-workload, per-page-size sums of
/// the size-dependent counting variables. Hits and misses are
/// page-size-independent (one column each); the VM columns show how the
/// ladder trades protection traffic against active-page misses as pages
/// coarsen — all sizes measured in the same single trace walk.
fn ladder_table(results: &[WorkloadResults]) -> TextTable {
    let mut t = TextTable::new(
        "page-size ladder sweep (sums over surviving sessions; one trace walk per workload)",
        &[
            "workload",
            "page size",
            "sessions",
            "hits",
            "misses",
            "vm protects",
            "vm unprotects",
            "active-page misses",
        ],
    );
    for r in results {
        for (k, ps) in r.ladder.iter().enumerate() {
            let row = &r.ladder_counts[k];
            let sum = |f: fn(&databp_models::Counts) -> u64| -> u64 { row.iter().map(f).sum() };
            t.row(vec![
                r.prepared.workload.name.to_string(),
                ps.to_string(),
                row.len().to_string(),
                sum(|c| c.hit).to_string(),
                sum(|c| c.miss).to_string(),
                sum(|c| c.vm_protect).to_string(),
                sum(|c| c.vm_unprotect).to_string(),
                sum(|c| c.vm_active_page_miss).to_string(),
            ]);
        }
    }
    t
}

/// Loads a telemetry snapshot from `path`. `Ok(None)` means the file
/// does not exist (a fresh checkout — callers treat it as "no
/// baseline"); `Err` means it exists but cannot be read or parsed
/// (corrupt or truncated — reported cleanly, never a panic). The raw
/// text rides along for callers that rotate the file.
fn load_snapshot(path: &str) -> Result<Option<(Snapshot, String)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    match Snapshot::from_json(&text) {
        Ok(s) => Ok(Some((s, text))),
        Err(e) => Err(format!("unparsable {path}: {e}")),
    }
}

/// Where a gated metric's value comes from in a snapshot.
#[derive(Clone, Copy)]
enum Source {
    /// The named span's `total_ns`.
    Span,
    /// The named derived value.
    Derived,
}

/// How a gated metric's value prints.
#[derive(Clone, Copy)]
enum Unit {
    /// Nanoseconds, printed as milliseconds.
    Ms,
    /// Requests per second.
    ReqPerSec,
    /// A ratio, printed as a percentage.
    Percent,
    /// Nanoseconds.
    Ns,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Ms => format!("{:.3}ms", v / 1e6),
            Unit::ReqPerSec => format!("{v:.2}req/s"),
            Unit::Percent => format!("{:.1}%", v * 100.0),
            Unit::Ns => format!("{v:.2}ns"),
        }
    }
}

/// Which way a gated metric is allowed to move.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// One row of the perf gate table.
struct Gate {
    name: &'static str,
    source: Source,
    unit: Unit,
    better: Better,
}

/// What `repro perfgate` checks, one row per metric.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    // One-shot pipeline latency.
    Gate { name: "harness.analyze", source: Source::Span, unit: Unit::Ms, better: Better::Lower },
    // Lane-packed replay latency: every phase-2 walk of the perf run,
    // the Table 1 streamed replays plus the bench-corpus replay phase.
    Gate { name: "sim.replay", source: Source::Span, unit: Unit::Ms, better: Better::Lower },
    // Service-mix batch throughput.
    Gate {
        name: "server.batch_throughput",
        source: Source::Derived, unit: Unit::ReqPerSec, better: Better::Higher,
    },
    // Static check elision rate: a looser alias analysis or a broken
    // hoist planner silently re-checking stores is a regression even
    // though every run still passes its soundness oracle.
    Gate {
        name: "cp.elision_rate",
        source: Source::Derived, unit: Unit::Percent, better: Better::Higher,
    },
    // Query-pushdown latency over the bench corpus: losing block
    // skipping or lazy column decode shows up here.
    Gate {
        name: "query.ns_per_event",
        source: Source::Derived, unit: Unit::Ns, better: Better::Lower,
    },
];

impl Gate {
    fn value(&self, snap: &Snapshot) -> Option<f64> {
        match self.source {
            Source::Span => snap.span(self.name).map(|s| s.total_ns as f64),
            Source::Derived => snap
                .derived
                .iter()
                .find(|(n, _)| n == self.name)
                .map(|&(_, v)| v),
        }
    }
}

/// One gate's verdict.
struct GateResult {
    gate: &'static Gate,
    /// `prev -> cur (change%)`, or `None` when either snapshot lacks
    /// the metric (or the baseline is zero) and the gate is skipped.
    line: Option<String>,
    failed: bool,
}

/// Checks every row of [`GATES`]: a gate fails when its metric moved
/// in the bad direction by more than `tolerance` percent.
fn evaluate_gates(prev: &Snapshot, cur: &Snapshot, tolerance: f64) -> Vec<GateResult> {
    GATES
        .iter()
        .map(|gate| match (gate.value(prev), gate.value(cur)) {
            (Some(p), Some(c)) if p > 0.0 => {
                let change = (c - p) / p * 100.0;
                let (sign, failed) = match gate.better {
                    Better::Lower => ('+', change > tolerance),
                    Better::Higher => ('-', change < -tolerance),
                };
                let line = format!(
                    "{} {} -> {} ({change:+.1}%), tolerance {sign}{tolerance:.0}%",
                    gate.name,
                    gate.unit.show(p),
                    gate.unit.show(c)
                );
                GateResult {
                    gate,
                    line: Some(line),
                    failed,
                }
            }
            _ => GateResult {
                gate,
                line: None,
                failed: false,
            },
        })
        .collect()
}

/// The `perfgate` subcommand: CI's perf-smoke gate. Compares
/// results/perf.json against results/perf.prev.json through [`GATES`]
/// at a tolerance of `PERF_GATE_TOLERANCE_PCT` percent (default 25). A
/// missing or unparsable snapshot on either side passes — a fresh
/// checkout has no baseline, and that must not break the build.
fn perfgate() -> ExitCode {
    let tolerance: f64 = std::env::var("PERF_GATE_TOLERANCE_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25.0);
    let load = |path: &str| -> Option<Snapshot> {
        match load_snapshot(path) {
            Ok(Some((snap, _))) => Some(snap),
            Ok(None) => {
                eprintln!("perfgate: no {path} — pass (run `repro perf` twice to arm the gate)");
                None
            }
            Err(e) => {
                eprintln!("perfgate: {e} — pass");
                None
            }
        }
    };
    let (Some(cur), Some(prev)) = (load("results/perf.json"), load("results/perf.prev.json"))
    else {
        return ExitCode::SUCCESS;
    };
    let mut failed = false;
    for r in evaluate_gates(&prev, &cur, tolerance) {
        let name = r.gate.name;
        match r.line {
            Some(line) => println!("perfgate: {line}"),
            None => eprintln!("perfgate: no {name} baseline — gate skipped"),
        }
        if r.failed {
            let moved = match r.gate.better {
                Better::Lower => "regressed",
                Better::Higher => "dropped",
            };
            eprintln!("perfgate: FAIL — {name} {moved} beyond the tolerance");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("perfgate: ok");
    ExitCode::SUCCESS
}

/// Counter and span trajectory between two `repro perf` snapshots.
///
/// Counters are compared by value; spans by total wall time (count
/// alongside). Rows appear for every name in either snapshot, in the
/// snapshots' own (sorted) order, so the table is deterministic.
fn perf_diff(prev: &Snapshot, cur: &Snapshot) -> TextTable {
    let mut t = TextTable::new(
        "perf trajectory vs previous results/perf.json",
        &["metric", "previous", "current", "change"],
    );
    let pct = |old: f64, new: f64| -> String {
        if old == 0.0 {
            if new == 0.0 {
                "=".to_string()
            } else {
                "new".to_string()
            }
        } else {
            format!("{:+.1}%", (new - old) / old * 100.0)
        }
    };
    let mut counter_names: Vec<&str> = prev
        .counters
        .iter()
        .chain(&cur.counters)
        .map(|(n, _)| n.as_str())
        .collect();
    counter_names.sort_unstable();
    counter_names.dedup();
    for name in counter_names {
        let old = prev.counter(name).unwrap_or(0);
        let new = cur.counter(name).unwrap_or(0);
        t.row(vec![
            format!("counter {name}"),
            old.to_string(),
            new.to_string(),
            pct(old as f64, new as f64),
        ]);
    }
    let mut span_names: Vec<&str> = prev
        .spans
        .iter()
        .chain(&cur.spans)
        .map(|s| s.name.as_str())
        .collect();
    span_names.sort_unstable();
    span_names.dedup();
    for name in span_names {
        let (old_ms, old_n) = prev
            .span(name)
            .map_or((0.0, 0), |s| (s.total_ns as f64 / 1e6, s.count));
        let (new_ms, new_n) = cur
            .span(name)
            .map_or((0.0, 0), |s| (s.total_ns as f64 / 1e6, s.count));
        t.row(vec![
            format!("span {name}"),
            format!("{old_ms:.3}ms /{old_n}"),
            format!("{new_ms:.3}ms /{new_n}"),
            pct(old_ms, new_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use databp_telemetry::SpanSnapshot;

    #[test]
    fn every_command_reaches_a_handler() {
        let text = usage();
        for c in COMMANDS {
            // `main` dispatches through `command`, and every row carries
            // its handler, so resolving the name is reaching a handler.
            let found = command(c.name).expect("listed command resolves");
            assert_eq!(found.name, c.name);
            let head = format!("  {} {}", c.name, c.synopsis);
            assert!(text.contains(head.trim_end()), "usage lacks {head:?}");
        }
        for (flag, _) in OPTIONS {
            assert!(text.contains(flag), "usage lacks {flag}");
        }
        assert!(command("bogus").is_none());
        assert!(text.lines().all(|l| l.chars().count() <= 80), "{text}");
    }

    /// The five gates restated independently of [`GATES`]: name,
    /// whether the metric is a span (else a derived value), and whether
    /// lower is better.
    const EXPECTED_GATES: &[(&str, bool, bool)] = &[
        ("harness.analyze", true, true),
        ("sim.replay", true, true),
        ("server.batch_throughput", false, false),
        ("cp.elision_rate", false, false),
        ("query.ns_per_event", false, true),
    ];

    fn snapshot_with(name: &str, is_span: bool, value: f64) -> Snapshot {
        let mut snap = Snapshot::default();
        if is_span {
            snap.spans.push(SpanSnapshot {
                name: name.to_string(),
                count: 1,
                total_ns: value as u64,
            });
        } else {
            snap.derived.push((name.to_string(), value));
        }
        snap
    }

    /// Evaluates the gates on a pair where only `name` is present and
    /// returns its result: `(line printed, failed)`.
    fn gate(name: &str, is_span: bool, prev: f64, cur: f64) -> (bool, bool) {
        let prev = snapshot_with(name, is_span, prev);
        let cur = snapshot_with(name, is_span, cur);
        let results = evaluate_gates(&prev, &cur, 25.0);
        assert_eq!(results.len(), GATES.len());
        let mut mine = None;
        for r in results {
            if r.gate.name == name {
                mine = Some((r.line.is_some(), r.failed));
            } else {
                assert!(r.line.is_none() && !r.failed, "{} not skipped", r.gate.name);
            }
        }
        mine.expect("gate is in the table")
    }

    #[test]
    fn gate_table_holds_the_five_gates() {
        let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        let expected: Vec<&str> = EXPECTED_GATES.iter().map(|g| g.0).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn gates_fail_beyond_the_tolerance_in_their_bad_direction() {
        for &(name, is_span, lower_better) in EXPECTED_GATES {
            let worse = if lower_better { 1.3 } else { 0.7 };
            assert_eq!(
                gate(name, is_span, 1e6, 1e6 * worse),
                (true, true),
                "{name}"
            );
        }
    }

    #[test]
    fn gates_pass_within_the_tolerance_and_in_their_good_direction() {
        for &(name, is_span, lower_better) in EXPECTED_GATES {
            let (within, better) = if lower_better { (1.2, 0.5) } else { (0.8, 1.5) };
            assert_eq!(
                gate(name, is_span, 1e6, 1e6 * within),
                (true, false),
                "{name}"
            );
            assert_eq!(
                gate(name, is_span, 1e6, 1e6 * better),
                (true, false),
                "{name}"
            );
        }
    }

    #[test]
    fn gates_skip_a_missing_metric() {
        for &(name, is_span, _) in EXPECTED_GATES {
            let present = snapshot_with(name, is_span, 1e6);
            let empty = Snapshot::default();
            for (prev, cur) in [(&present, &empty), (&empty, &present)] {
                let r = evaluate_gates(prev, cur, 25.0);
                assert!(r.iter().all(|r| r.line.is_none() && !r.failed), "{name}");
            }
        }
    }
}
