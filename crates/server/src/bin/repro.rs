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

    /// Service configuration for `serve`/`client`.
    fn server(&self) -> ServerConfig {
        ServerConfig {
            workers: self.jobs.clamp(1, 8),
            store: self.store.clone(),
            ..ServerConfig::default()
        }
    }
}

/// Prints `table` and, under `--csv`, writes it to `<slug>.csv` in the
/// CSV directory (which `main` has already created).
fn emit(opts: &Opts, slug: &str, table: &TextTable) -> Result<(), String> {
    println!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.render_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("(csv written to {})\n", path.display());
    }
    Ok(())
}

/// A command's exit code: success, or failure after printing the error.
fn report(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
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

    // Create the CSV directory before any workload runs, so a path that
    // cannot hold one fails fast.
    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--csv: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if opts.telemetry.is_some() {
        databp_telemetry::set_enabled(true);
        databp_telemetry::global().reset();
    }

    let code = run(cmd, &args, &opts);

    // `--telemetry` appends a dump of everything the command recorded.
    if let Some(fmt) = opts.telemetry {
        print!("{}", fmt.render(&databp_telemetry::global().snapshot()));
    }
    code
}

/// Runs `cmd`; `args` starts with the command name.
fn run(cmd: &Command, args: &[String], opts: &Opts) -> ExitCode {
    match cmd.handler {
        Direct(handler) => handler(&args[1..], opts),
        Results(handler) => handler(&analyze_paper(opts), opts),
        Table(table) => emit_ok(opts, cmd.name, &table(&analyze_paper(opts))),
        Chart(fig) => report(emit_figure(&analyze_paper(opts), opts, fig, cmd.name)),
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
    report(emit(opts, slug, table))
}

/// Prints a figure's ASCII chart, then emits its value table.
fn emit_figure(
    results: &[WorkloadResults],
    opts: &Opts,
    fig: Figure,
    slug: &str,
) -> Result<(), String> {
    println!("{}", figure_ascii(results, fig, 48));
    emit(opts, slug, &figure(results, fig))
}

/// The `table2` command: no workload runs needed.
fn table2(_args: &[String], opts: &Opts) -> ExitCode {
    emit_ok(opts, "table2", &tables::table2())
}

/// The `all` command: every experiment, in paper order.
fn all(results: &[WorkloadResults], opts: &Opts) -> ExitCode {
    let emit_all = || -> Result<(), String> {
        emit(opts, "table1", &tables::table1(results))?;
        emit(opts, "table2", &tables::table2())?;
        emit(opts, "table3", &tables::table3(results))?;
        emit(opts, "table4", &tables::table4(results))?;
        emit_figure(results, opts, Figure::Max, "fig7")?;
        emit_figure(results, opts, Figure::P90, "fig8")?;
        emit_figure(results, opts, Figure::TMean, "fig9")?;
        emit(opts, "breakdown", &breakdown::breakdown_table(results))?;
        emit(opts, "expansion", &expansion::expansion_table(results))?;
        emit(opts, "nhcoverage", &nhcoverage::coverage_table(results))?;
        emit(opts, "loopopt", &loopopt::loopopt_table(results, 3))?;
        emit(opts, "staticopt", &staticopt::staticopt_report(results))?;
        emit(opts, "dyncp", &dyncp::dyncp_table(results))
    };
    report(emit_all())
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
        "{path}: DBPT, {} events, {} blocks, {} dict entries, {} meta bytes",
        reader.n_events(),
        reader.blocks().len(),
        reader.dict().len(),
        reader.meta().len(),
    );
    if !reader.meta().is_empty() {
        println!("meta: {}", String::from_utf8_lossy(reader.meta()));
    }
    for (i, (block, z)) in reader.blocks().iter().zip(reader.zones()).enumerate() {
        let cols = block
            .column_sizes()
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(name, n)| format!("{name}={n}B"))
            .collect::<Vec<_>>()
            .join(" ");
        print!(
            "block[{i}] events={} {cols} | writes={} installs={} removes={} enters={} exits={}",
            block.events(),
            z.writes,
            z.installs,
            z.removes,
            z.enters,
            z.exits
        );
        if let Some((lo, hi)) = z.write_pc_range() {
            print!(" pc=[{lo:#x},{hi:#x}]");
        }
        if let Some((lo, hi)) = z.write_value_range() {
            print!(" value=[{lo},{hi}]");
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
            if let Err(e) = std::fs::write(output, &buf) {
                eprintln!("trace convert: cannot write {output}: {e}");
                return ExitCode::FAILURE;
            }
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
            if let Err(e) = std::fs::write(path, &buf) {
                eprintln!("trace: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
