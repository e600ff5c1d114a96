//! The debugger engine.

use crate::command::{parse_command, Command, WatchTarget};
use crate::watches::{Condition, Watch, WatchId, WatchKind};
use databp_core::{Monitor, MonitorId, PageMap, PredEval, Predicate, WriterMap};
use databp_machine::{disasm, Machine, MachineError, MarkKind, NoHooks, StopConfig, StopReason};
use databp_tinyc::{compile, CompileError, Compiled, Options};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Where the debuggee currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// `run` not issued yet.
    NotStarted,
    /// Paused at a breakpoint (data or control).
    Paused,
    /// Program finished with the given exit code.
    Exited(i32),
}

/// Debugger failures.
#[derive(Debug)]
pub enum DebuggerError {
    /// The debuggee failed to compile.
    Compile(CompileError),
    /// The debuggee faulted.
    Machine(MachineError),
    /// A bad command or bad debugger state; the message says why.
    Command(String),
}

impl fmt::Display for DebuggerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebuggerError::Compile(e) => write!(f, "compile error: {e}"),
            DebuggerError::Machine(e) => write!(f, "machine error: {e}"),
            DebuggerError::Command(m) => f.write_str(m),
        }
    }
}

impl Error for DebuggerError {}

impl From<MachineError> for DebuggerError {
    fn from(e: MachineError) -> Self {
        DebuggerError::Machine(e)
    }
}

/// Instruction budget per `run`/`continue` (a runaway-debuggee guard).
const RUN_BUDGET: u64 = 2_000_000_000;

/// A scriptable debugger over a CodePatch-instrumented `tinyc` program.
pub struct Debugger {
    machine: Machine,
    compiled: Compiled,
    map: PageMap,
    mon_watch: HashMap<MonitorId, WatchId>,
    watches: BTreeMap<u32, Watch>,
    next_watch: u32,
    next_monitor: u64,
    /// Control breakpoints: break number -> function id.
    breaks: BTreeMap<u32, u16>,
    next_break: u32,
    stack: Vec<(u16, u32)>,
    frame_monitors: Vec<Vec<(MonitorId, Monitor)>>,
    heap_live: HashMap<u32, (u32, u32)>,
    heap_monitors: HashMap<u32, (MonitorId, Monitor)>,
    /// pc → function id, for `writer in f` watch predicates.
    writers: WriterMap,
    state: RunState,
}

impl Debugger {
    /// Compiles `source` with CodePatch instrumentation and prepares a
    /// machine (program not started yet).
    ///
    /// # Errors
    ///
    /// [`DebuggerError::Compile`] on a bad program.
    pub fn launch(source: &str, args: &[i32]) -> Result<Debugger, DebuggerError> {
        let compiled = compile(source, &Options::codepatch()).map_err(DebuggerError::Compile)?;
        let mut machine = Machine::new();
        machine.load(&compiled.program);
        machine.set_args(args.to_vec());
        machine.set_stop_config(StopConfig {
            marks: true,
            heap: true,
            chk: true,
        });
        let writers = WriterMap::from_debug(&compiled.debug);
        Ok(Debugger {
            machine,
            compiled,
            writers,
            map: PageMap::new(),
            mon_watch: HashMap::new(),
            watches: BTreeMap::new(),
            next_watch: 0,
            next_monitor: 0,
            breaks: BTreeMap::new(),
            next_break: 0,
            stack: Vec::new(),
            frame_monitors: Vec::new(),
            heap_live: HashMap::new(),
            heap_monitors: HashMap::new(),
            state: RunState::NotStarted,
        })
    }

    /// Current run state.
    pub fn state(&self) -> RunState {
        self.state
    }

    /// The debuggee machine (inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Parses and executes one command, returning its output text.
    ///
    /// # Errors
    ///
    /// [`DebuggerError`] for bad commands, bad state, or debuggee faults.
    pub fn execute(&mut self, line: &str) -> Result<String, DebuggerError> {
        // `qei` command-latency instrumentation: one span over the whole
        // parse+dispatch, so a snapshot shows commands served and the
        // wall time spent serving them.
        let _t = databp_telemetry::time!("debugger.dispatch");
        databp_telemetry::count!("debugger.commands");
        let cmd = parse_command(line).map_err(|e| {
            databp_telemetry::count!("debugger.commands.rejected");
            DebuggerError::Command(e)
        })?;
        self.dispatch(cmd)
    }

    fn dispatch(&mut self, cmd: Command) -> Result<String, DebuggerError> {
        match cmd {
            Command::Watch(target, cond) => self.add_watch(target, cond),
            Command::Break(func) => self.add_break(&func),
            Command::Delete(n) => self.delete_watch(n),
            Command::Run => {
                if self.state != RunState::NotStarted {
                    return Err(DebuggerError::Command(
                        "program already started (use 'continue')".into(),
                    ));
                }
                self.resume()
            }
            Command::Continue => {
                if self.state != RunState::Paused {
                    return Err(DebuggerError::Command(match self.state {
                        RunState::NotStarted => "program not started (use 'run')".into(),
                        _ => "program has exited".into(),
                    }));
                }
                self.resume()
            }
            Command::StepI(n) => self.stepi(n),
            Command::Print(name) => self.print_var(&name),
            Command::Backtrace => Ok(self.backtrace()),
            Command::InfoWatch => Ok(self.info_watch()),
            Command::InfoBreak => Ok(self.info_break()),
            Command::Disasm(n) => self.disassemble(n),
            Command::Output => Ok(String::from_utf8_lossy(self.machine.output()).into_owned()),
            Command::Help => Ok(HELP.to_string()),
            Command::Quit => Ok("bye".to_string()),
        }
    }

    // ---- watch management ----

    fn install(&mut self, ba: u32, ea: u32, owner: WatchId) -> MonitorId {
        let id = MonitorId::from_raw(self.next_monitor);
        self.next_monitor += 1;
        self.map.install(
            id,
            Monitor::new(ba, ea).expect("object ranges are non-empty"),
        );
        self.mon_watch.insert(id, owner);
        id
    }

    fn add_watch(&mut self, target: WatchTarget, cond: Condition) -> Result<String, DebuggerError> {
        let debug = &self.compiled.debug;
        let kind = match &target {
            WatchTarget::Global(name) => {
                let g = debug
                    .global(name)
                    .or_else(|| {
                        debug
                            .globals
                            .iter()
                            .find(|g| !g.is_literal && g.name.ends_with(&format!("::{name}")))
                    })
                    .ok_or_else(|| DebuggerError::Command(format!("no global named '{name}'")))?;
                WatchKind::Global {
                    id: g.id,
                    name: g.name.clone(),
                }
            }
            WatchTarget::Local { func, var } => {
                let fid = debug
                    .func_id(func)
                    .ok_or_else(|| DebuggerError::Command(format!("no function '{func}'")))?;
                let local = debug.functions[fid as usize]
                    .locals
                    .iter()
                    .find(|l| l.name == *var)
                    .ok_or_else(|| {
                        DebuggerError::Command(format!("{func}() has no local '{var}'"))
                    })?;
                WatchKind::Local {
                    func: fid,
                    var: local.var,
                    name: format!("{func}.{var}"),
                }
            }
            WatchTarget::Heap(seq) => WatchKind::Heap { seq: *seq },
        };

        // Compile a predicate condition against this program's debug
        // info (function names must resolve) before the watch installs.
        let pred = match &cond {
            Condition::Pred(src) => Some(PredEval::new(
                Predicate::parse(src)
                    .map_err(|e| DebuggerError::Command(format!("bad predicate: {e}")))?
                    .compile(|n| debug.func_id(n))
                    .map_err(|e| DebuggerError::Command(format!("bad predicate: {e}")))?,
            )),
            _ => None,
        };

        let wid = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.insert(
            wid.0,
            Watch {
                kind: kind.clone(),
                cond,
                pred,
                hits: 0,
            },
        );

        // Realize monitors for already-live objects.
        let mut realized = 0usize;
        match kind {
            WatchKind::Global { id, .. } => {
                let g = &self.compiled.debug.globals[id as usize];
                let (ba, ea) = (g.ba, g.ea);
                self.install(ba, ea, wid);
                realized += 1;
            }
            WatchKind::Local { func, var, .. } => {
                let local =
                    self.compiled.debug.functions[func as usize].locals[var as usize].clone();
                for depth in 0..self.stack.len() {
                    let (fid, fp) = self.stack[depth];
                    if fid == func {
                        let ba = fp.wrapping_add(local.offset as u32);
                        let id = self.install(ba, ba + local.size, wid);
                        self.frame_monitors[depth]
                            .push((id, Monitor::new(ba, ba + local.size).expect("non-empty")));
                        realized += 1;
                    }
                }
            }
            WatchKind::Heap { seq } => {
                if let Some(&(ba, ea)) = self.heap_live.get(&seq) {
                    let id = self.install(ba, ea, wid);
                    self.heap_monitors
                        .insert(seq, (id, Monitor::new(ba, ea).expect("non-empty")));
                    realized += 1;
                }
            }
        }
        let w = &self.watches[&wid.0];
        Ok(format!(
            "{wid}: {}{} ({} live monitor{})",
            w.kind,
            w.cond,
            realized,
            if realized == 1 { "" } else { "s" }
        ))
    }

    fn delete_watch(&mut self, n: u32) -> Result<String, DebuggerError> {
        let w = self
            .watches
            .remove(&n)
            .ok_or_else(|| DebuggerError::Command(format!("no watch #{n}")))?;
        // Remove every monitor owned by this watch.
        let owned: Vec<MonitorId> = self
            .mon_watch
            .iter()
            .filter(|(_, wid)| wid.0 == n)
            .map(|(m, _)| *m)
            .collect();
        for id in owned {
            self.mon_watch.remove(&id);
            for frames in &mut self.frame_monitors {
                if let Some(pos) = frames.iter().position(|(m, _)| *m == id) {
                    let (_, mon) = frames.remove(pos);
                    self.map.remove(id, mon);
                }
            }
            if let Some(seq) = self
                .heap_monitors
                .iter()
                .find(|(_, (m, _))| *m == id)
                .map(|(s, _)| *s)
            {
                let (_, mon) = self.heap_monitors.remove(&seq).expect("just found");
                self.map.remove(id, mon);
            }
            if let WatchKind::Global { id: gid, .. } = w.kind {
                let g = &self.compiled.debug.globals[gid as usize];
                let mon = Monitor::new(g.ba, g.ea).expect("non-empty");
                self.map.remove(id, mon);
            }
        }
        Ok(format!("deleted watch #{n} ({})", w.kind))
    }

    fn add_break(&mut self, func: &str) -> Result<String, DebuggerError> {
        let fid = self
            .compiled
            .debug
            .func_id(func)
            .ok_or_else(|| DebuggerError::Command(format!("no function '{func}'")))?;
        let n = self.next_break;
        self.next_break += 1;
        self.breaks.insert(n, fid);
        Ok(format!("breakpoint #{n} at {func}()"))
    }

    // ---- execution ----

    fn resume(&mut self) -> Result<String, DebuggerError> {
        let _t = databp_telemetry::time!("debugger.resume");
        loop {
            let executed = self.machine.cost().instructions;
            if executed >= RUN_BUDGET {
                return Err(DebuggerError::Machine(MachineError::StepLimitExceeded {
                    limit: RUN_BUDGET,
                }));
            }
            let stop = self.machine.run(&mut NoHooks, RUN_BUDGET - executed)?;
            if let Some(msg) = self.handle_stop(stop, true)? {
                return Ok(msg);
            }
        }
    }

    fn stepi(&mut self, n: u64) -> Result<String, DebuggerError> {
        let _t = databp_telemetry::time!("debugger.stepi");
        if matches!(self.state, RunState::Exited(_)) {
            return Err(DebuggerError::Command("program has exited".into()));
        }
        let mut executed = 0u64;
        while executed < n {
            let before = self.machine.cost().instructions;
            if let Some(stop) = self.machine.step(&mut NoHooks)? {
                if let Some(msg) = self.handle_stop(stop, false)? {
                    return Ok(format!("{msg} (after {executed} steps)"));
                }
            }
            executed += self.machine.cost().instructions - before;
            self.state = RunState::Paused;
        }
        let pc = self.machine.cpu().pc();
        let instr = self
            .machine
            .pc_to_index(pc)
            .and_then(|i| self.machine.instr_at(i))
            .map(|i| disasm::format_instr(&i))
            .unwrap_or_else(|_| "<outside code>".into());
        Ok(format!("stopped at pc {pc:#010x}: {instr}"))
    }

    /// Services a stop; `Some(text)` means control returns to the user.
    fn handle_stop(
        &mut self,
        stop: StopReason,
        pausing: bool,
    ) -> Result<Option<String>, DebuggerError> {
        match stop {
            StopReason::Halted => {
                let code = self.machine.exit_code();
                self.state = RunState::Exited(code);
                Ok(Some(format!("program exited with code {code}")))
            }
            StopReason::Chk(ev) => {
                let mut ids = Vec::new();
                self.map.hits(ev.addr, ev.addr + ev.len, &mut ids);
                if ids.is_empty() {
                    return Ok(None);
                }
                // Read the overwritten value first — predicate
                // conditions can reference `old` — then execute the
                // store itself (the next instruction) so the
                // notification happens *after the write succeeds* and
                // conditions can read the new value.
                let old = self.read_value(ev.addr, ev.len)?;
                self.machine.step(&mut NoHooks)?;
                let value = self.read_value(ev.addr, ev.len)?;
                // Predicates see values as the CP check does: unsigned,
                // masked to the store width.
                let mask = if ev.len == 1 { 0xff } else { u32::MAX };
                let (uval, uold) = (value as u32 & mask, old as u32 & mask);
                let writer = self.writers.writer_of(ev.pc);
                let mut pauses = Vec::new();
                let in_func = self.func_at(ev.pc).to_string();
                for id in ids {
                    let Some(&wid) = self.mon_watch.get(&id) else {
                        continue;
                    };
                    let w = self.watches.get_mut(&wid.0).expect("monitor owner exists");
                    w.hits += 1;
                    let fires = match &mut w.pred {
                        Some(p) => p.observe(uval, uold, writer),
                        None => w.cond.holds(value),
                    };
                    if fires {
                        pauses.push(format!(
                            "data breakpoint: {wid} ({}{}) — wrote {} to [{:#010x}, {:#010x}) at pc {:#010x} in {in_func}()",
                            w.kind,
                            w.cond,
                            value,
                            ev.addr,
                            ev.addr + ev.len,
                            ev.pc,
                        ));
                    }
                }
                if pausing && !pauses.is_empty() {
                    self.state = RunState::Paused;
                    return Ok(Some(pauses.join("\n")));
                }
                Ok(None)
            }
            StopReason::Mark {
                kind: MarkKind::Enter,
                fid,
                fp,
                ..
            } => {
                self.stack.push((fid, fp));
                self.frame_monitors.push(Vec::new());
                // Install monitors for local watches on this function.
                let to_install: Vec<(WatchId, i32, u32)> = self
                    .watches
                    .iter()
                    .filter_map(|(n, w)| match w.kind {
                        WatchKind::Local { func, var, .. } if func == fid => {
                            let l =
                                &self.compiled.debug.functions[func as usize].locals[var as usize];
                            Some((WatchId(*n), l.offset, l.size))
                        }
                        _ => None,
                    })
                    .collect();
                for (wid, off, size) in to_install {
                    let ba = fp.wrapping_add(off as u32);
                    let id = self.install(ba, ba + size, wid);
                    self.frame_monitors
                        .last_mut()
                        .expect("frame just pushed")
                        .push((id, Monitor::new(ba, ba + size).expect("non-empty")));
                }
                if pausing {
                    if let Some((n, _)) = self.breaks.iter().find(|(_, f)| **f == fid) {
                        self.state = RunState::Paused;
                        return Ok(Some(format!(
                            "breakpoint #{n}: entered {}()",
                            self.func_name(fid)
                        )));
                    }
                }
                Ok(None)
            }
            StopReason::Mark {
                kind: MarkKind::Exit,
                ..
            } => {
                let frames = self.frame_monitors.pop().unwrap_or_default();
                for (id, mon) in frames {
                    self.map.remove(id, mon);
                    self.mon_watch.remove(&id);
                }
                self.stack.pop();
                Ok(None)
            }
            StopReason::HeapAlloc { seq, ba, ea } => {
                self.heap_live.insert(seq, (ba, ea));
                let wid = self.watches.iter().find_map(|(n, w)| match w.kind {
                    WatchKind::Heap { seq: s } if s == seq => Some(WatchId(*n)),
                    _ => None,
                });
                if let Some(wid) = wid {
                    let id = self.install(ba, ea, wid);
                    self.heap_monitors
                        .insert(seq, (id, Monitor::new(ba, ea).expect("non-empty")));
                }
                Ok(None)
            }
            StopReason::HeapFree { seq, .. } => {
                self.heap_live.remove(&seq);
                if let Some((id, mon)) = self.heap_monitors.remove(&seq) {
                    self.map.remove(id, mon);
                    self.mon_watch.remove(&id);
                }
                Ok(None)
            }
            StopReason::HeapRealloc {
                seq,
                new_ba,
                new_ea,
                ..
            } => {
                self.heap_live.insert(seq, (new_ba, new_ea));
                if let Some((id, mon)) = self.heap_monitors.remove(&seq) {
                    let wid = self.mon_watch.remove(&id).expect("owned monitor");
                    self.map.remove(id, mon);
                    let nid = self.install(new_ba, new_ea, wid);
                    self.heap_monitors
                        .insert(seq, (nid, Monitor::new(new_ba, new_ea).expect("non-empty")));
                }
                Ok(None)
            }
            other => Err(DebuggerError::Command(format!(
                "unexpected machine stop {other:?}"
            ))),
        }
    }

    // ---- inspection ----

    fn read_value(&self, addr: u32, len: u32) -> Result<i32, DebuggerError> {
        Ok(match len {
            1 => self.machine.mem().load_u8(addr, 0)? as i8 as i32,
            _ => self.machine.mem().load_u32(addr & !3, 0)? as i32,
        })
    }

    fn func_name(&self, fid: u16) -> &str {
        self.compiled
            .debug
            .functions
            .get(fid as usize)
            .map(|f| f.name.as_str())
            .unwrap_or("?")
    }

    fn func_at(&self, pc: u32) -> &str {
        self.compiled
            .debug
            .functions
            .iter()
            .filter(|f| f.entry_pc <= pc)
            .max_by_key(|f| f.entry_pc)
            .map(|f| f.name.as_str())
            .unwrap_or("<startup>")
    }

    fn print_var(&self, name: &str) -> Result<String, DebuggerError> {
        let debug = &self.compiled.debug;
        // func.var form: topmost live frame of func.
        if let Some((func, var)) = name.split_once('.') {
            let fid = debug
                .func_id(func)
                .ok_or_else(|| DebuggerError::Command(format!("no function '{func}'")))?;
            let local = debug.functions[fid as usize]
                .locals
                .iter()
                .find(|l| l.name == var)
                .ok_or_else(|| DebuggerError::Command(format!("{func}() has no local '{var}'")))?;
            let (_, fp) = self
                .stack
                .iter()
                .rev()
                .find(|(f, _)| *f == fid)
                .ok_or_else(|| DebuggerError::Command(format!("{func}() is not live")))?;
            let ba = fp.wrapping_add(local.offset as u32);
            let v = self.read_value(ba, local.size.min(4))?;
            return Ok(format!(
                "{name} = {v} (at {ba:#010x}, {} bytes)",
                local.size
            ));
        }
        // Bare name: local of the innermost frame, then global.
        if let Some(&(fid, fp)) = self.stack.last() {
            if let Some(l) = debug.functions[fid as usize]
                .locals
                .iter()
                .find(|l| l.name == name)
            {
                let ba = fp.wrapping_add(l.offset as u32);
                let v = self.read_value(ba, l.size.min(4))?;
                return Ok(format!(
                    "{name} = {v} (local of {}(), at {ba:#010x})",
                    self.func_name(fid)
                ));
            }
        }
        let g = debug
            .global(name)
            .ok_or_else(|| DebuggerError::Command(format!("no variable named '{name}'")))?;
        let v = self.read_value(g.ba, (g.ea - g.ba).min(4))?;
        Ok(format!(
            "{name} = {v} (global at {:#010x}, {} bytes)",
            g.ba,
            g.ea - g.ba
        ))
    }

    fn backtrace(&self) -> String {
        if self.stack.is_empty() {
            return "no stack (program not running)".to_string();
        }
        let mut out = String::new();
        for (i, (fid, fp)) in self.stack.iter().rev().enumerate() {
            out.push_str(&format!("#{i} {}() fp={fp:#010x}\n", self.func_name(*fid)));
        }
        out
    }

    fn info_watch(&self) -> String {
        if self.watches.is_empty() {
            return "no watches".to_string();
        }
        let mut out = String::new();
        for (n, w) in &self.watches {
            let live = self.mon_watch.values().filter(|wid| wid.0 == *n).count();
            out.push_str(&format!(
                "watch #{n}: {}{} — {} hit{}, {} live monitor{}\n",
                w.kind,
                w.cond,
                w.hits,
                if w.hits == 1 { "" } else { "s" },
                live,
                if live == 1 { "" } else { "s" },
            ));
        }
        out
    }

    fn info_break(&self) -> String {
        if self.breaks.is_empty() {
            return "no breakpoints".to_string();
        }
        self.breaks
            .iter()
            .map(|(n, fid)| format!("breakpoint #{n}: {}()\n", self.func_name(*fid)))
            .collect()
    }

    fn disassemble(&self, n: u32) -> Result<String, DebuggerError> {
        let pc = self.machine.cpu().pc();
        let start = self.machine.pc_to_index(pc)?;
        let mut out = String::new();
        for i in start..(start + n as usize).min(self.machine.code_len()) {
            let instr = self.machine.instr_at(i)?;
            let addr = databp_machine::CODE_BASE + 4 * i as u32;
            let marker = if addr == pc { "=>" } else { "  " };
            out.push_str(&format!(
                "{marker} {addr:#010x}: {}\n",
                disasm::format_instr(&instr)
            ));
        }
        Ok(out)
    }
}

const HELP: &str = "\
qei — data-breakpoint debugger (after Wahbe, ASPLOS 1992)
  watch <g>                 data breakpoint on global g
  watch <f>.<v>             data breakpoint on local v of function f
  watch heap <n>            data breakpoint on heap allocation #n
  ... if ==|!=|<|> <value>  pause only when the stored value matches
  break <f>                 control breakpoint at function entry
  delete <n>                remove watch #n
  run / continue            start / resume the program
  stepi [n]                 execute n instructions
  print <v> | <f>.<v>       read a variable
  backtrace                 show the call stack
  info watch | info break   list breakpoints
  disasm [n]                disassemble at pc
  output                    show program output so far
  quit";
