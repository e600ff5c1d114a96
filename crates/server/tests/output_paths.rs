//! User-supplied output paths that cannot be written are errors, not
//! panics: `repro` prints a message and exits 1, with no backtrace.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory holding one regular file, `file`, so that
/// `file/...` is a path no directory can be created at.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("databp-output-paths-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        std::fs::write(dir.join("file"), b"not a directory").expect("create regular file");
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> String {
        self.0
            .join(rel)
            .to_str()
            .expect("UTF-8 temp path")
            .to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `repro` in `cwd` and returns (exit code, stderr).
fn repro(cwd: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `repro args` fails cleanly: exit code 1, `needle` in stderr, no panic.
fn fails_cleanly(cwd: &Path, args: &[&str], needle: &str) {
    let (code, stderr) = repro(cwd, args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr lacks {needle:?}: {stderr}"
    );
}

#[test]
fn csv_dir_under_a_regular_file_is_an_error() {
    let s = Scratch::new("csvdir");
    let dir = s.path("file/csv");
    fails_cleanly(&s.0, &["--small", "--csv", &dir, "table1"], "cannot create");
}

#[test]
fn unwritable_csv_file_is_an_error() {
    let s = Scratch::new("csvfile");
    // The CSV directory exists, but `table2.csv` inside it is a directory.
    std::fs::create_dir_all(s.0.join("csv/table2.csv")).expect("create blocker");
    let dir = s.path("csv");
    fails_cleanly(&s.0, &["--small", "--csv", &dir, "table2"], "cannot write");
}

#[test]
fn trace_file_under_a_regular_file_is_an_error() {
    let s = Scratch::new("trace");
    let bad = s.path("file/m.dbpt");
    fails_cleanly(&s.0, &["--small", "trace", "matmul", &bad], "cannot write");

    let good = s.path("m.dbpt");
    let (code, stderr) = repro(&s.0, &["--small", "trace", "matmul", &good]);
    assert_eq!(code, Some(0), "{stderr}");
    let bad = s.path("file/m.txt");
    fails_cleanly(&s.0, &["trace", "convert", &good, &bad], "cannot write");
}

#[test]
fn retired_perf_commands_are_unknown() {
    let s = Scratch::new("perf");
    for cmd in ["perf", "perfgate"] {
        fails_cleanly(&s.0, &[cmd], "unknown command");
    }
}
