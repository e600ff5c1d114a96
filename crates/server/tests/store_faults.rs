//! Warm start over a damaged or foreign trace store. Every bad entry is
//! skipped with a warning, never trusted and never a panic, and the next
//! request for the affected workload answers byte-identically to a cold
//! server's.

use databp_harness::Scale;
use databp_server::{CacheStatus, Request, Server, ServerConfig};
use databp_trace::{read_columnar, write_columnar, Trace};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn server(store: Option<&Path>) -> Server {
    Server::start(ServerConfig {
        workers: 1,
        queue_depth: 16,
        store: store.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("databp-store-faults-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create store dir");
    dir
}

fn key_of(workload: &str) -> u64 {
    Request::simple("", workload, Scale::Small)
        .resolve_workload()
        .expect("bundled workload")
        .workload_hash()
}

fn entry(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.dbpt"))
}

fn fib() -> Request {
    Request::simple("f", "fib", Scale::Small)
}

/// A cold server's answer line to [`fib`], and the store entry that
/// server saved for it.
struct Reference {
    line: String,
    file: Vec<u8>,
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let dir = tmpdir("reference");
        let cold = server(Some(&dir));
        let resp = cold.submit(fib()).unwrap().wait();
        cold.shutdown();
        assert_eq!(resp.cache, Some(CacheStatus::Miss));
        let file = fs::read(entry(&dir, key_of("fib"))).expect("cold server saved fib");
        fs::remove_dir_all(&dir).unwrap();
        Reference {
            line: resp.to_json_line(),
            file,
        }
    })
}

/// Lays `damage` into a fresh store, warm-starts a server over it, and
/// checks that nothing was loaded and that `fib` answers as a cold
/// server does. Returns the store directory for further checks.
fn survives(tag: &str, damage: impl FnOnce(&Path, u64)) -> PathBuf {
    let want = reference();
    let dir = tmpdir(tag);
    damage(&dir, key_of("fib"));
    let warm = server(Some(&dir));
    assert_eq!(warm.stats().cache_entries, 0, "a bad entry was trusted");
    let got = warm.submit(fib()).unwrap().wait();
    warm.shutdown();
    assert_eq!(got.to_json_line(), want.line);
    dir
}

#[test]
fn zero_byte_entry_is_skipped() {
    let dir = survives("empty", |dir, key| fs::write(entry(dir, key), b"").unwrap());
    // The re-trace replaced the empty file with a good entry.
    assert_eq!(
        fs::read(entry(&dir, key_of("fib"))).unwrap(),
        reference().file
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_entry_is_skipped() {
    let dir = survives("truncated", |dir, key| {
        let file = &reference().file;
        fs::write(entry(dir, key), &file[..file.len() / 2]).unwrap();
    });
    assert_eq!(
        fs::read(entry(&dir, key_of("fib"))).unwrap(),
        reference().file
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_trailer_entry_is_skipped() {
    let dir = survives("bad-trailer", |dir, key| {
        // The last byte lies in the zone-map trailer's checksummed
        // payload; every block before it is intact.
        let mut file = reference().file.clone();
        *file.last_mut().unwrap() ^= 0xff;
        fs::write(entry(dir, key), file).unwrap();
    });
    assert_eq!(
        fs::read(entry(&dir, key_of("fib"))).unwrap(),
        reference().file
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_trace_entry_is_skipped() {
    let dir = survives("empty-trace", |dir, key| {
        // A well-formed DBPT file with zero events, under fib's own
        // key and with fib's own meta blob.
        let (_, meta) = read_columnar(&reference().file).expect("reference decodes");
        let mut file = Vec::new();
        write_columnar(&Trace::new(), &meta, &mut file).unwrap();
        fs::write(entry(dir, key), file).unwrap();
    });
    assert_eq!(
        fs::read(entry(&dir, key_of("fib"))).unwrap(),
        reference().file
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_hex_name_is_ignored() {
    let dir = survives("nonhex", |dir, _| {
        fs::write(dir.join("notes.dbpt"), &reference().file).unwrap();
    });
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn key_naming_no_bundled_workload_is_skipped() {
    let dir = survives("unknown", |dir, _| {
        fs::write(entry(dir, 0xdead_beef), &reference().file).unwrap();
    });
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn temp_file_left_by_a_killed_save_is_ignored() {
    let tmp = |dir: &Path, key: u64| dir.join(format!(".{key:016x}.dbpt.tmp"));
    let dir = survives("tmp", |dir, key| {
        let file = &reference().file;
        fs::write(tmp(dir, key), &file[..file.len() / 3]).unwrap();
    });
    // The next save for the same key went through the same temp name.
    assert!(!tmp(&dir, key_of("fib")).exists());
    assert_eq!(
        fs::read(entry(&dir, key_of("fib"))).unwrap(),
        reference().file
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_entry_copied_over_another_key_is_retraced() {
    let dir = tmpdir("copied");
    let bitwise = Request::simple("b", "bitwise", Scale::Small);
    let cold = server(Some(&dir));
    let cold_fib = cold.submit(fib()).unwrap().wait();
    let cold_bitwise = cold.submit(bitwise.clone()).unwrap().wait();
    cold.shutdown();
    fs::copy(entry(&dir, key_of("fib")), entry(&dir, key_of("bitwise"))).unwrap();

    let warm = server(Some(&dir));
    assert_eq!(warm.stats().cache_entries, 1, "only fib's own entry loads");
    let warm_bitwise = warm.submit(bitwise).unwrap().wait();
    let warm_fib = warm.submit(fib()).unwrap().wait();
    warm.shutdown();
    assert_eq!(warm_bitwise.cache, Some(CacheStatus::Miss));
    assert_eq!(warm_bitwise.to_json_line(), cold_bitwise.to_json_line());
    assert_eq!(warm_fib.cache, Some(CacheStatus::Hit));
    assert_eq!(
        warm_fib.body.as_ref().unwrap().to_json(),
        cold_fib.body.as_ref().unwrap().to_json()
    );
    fs::remove_dir_all(&dir).unwrap();
}
