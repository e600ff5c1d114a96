//! End-to-end pin of the persistent trace store: a server that saved
//! its traces answers the first repeat request after a restart as a
//! pure cache **hit**, with byte-identical bytes and **zero phase-1
//! work** — no `harness.analyze` span is recorded in the restarted
//! process's lifetime.
//!
//! One test function: the telemetry registry is process-global, and the
//! "restart" is modeled as a registry reset between the cold and warm
//! server (integration tests run in their own process, so nothing else
//! writes to the registry).

use databp_server::{CacheStatus, Request, Server, ServerConfig};
use std::path::Path;

fn store_server(dir: &Path) -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_depth: 16,
        store: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
}

#[test]
fn restarted_server_serves_repeat_requests_without_phase_1() {
    let dir = std::env::temp_dir().join(format!("databp-warmstart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold server: two workloads miss (phase 1 runs) and persist.
    let cold = store_server(&dir);
    let fib = Request::simple("c1", "fib", databp_harness::Scale::Small);
    let bitwise = Request::simple("c2", "bitwise", databp_harness::Scale::Small);
    let cold_fib = cold.submit(fib.clone()).unwrap().wait();
    let cold_bitwise = cold.submit(bitwise.clone()).unwrap().wait();
    assert_eq!(cold_fib.cache, Some(CacheStatus::Miss));
    assert_eq!(cold_bitwise.cache, Some(CacheStatus::Miss));
    cold.shutdown();
    let entries = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".dbpt"))
        .count();
    assert_eq!(entries, 2, "both traces persisted");

    // "Restart": fresh registry, fresh server over the same directory.
    databp_telemetry::set_enabled(true);
    databp_telemetry::global().reset();
    let warm = store_server(&dir);
    assert_eq!(warm.stats().cache_entries, 2, "warm start loaded the store");

    let mut again = fib;
    again.id = "w1".to_string();
    let warm_fib = warm.submit(again).unwrap().wait();
    assert_eq!(
        warm_fib.cache,
        Some(CacheStatus::Hit),
        "first repeat request after restart is a pure hit"
    );
    assert_eq!(
        cold_fib.body.as_ref().unwrap().to_json(),
        warm_fib.body.as_ref().unwrap().to_json(),
        "warm answer is byte-identical to the cold one"
    );

    // A wider ladder still needs no phase 1 — only a phase-2 rewalk of
    // the restored trace.
    let mut wide = bitwise;
    wide.id = "w2".to_string();
    wide.page_sizes = vec![databp_machine::PageSize::K16];
    let warm_wide = warm.submit(wide).unwrap().wait();
    assert_eq!(warm_wide.cache, Some(CacheStatus::Rewalk));

    let stats = warm.stats();
    assert_eq!(stats.cache_misses, 0, "no miss after restart");
    warm.shutdown();

    let snap = databp_telemetry::global().snapshot();
    assert!(
        snap.span("harness.analyze").is_none(),
        "phase 1 ran in the restarted process: {:?}",
        snap.span("harness.analyze")
    );
    assert!(
        snap.span("harness.reanalyze").is_some(),
        "warm start rebuilds entries via phase-2 reanalyze"
    );
    assert!(
        snap.counter("trace.store.loads").unwrap_or(0) >= 2,
        "warm start reads the store"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
