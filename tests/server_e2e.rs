//! End-to-end test of the replay service against the one-shot pipeline.
//!
//! The service's contract is that being a *service* changes nothing
//! about the answers: a batch of mixed-strategy requests — duplicates
//! included — must produce responses byte-identical to running the
//! one-shot (overlapped) pipeline per request, while the trace cache
//! ensures each distinct workload is traced exactly once.
//!
//! Everything lives in one `#[test]` because the phase-1 accounting
//! leans on the process-global telemetry registry: asserting "the
//! duplicate performed no new `harness.analyze` span" only works if no
//! concurrently running test is analyzing workloads of its own.

use databp::harness::{analyze_opts, AnalyzeOpts, Scale};
use databp::machine::PageSize;
use databp::models::Approach;
use databp::server::{body_for, CacheStatus, Request, Server, ServerConfig};

/// One-shot pipeline run shaped exactly like a service cache miss: the
/// default phase-1/phase-2 overlap at the request's ladder.
fn one_shot_body(req: &Request) -> String {
    let workload = req.resolve_workload().expect("known workload");
    let results = analyze_opts(
        &workload,
        &AnalyzeOpts {
            ladder: req.page_sizes.clone(),
            ..AnalyzeOpts::default()
        },
    );
    body_for(req, &results).to_json()
}

#[test]
fn batch_is_byte_identical_to_one_shot_and_caches_duplicates() {
    databp::telemetry::set_enabled(true);
    let span_count = |name: &str| {
        databp::telemetry::global()
            .snapshot()
            .span(name)
            .map_or(0, |s| s.count)
    };

    // A mixed-strategy batch over two distinct workloads, with
    // duplicates: `a`/`b`/`d` share the cc trace, `c` owns the tex
    // trace. `b` narrows to one strategy and asks for the full
    // overhead population; the rest take summary statistics only.
    let a = Request::simple("a", "cc", Scale::Small);
    let b = Request {
        id: "b".to_string(),
        workload: "cc".to_string(),
        scale: Scale::Small,
        strategies: vec![Approach::Cp],
        page_sizes: Vec::new(),
        overheads: true,
        query: None,
    };
    let c = Request {
        id: "c".to_string(),
        workload: "tex".to_string(),
        scale: Scale::Small,
        strategies: vec![Approach::Cp, Approach::Tp],
        page_sizes: Vec::new(),
        overheads: false,
        query: None,
    };
    let d = Request::simple("d", "cc", Scale::Small);
    let batch = vec![a.clone(), b.clone(), c.clone(), d.clone()];

    // Expected answers from the one-shot pipeline, computed before the
    // service starts so the analyze-span bookkeeping below is clean.
    let expected: Vec<String> = batch.iter().map(one_shot_body).collect();
    let analyze_before = span_count("harness.analyze");

    let server = Server::start(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });
    let responses = server.submit_batch(batch);

    // Responses arrive in request order and every body matches the
    // one-shot pipeline byte for byte — hit or miss.
    assert_eq!(
        responses.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
        vec!["a", "b", "c", "d"]
    );
    for (resp, want) in responses.iter().zip(&expected) {
        assert!(resp.ok, "{}: {:?}", resp.id, resp.error);
        assert_eq!(
            resp.body.as_ref().unwrap().to_json(),
            *want,
            "response {} must be byte-identical to the one-shot pipeline",
            resp.id
        );
    }

    // The cache collapsed the duplicates: two distinct workloads, two
    // phase-1 traces, two hits — regardless of worker scheduling
    // (concurrent duplicate misses wait on the in-flight build).
    let stats = server.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.cache_misses, 2, "one trace per distinct workload");
    assert_eq!(stats.cache_hits, 2, "duplicates served from cache");
    assert_eq!(stats.cache_rewalks, 0);
    let analyze_after = span_count("harness.analyze");
    assert_eq!(
        analyze_after - analyze_before,
        2,
        "the service ran phase 1 exactly once per distinct workload"
    );

    // A wider ladder on a cached workload re-walks the cached trace
    // (phase 2 only): no new `harness.analyze` span, still
    // byte-identical to a one-shot run at that ladder.
    let mut e = Request::simple("e", "tex", Scale::Small);
    e.page_sizes = vec![PageSize::K16, PageSize::K32];
    let resp = server
        .submit(e.clone())
        .unwrap_or_else(|_| panic!("queue cannot be full"))
        .wait();
    assert!(resp.ok);
    assert_eq!(resp.cache, Some(CacheStatus::Rewalk));
    assert_eq!(
        span_count("harness.analyze") - analyze_before,
        2,
        "the rewalk ran phase 1 zero times"
    );
    assert!(span_count("harness.reanalyze") >= 1);
    assert_eq!(resp.body.as_ref().unwrap().to_json(), one_shot_body(&e));

    // And once widened, the wide ladder is a pure hit.
    let mut f = e.clone();
    f.id = "f".to_string();
    let resp_f = server
        .submit(f)
        .unwrap_or_else(|_| panic!("queue cannot be full"))
        .wait();
    assert_eq!(resp_f.cache, Some(CacheStatus::Hit));
    assert_eq!(
        resp_f.body.as_ref().unwrap().to_json(),
        resp.body.as_ref().unwrap().to_json()
    );

    // A trace query against a cached workload is answered from the
    // trace alone: no phase-1 run, no phase-2 rewalk — zero new
    // `harness.analyze` (and `harness.reanalyze`) spans.
    let analyze_q = span_count("harness.analyze");
    let reanalyze_q = span_count("harness.reanalyze");
    let rewalks_q = server.stats().cache_rewalks;
    let mut q1 = Request::simple("q1", "cc", Scale::Small);
    q1.query = Some("count if value > 0 && writer in main".to_string());
    let resp_q1 = server
        .submit(q1.clone())
        .unwrap_or_else(|_| panic!("queue cannot be full"))
        .wait();
    assert!(resp_q1.ok, "{:?}", resp_q1.error);
    assert_eq!(resp_q1.cache, Some(CacheStatus::Hit));
    let q1_body = resp_q1.body.as_ref().unwrap().to_json();
    assert!(q1_body.contains(r#""kind":"count""#), "{q1_body}");
    assert_eq!(
        span_count("harness.analyze"),
        analyze_q,
        "a cached-trace query ran phase 1 zero times"
    );
    assert_eq!(
        span_count("harness.reanalyze"),
        reanalyze_q,
        "a cached-trace query ran phase 2 zero times"
    );
    assert_eq!(server.stats().cache_rewalks, rewalks_q);

    // Resubmitting the same query yields byte-identical response
    // bodies: query answers are deterministic functions of the trace.
    let mut q2 = q1.clone();
    q2.id = "q2".to_string();
    let resp_q2 = server
        .submit(q2)
        .unwrap_or_else(|_| panic!("queue cannot be full"))
        .wait();
    assert!(resp_q2.ok);
    assert_eq!(resp_q2.body.as_ref().unwrap().to_json(), q1_body);

    let stats = server.stats();
    assert!(
        stats.cache_hits >= 3,
        "nonzero cache hit rate: {} hits / {} requests",
        stats.cache_hits,
        stats.requests
    );
    server.shutdown();
}
