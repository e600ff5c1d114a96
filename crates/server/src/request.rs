//! Wire-level request and response types for the replay service.
//!
//! One request asks one question of the batch API: *for workload W at
//! scale S, what do strategies A… cost across every surviving monitor
//! session, at page sizes P…?* The service answers every strategy and
//! every page size of a request out of **one** trace — cached from an
//! earlier request when possible, produced by one streamed phase-1 run
//! otherwise — which is the paper's trace→replay split turned into a
//! query substrate.
//!
//! The response splits into metadata (`id`, `ok`, `cache`) and a
//! [`ResponseBody`] holding every derived number. The body is rendered
//! by the pure function [`body_for`] from a
//! [`WorkloadResults`](databp_harness::WorkloadResults), so a cached
//! answer is *byte-identical* to a freshly computed one by
//! construction — the end-to-end tests pin that equality against the
//! one-shot pipeline.

use crate::json::{self, Value};
use databp_core::WriterMap;
use databp_harness::{normalize_ladder, overheads_for, Scale, WorkloadResults};
use databp_machine::PageSize;
use databp_models::Approach;
use databp_sim::{QueryResult, WriteHit};
use databp_stats::Summary;
use databp_workloads::Workload;

/// One line read from the wire: a query, or a stats probe.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestLine {
    /// A batch-API query.
    Query(Request),
    /// `{"stats": true}` — asks for the server's counters (answered in
    /// stream order like any other request, so a trailing stats probe
    /// sees every earlier request of the session accounted).
    Stats,
}

/// A batch-API query: one workload, N strategies, M page sizes, all
/// answered from a single (possibly cached) trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Workload name: one of the Table 1 set (`cc`, `tex`, `spice`,
    /// `qcd`, `bps`) or the benchmark corpus (`matmul`, `fib`,
    /// `struct_bench`, `bitwise`).
    pub workload: String,
    /// Workload scale. Defaults to [`Scale::Small`]: service traffic is
    /// interactive, and full-scale traces are an explicit opt-in.
    pub scale: Scale,
    /// Strategies to model. Empty means all five.
    pub strategies: Vec<Approach>,
    /// Extra page sizes; 4K and 8K are always included (the overhead
    /// models need them).
    pub page_sizes: Vec<PageSize>,
    /// Include the full per-session overhead population per strategy
    /// (not just its summary statistics).
    pub overheads: bool,
    /// A trace query (`<agg> [if <predicate>]`, see
    /// [`databp_sim::Query`]). When present the response body is the
    /// query answer instead of the strategy/ladder report — computed
    /// from the (possibly cached) trace alone, so a cache hit does
    /// zero phase-1 *and* zero phase-2 work.
    pub query: Option<String>,
}

impl Request {
    /// A query for `workload` with every strategy at the default
    /// ladder — the shape most tests and the demo client use.
    pub fn simple(id: &str, workload: &str, scale: Scale) -> Request {
        Request {
            id: id.to_string(),
            workload: workload.to_string(),
            scale,
            strategies: Vec::new(),
            page_sizes: Vec::new(),
            overheads: false,
            query: None,
        }
    }

    /// The strategies to answer: the requested set, or all of them.
    pub fn effective_strategies(&self) -> Vec<Approach> {
        if self.strategies.is_empty() {
            Approach::ALL.to_vec()
        } else {
            self.strategies.clone()
        }
    }

    /// The normalized page-size ladder this request needs (requested
    /// sizes plus the mandatory 4K/8K pair, ascending, deduplicated).
    pub fn normalized_ladder(&self) -> Vec<PageSize> {
        normalize_ladder(&self.page_sizes)
    }

    /// The workload this request names, at its requested scale.
    pub fn resolve_workload(&self) -> Result<Workload, String> {
        let w = Workload::by_name(&self.workload).ok_or_else(|| {
            format!(
                "unknown workload {:?} (cc, tex, spice, qcd, bps, matmul, fib, struct_bench, bitwise)",
                self.workload
            )
        })?;
        Ok(match self.scale {
            Scale::Full => w,
            Scale::Small => w.scaled_down(),
        })
    }

    /// Parses one wire line.
    pub fn parse_line(line: &str) -> Result<RequestLine, String> {
        let v = json::parse(line)?;
        let obj = v
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_string())?;
        if v.get("stats").and_then(Value::as_bool) == Some(true) {
            return Ok(RequestLine::Stats);
        }
        let mut req = Request {
            id: String::new(),
            workload: String::new(),
            scale: Scale::Small,
            strategies: Vec::new(),
            page_sizes: Vec::new(),
            overheads: false,
            query: None,
        };
        for (key, val) in obj {
            match key.as_str() {
                "id" => {
                    req.id = match val {
                        Value::Str(s) => s.clone(),
                        Value::Num(raw) => raw.clone(),
                        _ => return Err("id must be a string or number".to_string()),
                    }
                }
                "workload" => {
                    req.workload = val
                        .as_str()
                        .ok_or_else(|| "workload must be a string".to_string())?
                        .to_string()
                }
                "scale" => {
                    req.scale = match val.as_str() {
                        Some("small") => Scale::Small,
                        Some("full") => Scale::Full,
                        _ => return Err("scale must be \"small\" or \"full\"".to_string()),
                    }
                }
                "strategies" => {
                    let items = val
                        .as_array()
                        .ok_or_else(|| "strategies must be an array".to_string())?;
                    for item in items {
                        let name = item
                            .as_str()
                            .ok_or_else(|| "strategy must be a string".to_string())?;
                        req.strategies.push(parse_strategy(name).ok_or_else(|| {
                            format!("unknown strategy {name:?} (nh, vm4k, vm8k, tp, cp)")
                        })?);
                    }
                }
                "page_sizes" => {
                    let items = val
                        .as_array()
                        .ok_or_else(|| "page_sizes must be an array".to_string())?;
                    for item in items {
                        let name = item
                            .as_str()
                            .ok_or_else(|| "page size must be a string".to_string())?;
                        req.page_sizes.push(
                            PageSize::parse(name)
                                .ok_or_else(|| format!("unknown page size {name:?}"))?,
                        );
                    }
                }
                "overheads" => {
                    req.overheads = val
                        .as_bool()
                        .ok_or_else(|| "overheads must be a bool".to_string())?
                }
                "query" => {
                    req.query = Some(
                        val.as_str()
                            .ok_or_else(|| "query must be a string".to_string())?
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown request field {other:?}")),
            }
        }
        if req.workload.is_empty() {
            return Err("request needs a \"workload\" field".to_string());
        }
        Ok(RequestLine::Query(req))
    }

    /// The request as a wire line (the client side of
    /// [`Request::parse_line`]).
    pub fn to_json_line(&self) -> String {
        let mut v = Value::obj();
        if !self.id.is_empty() {
            v.set("id", Value::str(&self.id));
        }
        v.set("workload", Value::str(&self.workload));
        v.set(
            "scale",
            Value::str(match self.scale {
                Scale::Small => "small",
                Scale::Full => "full",
            }),
        );
        if !self.strategies.is_empty() {
            v.set(
                "strategies",
                Value::Arr(
                    self.strategies
                        .iter()
                        .map(|&a| Value::str(strategy_slug(a)))
                        .collect(),
                ),
            );
        }
        if !self.page_sizes.is_empty() {
            v.set(
                "page_sizes",
                Value::Arr(
                    self.page_sizes
                        .iter()
                        .map(|ps| Value::str(ps.to_string()))
                        .collect(),
                ),
            );
        }
        if self.overheads {
            v.set("overheads", Value::Bool(true));
        }
        if let Some(q) = &self.query {
            v.set("query", Value::str(q));
        }
        v.to_string()
    }
}

/// Parses a strategy slug (`nh`, `vm4k`, `vm8k`, `tp`, `cp`).
pub fn parse_strategy(s: &str) -> Option<Approach> {
    match s {
        "nh" => Some(Approach::Nh),
        "vm4k" => Some(Approach::Vm4k),
        "vm8k" => Some(Approach::Vm8k),
        "tp" => Some(Approach::Tp),
        "cp" => Some(Approach::Cp),
        _ => None,
    }
}

/// The wire slug of a strategy (inverse of [`parse_strategy`]).
pub fn strategy_slug(a: Approach) -> &'static str {
    match a {
        Approach::Nh => "nh",
        Approach::Vm4k => "vm4k",
        Approach::Vm8k => "vm8k",
        Approach::Tp => "tp",
        Approach::Cp => "cp",
    }
}

/// How a response was produced, for telemetry and clients that care
/// about warm-up behavior; excluded from the byte-identity guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Phase 1 ran: the trace was produced by a streamed workload run.
    Miss,
    /// Served entirely from the cached results — no trace walk at all.
    Hit,
    /// Served from the cached trace, but the requested ladder needed
    /// one fresh phase-2 walk (still no phase-1 work).
    Rewalk,
}

impl CacheStatus {
    /// The wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Rewalk => "rewalk",
        }
    }
}

/// Everything a successful response derives from the trace. Rendered
/// only through [`body_for`], so equal inputs give equal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseBody {
    json: Value,
}

impl ResponseBody {
    /// The body as canonical compact JSON (the byte-identity surface).
    pub fn to_json(&self) -> String {
        self.json.to_string()
    }

    /// The body as a JSON value (for embedding in a [`Response`]).
    pub fn value(&self) -> &Value {
        &self.json
    }
}

/// Wraps an arbitrary JSON object as a response body (used by the
/// protocol layer for stats probes, whose payload is not a query
/// answer).
pub fn raw_body(json: Value) -> ResponseBody {
    ResponseBody { json }
}

/// Renders the answer to `req` from `results` — the single place
/// result bytes come from, shared by the cache-hit and cache-miss
/// paths (and by tests computing the expected answer with the one-shot
/// pipeline).
///
/// `results` must cover the request's normalized ladder; the body
/// reports exactly the requested sizes even when the cached results
/// carry more.
///
/// # Panics
///
/// Panics if `results` lacks one of the requested page sizes (a server
/// bug — the cache layer guarantees coverage before rendering).
pub fn body_for(req: &Request, results: &WorkloadResults) -> ResponseBody {
    let mut body = Value::obj();
    body.set("workload", Value::str(&req.workload));
    body.set(
        "workload_hash",
        Value::str(format!(
            "{:016x}",
            results.prepared.workload.workload_hash()
        )),
    );
    body.set(
        "scale",
        Value::str(match req.scale {
            Scale::Small => "small",
            Scale::Full => "full",
        }),
    );
    body.set("candidates", Value::u64(results.candidates as u64));
    body.set("sessions", Value::u64(results.sessions.len() as u64));
    body.set("base_ms", Value::f64(results.base_ms()));

    let mut ladder = Vec::new();
    for ps in req.normalized_ladder() {
        let k = results
            .ladder
            .iter()
            .position(|&p| p == ps)
            .unwrap_or_else(|| panic!("results missing page size {ps}"));
        let row = &results.ladder_counts[k];
        let sum = |f: fn(&databp_models::Counts) -> u64| -> u64 { row.iter().map(f).sum() };
        let mut entry = Value::obj();
        entry.set("page_size", Value::str(ps.to_string()));
        entry.set("hits", Value::u64(sum(|c| c.hit)));
        entry.set("misses", Value::u64(sum(|c| c.miss)));
        entry.set("vm_protects", Value::u64(sum(|c| c.vm_protect)));
        entry.set("vm_unprotects", Value::u64(sum(|c| c.vm_unprotect)));
        entry.set(
            "active_page_misses",
            Value::u64(sum(|c| c.vm_active_page_miss)),
        );
        ladder.push(entry);
    }
    body.set("ladder", Value::Arr(ladder));

    let mut strategies = Vec::new();
    for a in req.effective_strategies() {
        let ovs = overheads_for(results, a);
        let s = Summary::from_samples(&ovs);
        let mut entry = Value::obj();
        entry.set("strategy", Value::str(strategy_slug(a)));
        entry.set("n", Value::u64(s.n as u64));
        entry.set("min", Value::f64(s.min));
        entry.set("t_mean", Value::f64(s.t_mean));
        entry.set("mean", Value::f64(s.mean));
        entry.set("p90", Value::f64(s.p90));
        entry.set("p98", Value::f64(s.p98));
        entry.set("max", Value::f64(s.max));
        if req.overheads {
            entry.set(
                "overheads",
                Value::Arr(ovs.iter().map(|&o| Value::f64(o)).collect()),
            );
        }
        strategies.push(entry);
    }
    body.set("strategies", Value::Arr(strategies));
    ResponseBody { json: body }
}

/// Renders one [`WriteHit`] as a JSON object (addresses in hex for
/// greppability, values in decimal).
fn hit_value(hit: &WriteHit) -> Value {
    let mut v = Value::obj();
    v.set("seq", Value::u64(hit.seq));
    v.set("pc", Value::str(format!("{:#x}", hit.pc)));
    v.set("ba", Value::str(format!("{:#x}", hit.ba)));
    v.set("ea", Value::str(format!("{:#x}", hit.ea)));
    v.set("value", Value::u64(u64::from(hit.value)));
    v.set("old", Value::u64(u64::from(hit.old)));
    v
}

/// Renders the answer to a trace query from `results` — the query
/// sibling of [`body_for`], and like it the *single* place query
/// result bytes come from, so a cached answer is byte-identical to a
/// fresh one. Needs only the trace and the debug info; never touches
/// the counts matrices, so a cache hit answers with zero phase-1 and
/// zero phase-2 work.
///
/// The query runs as a columnar pushdown scan over the prepared
/// workload's cached DBPT bytes
/// ([`Prepared::columnar_bytes`](databp_workloads::Prepared::columnar_bytes)):
/// zone-refuted blocks are skipped undecoded, surviving blocks decode
/// only the columns the query reads, fanned across `jobs` workers with
/// a deterministic in-order merge — so the rendered bytes are
/// identical to the event-at-a-time engine's, just cheaper.
///
/// # Errors
///
/// A message when the query is malformed or names an unknown function.
pub fn query_body_for(
    req: &Request,
    results: &WorkloadResults,
    jobs: usize,
) -> Result<ResponseBody, String> {
    let src = req.query.as_deref().unwrap_or_default();
    let debug = &results.prepared.plain.debug;
    let writers = WriterMap::from_debug(debug);
    let bytes = results.prepared.columnar_bytes();
    let (result, _stats) =
        databp_sim::scan_query(bytes, src, |name| debug.func_id(name), &writers, jobs)
            .map_err(|e| format!("bad query: {e}"))?;

    let mut body = Value::obj();
    body.set("workload", Value::str(&req.workload));
    body.set(
        "workload_hash",
        Value::str(format!(
            "{:016x}",
            results.prepared.workload.workload_hash()
        )),
    );
    body.set(
        "scale",
        Value::str(match req.scale {
            Scale::Small => "small",
            Scale::Full => "full",
        }),
    );
    body.set("query", Value::str(src));
    let mut res = Value::obj();
    match &result {
        QueryResult::Count { matched, writes } => {
            res.set("kind", Value::str("count"));
            res.set("matched", Value::u64(*matched));
            res.set("writes", Value::u64(*writes));
        }
        QueryResult::First(hit) => {
            res.set("kind", Value::str("first"));
            res.set("hit", hit.as_ref().map_or(Value::Null, hit_value));
        }
        QueryResult::Last(hit) => {
            res.set("kind", Value::str("last"));
            res.set("hit", hit.as_ref().map_or(Value::Null, hit_value));
        }
        QueryResult::Histogram(sites) => {
            res.set("kind", Value::str("hist"));
            res.set(
                "sites",
                Value::Arr(
                    sites
                        .iter()
                        .map(|&(pc, n)| {
                            let mut s = Value::obj();
                            s.set("pc", Value::str(format!("{pc:#x}")));
                            s.set("count", Value::u64(n));
                            s
                        })
                        .collect(),
                ),
            );
        }
        QueryResult::ValueWatch { samples, total } => {
            res.set("kind", Value::str("watch"));
            res.set("total", Value::u64(*total));
            res.set(
                "samples",
                Value::Arr(samples.iter().map(|&v| Value::u64(u64::from(v))).collect()),
            );
        }
    }
    body.set("result", res);
    Ok(ResponseBody { json: body })
}

/// One wire response: metadata plus (on success) a [`ResponseBody`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// False for rejected or failed requests.
    pub ok: bool,
    /// How the answer was produced (successful queries only).
    pub cache: Option<CacheStatus>,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// The result payload when `ok` is true.
    pub body: Option<ResponseBody>,
}

impl Response {
    /// A successful response.
    pub fn success(id: &str, cache: CacheStatus, body: ResponseBody) -> Response {
        Response {
            id: id.to_string(),
            ok: true,
            cache: Some(cache),
            error: None,
            body: Some(body),
        }
    }

    /// An error response.
    pub fn failure(id: &str, error: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            ok: false,
            cache: None,
            error: Some(error.into()),
            body: None,
        }
    }

    /// The response as one wire line.
    pub fn to_json_line(&self) -> String {
        let mut v = Value::obj();
        v.set("id", Value::str(&self.id));
        v.set("ok", Value::Bool(self.ok));
        if let Some(cache) = self.cache {
            v.set("cache", Value::str(cache.as_str()));
        }
        if let Some(error) = &self.error {
            v.set("error", Value::str(error));
        }
        if let Some(body) = &self.body {
            v.set("body", body.value().clone());
        }
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let line = r#"{"id":"r1","workload":"cc","scale":"small","strategies":["cp","tp"],"page_sizes":["16K"],"overheads":true}"#;
        let RequestLine::Query(req) = Request::parse_line(line).unwrap() else {
            panic!("expected a query");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.workload, "cc");
        assert_eq!(req.scale, Scale::Small);
        assert_eq!(req.strategies, vec![Approach::Cp, Approach::Tp]);
        assert_eq!(req.page_sizes, vec![PageSize::K16]);
        assert!(req.overheads);
        assert_eq!(
            req.normalized_ladder(),
            vec![PageSize::K4, PageSize::K8, PageSize::K16]
        );
    }

    #[test]
    fn request_round_trips_through_its_own_wire_form() {
        let req = Request {
            id: "7".to_string(),
            workload: "tex".to_string(),
            scale: Scale::Full,
            strategies: vec![Approach::Vm8k],
            page_sizes: vec![PageSize::K32],
            overheads: true,
            query: Some("count if value > 5".to_string()),
        };
        let RequestLine::Query(back) = Request::parse_line(&req.to_json_line()).unwrap() else {
            panic!("expected a query");
        };
        assert_eq!(back, req);
    }

    #[test]
    fn stats_probe_and_errors_are_recognized() {
        assert_eq!(
            Request::parse_line(r#"{"stats":true}"#).unwrap(),
            RequestLine::Stats
        );
        assert!(Request::parse_line("{}").is_err(), "workload required");
        assert!(Request::parse_line(r#"{"workload":"cc","scale":"huge"}"#).is_err());
        assert!(Request::parse_line(r#"{"workload":"cc","strategies":["zz"]}"#).is_err());
        assert!(Request::parse_line(r#"{"workload":"cc","bogus":1}"#).is_err());
        assert!(Request::parse_line(r#"{"workload":"cc","query":7}"#).is_err());
        assert!(Request::parse_line("not json").is_err());
    }

    #[test]
    fn strategy_slugs_round_trip() {
        for a in Approach::ALL {
            assert_eq!(parse_strategy(strategy_slug(a)), Some(a));
        }
        assert_eq!(parse_strategy("vm"), None);
    }

    #[test]
    fn failure_response_line_shape() {
        let r = Response::failure("x", "queue full");
        assert_eq!(
            r.to_json_line(),
            r#"{"id":"x","ok":false,"error":"queue full"}"#
        );
    }
}
