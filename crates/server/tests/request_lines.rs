//! Request-line robustness: a seeded generator feeds random and mutated
//! lines through `serve` on a two-worker server. Every non-blank line
//! gets exactly one response line, in input order; a line that does not
//! parse gets the very failure line its parse error names; and a
//! known-good request afterwards answers byte-identically to a fresh
//! server's.

use databp_harness::Scale;
use databp_server::proto::MAX_LINE_BYTES;
use databp_server::{serve, Request, RequestLine, Response, Server, ServerConfig};
use std::io::Cursor;

/// xorshift64*: enough randomness for line generation, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// A well-formed request line with id `r{i}`. The workloads are small
/// and `struct_bench` is kept out: the final check below needs it
/// untraced.
fn valid(rng: &mut Rng, i: usize) -> String {
    let workload = rng.pick(&["fib", "bitwise", "matmul", "nope"]);
    let extra = rng.pick(&[
        "",
        r#","page_sizes":["16K"]"#,
        r#","strategies":["cp","tp"]"#,
        r#","overheads":true"#,
        r#","query":"count if value > 5""#,
        r#","query":"count if""#,
        r#","scale":"small""#,
    ]);
    format!(r#"{{"id":"r{i}","workload":"{workload}"{extra}}}"#)
}

/// Bytes the mutator inserts or overwrites with: JSON structure, number
/// and literal characters.
const MUTATION_BYTES: &[u8] = b" \"{}[],:\\0a9e-+.tfn";

/// One generated line, never containing `\n` or `\r`.
fn line(rng: &mut Rng, i: usize) -> Vec<u8> {
    match rng.below(12) {
        0 | 1 => valid(rng, i).into_bytes(),
        2 => br#"{"stats":true}"#.to_vec(),
        // Deep nesting, past the parser's depth bound or not.
        3 => {
            let depth = 1 + rng.below(400);
            let open = rng.pick(&["[", r#"{"a":"#]);
            open.repeat(depth).into_bytes()
        }
        // Not UTF-8.
        4 => {
            let mut l = valid(rng, i).into_bytes();
            let at = rng.below(l.len());
            l.insert(at, 0x80 | rng.below(0x80) as u8);
            l
        }
        // Huge numbers, as the id and where a bool or array belongs.
        5 => format!(
            r#"{{"id":{}{},"workload":"fib","overheads":{}}}"#,
            rng.below(10),
            "9".repeat(1 + rng.below(400)),
            rng.pick(&["1e999999", "-0", "true", "123456789012345678901234567890"]),
        )
        .into_bytes(),
        // Duplicate keys.
        6 => format!(
            r#"{{"id":"r{i}","workload":"{}","workload":"{}","id":"d{i}"}}"#,
            rng.pick(&["fib", "bitwise", "nope"]),
            rng.pick(&["fib", "matmul", ""]),
        )
        .into_bytes(),
        // Truncated objects.
        7 | 8 => {
            let mut l = valid(rng, i).into_bytes();
            l.truncate(rng.below(l.len()));
            l
        }
        // Byte-level mutations of a good line.
        9 | 10 => {
            let mut l = valid(rng, i).into_bytes();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(l.len());
                let byte = MUTATION_BYTES[rng.below(MUTATION_BYTES.len())];
                match rng.below(3) {
                    0 => l[at] = byte,
                    1 => l.insert(at, byte),
                    _ => {
                        l.remove(at);
                    }
                }
                if l.is_empty() {
                    l.push(byte);
                }
            }
            l
        }
        // Blank lines get no response at all.
        _ => " ".repeat(rng.below(3)).into_bytes(),
    }
}

/// What the server must answer for one input line: `None` for a blank
/// line, otherwise the exact failure line or the id a response carries.
enum Expect {
    Failure(String),
    Id(String),
}

fn expect(line: &[u8]) -> Option<Expect> {
    if line.len() > MAX_LINE_BYTES {
        let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
        return Some(Expect::Failure(Response::failure("", msg).to_json_line()));
    }
    let Ok(text) = std::str::from_utf8(line) else {
        let msg = "request line is not valid UTF-8";
        return Some(Expect::Failure(Response::failure("", msg).to_json_line()));
    };
    if text.trim().is_empty() {
        return None;
    }
    Some(match Request::parse_line(text) {
        Ok(RequestLine::Query(req)) => Expect::Id(req.id),
        Ok(RequestLine::Stats) => Expect::Id("stats".to_string()),
        Err(msg) => Expect::Failure(Response::failure("", msg).to_json_line()),
    })
}

fn two_workers() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
}

fn serve_bytes(server: &Server, input: Vec<u8>) -> Vec<String> {
    let mut out = Vec::new();
    serve(server, Cursor::new(input), &mut out).expect("in-memory I/O");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn random_and_mutated_lines_are_answered_once_each_in_order() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut lines: Vec<Vec<u8>> = Vec::new();
    while lines.len() < 400 {
        let l = line(&mut rng, lines.len());
        // Full-scale traces take seconds; generated lines never ask for
        // one, but keep that true whatever the generator turns out.
        if let Ok(text) = std::str::from_utf8(&l) {
            if let Ok(RequestLine::Query(req)) = Request::parse_line(text) {
                if req.scale == Scale::Full {
                    continue;
                }
            }
        }
        lines.push(l);
    }
    // Two over-long lines: valid JSON padded past the bound, and a bare
    // run of `[`.
    let mut padded = br#"{"stats":true"#.to_vec();
    padded.resize(MAX_LINE_BYTES, b' ');
    padded.push(b'}');
    lines.insert(100, padded);
    lines.insert(300, vec![b'['; MAX_LINE_BYTES + 7]);

    let expected: Vec<Expect> = lines.iter().filter_map(|l| expect(l)).collect();
    let mut input = lines.join(&b'\n');
    input.push(b'\n');
    let server = two_workers();
    let got = serve_bytes(&server, input);
    assert_eq!(got.len(), expected.len(), "one response per non-blank line");
    let (mut failures, mut answered) = (0, 0);
    for (k, (out, want)) in got.iter().zip(&expected).enumerate() {
        match want {
            Expect::Failure(line) => {
                failures += 1;
                assert_eq!(out, line, "response {k}");
            }
            Expect::Id(id) => {
                answered += 1;
                let resp = databp_server::json::parse(out).expect("response is JSON");
                assert_eq!(
                    resp.get("id").and_then(|v| v.as_str()),
                    Some(id.as_str()),
                    "response {k}: {out}"
                );
            }
        }
    }
    // The mix exercises both sides.
    assert!(failures > 100 && answered > 50, "{failures} / {answered}");

    let known_good = br#"{"id":"final","workload":"struct_bench"}"#.to_vec();
    let after = serve_bytes(&server, known_good.clone());
    server.shutdown();
    let fresh = two_workers();
    let want = serve_bytes(&fresh, known_good);
    fresh.shutdown();
    assert_eq!(after, want);
    assert!(after[0].contains(r#""ok":true"#), "{}", after[0]);
}
