//! Line-delimited JSON protocol over arbitrary byte streams.
//!
//! One request per input line, one response per output line, responses
//! in *input order* regardless of which worker finishes first — the
//! protocol is the ordering boundary, the job queue underneath is
//! free-running. The driver is generic over `BufRead`/`Write` so the
//! same loop serves `repro serve` on stdin/stdout and the in-process
//! end-to-end tests on byte buffers.
//!
//! Three line forms:
//!
//! * a query object (see [`Request::parse_line`]) → answered with a
//!   result line;
//! * `{"stats": true}` → answered with the service counters, computed
//!   only after every earlier request has been answered, so a trailing
//!   probe observes the whole session;
//! * unparseable input → an immediate `ok: false` line (the service
//!   keeps going; one bad line must not poison a pipe). That includes
//!   lines that are not UTF-8 and lines longer than [`MAX_LINE_BYTES`],
//!   whose tail is skipped without being buffered.
//!
//! Responses are written eagerly: as soon as the front of the pending
//! queue is ready it is flushed, so a slow request delays its
//! successors' *output* but not their *processing*.

use std::io::{BufRead, Write};

use crate::request::{Request, RequestLine, Response};
use crate::server::{Server, ServerStats, Ticket};

/// The longest request line accepted, in bytes (its `\n` excluded).
/// Requests are under 1 KiB; a longer line is answered `ok: false`.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One enqueued output slot, in input order.
enum Pending {
    /// A submitted query waiting on its worker.
    Ticket(Ticket),
    /// An already-final response (parse error, rejection).
    Immediate(Box<Response>),
    /// A stats probe, resolved when it reaches the front.
    Stats,
}

/// Runs the serve loop until `input` is exhausted, writing one response
/// line per request line to `out`. Returns the number of request lines
/// handled.
///
/// # Errors
///
/// Returns any I/O error from `input` or `out` (the service itself
/// never errors the stream — bad requests become `ok: false` lines).
pub fn serve<R: BufRead, W: Write>(
    server: &Server,
    mut input: R,
    out: &mut W,
) -> std::io::Result<usize> {
    let mut pending: std::collections::VecDeque<Pending> = std::collections::VecDeque::new();
    let mut handled = 0usize;
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf)? {
        let parsed = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => Request::parse_line(line),
            Err(msg) => Err(msg),
        };
        handled += 1;
        let slot = match parsed {
            Ok(RequestLine::Stats) => Pending::Stats,
            Ok(RequestLine::Query(req)) => match server.submit(req) {
                Ok(ticket) => Pending::Ticket(ticket),
                Err(req) => {
                    Pending::Immediate(Box::new(Response::failure(&req.id, "rejected: queue full")))
                }
            },
            Err(msg) => Pending::Immediate(Box::new(Response::failure("", msg))),
        };
        pending.push_back(slot);
        drain(server, &mut pending, out, false)?;
    }
    drain(server, &mut pending, out, true)?;
    Ok(handled)
}

/// Reads the next line into `buf` (without its `\n` or a trailing `\r`,
/// as [`BufRead::lines`] strips them); `None` at end of input. Buffers at
/// most [`MAX_LINE_BYTES`]: past that the rest of the line is consumed
/// and dropped, and the line comes back as an error message, as does a
/// line that is not UTF-8.
fn read_line<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let (mut read_any, mut overlong) = (false, false);
    loop {
        let avail = match input.fill_buf() {
            Ok(avail) => avail,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if avail.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = avail.iter().position(|&b| b == b'\n');
        let chunk = &avail[..newline.unwrap_or(avail.len())];
        if buf.len() + chunk.len() > MAX_LINE_BYTES {
            overlong = true;
            buf.clear();
        } else if !overlong {
            buf.extend_from_slice(chunk);
        }
        let used = newline.map_or(avail.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            break;
        }
    }
    if overlong {
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| {
        "request line is not valid UTF-8".to_string()
    })))
}

/// Writes ready responses from the front of the queue; when `block` is
/// set, waits each slot out until the queue is empty.
fn drain<W: Write>(
    server: &Server,
    pending: &mut std::collections::VecDeque<Pending>,
    out: &mut W,
    block: bool,
) -> std::io::Result<()> {
    while let Some(front) = pending.front() {
        let resp = match front {
            Pending::Immediate(_) => {
                let Some(Pending::Immediate(resp)) = pending.pop_front() else {
                    unreachable!()
                };
                *resp
            }
            Pending::Stats => {
                pending.pop_front();
                stats_response(&server.stats())
            }
            Pending::Ticket(ticket) => match ticket.try_take() {
                Some(resp) => {
                    pending.pop_front();
                    resp
                }
                None if block => {
                    let Some(Pending::Ticket(ticket)) = pending.pop_front() else {
                        unreachable!()
                    };
                    ticket.wait()
                }
                None => return Ok(()), // front still cooking
            },
        };
        writeln!(out, "{}", resp.to_json_line())?;
        out.flush()?;
    }
    Ok(())
}

/// Renders the stats probe answer. Key names match the telemetry
/// counters so `grep server.cache.hits` works on either surface.
fn stats_response(stats: &ServerStats) -> Response {
    use crate::json::Value;
    let mut body = Value::obj();
    body.set("server.requests", Value::u64(stats.requests));
    body.set("server.cache.hits", Value::u64(stats.cache_hits));
    body.set("server.cache.misses", Value::u64(stats.cache_misses));
    body.set("server.cache.rewalks", Value::u64(stats.cache_rewalks));
    body.set("server.cache.bytes", Value::u64(stats.cache_bytes));
    body.set("server.cache.entries", Value::u64(stats.cache_entries));
    body.set("server.queue.rejected", Value::u64(stats.rejected));
    body.set("server.errors", Value::u64(stats.errors));
    Response {
        id: "stats".to_string(),
        ok: true,
        cache: None,
        error: None,
        body: Some(crate::request::raw_body(body)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::server::ServerConfig;
    use std::io::Cursor;

    fn run_lines(server: &Server, lines: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve(server, Cursor::new(lines.as_bytes()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn serves_queries_stats_and_garbage_in_input_order() {
        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let input = "\
{\"id\":\"q1\",\"workload\":\"cc\"}\n\
not json at all\n\
{\"id\":\"q2\",\"workload\":\"cc\"}\n\
{\"stats\":true}\n";
        let out = run_lines(&server, input);
        assert_eq!(out.len(), 4);

        let r1 = json::parse(&out[0]).unwrap();
        assert_eq!(r1.get("id").and_then(|v| v.as_str()), Some("q1"));
        assert_eq!(r1.get("ok").and_then(|v| v.as_bool()), Some(true));

        let bad = json::parse(&out[1]).unwrap();
        assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));

        let r2 = json::parse(&out[2]).unwrap();
        assert_eq!(r2.get("id").and_then(|v| v.as_str()), Some("q2"));
        // Exactly one of the duplicates traced and the other hit; with
        // two workers, *which* is which depends on scheduling (the
        // in-flight dedup makes the loser wait and wake to a hit).
        let mut statuses = vec![
            r1.get("cache")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string(),
            r2.get("cache")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string(),
        ];
        statuses.sort();
        assert_eq!(statuses, vec!["hit", "miss"]);
        // Byte-identical bodies: hit == miss.
        assert_eq!(
            r1.get("body").unwrap().to_string(),
            r2.get("body").unwrap().to_string()
        );

        // The trailing stats probe sees the whole session.
        let st = json::parse(&out[3]).unwrap();
        let body = st.get("body").unwrap();
        assert_eq!(
            body.get("server.requests").and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            body.get("server.cache.hits").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            body.get("server.cache.misses").and_then(|v| v.as_u64()),
            Some(1)
        );
        server.shutdown();
    }

    #[test]
    fn deep_nesting_fails_its_line_and_the_stream_goes_on() {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let input = format!("{}\n{{\"stats\":true}}\n", "[".repeat(200_000));
        let out = run_lines(&server, &input);
        assert_eq!(out.len(), 2);
        let bad = json::parse(&out[0]).unwrap();
        assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));
        let st = json::parse(&out[1]).unwrap();
        assert_eq!(st.get("ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(st.get("id").and_then(|v| v.as_str()), Some("stats"));
        server.shutdown();
    }

    /// Sends `bad` and then a stats probe: the bad line gets one
    /// `ok: false` answer and the probe is still answered.
    fn bad_line_then_stats(bad: &[u8]) -> String {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut input = bad.to_vec();
        input.extend_from_slice(b"\n{\"stats\":true}\n");
        let mut out = Vec::new();
        assert_eq!(serve(&server, Cursor::new(input), &mut out).unwrap(), 2);
        server.shutdown();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        let st = json::parse(lines[1]).unwrap();
        assert_eq!(st.get("id").and_then(|v| v.as_str()), Some("stats"));
        assert_eq!(st.get("ok").and_then(|v| v.as_bool()), Some(true));
        let bad = json::parse(lines[0]).unwrap();
        assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));
        bad.get("error")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string()
    }

    #[test]
    fn non_utf8_line_fails_alone() {
        assert_eq!(
            bad_line_then_stats(b"\xff\xfe"),
            "request line is not valid UTF-8"
        );
    }

    #[test]
    fn overlong_line_fails_alone() {
        // Valid JSON that parses fine at any length, so only the bound
        // can reject it.
        let mut line = b"{\"stats\":true".to_vec();
        line.resize(MAX_LINE_BYTES, b' ');
        line.push(b'}');
        assert_eq!(
            bad_line_then_stats(&line),
            "request line longer than 1048576 bytes"
        );
    }

    #[test]
    fn line_at_the_bound_is_served() {
        let mut line = b"{\"stats\":true".to_vec();
        // MAX_LINE_BYTES before the newline, `\r` included.
        line.resize(MAX_LINE_BYTES - 2, b' ');
        line.extend_from_slice(b"}\r\n");
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let mut out = Vec::new();
        serve(&server, Cursor::new(line), &mut out).unwrap();
        server.shutdown();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"ok\":true"), "{out}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let server = Server::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let out = run_lines(&server, "\n   \n{\"stats\":true}\n\n");
        assert_eq!(out.len(), 1);
        server.shutdown();
    }
}
