//! The text trace codec and the error type every trace codec shares.
//!
//! The binary form of a trace is DBPT columnar (`columnar.rs`); the
//! text format is a line-oriented mirror of it for inspection and
//! diffing:
//!
//! ```text
//! I G3 00100000 00100004
//! W 00010004 00100000 00100004 0000002a 00000000
//! E 17            (enter)
//! X 17            (exit)
//! ```
//!
//! `W` lines carry exactly five fields: pc, ba, ea, the written value
//! and the overwritten (old) value.

use crate::event::{Event, ObjectDesc, Trace};
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

/// Errors from reading a serialized trace.
#[derive(Debug)]
pub enum TraceCodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic, version, tag, or malformed text line; the message names
    /// the offending element.
    Malformed(String),
}

impl fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceCodecError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceCodecError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl Error for TraceCodecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceCodecError::Io(e) => Some(e),
            TraceCodecError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for TraceCodecError {
    fn from(e: io::Error) -> Self {
        TraceCodecError::Io(e)
    }
}

/// Serializes `trace` in the line-oriented text format.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_text(trace: &Trace, w: &mut impl Write) -> io::Result<()> {
    for e in trace.events() {
        match *e {
            Event::Install { obj, ba, ea } => writeln!(w, "I {obj} {ba:08x} {ea:08x}")?,
            Event::Remove { obj, ba, ea } => writeln!(w, "R {obj} {ba:08x} {ea:08x}")?,
            Event::Write {
                pc,
                ba,
                ea,
                value,
                old,
            } => writeln!(w, "W {pc:08x} {ba:08x} {ea:08x} {value:08x} {old:08x}")?,
            Event::Enter { func } => writeln!(w, "E {func}")?,
            Event::Exit { func } => writeln!(w, "X {func}")?,
        }
    }
    Ok(())
}

fn parse_obj(s: &str) -> Result<ObjectDesc, TraceCodecError> {
    let bad = || TraceCodecError::Malformed(format!("object descriptor {s:?}"));
    let (kind, rest) = s.split_at(1);
    match kind {
        "G" => Ok(ObjectDesc::Global {
            id: rest.parse().map_err(|_| bad())?,
        }),
        "H" => Ok(ObjectDesc::Heap {
            seq: rest.parse().map_err(|_| bad())?,
        }),
        "L" => {
            let (f, v) = rest.split_once('.').ok_or_else(bad)?;
            Ok(ObjectDesc::Local {
                func: f.parse().map_err(|_| bad())?,
                var: v.parse().map_err(|_| bad())?,
            })
        }
        _ => Err(bad()),
    }
}

fn parse_hex(s: &str) -> Result<u32, TraceCodecError> {
    u32::from_str_radix(s, 16).map_err(|_| TraceCodecError::Malformed(format!("hex field {s:?}")))
}

/// Parses the text format.
///
/// # Errors
///
/// [`TraceCodecError::Malformed`] with the offending line content.
pub fn read_text(input: &str) -> Result<Trace, TraceCodecError> {
    let mut trace = Trace::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = || TraceCodecError::Malformed(format!("line {}: {line:?}", lineno + 1));
        let tag = parts.next().ok_or_else(bad)?;
        let e = match tag {
            "I" | "R" => {
                let obj = parse_obj(parts.next().ok_or_else(bad)?)?;
                let ba = parse_hex(parts.next().ok_or_else(bad)?)?;
                let ea = parse_hex(parts.next().ok_or_else(bad)?)?;
                if tag == "I" {
                    Event::Install { obj, ba, ea }
                } else {
                    Event::Remove { obj, ba, ea }
                }
            }
            "W" => {
                let pc = parse_hex(parts.next().ok_or_else(bad)?)?;
                let ba = parse_hex(parts.next().ok_or_else(bad)?)?;
                let ea = parse_hex(parts.next().ok_or_else(bad)?)?;
                let value = parse_hex(parts.next().ok_or_else(bad)?)?;
                let old = parse_hex(parts.next().ok_or_else(bad)?)?;
                Event::Write {
                    pc,
                    ba,
                    ea,
                    value,
                    old,
                }
            }
            "E" => Event::Enter {
                func: parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?,
            },
            "X" => Event::Exit {
                func: parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        trace.push(e);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            Event::Install {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0x10_0000,
                ea: 0x10_0004,
            },
            Event::Enter { func: 3 },
            Event::Install {
                obj: ObjectDesc::Local { func: 3, var: 1 },
                ba: 0xeffff0,
                ea: 0xeffff4,
            },
            Event::Write {
                pc: 0x1_0010,
                ba: 0xeffff0,
                ea: 0xeffff4,
                value: 42,
                old: 7,
            },
            Event::Install {
                obj: ObjectDesc::Heap { seq: 2 },
                ba: 0x40_0000,
                ea: 0x40_0010,
            },
            Event::Write {
                pc: 0x1_0020,
                ba: 0x40_0008,
                ea: 0x40_0009,
                value: 0xff,
                old: 0,
            },
            Event::Remove {
                obj: ObjectDesc::Heap { seq: 2 },
                ba: 0x40_0000,
                ea: 0x40_0010,
            },
            Event::Remove {
                obj: ObjectDesc::Local { func: 3, var: 1 },
                ba: 0xeffff0,
                ea: 0xeffff4,
            },
            Event::Exit { func: 3 },
            Event::Remove {
                obj: ObjectDesc::Global { id: 0 },
                ba: 0x10_0000,
                ea: 0x10_0004,
            },
        ])
    }

    #[test]
    fn text_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = read_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn write_lines_need_exactly_five_fields() {
        let t = read_text("W 00010010 00100000 00100004 0000002a 00000007\n").unwrap();
        assert_eq!(
            t.events(),
            &[Event::Write {
                pc: 0x1_0010,
                ba: 0x10_0000,
                ea: 0x10_0004,
                value: 0x2a,
                old: 7,
            }]
        );
        for line in [
            "W 00010010 00100000 00100004",
            "W 00010010 00100000 00100004 0000002a",
            "W 00010010 00100000 00100004 0000002a 00000007 0",
        ] {
            assert!(read_text(line).is_err(), "{line:?} decoded");
        }
    }

    #[test]
    fn text_ignores_comments_and_blank_lines() {
        let t = read_text("# comment\n\nE 1\nX 1\n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text("Q 1 2 3").is_err());
        assert!(read_text("W zz 0 0").is_err());
        assert!(read_text("I G1 0 0 extra").is_err());
        assert!(read_text("I Z1 0 0").is_err());
        assert!(read_text("L no-dot").is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let mut tb = Vec::new();
        write_text(&t, &mut tb).unwrap();
        assert_eq!(read_text(std::str::from_utf8(&tb).unwrap()).unwrap(), t);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceCodecError::Malformed("line 3".into());
        assert!(e.to_string().contains("line 3"));
    }
}
