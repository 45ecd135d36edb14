//! The newline-framed ingest grammar and its typed, panic-free parser.
//!
//! One frame per line, fields split on ASCII whitespace:
//!
//! ```text
//! # anything            comment — skipped
//! R <tenant> <time> <src> <seq> <x> <y>     sensor report
//! T                                          tick boundary
//! Q trust <tenant> <node>                    trust-counter (v) query
//! Q round <tenant>                           round-cursor query
//! Q status                                   fleet/placement status query
//! ```
//!
//! Fleet peers speak a second newline-framed grammar on the fleet
//! port, parsed by [`parse_fleet_line`] with the same typed-error
//! discipline:
//!
//! ```text
//! FPING <from_id>                peer heartbeat probe
//! FPONG <from_id>                heartbeat reply
//! STATUS                         roster + trust + placement dump
//! MIGRATE <tenant> <dest_id>     operator: hand a tenant to a peer
//! MPUSH <tenant>                 migration bundle follows (framed bytes)
//! MOK <tenant>                   bundle installed
//! MERR <reason...>               transfer refused / failed
//! OK / ERR <reason...>           operator-command outcome
//! ```
//!
//! [`parse_line`] never panics on any input: every malformed line maps
//! to a typed [`IngestError`] the daemon counts under
//! `daemon.ingest.rejected` and drops without disturbing the stream.
//! Blank lines and comments parse to `Ok(None)`.

use std::fmt;
use std::io::{self, BufRead, Read};

/// Longest accepted line, in bytes. A well-formed report is < 120
/// bytes; the cap keeps a garbage (or hostile) upstream from growing
/// unbounded tokens in memory.
pub const MAX_LINE_BYTES: usize = 4096;

/// One parsed ingest frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A sensor report routed to one tenant.
    Report(Report),
    /// A tick boundary: close the open admission batch on every tenant.
    Tick,
    /// A read-only query, answered on stdout at the next tick boundary.
    Query(Query),
}

/// A sensor report: one event stimulus addressed to one tenant, with
/// an idempotency key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Hosted field index.
    pub tenant: usize,
    /// Logical tick the record belongs to (informational; batching is
    /// driven by `T` frames).
    pub time: u64,
    /// Upstream feed id — dedup key, with `seq`.
    pub src: u64,
    /// Monotone per-`src` sequence number.
    pub seq: u64,
    /// Event stimulus x.
    pub x: f64,
    /// Event stimulus y.
    pub y: f64,
}

/// A read-only query frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Raw trust counter `v` of `node` in `tenant`'s field (bit-exact
    /// `f64`; the trust index is `TI = e^(−λv)`).
    Trust {
        /// Hosted field index.
        tenant: usize,
        /// Node index inside the field.
        node: usize,
    },
    /// How many event rounds `tenant` has completed.
    Round {
        /// Hosted field index.
        tenant: usize,
    },
    /// Fleet status: peer roster, per-peer trust, tenant placement.
    /// Answered by the daemon itself (not routed to a tenant).
    Status,
}

/// Why a line was rejected. Every variant is counted, none aborts the
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Line exceeds [`MAX_LINE_BYTES`].
    Oversized {
        /// Observed length in bytes.
        len: usize,
    },
    /// First token is not a known frame tag.
    UnknownTag(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field failed numeric parsing.
    BadNumber {
        /// Which field.
        field: &'static str,
        /// The offending token (truncated to 32 bytes).
        token: String,
    },
    /// A coordinate parsed to NaN or ±∞ — the engines only accept
    /// finite stimuli.
    NonFinite {
        /// Which field.
        field: &'static str,
    },
    /// Extra tokens after a complete frame.
    TrailingGarbage,
    /// `Q` with an unknown query kind.
    UnknownQuery(String),
    /// The line is not valid UTF-8 (reported by the framing layer).
    NotUtf8,
}

impl IngestError {
    /// Stable counter key for the rejection breakdown
    /// (`daemon.ingest.rejected.<kind>`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            IngestError::Oversized { .. } => "oversized",
            IngestError::UnknownTag(_) => "unknown_tag",
            IngestError::MissingField(_) => "missing_field",
            IngestError::BadNumber { .. } => "bad_number",
            IngestError::NonFinite { .. } => "non_finite",
            IngestError::TrailingGarbage => "trailing_garbage",
            IngestError::UnknownQuery(_) => "unknown_query",
            IngestError::NotUtf8 => "not_utf8",
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Oversized { len } => {
                write!(f, "line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte frame cap")
            }
            IngestError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:?}"),
            IngestError::MissingField(field) => write!(f, "missing field {field}"),
            IngestError::BadNumber { field, token } => {
                write!(f, "field {field} is not a number: {token:?}")
            }
            IngestError::NonFinite { field } => write!(f, "field {field} must be finite"),
            IngestError::TrailingGarbage => write!(f, "trailing tokens after a complete frame"),
            IngestError::UnknownQuery(kind) => write!(f, "unknown query kind {kind:?}"),
            IngestError::NotUtf8 => write!(f, "line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for IngestError {}

fn truncated(token: &str) -> String {
    let mut end = token.len().min(32);
    while !token.is_char_boundary(end) {
        end -= 1;
    }
    token[..end].to_string()
}

fn take<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    field: &'static str,
) -> Result<&'a str, IngestError> {
    it.next().ok_or(IngestError::MissingField(field))
}

fn parse_u64(token: &str, field: &'static str) -> Result<u64, IngestError> {
    token.parse().map_err(|_| IngestError::BadNumber {
        field,
        token: truncated(token),
    })
}

fn parse_usize(token: &str, field: &'static str) -> Result<usize, IngestError> {
    token.parse().map_err(|_| IngestError::BadNumber {
        field,
        token: truncated(token),
    })
}

fn parse_coord(token: &str, field: &'static str) -> Result<f64, IngestError> {
    let v: f64 = token.parse().map_err(|_| IngestError::BadNumber {
        field,
        token: truncated(token),
    })?;
    if !v.is_finite() {
        return Err(IngestError::NonFinite { field });
    }
    Ok(v)
}

fn end_of<'a>(mut it: impl Iterator<Item = &'a str>) -> Result<(), IngestError> {
    if it.next().is_some() {
        return Err(IngestError::TrailingGarbage);
    }
    Ok(())
}

/// The bounded line framer every socket and replay reader goes through:
/// reads the next line of `input` into `raw` and returns its text,
/// newline excluded. `Ok(None)` at end of stream.
///
/// At most `MAX_LINE_BYTES + 1` bytes ever enter `raw`. A longer line
/// keeps its first `MAX_LINE_BYTES + 1` bytes there, the rest is counted
/// and discarded, and it yields [`IngestError::Oversized`] with its full
/// length, whatever its bytes. A line within the cap that is not UTF-8
/// yields [`IngestError::NotUtf8`]. Exactly the line and its newline
/// are consumed, so a framed payload may follow on the same reader.
pub(crate) fn read_bounded_line<'a>(
    input: &mut impl BufRead,
    raw: &'a mut Vec<u8>,
) -> io::Result<Option<Result<&'a str, IngestError>>> {
    raw.clear();
    if input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', raw)? == 0 {
        return Ok(None);
    }
    if raw.last() == Some(&b'\n') {
        raw.pop();
    } else if raw.len() > MAX_LINE_BYTES {
        let mut len = raw.len();
        loop {
            let available = match input.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let end = available.iter().position(|&b| b == b'\n');
            let skip = end.unwrap_or(available.len());
            len += skip;
            input.consume(skip + usize::from(end.is_some()));
            if end.is_some() || skip == 0 {
                return Ok(Some(Err(IngestError::Oversized { len })));
            }
        }
    }
    Ok(Some(std::str::from_utf8(raw).map_err(|_| IngestError::NotUtf8)))
}

/// Frames the line at the start of `buf` in place when `buf` holds all
/// of it and it is within [`MAX_LINE_BYTES`]: its text, typed as
/// [`read_bounded_line`] types it, and the bytes it spans with its
/// newline. `None` for a line `buf` cuts or one over the cap, which
/// [`read_bounded_line`] must frame.
pub(crate) fn frame_in_place(buf: &[u8]) -> Option<(Result<&str, IngestError>, usize)> {
    let len = find_newline(&buf[..buf.len().min(MAX_LINE_BYTES + 1)])?;
    let line = std::str::from_utf8(&buf[..len]).map_err(|_| IngestError::NotUtf8);
    Some((line, len + 1))
}

/// The index of the first `\n` in `buf`, eight bytes at a time: a word
/// XORed with eight newlines has a zero byte where `buf` has one, and
/// `(w - 0x01..01) & !w & 0x80..80` marks the lowest zero byte exactly
/// (a borrow can only mark bytes above it).
fn find_newline(buf: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = buf.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ NEWLINES;
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(buf.len() - tail.len() + at)
}

/// [`read_bounded_line`] then [`parse_frame`]: the router, fleet
/// catch-up and the fan-in readers all decode ingest through this, each
/// with its own policy for what a parsed line means.
pub(crate) fn read_frame(
    input: &mut impl BufRead,
    raw: &mut Vec<u8>,
) -> io::Result<Option<Result<Option<Frame>, IngestError>>> {
    Ok(read_bounded_line(input, raw)?.map(|line| line.and_then(parse_frame)))
}

/// Parses one line into a frame. `Ok(None)` for blank lines and
/// comments; typed errors for everything malformed. Never panics.
///
/// # Errors
///
/// Any [`IngestError`] variant except [`IngestError::NotUtf8`] (which
/// the byte-level framing layer reports before text reaches here).
pub fn parse_line(line: &str) -> Result<Option<Frame>, IngestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(IngestError::Oversized { len: line.len() });
    }
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut it = line.split_ascii_whitespace();
    let Some(tag) = it.next() else {
        return Ok(None);
    };
    match tag {
        _ if tag.starts_with('#') => Ok(None),
        "R" => {
            let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
            let time = parse_u64(take(&mut it, "time")?, "time")?;
            let src = parse_u64(take(&mut it, "src")?, "src")?;
            let seq = parse_u64(take(&mut it, "seq")?, "seq")?;
            let x = parse_coord(take(&mut it, "x")?, "x")?;
            let y = parse_coord(take(&mut it, "y")?, "y")?;
            end_of(it)?;
            Ok(Some(Frame::Report(Report {
                tenant,
                time,
                src,
                seq,
                x,
                y,
            })))
        }
        "T" => {
            end_of(it)?;
            Ok(Some(Frame::Tick))
        }
        "Q" => {
            let kind = take(&mut it, "query kind")?;
            let frame = match kind {
                "trust" => {
                    let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
                    let node = parse_usize(take(&mut it, "node")?, "node")?;
                    Query::Trust { tenant, node }
                }
                "round" => {
                    let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
                    Query::Round { tenant }
                }
                "status" => Query::Status,
                other => return Err(IngestError::UnknownQuery(truncated(other))),
            };
            end_of(it)?;
            Ok(Some(Frame::Query(frame)))
        }
        other => Err(IngestError::UnknownTag(truncated(other))),
    }
}

/// The router's parser: [`parse_line`] with a fast path for a plain
/// `R` line, its fields split by single spaces and its integers decimal
/// digits. Every other line goes through [`parse_line`], and the fast
/// path yields what [`parse_line`] would, to the bit.
///
/// # Errors
///
/// Exactly those of [`parse_line`].
pub fn parse_frame(line: &str) -> Result<Option<Frame>, IngestError> {
    match fast_report(line) {
        Some(report) => Ok(Some(Frame::Report(report))),
        None => parse_line(line),
    }
}

fn fast_report(line: &str) -> Option<Report> {
    let mut fields = Fields {
        text: line.strip_prefix("R ")?,
        at: 0,
    };
    let tenant = usize::try_from(fields.uint()?).ok()?;
    let time = fields.uint()?;
    let src = fields.uint()?;
    let seq = fields.uint()?;
    let x = fields.coord()?;
    let y = fields.coord()?;
    (fields.at >= fields.text.len()).then_some(Report {
        tenant,
        time,
        src,
        seq,
        x,
        y,
    })
}

/// Powers of ten a `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A fast `R` line's fields, read in one pass: each ends at a single
/// space or the end of the line. `None` wherever [`parse_line`] must
/// decide instead.
struct Fields<'a> {
    text: &'a str,
    at: usize,
}

impl Fields<'_> {
    /// Decimal digits that fit a `u64`, as `str::parse::<u64>` reads
    /// them.
    fn uint(&mut self) -> Option<u64> {
        let bytes = self.text.as_bytes();
        let start = self.at;
        let mut n = 0u64;
        while let Some(&b) = bytes.get(self.at).filter(|&&b| b != b' ') {
            let digit = b.checked_sub(b'0').filter(|&d| d <= 9)?;
            n = n.checked_mul(10)?.checked_add(u64::from(digit))?;
            self.at += 1;
        }
        let empty = self.at == start;
        self.at += 1;
        (!empty).then_some(n)
    }

    /// A finite coordinate with the bits `str::parse::<f64>` gives it.
    /// `[-]digits[.digits]` whose digits, point removed, form a mantissa
    /// `m <= 2^53` with at most 22 after the point is converted here:
    /// `m` and `10^k` are exact, so `m / 10^k` is one correctly rounded
    /// division, the value `str::parse::<f64>` returns (Clinger's fast
    /// path). Any other number goes through `str::parse::<f64>`.
    fn coord(&mut self) -> Option<f64> {
        let bytes = self.text.as_bytes();
        let start = self.at;
        let negative = bytes.get(start) == Some(&b'-');
        self.at += usize::from(negative);
        let (mut m, mut digits, mut point) = (0u64, 0usize, None);
        while let Some(&b) = bytes.get(self.at).filter(|&&b| b != b' ') {
            match b {
                b'0'..=b'9' => {
                    m = m.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    digits += 1;
                }
                b'.' if point.is_none() => point = Some(digits),
                _ => return None,
            }
            self.at += 1;
        }
        let token = self.text.get(start..self.at)?;
        self.at += 1;
        let frac = point.map_or(0, |p| digits - p);
        let exact = digits <= 19
            && m <= 1 << 53
            && frac < EXACT_POW10.len()
            && digits > frac
            && (point.is_none() || frac > 0);
        let value = if exact {
            #[allow(clippy::cast_precision_loss)]
            let magnitude = m as f64 / EXACT_POW10[frac];
            if negative {
                -magnitude
            } else {
                magnitude
            }
        } else {
            token.parse().ok()?
        };
        value.is_finite().then_some(value)
    }
}

/// One parsed fleet-port frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetMsg {
    /// Heartbeat probe from peer `from`.
    Ping {
        /// Sender's fleet id.
        from: usize,
    },
    /// Heartbeat reply from peer `from`.
    Pong {
        /// Sender's fleet id.
        from: usize,
    },
    /// Roster/trust/placement dump request.
    Status,
    /// Operator order: migrate `tenant` to peer `dest`.
    Migrate {
        /// Tenant to move.
        tenant: usize,
        /// Destination fleet id.
        dest: usize,
    },
    /// A migration bundle for `tenant` follows as framed bytes.
    Push {
        /// Tenant the bundle carries.
        tenant: usize,
    },
    /// Bundle for `tenant` installed successfully.
    PushOk {
        /// Tenant acknowledged.
        tenant: usize,
    },
    /// Transfer refused or failed; the reason is free text.
    PushErr(String),
}

/// Parses one fleet-port line with the same typed, panic-free
/// discipline as [`parse_line`]. `Ok(None)` for blanks and comments.
///
/// # Errors
///
/// The same [`IngestError`] variants the ingest parser uses.
pub fn parse_fleet_line(line: &str) -> Result<Option<FleetMsg>, IngestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(IngestError::Oversized { len: line.len() });
    }
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut it = line.split_ascii_whitespace();
    let Some(tag) = it.next() else {
        return Ok(None);
    };
    match tag {
        _ if tag.starts_with('#') => Ok(None),
        "FPING" => {
            let from = parse_usize(take(&mut it, "from")?, "from")?;
            end_of(it)?;
            Ok(Some(FleetMsg::Ping { from }))
        }
        "FPONG" => {
            let from = parse_usize(take(&mut it, "from")?, "from")?;
            end_of(it)?;
            Ok(Some(FleetMsg::Pong { from }))
        }
        "STATUS" => {
            end_of(it)?;
            Ok(Some(FleetMsg::Status))
        }
        "MIGRATE" => {
            let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
            let dest = parse_usize(take(&mut it, "dest")?, "dest")?;
            end_of(it)?;
            Ok(Some(FleetMsg::Migrate { tenant, dest }))
        }
        "MPUSH" => {
            let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
            end_of(it)?;
            Ok(Some(FleetMsg::Push { tenant }))
        }
        "MOK" => {
            let tenant = parse_usize(take(&mut it, "tenant")?, "tenant")?;
            end_of(it)?;
            Ok(Some(FleetMsg::PushOk { tenant }))
        }
        "MERR" => {
            let reason: Vec<&str> = it.collect();
            Ok(Some(FleetMsg::PushErr(reason.join(" "))))
        }
        other => Err(IngestError::UnknownTag(truncated(other))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_frame_kinds() {
        assert_eq!(
            parse_line("R 2 7 2 15 1.5 -0.25").unwrap(),
            Some(Frame::Report(Report {
                tenant: 2,
                time: 7,
                src: 2,
                seq: 15,
                x: 1.5,
                y: -0.25,
            }))
        );
        assert_eq!(parse_line("T").unwrap(), Some(Frame::Tick));
        assert_eq!(
            parse_line("Q trust 0 31").unwrap(),
            Some(Frame::Query(Query::Trust { tenant: 0, node: 31 }))
        );
        assert_eq!(
            parse_line("Q round 1").unwrap(),
            Some(Frame::Query(Query::Round { tenant: 1 }))
        );
        assert_eq!(
            parse_line("Q status").unwrap(),
            Some(Frame::Query(Query::Status))
        );
    }

    #[test]
    fn fleet_lines_parse_and_reject_like_ingest_lines() {
        assert_eq!(parse_fleet_line("FPING 2").unwrap(), Some(FleetMsg::Ping { from: 2 }));
        assert_eq!(parse_fleet_line("FPONG 0").unwrap(), Some(FleetMsg::Pong { from: 0 }));
        assert_eq!(parse_fleet_line("STATUS").unwrap(), Some(FleetMsg::Status));
        assert_eq!(
            parse_fleet_line("MIGRATE 3 1").unwrap(),
            Some(FleetMsg::Migrate { tenant: 3, dest: 1 })
        );
        assert_eq!(parse_fleet_line("MPUSH 3").unwrap(), Some(FleetMsg::Push { tenant: 3 }));
        assert_eq!(parse_fleet_line("MOK 3").unwrap(), Some(FleetMsg::PushOk { tenant: 3 }));
        assert_eq!(
            parse_fleet_line("MERR bundle failed its CRC check").unwrap(),
            Some(FleetMsg::PushErr("bundle failed its CRC check".into()))
        );
        assert_eq!(parse_fleet_line("").unwrap(), None);
        assert_eq!(parse_fleet_line("# hb").unwrap(), None);
        assert_eq!(
            parse_fleet_line("GOSSIP 1").unwrap_err(),
            IngestError::UnknownTag("GOSSIP".into())
        );
        assert_eq!(parse_fleet_line("FPING").unwrap_err(), IngestError::MissingField("from"));
        assert_eq!(parse_fleet_line("FPING 1 2").unwrap_err(), IngestError::TrailingGarbage);
        assert!(matches!(
            parse_fleet_line("MIGRATE x 1").unwrap_err(),
            IngestError::BadNumber { field: "tenant", .. }
        ));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# tibfit replay v1").unwrap(), None);
        assert_eq!(parse_line("#no-space-comment").unwrap(), None);
    }

    #[test]
    fn crlf_is_tolerated() {
        assert_eq!(parse_line("T\r").unwrap(), Some(Frame::Tick));
    }

    #[test]
    fn malformed_lines_map_to_typed_errors() {
        assert_eq!(parse_line("X 1 2").unwrap_err(), IngestError::UnknownTag("X".into()));
        assert_eq!(parse_line("R 1 2 3").unwrap_err(), IngestError::MissingField("seq"));
        assert!(matches!(
            parse_line("R a 2 3 4 5 6").unwrap_err(),
            IngestError::BadNumber { field: "tenant", .. }
        ));
        assert_eq!(
            parse_line("R 1 2 3 4 NaN 6").unwrap_err(),
            IngestError::NonFinite { field: "x" }
        );
        assert_eq!(
            parse_line("R 1 2 3 4 inf 6").unwrap_err(),
            IngestError::NonFinite { field: "x" }
        );
        assert_eq!(parse_line("T extra").unwrap_err(), IngestError::TrailingGarbage);
        assert_eq!(
            parse_line("Q votes 1").unwrap_err(),
            IngestError::UnknownQuery("votes".into())
        );
        let oversized = format!("R {}", "9".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse_line(&oversized).unwrap_err(), IngestError::Oversized { .. }));
    }

    #[test]
    fn the_framer_bounds_an_endless_line_and_resyncs_after_it() {
        const HUGE: usize = 16 << 20;
        let mut input = io::BufReader::new(io::repeat(b'x').take(HUGE as u64).chain(&b"\nT\n"[..]));
        let mut raw = Vec::new();
        assert_eq!(
            read_frame(&mut input, &mut raw).unwrap(),
            Some(Err(IngestError::Oversized { len: HUGE }))
        );
        assert!(raw.capacity() < 64 << 10, "kept {} bytes", raw.capacity());
        assert_eq!(read_frame(&mut input, &mut raw).unwrap(), Some(Ok(Some(Frame::Tick))));
        assert_eq!(read_frame(&mut input, &mut raw).unwrap(), None);
    }

    #[test]
    fn the_framer_types_each_line_and_stops_at_its_newline() {
        let mut bytes = b"T\r\n\xff\xfe\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'9', MAX_LINE_BYTES));
        bytes.extend_from_slice(b"\n");
        bytes.extend(std::iter::repeat_n(b'\xff', MAX_LINE_BYTES + 1));
        bytes.extend_from_slice(b"\npayload");
        let mut input = io::Cursor::new(bytes);
        let mut raw = Vec::new();
        assert_eq!(read_bounded_line(&mut input, &mut raw).unwrap(), Some(Ok("T\r")));
        let not_utf8 = read_bounded_line(&mut input, &mut raw).unwrap();
        assert_eq!(not_utf8, Some(Err(IngestError::NotUtf8)));
        let at_cap = read_bounded_line(&mut input, &mut raw).unwrap().unwrap().unwrap();
        assert_eq!(at_cap.len(), MAX_LINE_BYTES);
        // Over the cap, length wins over encoding.
        assert_eq!(
            read_bounded_line(&mut input, &mut raw).unwrap(),
            Some(Err(IngestError::Oversized { len: MAX_LINE_BYTES + 1 }))
        );
        assert_eq!(raw.len(), MAX_LINE_BYTES + 1);
        let mut rest = String::new();
        input.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "payload");
    }

    /// In-place framing agrees with the bounded framer on every line it
    /// takes, and leaves to it exactly the lines a buffer cuts or that
    /// exceed the cap: seeded buffers of `R`-like text, `\r`, invalid
    /// UTF-8 and lines near the cap.
    #[test]
    fn in_place_framing_matches_the_bounded_framer() {
        let mut rng = tibfit_sim::rng::SimRng::seed_from(17);
        for _ in 0..2_000 {
            let mut buf = Vec::new();
            while buf.len() < 200 {
                match rng.uniform_usize(6) {
                    0 => {
                        let len = MAX_LINE_BYTES - 1 + rng.uniform_usize(3);
                        buf.extend(std::iter::repeat_n(b'7', len));
                    }
                    1 => buf.extend_from_slice(b"\xff\xc3"),
                    2 => buf.extend_from_slice(b"\r\n"),
                    _ => buf.extend_from_slice(b"R 0 1 2 3 4.5 -6\n"),
                }
            }
            let buf = &buf[..rng.uniform_usize(buf.len() + 1)];
            let mut reader = io::Cursor::new(buf);
            let mut raw = Vec::new();
            let mut at = 0;
            while let Some((line, len)) = frame_in_place(&buf[at..]) {
                let framed = read_bounded_line(&mut reader, &mut raw).unwrap();
                assert_eq!(Some(line), framed);
                at += len;
                assert_eq!(reader.position() as usize, at);
            }
            let rest = &buf[at..];
            let newline = rest.iter().position(|&b| b == b'\n');
            assert!(newline.is_none_or(|n| n > MAX_LINE_BYTES), "a framable line was left");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let x = 0.1_f64 + 0.2_f64;
        let line = format!("R 0 0 0 1 {x} {}", f64::MIN_POSITIVE);
        let Some(Frame::Report(r)) = parse_line(&line).unwrap() else {
            panic!("expected a report");
        };
        assert_eq!(r.x.to_bits(), x.to_bits());
        assert_eq!(r.y.to_bits(), f64::MIN_POSITIVE.to_bits());
    }
}
