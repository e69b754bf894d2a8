//! The RESP protocol (REdis Serialization Protocol), v2.
//!
//! Implements the subset Redis clients use for the paper's workloads:
//! command arrays of bulk strings in, simple strings / errors / integers
//! / bulk strings out. The incremental parser tolerates partial input
//! (TCP delivers byte streams, not messages) and answers malformed or
//! oversized input with a typed [`RespError`]: every length and the
//! nesting depth are bounded, so no byte string can panic the host,
//! wrap an offset, or wedge a connection behind an unbounded buffer.
//!
//! The hot paths allocate nothing per message: encoders append to a
//! caller's buffer, [`RespParser::parse_command`] hands out argument
//! slices of its own buffer (their ranges kept in a reused vector), and [`RespParser::next_reply`] checks and
//! consumes a reply without copying its payload.

use std::fmt;
use std::ops::Range;

/// Largest number of bytes one command or reply may span, bulk payload
/// included. A value still incomplete past this many buffered bytes is
/// a [`RespError::FrameTooLong`].
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Largest element count of one array.
pub const MAX_ARRAY_LEN: usize = 1024;

/// Most levels of array nesting a reply may use (a command is one).
pub const MAX_DEPTH: usize = 8;

/// A RESP reply value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespValue {
    /// `+OK\r\n`
    Simple(String),
    /// `-ERR ...\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`, or `$-1\r\n` for nil.
    Bulk(Option<Vec<u8>>),
    /// `*N\r\n...`
    Array(Vec<RespValue>),
}

impl fmt::Display for RespValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespValue::Simple(s) => write!(f, "+{s}"),
            RespValue::Error(e) => write!(f, "-{e}"),
            RespValue::Integer(i) => write!(f, ":{i}"),
            RespValue::Bulk(Some(b)) => write!(f, "${}", String::from_utf8_lossy(b)),
            RespValue::Bulk(None) => write!(f, "$nil"),
            RespValue::Array(items) => write!(f, "*[{}]", items.len()),
        }
    }
}

/// Why a byte stream is not RESP. The parser that returned one is
/// spent: it drops its buffer and every later byte, and the server
/// answers `-ERR protocol error` and closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespError {
    /// A value starts with a byte that is no RESP type tag.
    UnknownTag(u8),
    /// A length or integer is not a decimal `i64` (or is a negative
    /// length other than the nil marker `-1`).
    BadNumber,
    /// A line or bulk payload is not terminated by CRLF.
    BadTerminator,
    /// A bulk string declares more than [`MAX_FRAME_LEN`] bytes.
    BulkTooLong,
    /// An array declares more than [`MAX_ARRAY_LEN`] elements.
    ArrayTooLong,
    /// Arrays nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A value is still incomplete after [`MAX_FRAME_LEN`] bytes.
    FrameTooLong,
    /// A command is not an array of (non-nil) bulk strings.
    NotACommand,
}

impl fmt::Display for RespError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespError::UnknownTag(b) => write!(f, "unknown type tag 0x{b:02x}"),
            RespError::BadNumber => write!(f, "invalid length or integer"),
            RespError::BadTerminator => write!(f, "missing CRLF terminator"),
            RespError::BulkTooLong => write!(f, "bulk string longer than {MAX_FRAME_LEN} bytes"),
            RespError::ArrayTooLong => write!(f, "array longer than {MAX_ARRAY_LEN} elements"),
            RespError::TooDeep => write!(f, "arrays nested deeper than {MAX_DEPTH}"),
            RespError::FrameTooLong => write!(f, "value longer than {MAX_FRAME_LEN} bytes"),
            RespError::NotACommand => write!(f, "command is not an array of bulk strings"),
        }
    }
}

impl std::error::Error for RespError {}

/// The reply a server sends before closing on a [`RespError`].
pub const PROTOCOL_ERROR_REPLY: &[u8] = b"-ERR protocol error\r\n";

// --- encoding ----------------------------------------------------------------------

/// Appends the decimal digits of `n` (with `-` when `neg`), no allocation.
fn put_decimal(out: &mut Vec<u8>, neg: bool, mut n: u64) {
    let mut digits = [0u8; 21];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if neg {
        i -= 1;
        digits[i] = b'-';
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends a `<tag><len>\r\n` header.
fn put_header(out: &mut Vec<u8>, tag: u8, len: usize) {
    out.push(tag);
    put_decimal(out, false, len as u64);
    out.extend_from_slice(b"\r\n");
}

/// Appends a simple string `+text\r\n`.
pub fn encode_simple(text: &str, out: &mut Vec<u8>) {
    out.push(b'+');
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends an error `-text\r\n`.
pub fn encode_error(text: &str, out: &mut Vec<u8>) {
    out.push(b'-');
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends an integer `:n\r\n`.
pub fn encode_integer(n: i64, out: &mut Vec<u8>) {
    out.push(b':');
    put_decimal(out, n < 0, n.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// Appends a bulk string, or the nil bulk `$-1\r\n` for `None`.
pub fn encode_bulk(bytes: Option<&[u8]>, out: &mut Vec<u8>) {
    match bytes {
        Some(b) => {
            put_header(out, b'$', b.len());
            out.extend_from_slice(b);
            out.extend_from_slice(b"\r\n");
        }
        None => out.extend_from_slice(b"$-1\r\n"),
    }
}

/// Encodes a reply value to wire bytes.
pub fn encode(v: &RespValue) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(v, &mut out);
    out
}

/// Appends the wire bytes of `v` to `out`.
pub fn encode_into(v: &RespValue, out: &mut Vec<u8>) {
    match v {
        RespValue::Simple(s) => encode_simple(s, out),
        RespValue::Error(e) => encode_error(e, out),
        RespValue::Integer(i) => encode_integer(*i, out),
        RespValue::Bulk(b) => encode_bulk(b.as_deref(), out),
        RespValue::Array(items) => {
            put_header(out, b'*', items.len());
            for item in items {
                encode_into(item, out);
            }
        }
    }
}

/// Encodes a client command (array of bulk strings).
pub fn encode_command(args: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_command_into(args, &mut out);
    out
}

/// Appends a client command (array of bulk strings) to `out`.
pub fn encode_command_into(args: &[&[u8]], out: &mut Vec<u8>) {
    put_header(out, b'*', args.len());
    for a in args {
        encode_bulk(Some(a), out);
    }
}

// --- decoding ----------------------------------------------------------------------

/// One parsed client command, borrowed from the parser (valid until it
/// is next fed or parsed): the byte range of each argument, recorded
/// while the command was validated, over the bytes they index.
#[derive(Debug, Clone, Copy)]
pub struct Command<'a> {
    bytes: &'a [u8],
    args: &'a [Range<usize>],
}

impl<'a> Command<'a> {
    /// Whether the command has no arguments (`*0` or `*-1`).
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }

    /// Argument `i` (0 is the command name).
    pub fn arg(&self, i: usize) -> Option<&'a [u8]> {
        let bytes = self.bytes;
        self.args.get(i).map(|r| &bytes[r.clone()])
    }

    /// The arguments in order.
    pub fn args(&self) -> impl Iterator<Item = &'a [u8]> {
        let bytes = self.bytes;
        self.args.iter().map(move |r| &bytes[r.clone()])
    }

    /// Whether this is `name` (ASCII case-insensitive) with exactly
    /// `argc` arguments, the name included.
    pub fn is(&self, name: &[u8], argc: usize) -> bool {
        self.args.len() == argc && self.arg(0).is_some_and(|a| a.eq_ignore_ascii_case(name))
    }
}

/// Commands copied out of a parser so they outlive its next call: one
/// flat byte arena of arguments, reused across bursts.
#[derive(Debug, Default)]
pub struct CommandBatch {
    bytes: Vec<u8>,
    /// Every argument's range in `bytes`, commands back to back.
    args: Vec<Range<usize>>,
    /// Each command's arguments in `args`.
    cmds: Vec<Range<usize>>,
}

impl CommandBatch {
    /// Forgets every command, keeping the capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.args.clear();
        self.cmds.clear();
    }

    /// Appends a copy of `cmd`.
    pub fn push(&mut self, cmd: Command<'_>) {
        let first = self.args.len();
        for arg in cmd.args() {
            let at = self.bytes.len();
            self.bytes.extend_from_slice(arg);
            self.args.push(at..self.bytes.len());
        }
        self.cmds.push(first..self.args.len());
    }

    /// Command `i`, in push order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `i + 1` commands were pushed.
    pub fn get(&self, i: usize) -> Command<'_> {
        Command {
            bytes: &self.bytes,
            args: &self.args[self.cmds[i].clone()],
        }
    }
}

/// One reply, checked and consumed by [`RespParser::next_reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    /// Any value but a top-level error (its payload is not copied).
    Value,
    /// A top-level error reply's text, without the `-` and CRLF.
    Error(&'a [u8]),
}

/// A scan step: `Ok(None)` means the buffer ends before the value does.
type Scan<T> = Result<Option<T>, RespError>;

/// An incremental RESP parser over a growing byte buffer.
///
/// Partial input yields `None` until the value completes; malformed or
/// oversized input yields one `Some(Err(RespError))`, after which the
/// parser drops its buffer and every later byte and yields `None`.
#[derive(Debug, Default)]
pub struct RespParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    pos: usize,
    /// A protocol error was returned; input is discarded from now on.
    failed: bool,
    /// Argument ranges in `buf` of the command last scanned.
    args: Vec<Range<usize>>,
}

impl RespParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes (dropped once the parser failed).
    /// The consumed prefix is compacted away first when it is all of
    /// the buffer or more than half of it, so a steady stream of small
    /// values pays neither a memmove per value nor unbounded growth.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.failed {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a protocol error was returned (the parser is spent).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Parses one complete client command (array of bulk strings).
    ///
    /// Returns `None` while the command is incomplete (and forever after
    /// a protocol error), `Some(Err(_))` once on malformed input.
    pub fn parse_command(&mut self) -> Option<Result<Command<'_>, RespError>> {
        if self.failed {
            return None;
        }
        match self.scan_command() {
            Ok(Some(end)) if end - self.pos > MAX_FRAME_LEN => {
                Some(Err(self.fail(RespError::FrameTooLong)))
            }
            Ok(Some(end)) => {
                self.pos = end;
                Some(Ok(Command {
                    bytes: &self.buf,
                    args: &self.args,
                }))
            }
            Ok(None) => self.incomplete().map(Err),
            Err(e) => Some(Err(self.fail(e))),
        }
    }

    /// Checks and consumes one complete reply of any type, copying
    /// nothing but reporting a top-level error's text.
    ///
    /// Returns `None` while the reply is incomplete (and forever after a
    /// protocol error), `Some(Err(_))` once on malformed input.
    pub fn next_reply(&mut self) -> Option<Result<Reply<'_>, RespError>> {
        if self.failed {
            return None;
        }
        let start = self.pos;
        match self.scan_value(start, 0) {
            Ok(Some(end)) if end - start > MAX_FRAME_LEN => {
                Some(Err(self.fail(RespError::FrameTooLong)))
            }
            Ok(Some(end)) => {
                self.pos = end;
                Some(Ok(if self.buf[start] == b'-' {
                    Reply::Error(&self.buf[start + 1..end - 2])
                } else {
                    Reply::Value
                }))
            }
            Ok(None) => self.incomplete().map(Err),
            Err(e) => Some(Err(self.fail(e))),
        }
    }

    /// The bound on incomplete input: past [`MAX_FRAME_LEN`] pending
    /// bytes the value can never be accepted (a complete value that
    /// long is rejected too, so chunking never changes the outcome).
    fn incomplete(&mut self) -> Option<RespError> {
        (self.pending() > MAX_FRAME_LEN).then(|| self.fail(RespError::FrameTooLong))
    }

    fn fail(&mut self, e: RespError) -> RespError {
        self.failed = true;
        self.buf = Vec::new();
        self.args = Vec::new();
        self.pos = 0;
        e
    }

    /// Reads the decimal `i64` after the tag at `at` through its CRLF;
    /// returns it and the offset after the CRLF.
    fn number(&self, at: usize) -> Scan<(i64, usize)> {
        let mut i = at + 1;
        let neg = self.buf.get(i) == Some(&b'-');
        if neg {
            i += 1;
        }
        let digits_from = i;
        // Accumulated with the sign applied, so `i64::MIN` parses too.
        let mut n: i64 = 0;
        loop {
            let Some(&b) = self.buf.get(i) else {
                return Ok(None);
            };
            match b {
                b'0'..=b'9' => {
                    let d = i64::from(b - b'0');
                    n = n
                        .checked_mul(10)
                        .and_then(|n| {
                            if neg {
                                n.checked_sub(d)
                            } else {
                                n.checked_add(d)
                            }
                        })
                        .ok_or(RespError::BadNumber)?;
                    i += 1;
                }
                b'\r' if i > digits_from => break,
                _ => return Err(RespError::BadNumber),
            }
        }
        match self.buf.get(i + 1) {
            None => Ok(None),
            Some(b'\n') => Ok(Some((n, i + 2))),
            Some(_) => Err(RespError::BadTerminator),
        }
    }

    /// Offset after the CRLF ending the line that starts at `at`.
    fn line_end(&self, at: usize) -> Scan<usize> {
        let Some(cr) = self.buf[at..].iter().position(|&b| b == b'\r') else {
            return Ok(None);
        };
        match self.buf.get(at + cr + 1) {
            None => Ok(None),
            Some(b'\n') => Ok(Some(at + cr + 2)),
            Some(_) => Err(RespError::BadTerminator),
        }
    }

    /// The payload range of the bulk string whose `$` header is at `at`
    /// (`None` for the nil bulk) and the offset after it.
    fn bulk(&self, at: usize) -> Scan<(Option<Range<usize>>, usize)> {
        let Some((n, after)) = self.number(at)? else {
            return Ok(None);
        };
        if n == -1 {
            return Ok(Some((None, after)));
        }
        let n = usize::try_from(n).map_err(|_| RespError::BadNumber)?;
        if n > MAX_FRAME_LEN {
            return Err(RespError::BulkTooLong);
        }
        // `after` and `n` are both bounded, so this cannot wrap.
        let end = after + n;
        match self.buf.get(end..end + 2) {
            None => Ok(None),
            Some(b"\r\n") => Ok(Some((Some(after..end), end + 2))),
            Some(_) => Err(RespError::BadTerminator),
        }
    }

    /// The element count of the array whose `*` header is at `at`
    /// (`*-1`, the nil array, counts as empty) and the offset after it.
    fn array(&self, at: usize) -> Scan<(usize, usize)> {
        let Some((n, after)) = self.number(at)? else {
            return Ok(None);
        };
        if n < -1 {
            return Err(RespError::BadNumber);
        }
        let n = n.max(0) as usize;
        if n > MAX_ARRAY_LEN {
            return Err(RespError::ArrayTooLong);
        }
        Ok(Some((n, after)))
    }

    /// Scans the command at `self.pos`, recording each argument's range
    /// in `self.args`; returns the offset where the command ends.
    fn scan_command(&mut self) -> Scan<usize> {
        self.args.clear();
        let Some(&tag) = self.buf.get(self.pos) else {
            return Ok(None);
        };
        if tag != b'*' {
            return Err(tag_error(tag));
        }
        let Some((n, mut cursor)) = self.array(self.pos)? else {
            return Ok(None);
        };
        // Exact, so each of many idle connections keeps no spare ranges.
        self.args.reserve_exact(n);
        for _ in 0..n {
            let Some(&tag) = self.buf.get(cursor) else {
                return Ok(None);
            };
            if tag != b'$' {
                return Err(tag_error(tag));
            }
            match self.bulk(cursor)? {
                None => return Ok(None),
                Some((None, _)) => return Err(RespError::NotACommand),
                Some((Some(arg), end)) => {
                    self.args.push(arg);
                    cursor = end;
                }
            }
        }
        Ok(Some(cursor))
    }

    /// Scans one value of any type at `at`, `depth` arrays deep.
    fn scan_value(&self, at: usize, depth: usize) -> Scan<usize> {
        let Some(&tag) = self.buf.get(at) else {
            return Ok(None);
        };
        match tag {
            b'+' | b'-' => self.line_end(at + 1),
            b':' => Ok(self.number(at)?.map(|(_, end)| end)),
            b'$' => Ok(self.bulk(at)?.map(|(_, end)| end)),
            b'*' => {
                if depth >= MAX_DEPTH {
                    return Err(RespError::TooDeep);
                }
                let Some((n, mut cursor)) = self.array(at)? else {
                    return Ok(None);
                };
                for _ in 0..n {
                    let Some(next) = self.scan_value(cursor, depth + 1)? else {
                        return Ok(None);
                    };
                    cursor = next;
                }
                Ok(Some(cursor))
            }
            other => Err(RespError::UnknownTag(other)),
        }
    }
}

/// The error for a value that is valid RESP but not where a command or
/// argument belongs, or no RESP at all.
fn tag_error(tag: u8) -> RespError {
    match tag {
        b'+' | b'-' | b':' | b'$' | b'*' => RespError::NotACommand,
        other => RespError::UnknownTag(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_of(p: &mut RespParser) -> Option<Vec<Vec<u8>>> {
        p.parse_command()
            .map(|r| r.expect("well-formed").args().map(<[u8]>::to_vec).collect())
    }

    #[test]
    fn every_value_kind_is_consumed_whole() {
        for v in [
            RespValue::Simple("OK".into()),
            RespValue::Integer(-42),
            RespValue::Integer(i64::MIN),
            RespValue::Bulk(Some(b"hello\r\nworld".to_vec())),
            RespValue::Bulk(None),
            RespValue::Array(vec![
                RespValue::Bulk(Some(b"GET".to_vec())),
                RespValue::Array(vec![RespValue::Integer(7), RespValue::Bulk(None)]),
            ]),
        ] {
            let mut p = RespParser::new();
            p.feed(&encode(&v));
            assert_eq!(p.next_reply(), Some(Ok(Reply::Value)), "{v}");
            assert_eq!(p.pending(), 0);
            assert_eq!(p.next_reply(), None);
        }
        let mut p = RespParser::new();
        p.feed(&encode(&RespValue::Error("ERR no such key".into())));
        assert_eq!(p.next_reply(), Some(Ok(Reply::Error(b"ERR no such key"))));
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn numbers_are_formatted_without_allocating_strings() {
        for i in [0, 7, -1, 10, 12_345, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            encode_integer(i, &mut out);
            assert_eq!(out, format!(":{i}\r\n").into_bytes());
        }
    }

    #[test]
    fn command_encoding_matches_redis_wire_format() {
        let cmd = encode_command(&[b"SET", b"k", b"v1"]);
        assert_eq!(cmd, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nv1\r\n");
    }

    #[test]
    fn partial_input_returns_none_until_complete() {
        let full = encode_command(&[b"SET", b"key", b"value"]);
        let mut p = RespParser::new();
        for (i, chunk) in full.chunks(3).enumerate() {
            p.feed(chunk);
            let done = (i + 1) * 3 >= full.len();
            if !done {
                assert!(p.parse_command().is_none(), "parsed too early at chunk {i}");
            }
        }
        let args = args_of(&mut p).unwrap();
        assert_eq!(
            args,
            vec![b"SET".to_vec(), b"key".to_vec(), b"value".to_vec()]
        );
    }

    #[test]
    fn pipelined_commands_parse_in_sequence() {
        let mut p = RespParser::new();
        p.feed(&encode_command(&[b"PING"]));
        p.feed(&encode_command(&[b"GET", b"k"]));
        assert_eq!(args_of(&mut p).unwrap(), vec![b"PING".to_vec()]);
        assert_eq!(
            args_of(&mut p).unwrap(),
            vec![b"GET".to_vec(), b"k".to_vec()]
        );
        assert!(p.parse_command().is_none());
    }

    #[test]
    fn binary_safe_values_survive() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let cmd = encode_command(&[b"SET", b"bin", &payload]);
        let mut p = RespParser::new();
        p.feed(&cmd);
        let args = args_of(&mut p).unwrap();
        assert_eq!(args[2], payload);
    }

    #[test]
    fn command_names_match_case_insensitively() {
        let mut p = RespParser::new();
        p.feed(&encode_command(&[b"gEt", b"k"]));
        let cmd = p.parse_command().unwrap().unwrap();
        assert!(cmd.is(b"GET", 2));
        assert!(!cmd.is(b"GET", 3));
        assert!(!cmd.is(b"SET", 2));
    }

    #[test]
    fn batches_outlive_the_parser_buffer() {
        let mut p = RespParser::new();
        let mut batch = CommandBatch::default();
        p.feed(&encode_command(&[b"SET", b"a", b"1"]));
        p.feed(&encode_command(&[b"GET", b"bb"]));
        while let Some(r) = p.parse_command() {
            batch.push(r.unwrap());
        }
        p.feed(b"garbage that does not matter");
        assert!(batch.get(0).is(b"SET", 3));
        assert_eq!(batch.get(1).arg(1), Some(b"bb".as_slice()));
        batch.clear();
        let mut p = RespParser::new();
        p.feed(&encode_command(&[b"PING"]));
        batch.push(p.parse_command().unwrap().unwrap());
        assert!(batch.get(0).is(b"PING", 1));
    }

    #[test]
    fn empty_command_is_not_an_error() {
        let mut p = RespParser::new();
        p.feed(b"*0\r\n*-1\r\n");
        assert!(p.parse_command().unwrap().unwrap().is_empty());
        assert!(p.parse_command().unwrap().unwrap().is_empty());
        assert!(!p.failed());
    }

    fn command_error(input: &[u8]) -> RespError {
        let mut p = RespParser::new();
        p.feed(input);
        let e = p.parse_command().expect("an answer").unwrap_err();
        // The parser is spent: no buffer, no more answers, input dropped.
        assert_eq!(p.pending(), 0);
        assert!(p.parse_command().is_none());
        p.feed(b"*1\r\n$4\r\nPING\r\n");
        assert!(p.parse_command().is_none());
        assert_eq!(p.pending(), 0);
        e
    }

    #[test]
    fn huge_array_length_is_rejected_not_allocated() {
        // Used to panic the host: `Vec::with_capacity` capacity overflow.
        assert_eq!(
            command_error(b"*9223372036854775807\r\n"),
            RespError::ArrayTooLong
        );
        let mut p = RespParser::new();
        p.feed(b"*9223372036854775807\r\n");
        assert_eq!(p.next_reply(), Some(Err(RespError::ArrayTooLong)));
        // One past i64::MAX overflows the number itself.
        assert_eq!(
            command_error(b"*9223372036854775808\r\n"),
            RespError::BadNumber
        );
    }

    #[test]
    fn huge_bulk_length_is_rejected_not_wrapped() {
        // Used to wrap `after + n + 2` and index out of range.
        let input = b"*1\r\n$9223372036854775806\r\nxx";
        assert_eq!(command_error(input), RespError::BulkTooLong);
        let mut p = RespParser::new();
        p.feed(b"$9223372036854775807\r\n");
        assert_eq!(p.next_reply(), Some(Err(RespError::BulkTooLong)));
        assert_eq!(
            command_error(b"*1\r\n$-2\r\n"),
            RespError::BadNumber,
            "negative lengths other than nil"
        );
    }

    #[test]
    fn unknown_tag_fails_instead_of_waiting_forever() {
        // Used to return "partial" forever while the buffer grew.
        assert_eq!(command_error(b"?what\r\n"), RespError::UnknownTag(b'?'));
        assert_eq!(command_error(b"*1\r\n!x\r\n"), RespError::UnknownTag(b'!'));
        let mut p = RespParser::new();
        p.feed(b"~3\r\n");
        assert_eq!(p.next_reply(), Some(Err(RespError::UnknownTag(b'~'))));
        for _ in 0..100 {
            p.feed(&[b'x'; 1000]);
        }
        assert_eq!(p.pending(), 0, "a failed parser buffers nothing");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Used to recurse once per level with no limit.
        let deep = b"*1\r\n".repeat(100_000);
        let mut p = RespParser::new();
        p.feed(&deep);
        assert_eq!(p.next_reply(), Some(Err(RespError::TooDeep)));
        // Within the bound, nesting is fine.
        let mut ok = b"*1\r\n".repeat(MAX_DEPTH);
        ok.extend_from_slice(b":1\r\n");
        let mut p = RespParser::new();
        p.feed(&ok);
        assert_eq!(p.next_reply(), Some(Ok(Reply::Value)));
        // Commands are one level deep: a nested array is not a command.
        assert_eq!(command_error(b"*1\r\n*1\r\n"), RespError::NotACommand);
    }

    #[test]
    fn incomplete_frames_are_bounded() {
        let mut p = RespParser::new();
        p.feed(b"+");
        for _ in 0..=MAX_FRAME_LEN / 4096 {
            p.feed(&[b'a'; 4096]);
            if let Some(r) = p.next_reply() {
                assert_eq!(r, Err(RespError::FrameTooLong));
                assert_eq!(p.pending(), 0);
                return;
            }
        }
        panic!("an endless simple string was never rejected");
    }

    #[test]
    fn oversized_frames_fail_whole_or_chunked() {
        let cmd = encode_command(&[b"SET", b"k", &vec![b'v'; MAX_FRAME_LEN]]);
        assert_eq!(command_error(&cmd), RespError::FrameTooLong);
        let mut p = RespParser::new();
        for chunk in cmd.chunks(64 * 1024) {
            p.feed(chunk);
            if let Some(r) = p.parse_command() {
                assert_eq!(r.unwrap_err(), RespError::FrameTooLong);
                return;
            }
        }
        panic!("an oversized command was accepted in chunks");
    }

    #[test]
    fn malformed_terminators_and_numbers_fail() {
        assert_eq!(
            command_error(b"*1\r\n$3\r\nGETxx"),
            RespError::BadTerminator
        );
        assert_eq!(command_error(b"*1x\r\n"), RespError::BadNumber);
        assert_eq!(command_error(b"*\r\n"), RespError::BadNumber);
        assert_eq!(command_error(b"*1\rx"), RespError::BadTerminator);
        assert_eq!(command_error(b"*1\r\n$-1\r\n"), RespError::NotACommand);
        assert_eq!(command_error(b":1\r\n"), RespError::NotACommand);
    }
}
