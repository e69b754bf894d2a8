//! Property tests of the RESP codec: untrusted bytes in any chunking
//! never panic the parser or grow its buffer without bound, chunked
//! input decodes exactly like whole input, and the direct command
//! encoder matches the value-tree encoding.

use flexos_apps::resp::{
    encode, encode_command_into, Reply, RespError, RespParser, RespValue, MAX_FRAME_LEN,
};
use proptest::prelude::*;

type CommandOutcome = Result<Vec<Vec<u8>>, RespError>;
type ReplyOutcome = Result<Option<Vec<u8>>, RespError>;

/// Fragments that steer random input into every parser branch: tags,
/// terminators, boundary lengths, a complete command and plain bytes.
const TOKENS: &[&[u8]] = &[
    b"*",
    b"$",
    b"+",
    b"-",
    b":",
    b"\r\n",
    b"\r",
    b"\n",
    b"0",
    b"1",
    b"2",
    b"3",
    b"-1",
    b"-2",
    b"9223372036854775807",
    b"9223372036854775808",
    b"1048577",
    b"OK",
    b"ab",
    b"*1\r\n",
    b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n",
    b"?",
    b"\0",
];

/// RESP-shaped byte strings: a token sequence with raw bytes mixed in.
fn resp_ish() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0usize..TOKENS.len() + 4, any::<u8>()), 0..80).prop_map(|picks| {
        let mut out = Vec::new();
        for (t, raw) in picks {
            match TOKENS.get(t) {
                Some(tok) => out.extend_from_slice(tok),
                None => out.push(raw),
            }
        }
        out
    })
}

/// Arbitrary bytes or RESP-shaped ones, half and half.
fn untrusted() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![prop::collection::vec(any::<u8>(), 0..256), resp_ish()]
}

/// Chunk sizes to split an input by (cycled).
fn chunking() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..24, 1..12)
}

fn chunks<'a>(bytes: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = &'a [u8]> {
    let mut at = 0;
    sizes.iter().cycle().map_while(move |&n| {
        (at < bytes.len()).then(|| {
            let end = (at + n).min(bytes.len());
            let c = &bytes[at..end];
            at = end;
            c
        })
    })
}

/// Drains every decodable command, checking the buffer bound as it goes.
fn drain_commands(p: &mut RespParser, out: &mut Vec<CommandOutcome>) -> Result<(), String> {
    while let Some(r) = p.parse_command() {
        out.push(r.map(|c| c.args().map(<[u8]>::to_vec).collect()));
    }
    bounded(p)
}

fn drain_replies(p: &mut RespParser, out: &mut Vec<ReplyOutcome>) -> Result<(), String> {
    while let Some(r) = p.next_reply() {
        out.push(r.map(|reply| match reply {
            Reply::Value => None,
            Reply::Error(text) => Some(text.to_vec()),
        }));
    }
    bounded(p)
}

fn bounded(p: &RespParser) -> Result<(), String> {
    prop_assert!(p.pending() <= MAX_FRAME_LEN, "pending {}", p.pending());
    if p.failed() {
        prop_assert_eq!(p.pending(), 0);
    }
    Ok(())
}

fn commands_whole(bytes: &[u8]) -> Result<Vec<CommandOutcome>, String> {
    let mut p = RespParser::new();
    let mut out = Vec::new();
    p.feed(bytes);
    drain_commands(&mut p, &mut out)?;
    Ok(out)
}

fn replies_whole(bytes: &[u8]) -> Result<Vec<ReplyOutcome>, String> {
    let mut p = RespParser::new();
    let mut out = Vec::new();
    p.feed(bytes);
    drain_replies(&mut p, &mut out)?;
    Ok(out)
}

/// Arbitrary reply values, arrays nested up to `depth` levels.
struct ArbValue {
    depth: u32,
}

impl Strategy for ArbValue {
    type Value = RespValue;

    fn generate(&self, rng: &mut TestRng) -> RespValue {
        let text = |rng: &mut TestRng| -> String {
            let n = rng.gen_range(0, 12);
            (0..n)
                .map(|_| char::from(rng.gen_range(0x20, 0x7f) as u8))
                .collect()
        };
        let kinds = if self.depth == 0 { 5 } else { 6 };
        match rng.gen_range(0, kinds) {
            0 => RespValue::Simple(text(rng)),
            1 => RespValue::Error(text(rng)),
            2 => RespValue::Integer(rng.next_u64() as i64),
            3 => RespValue::Bulk(None),
            4 => {
                let n = rng.gen_range(0, 40);
                RespValue::Bulk(Some((0..n).map(|_| rng.next_u64() as u8).collect()))
            }
            _ => {
                let n = rng.gen_range(0, 5);
                let inner = ArbValue {
                    depth: self.depth - 1,
                };
                RespValue::Array((0..n).map(|_| inner.generate(rng)).collect())
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any bytes, any chunking: commands decode without a panic, the
    /// buffer stays bounded, and a failed parser holds nothing.
    #[test]
    fn commands_never_panic_and_stay_bounded(bytes in untrusted(), sizes in chunking()) {
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&bytes, &sizes) {
            p.feed(c);
            drain_commands(&mut p, &mut out)?;
        }
        prop_assert!(out.iter().filter(|r| r.is_err()).count() <= 1);
    }

    /// The same for replies.
    #[test]
    fn replies_never_panic_and_stay_bounded(bytes in untrusted(), sizes in chunking()) {
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&bytes, &sizes) {
            p.feed(c);
            drain_replies(&mut p, &mut out)?;
        }
        prop_assert!(out.iter().filter(|r| r.is_err()).count() <= 1);
    }

    /// Chunked input decodes to exactly the commands (and the error, if
    /// any) of the whole input.
    #[test]
    fn chunked_commands_match_whole(bytes in untrusted(), sizes in chunking()) {
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&bytes, &sizes) {
            p.feed(c);
            drain_commands(&mut p, &mut out)?;
        }
        prop_assert_eq!(out, commands_whole(&bytes)?);
    }

    /// Chunked input decodes to exactly the replies of the whole input.
    #[test]
    fn chunked_replies_match_whole(bytes in untrusted(), sizes in chunking()) {
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&bytes, &sizes) {
            p.feed(c);
            drain_replies(&mut p, &mut out)?;
        }
        prop_assert_eq!(out, replies_whole(&bytes)?);
    }

    /// Well-formed pipelines of commands decode, chunked or whole, to
    /// the arguments that were encoded.
    #[test]
    fn encoded_commands_round_trip(
        cmds in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..6),
            1..8,
        ),
        sizes in chunking(),
    ) {
        let mut wire = Vec::new();
        for args in &cmds {
            let refs: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
            encode_command_into(&refs, &mut wire);
        }
        let want: Vec<CommandOutcome> = cmds.into_iter().map(Ok).collect();
        prop_assert_eq!(&commands_whole(&wire)?, &want);
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&wire, &sizes) {
            p.feed(c);
            drain_commands(&mut p, &mut out)?;
        }
        prop_assert_eq!(out, want);
        prop_assert_eq!(p.pending(), 0);
    }

    /// Arbitrary reply values decode, chunked or whole, to one reply
    /// each — the error text for top-level errors — consuming every byte.
    #[test]
    fn encoded_replies_round_trip(
        values in prop::collection::vec(ArbValue { depth: 3 }, 1..6),
        sizes in chunking(),
    ) {
        let mut wire = Vec::new();
        for v in &values {
            wire.extend_from_slice(&encode(v));
        }
        let want: Vec<ReplyOutcome> = values
            .iter()
            .map(|v| Ok(match v {
                RespValue::Error(e) => Some(e.clone().into_bytes()),
                _ => None,
            }))
            .collect();
        prop_assert_eq!(&replies_whole(&wire)?, &want);
        let mut p = RespParser::new();
        let mut out = Vec::new();
        for c in chunks(&wire, &sizes) {
            p.feed(c);
            drain_replies(&mut p, &mut out)?;
        }
        prop_assert_eq!(out, want);
        prop_assert_eq!(p.pending(), 0);
    }

    /// The direct command encoder writes exactly the bytes of the
    /// value-tree encoding (an array of bulk strings).
    #[test]
    fn direct_command_encoding_matches_the_tree(
        args in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..10),
        prefix in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let tree = RespValue::Array(args.iter().map(|a| RespValue::Bulk(Some(a.clone()))).collect());
        let refs: Vec<&[u8]> = args.iter().map(Vec::as_slice).collect();
        let mut out = prefix.clone();
        encode_command_into(&refs, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &encode(&tree)[..]);
    }
}
