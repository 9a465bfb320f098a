//! Robustness of the `.bench` readers every `/run` and `/eco` netlist
//! goes through: on arbitrary text with multi-byte and astral
//! characters, [`BenchReader`] and [`parse_bench`] never panic, every
//! error names the start of a line inside the input, and feeding the
//! text in two chunks split at any character boundary gives the batch
//! result.

use fscan_netlist::{
    generate, parse_bench, write_bench, BenchReader, Circuit, GeneratorConfig, ParseBenchError,
};
use proptest::prelude::*;

/// Streams `text` into a reader in two chunks split at byte `cut`.
fn streamed(text: &str, cut: usize) -> Result<Circuit, ParseBenchError> {
    let mut reader = BenchReader::new("p");
    reader.feed(&text[..cut])?;
    reader.feed(&text[cut..])?;
    reader.finish()
}

/// The byte offset of `text`'s `k`-th character boundary, counting the
/// end, modulo their number.
fn boundary(text: &str, k: usize) -> usize {
    let n = text.chars().count() + 1;
    text.char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .nth(k % n)
        .unwrap()
}

/// Parses `text` in one batch and in two chunks split at its `pick`-th
/// character boundary, and checks that the two agree and that an error
/// names the first byte of one of the input's lines.
fn check(text: &str, pick: usize) {
    let batch = parse_bench(text, "p");
    let cut = boundary(text, pick);
    match (&batch, streamed(text, cut)) {
        (Ok(b), Ok(s)) => assert_eq!(write_bench(b), write_bench(&s), "cut at {cut}"),
        (Err(b), Err(s)) => assert_eq!(b, &s, "cut at {cut}"),
        (b, s) => panic!("batch {b:?} but streamed {s:?} (cut at {cut})"),
    }
    if let Err(e) = batch {
        let offset = e.offset() as usize;
        assert!(
            offset <= text.len(),
            "{e} at byte {offset} of {}",
            text.len()
        );
        let head = &text.as_bytes()[..offset];
        assert!(
            offset == 0 || head.ends_with(b"\n"),
            "{e}: byte {offset} starts no line"
        );
        let line = 1 + head.iter().filter(|&&b| b == b'\n').count();
        assert_eq!(e.line(), line, "{e}: byte {offset} starts line {line}");
    }
}

/// One piece of generated text: `.bench` syntax, characters that break
/// it, and multi-byte and astral characters.
fn piece() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("INPUT(".to_string()),
        Just("OUTPUT(".to_string()),
        Just("INPU\u{e9}T(a)".to_string()),
        Just("input".to_string()),
        Just(" = ".to_string()),
        Just("NAND(".to_string()),
        Just("DFF(".to_string()),
        Just("NOT(".to_string()),
        Just("(".to_string()),
        Just(")".to_string()),
        Just(",".to_string()),
        Just("\n".to_string()),
        Just("\r\n".to_string()),
        Just("#".to_string()),
        Just("a".to_string()),
        Just("G1".to_string()),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0x80u32..0xD800).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0xE000u32..0x10000).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap().to_string()),
    ]
}

fn bench_ish() -> impl Strategy<Value = String> {
    proptest::collection::vec(piece(), 0..32).prop_map(|pieces| pieces.concat())
}

/// A small generated netlist's text.
fn netlist(seed: u64) -> String {
    write_bench(&generate(
        &GeneratorConfig::new("fuzz", seed).gates(20).dffs(3),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(text in bench_ish(), pick in any::<usize>()) {
        check(&text, pick);
    }

    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        pick in any::<usize>(),
    ) {
        check(&String::from_utf8_lossy(&bytes), pick);
    }

    /// A valid netlist with a piece inserted and up to 24 characters
    /// deleted, each at a character boundary.
    #[test]
    fn mutated_netlists_never_panic(
        seed in 0u64..16,
        insert in piece(),
        at in any::<usize>(),
        cut in any::<usize>(),
        len in 0usize..24,
        pick in any::<usize>(),
    ) {
        let mut text = netlist(seed);
        text.insert_str(boundary(&text, at), &insert);
        let start = boundary(&text, cut);
        let end = text[start..]
            .char_indices()
            .nth(len)
            .map_or(text.len(), |(i, _)| start + i);
        text.replace_range(start..end, "");
        check(&text, pick);
    }
}

/// `INPUT` is five bytes, and the fifth byte of this line ends inside
/// the `é`, so a keyword match by byte slice would panic here.
#[test]
fn a_keyword_split_by_a_multibyte_character_is_an_error() {
    let text = "INPU\u{e9}T(a)\nOUTPUT(a)\n";
    let e = parse_bench(text, "p").unwrap_err();
    assert_eq!((e.line(), e.offset()), (1, 0));
    check(text, 5);
}
