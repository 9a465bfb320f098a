//! Robustness of `fscan::json::parse`, the parser every `/run` and
//! `/eco` request body goes through: arbitrary, truncated and mutated
//! input never panics and reports an offset inside the input; strings
//! round-trip through the compact printer whatever they contain; and
//! parse time stays linear in the length of a string, so a large upload
//! costs one pass, not a quadratic rescan.

use std::time::{Duration, Instant};

use fscan::json::{config_from_value, config_to_value, parse, JsonError, Value};
use fscan::PipelineConfig;
use fscan_netlist::{generate, write_bench, GeneratorConfig};
use proptest::prelude::*;

/// A `/eco` request body as the repository's clients send it.
fn eco_envelope(bench: String) -> String {
    Value::object([
        ("base", Value::Str("00c0ffee12345678".to_string())),
        ("bench", Value::Str(bench)),
        ("name", Value::Str("s27\u{e9}\u{1F600}".to_string())),
        ("chains", Value::UInt(2)),
        ("config", config_to_value(&PipelineConfig::default())),
    ])
    .render_compact()
}

fn small_envelope() -> String {
    let circuit = generate(&GeneratorConfig::new("eco", 3).gates(24).dffs(3));
    eco_envelope(write_bench(&circuit))
}

/// Parses `text` and, on failure, checks the error names a byte offset
/// no further than the end of the input.
fn parse_checked(text: &str) -> Result<Value, JsonError> {
    let result = parse(text);
    if let Err(e) = &result {
        let message = e.to_string();
        let (_, offset) = message
            .rsplit_once(" at byte ")
            .unwrap_or_else(|| panic!("error without an offset: {message}"));
        let offset: usize = offset.parse().expect("numeric offset");
        assert!(
            offset <= text.len(),
            "{message} (input is {} bytes)",
            text.len()
        );
    }
    result
}

/// One piece of a generated string: plain text, characters the printer
/// must escape, control characters, and multi-byte and astral
/// (surrogate-pair) characters.
fn piece() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("bench".to_string()),
        Just(" G1 = NAND(G2, G3)\n".to_string()),
        Just("\"".to_string()),
        Just("\\".to_string()),
        Just("/".to_string()),
        Just("\\u0041".to_string()),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0x80u32..0xD800).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0xE000u32..0x10000).prop_map(|c| char::from_u32(c).unwrap().to_string()),
        (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap().to_string()),
    ]
}

fn mixed_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(piece(), 0..24).prop_map(|pieces| pieces.concat())
}

/// `s` as a JSON string literal in pure ASCII: short escapes where JSON
/// has them, `\uXXXX` for every other control or non-ASCII character,
/// and a surrogate pair for each astral one.
fn ascii_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' => out.push_str("\\/"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// The alphabet of JSON syntax plus bytes that break it.
fn json_ish_char() -> impl Strategy<Value = char> {
    let alphabet: Vec<char> = "{}[]\":,\\/ \t\nuUbfnrt0123456789abcdefABCDEF-+.eEtruefalsnl\u{0}\u{1f}\u{7f}\u{e9}\u{1F600}"
        .chars()
        .collect();
    (0..alphabet.len()).prop_map(move |i| alphabet[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_checked(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn random_json_syntax_never_panics(chars in proptest::collection::vec(json_ish_char(), 0..96)) {
        let text: String = chars.into_iter().collect();
        let _ = parse_checked(&text);
    }

    #[test]
    fn single_byte_mutations_of_an_envelope_never_panic(
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = small_envelope().into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(doc) = parse_checked(&text) {
            if let Some(config) = doc.get("config") {
                let _ = config_from_value(config);
            }
        }
    }

    #[test]
    fn strings_round_trip_through_the_compact_printer(
        key in mixed_string(),
        a in mixed_string(),
        b in mixed_string(),
    ) {
        let v = Value::Object(vec![
            (key.clone(), Value::Str(a.clone())),
            ("list".to_string(), Value::Array(vec![Value::Str(b.clone()), Value::Str(String::new())])),
        ]);
        prop_assert_eq!(parse_checked(&v.render_compact()).unwrap(), v.clone());
        prop_assert_eq!(parse_checked(&v.render_pretty()).unwrap(), v);
        // The same strings written with escapes only — `\uXXXX` and
        // surrogate pairs in place of every raw character — decode to
        // the same values.
        let escaped = format!(
            "{{{}:{},\"list\":[{},\"\"]}}",
            ascii_literal(&key),
            ascii_literal(&a),
            ascii_literal(&b)
        );
        prop_assert!(escaped.is_ascii());
        let doc = parse_checked(&escaped).unwrap();
        prop_assert_eq!(doc.as_object().unwrap()[0].0.as_str(), key.as_str());
        prop_assert_eq!(doc.get(&key).and_then(Value::as_str), Some(a.as_str()));
        prop_assert_eq!(
            doc.get("list").and_then(|l| l.index(0)).and_then(Value::as_str),
            Some(b.as_str())
        );
    }
}

#[test]
fn every_truncation_of_an_envelope_is_an_error() {
    let text = small_envelope();
    assert!(parse_checked(&text).is_ok());
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            parse_checked(&text[..end]).is_err(),
            "prefix of {end} bytes parsed"
        );
    }
}

#[test]
fn envelope_errors_keep_their_messages_and_offsets() {
    for (text, expected) in [
        (
            "{\"bench\":\"a\u{1}b\"}",
            "json: raw control character in string at byte 11",
        ),
        ("{\"bench\":\"abc", "json: unterminated string at byte 13"),
        (
            "{\"bench\":\"\u{e9}\u{1F600}\\x\"}",
            "json: invalid escape at byte 17",
        ),
        (
            "{\"bench\":\"\\ud83d\\u0041\"}",
            "json: invalid low surrogate at byte 22",
        ),
        (
            "{\"bench\":\"\\ud83d\"}",
            "json: invalid \\u escape at byte 16",
        ),
        (
            "{\"bench\":\"\\u12\"}",
            "json: invalid \\u escape at byte 12",
        ),
        (
            "{\"bench\":\"x\"} y",
            "json: trailing content after document at byte 14",
        ),
    ] {
        assert_eq!(parse(text).unwrap_err().to_string(), expected, "{text:?}");
    }
}

#[test]
fn a_one_mib_bench_string_parses_in_linear_time() {
    let circuit = generate(&GeneratorConfig::new("big", 9).gates(400).dffs(24));
    let unit = write_bench(&circuit);
    let mut bench = String::with_capacity((1 << 20) + unit.len());
    while bench.len() < 1 << 20 {
        bench.push_str(&unit);
    }
    let text = eco_envelope(bench.clone());
    let start = Instant::now();
    let doc = parse(&text).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        doc.get("bench").and_then(Value::as_str),
        Some(bench.as_str())
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "{} byte envelope took {elapsed:?} to parse",
        text.len()
    );
}
