//! Property tests for the JSON decoder, which reads documents this
//! process did not write (baselines, trace files, another build's output).
//!
//! Every prefix of every committed baseline under `crates/bench/baselines/`,
//! and each baseline with up to three random byte edits (overwrite, insert,
//! delete), is an `Ok` or an `Err` from [`Json::parse`], never a panic; and
//! any [`Json`] value this crate can write reads back as the same value.

use proptest::prelude::*;
use tlp_obs::json::Json;

/// The committed baselines: real documents, as the benchmarks wrote them.
const BASELINES: [(&str, &str); 5] = [
    (
        "BENCH_exec.json",
        include_str!("../../bench/baselines/BENCH_exec.json"),
    ),
    (
        "BENCH_overhead.json",
        include_str!("../../bench/baselines/BENCH_overhead.json"),
    ),
    (
        "BENCH_rete.json",
        include_str!("../../bench/baselines/BENCH_rete.json"),
    ),
    (
        "BENCH_svm.json",
        include_str!("../../bench/baselines/BENCH_svm.json"),
    ),
    (
        "BENCH_whatif.json",
        include_str!("../../bench/baselines/BENCH_whatif.json"),
    ),
];

#[test]
fn every_prefix_of_a_baseline_decodes_or_errs() {
    for (name, doc) in BASELINES {
        assert!(Json::parse(doc).is_ok(), "{name} is a JSON document");
        for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
            // An object or array cut short is never complete; a number cut
            // short can be (`12` of `125`), so only the outcome is checked.
            let _ = Json::parse(&doc[..end]);
        }
    }
}

/// One byte edit of a document: `(kind, position, byte)`.
fn edit() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..3, 0usize..1 << 20, 0u16..256).prop_map(|(kind, at, byte)| (kind, at, byte as u8))
}

/// Choices a random [`Json`] value is built from, read front to back; a
/// tape that runs out reads zeros, which end every list.
struct Tape {
    words: Vec<u64>,
    at: usize,
}

impl Tape {
    fn next(&mut self) -> u64 {
        let w = self.words.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        w
    }

    fn value(&mut self, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.next() % kinds {
            0 => Json::Null,
            1 => Json::Bool(self.next() % 2 == 1),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.string()),
            4 => {
                let n = self.next() % 4;
                Json::Arr((0..n).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let n = self.next() % 4;
                Json::Obj(
                    (0..n)
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                )
            }
        }
    }

    /// Whole numbers, fractions, and any finite `f64` bit pattern
    /// (subnormals and both ends of the exponent range included).
    fn number(&mut self) -> f64 {
        let w = self.next();
        match w % 3 {
            0 => (w >> 2) as i64 as f64 / 4.0,
            1 => (w >> 2) as i32 as f64,
            _ => Some(f64::from_bits(self.next()))
                .filter(|n| n.is_finite())
                .unwrap_or(0.5),
        }
    }

    /// Printable ASCII, the characters `write` escapes, and any other
    /// Unicode scalar value.
    fn string(&mut self) -> String {
        let n = self.next() % 6;
        (0..n)
            .map(|_| {
                let w = self.next();
                match w % 4 {
                    0 => char::from(b' ' + (w >> 2) as u8 % 95),
                    1 => {
                        ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/'][(w >> 2) as usize % 8]
                    }
                    _ => char::from_u32((w >> 2) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A baseline with up to three bytes overwritten, inserted or deleted
    /// (invalid UTF-8 read lossily, as a reader of a damaged file would)
    /// decodes or errs.
    #[test]
    fn an_edited_baseline_decodes_or_errs(
        which in 0usize..BASELINES.len(),
        edits in prop::collection::vec(edit(), 0..4),
    ) {
        let mut bytes = BASELINES[which].1.as_bytes().to_vec();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    /// Whatever `write` writes, `parse` reads back as the value written.
    #[test]
    fn written_values_read_back_unchanged(
        words in prop::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let value = Tape { words, at: 0 }.value(4);
        let text = value.write();
        prop_assert_eq!(Json::parse(&text), Ok(value), "{}", text);
    }
}
