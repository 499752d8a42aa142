//! Word-at-a-time byte scans for the request path: the JSON string
//! kernels (`plain_run_end`), the literal-end scan behind the parser's
//! deferred field (`string_end`) and `crserve`'s frame reader
//! ([`find_newline`]).
//!
//! Each scan loads eight bytes per step as a little-endian `u64` and
//! tests all eight at once with the classic has-zero / has-less bit
//! tricks. Only the word that holds a hit is walked byte by byte, so the
//! answer is exactly the naive byte loop's. The code is safe: each word
//! comes from `chunks_exact(8)`, which the compiler turns into one load.

const ONES: u64 = u64::from_le_bytes([0x01; 8]);
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// Nonzero iff some byte of `w` is below `n`, for `n <= 0x80`. The set
/// bits may over-mark bytes above a true hit, so callers use it only as a
/// yes/no test.
const fn has_less(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * n as u64) & !w & HIGHS
}

/// Nonzero iff some byte of `w` equals `b`.
const fn has_byte(w: u64, b: u8) -> u64 {
    has_less(w ^ (ONES * b as u64), 1)
}

/// Whether `b` ends a plain run: a control byte, `"` or `\`, the bytes
/// a JSON string literal cannot hold raw. All are ASCII, so a run of
/// other bytes ends on a char boundary.
const fn is_special(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// The end of the run of plain bytes starting at `from`: the index of
/// the first control byte, `"` or `\` at or after `from`, or
/// `bytes.len()` if there is none.
///
/// # Panics
///
/// If `from > bytes.len()`, as slicing would.
pub(crate) fn plain_run_end(bytes: &[u8], from: usize) -> usize {
    scan(
        bytes,
        from,
        |w| (has_less(w, 0x20) | has_byte(w, b'"') | has_byte(w, b'\\')) != 0,
        is_special,
    )
}

/// The end of the string literal whose body starts at `from` (just past
/// its opening quote): the index of the first `"` after an even run of
/// backslashes, or `bytes.len()` if there is none.
///
/// The word test looks for one byte value, the quote, so escapes do not
/// stop the scan; only at a quote are the backslashes before it counted,
/// back to `from` at most. In a valid literal each backslash run starts
/// an escape at its first byte, so an odd run escapes the quote and an
/// even one ends the literal there, exactly where the parser ends it.
/// Nothing else about the literal is checked.
///
/// # Panics
///
/// If `from > bytes.len()`, as slicing would.
pub(crate) fn string_end(bytes: &[u8], from: usize) -> usize {
    let mut at = from;
    loop {
        let quote = scan(bytes, at, |w| has_byte(w, b'"') != 0, |b| b == b'"');
        if quote == bytes.len() {
            return quote;
        }
        let escapes = bytes[from..quote]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\')
            .count();
        if escapes % 2 == 0 {
            return quote;
        }
        at = quote + 1;
    }
}

/// The index of the first `\n` at or after `from`.
///
/// # Panics
///
/// If `from > bytes.len()`, as slicing would.
pub fn find_newline(bytes: &[u8], from: usize) -> Option<usize> {
    let at = scan(bytes, from, |w| has_byte(w, b'\n') != 0, |b| b == b'\n');
    (at < bytes.len()).then_some(at)
}

/// The first index at or after `from` whose byte satisfies `hit`, or
/// `bytes.len()`. `word_hit` must hold for every word holding such a
/// byte; whole words for which it fails are skipped unread.
fn scan(
    bytes: &[u8],
    from: usize,
    word_hit: impl Fn(u64) -> bool,
    hit: impl Fn(u8) -> bool,
) -> usize {
    let mut at = from;
    for chunk in bytes[from..].chunks_exact(8) {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        if word_hit(u64::from_le_bytes(word)) {
            break;
        }
        at += 8;
    }
    // The word that hit, or the tail shorter than a word.
    bytes[at..]
        .iter()
        .position(|&b| hit(b))
        .map_or(bytes.len(), |i| at + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_run_end(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| is_special(bytes[i]))
            .unwrap_or(bytes.len())
    }

    fn naive_newline(bytes: &[u8], from: usize) -> Option<usize> {
        (from..bytes.len()).find(|&i| bytes[i] == b'\n')
    }

    /// A byte loop that tracks the backslash run as it goes.
    fn naive_string_end(bytes: &[u8], from: usize) -> usize {
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate().skip(from) {
            match b {
                b'"' if run % 2 == 0 => return i,
                b'\\' => run += 1,
                _ => run = 0,
            }
        }
        bytes.len()
    }

    /// Both scans agree with the naive loops from every start offset.
    fn check_all_offsets(bytes: &[u8]) {
        for from in 0..=bytes.len() {
            assert_eq!(
                plain_run_end(bytes, from),
                naive_run_end(bytes, from),
                "{bytes:?} from {from}"
            );
            assert_eq!(
                find_newline(bytes, from),
                naive_newline(bytes, from),
                "{bytes:?} from {from}"
            );
        }
    }

    #[test]
    fn every_byte_value_at_every_position() {
        // Two full words and a tail, so each byte lands at every
        // position mod 8, in a whole word and in the tail.
        for len in 0..=17 {
            for filler in [b'a', 0xff] {
                for value in 0..=u8::MAX {
                    for pos in 0..len {
                        let mut bytes = vec![filler; len];
                        bytes[pos] = value;
                        check_all_offsets(&bytes);
                    }
                }
            }
        }
    }

    #[test]
    fn string_end_matches_the_naive_loop_on_every_short_string() {
        // Quote, backslash, the escape letters `n` and `u`, a hex digit, a
        // control byte and a plain byte: every string of up to six, each
        // shifted by 0–7 bytes so it meets every offset mod 8 and, with
        // the shift, crosses a word boundary.
        const ALPHABET: [u8; 7] = [b'"', b'\\', b'n', b'u', b'a', 0x01, b'x'];
        let mut body = Vec::new();
        for len in 0..=6u32 {
            for mut code in 0..ALPHABET.len().pow(len) {
                body.clear();
                for _ in 0..len {
                    body.push(ALPHABET[code % ALPHABET.len()]);
                    code /= ALPHABET.len();
                }
                for shift in 0..8 {
                    let mut bytes = vec![b'p'; shift];
                    bytes.extend_from_slice(&body);
                    for from in shift..=bytes.len() {
                        assert_eq!(
                            string_end(&bytes, from),
                            naive_string_end(&bytes, from),
                            "{bytes:?} from {from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn string_end_counts_backslash_runs_of_every_parity() {
        // `n` backslashes before a first quote, a second quote later: an
        // even run ends the literal at the first, an odd one escapes it.
        for n in 0..=9 {
            for lead in 0..=17 {
                for shift in 0..8 {
                    let mut bytes = vec![b'p'; shift];
                    let from = bytes.len();
                    bytes.extend(std::iter::repeat_n(b'x', lead));
                    bytes.extend(std::iter::repeat_n(b'\\', n));
                    let first = bytes.len();
                    bytes.extend_from_slice(b"\"tail\"rest");
                    let second = first + 5;
                    let want = if n % 2 == 0 { first } else { second };
                    assert_eq!(string_end(&bytes, from), want, "{n} after {lead}+{shift}");
                }
            }
        }
    }

    #[test]
    fn bit_tricks_are_exact_yes_no_tests() {
        // A byte just above a hit is where the borrow over-marks; the
        // yes/no answer must still be exact.
        for a in 0..=u8::MAX {
            for b in 0..=u8::MAX {
                let w = u64::from_le_bytes([a, b, b'x', 0xc3, 0xa9, b'y', 0xe2, 0x82]);
                let special = [a, b].iter().any(|&x| is_special(x));
                assert_eq!(
                    (has_less(w, 0x20) | has_byte(w, b'"') | has_byte(w, b'\\')) != 0,
                    special
                );
                assert_eq!(has_byte(w, b'\n') != 0, a == b'\n' || b == b'\n');
            }
        }
    }

    /// One byte of any value, or a multi-byte UTF-8 character.
    fn piece() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            (0u32..256).prop_map(|b| vec![b as u8]),
            (0u32..8).prop_map(|i| {
                let c = ['é', '€', '😀', '\u{7ff}', '\u{800}', '\u{ffff}', 'ß', '"'][i as usize];
                c.to_string().into_bytes()
            }),
            (0u32..4).prop_map(|i| vec![[b'\n', b'"', b'\\', b'a'][i as usize]]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]
        #[test]
        fn scans_match_the_naive_loops(
            pieces in proptest::collection::vec(piece(), 0..40)
        ) {
            let mut bytes: Vec<u8> = pieces.concat();
            bytes.truncate(64);
            check_all_offsets(&bytes);
        }

        #[test]
        fn string_end_is_where_the_parser_ends_a_valid_literal(
            pieces in proptest::collection::vec(literal_piece(), 0..24),
            tail in proptest::collection::vec(piece(), 0..6),
        ) {
            let literal = format!("\"{}\"", pieces.concat());
            let tail: Vec<u8> = tail.concat();
            // The parser's own end: the one prefix that parses whole.
            let parsed_end = (1..=literal.len())
                .find(|&n| literal.get(..n).is_some_and(|p| crate::json::parse(p).is_ok()))
                .map(|n| n - 1);
            prop_assert_eq!(parsed_end, Some(literal.len() - 1), "{}", literal);
            for shift in 0..8 {
                let mut bytes = vec![b'p'; shift];
                bytes.extend_from_slice(literal.as_bytes());
                bytes.extend_from_slice(&tail);
                prop_assert_eq!(string_end(&bytes, shift + 1), shift + literal.len() - 1);
            }
        }
    }

    /// One piece of a valid literal's body: a plain or multi-byte
    /// character, or any of JSON's escapes, surrogate pairs included.
    fn literal_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            (0u32..6).prop_map(|i| ["a", "é", "😀", " ", "u", "5"][i as usize].to_owned()),
            (0u32..8).prop_map(|i| {
                ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"][i as usize].to_owned()
            }),
            (0u32..0xd800).prop_map(|c| format!("\\u{c:04x}")),
            (0u32..0x400).prop_map(|c| format!("\\ud83d\\u{:04X}", 0xdc00 + c)),
        ]
    }
}
