//! The workspace's one JSON string escaper.
//!
//! Every hand-written JSON document in the tree (profiler exports, metrics
//! exports, rendered artifacts, Perfetto traces and MACS-1 messages) sends
//! its strings through [`escape`], so they all agree on one escaping.

use std::fmt::Write as _;

/// Escape `s` for use between the quotes of a JSON string: `"` and `\`
/// get a backslash, `\n`/`\t`/`\r` take their short forms, every other
/// control character becomes `\u00XX`, and all other text (non-ASCII
/// included) passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        for (input, want) in [
            ("say \"hi\"", r#"say \"hi\""#),
            (r"a\b", r"a\\b"),
            ("one\ntwo", r"one\ntwo"),
            ("col\tcol", r"col\tcol"),
            ("cr\r", r"cr\r"),
            ("\u{1}", r"\u0001"),
            ("héllo → wörld \u{1F600}", "héllo → wörld \u{1F600}"),
        ] {
            assert_eq!(escape(input), want, "{input:?}");
        }
    }
}
