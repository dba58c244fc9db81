//! Shared CLI plumbing for the workspace binaries.
//!
//! `c11campaign`, `c11fuzz` and `paper-tables` share two fragments — a
//! decimal/hex number parser and the flag-error epilogue. Scripted
//! callers that match on stderr care about the exact shape (`error:
//! <msg>`, a blank line, the usage text, exit 2), so every binary
//! routes through these helpers and none can drift.

use std::process::ExitCode;

/// Parses a `u64` CLI value, accepting decimal (`1000`) or 0x-prefixed
/// hex (`0xC11`, `0XC11`).
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("not a number: `{s}`"))
}

/// Reports a flag/usage failure the one canonical way: `error: <msg>`,
/// a blank line, the usage text, exit code 2.
pub fn usage_error(msg: &str, usage: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{usage}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("1000"), Ok(1000));
        assert_eq!(parse_u64("0xC11"), Ok(0xC11));
        assert_eq!(parse_u64("0XC11"), Ok(0xC11));
        assert_eq!(parse_u64("0"), Ok(0));
        assert_eq!(parse_u64(&format!("{}", u64::MAX)), Ok(u64::MAX));
        assert!(parse_u64("").is_err());
        assert!(parse_u64("-3").is_err());
        assert!(parse_u64("0x").is_err());
        assert!(parse_u64("12q").is_err());
        assert_eq!(parse_u64("nope"), Err("not a number: `nope`".to_string()));
    }

    #[test]
    fn usage_error_exits_2() {
        // The message shape is asserted end-to-end by the CLI smoke
        // tests; here just pin the exit code contract.
        let code = usage_error("boom", "USAGE: x");
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::from(2)));
    }
}
