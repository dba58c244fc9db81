//! The JSON string escape, re-exported under the path the benchmark
//! imports it from. Emitters write through
//! `c11tester_telemetry::json::JsonWriter`; enum names live on the
//! enums (`RaceKind::name`, `AccessKind::name`).

// Re-export kept for benchmark/.
pub use c11tester_telemetry::json::esc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_rfc8259() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("plain"), "plain");
    }
}
