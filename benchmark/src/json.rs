//! Minimal JSON emission for the benchmark's own output files (the
//! reader is the product's `c11tester_campaign::baseline::JsonValue`).

use c11tester_campaign::wire::esc;

/// A finite number with all its digits; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A quoted, escaped string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

/// An array of already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// An object under construction; fields keep insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.0.push(format!("{}:{}", string(key), value.as_ref()));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Adds a numeric field.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    /// Adds an unsigned integer field (exact, not through `f64`).
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, value.to_string())
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester_campaign::baseline::JsonValue;

    #[test]
    fn objects_round_trip_through_the_product_reader() {
        let text = Obj::new()
            .str("name", "a \"quoted\"\nline")
            .num("value", 1.25e-7)
            .uint("big", u64::MAX)
            .bool("ok", true)
            .raw("list", array([num(1.0), num(f64::NAN)]))
            .finish();
        let doc = JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("name").and_then(JsonValue::as_str),
            Some("a \"quoted\"\nline")
        );
        assert_eq!(doc.get("value").and_then(JsonValue::as_f64), Some(1.25e-7));
        assert_eq!(doc.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        let list = doc.get("list").and_then(JsonValue::as_array).unwrap();
        assert_eq!(list[0].as_f64(), Some(1.0));
        assert_eq!(list[1], JsonValue::Null);
    }
}
