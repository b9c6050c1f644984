//! The result: one JSON object, printed as the last line of standard
//! output and, for a traced run, also written out with the spans.

use crate::measure::Tally;

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

impl Report {
    /// Adds a metric. A non-finite value (a ratio over nothing) is
    /// reported as 0 so the line stays valid JSON.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// `f64`'s `Display` prints the shortest string that reads back to the
    /// same bits, so every value keeps all its digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
