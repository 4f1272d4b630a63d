//! What one benchmark run reports: named metrics with units, output
//! checks, operation counts, and the final one-line JSON result.

use std::fmt::Write as _;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The outcome of one run: operations attempted and failed, and every
/// output check by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered: requests (serving) or renders (suite).
    pub attempted: u64,
    /// Operations that ended shed or failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Outcome {
    /// Records a named output check; a name checked again passes only if
    /// every instance passed.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints every check, then every metric, then the result JSON as the
    /// last line of stdout. A failed check counts every operation as
    /// failed.
    pub fn print(&self, metrics: &Metrics) {
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in &metrics.0 {
            println!("{name} = {value} {unit}");
        }
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            self.correct(),
            self.attempted
        );
        for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values cannot appear in JSON; report them as 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Smallest of `xs` (0 for none): the repetition least disturbed by
/// other load on the host.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }
}
