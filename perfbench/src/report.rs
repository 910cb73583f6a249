//! Percentiles, metrics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples beyond the nearest-rank `p`-th percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A distribution of timings in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    /// `p50=… p99=… (n=…)`: the median plus the highest percentile with
    /// ten samples beyond it.
    pub fn summary(&self) -> String {
        let sorted = self.sorted();
        let mut s = format!("p50={:.3}", percentile(&sorted, 50.0));
        if let Some(p) = tail_percentile(sorted.len()) {
            let _ = write!(s, " p{p}={:.3}", percentile(&sorted, p));
        }
        let _ = write!(s, " n={}", sorted.len());
        s
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for exact results and counts).
    pub samples: usize,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed operation with its reason (the first few are
    /// kept as notes).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The metric table, one metric per line with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "{name:<28} {:>16.6} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set size (VmHWM) to its current
/// resident set size, so that the next [`peak_rss_mb`] covers only what
/// runs in between. Without `/proc/self/clear_refs` this does nothing.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(20), None);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("p50_ms", 1.25, "ms", 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
