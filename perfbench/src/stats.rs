//! Percentiles and the result line.

use std::fmt::Write as _;

/// Linear-interpolated percentile of `values` (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest whole percentile with at least ten samples beyond it.
pub fn tail_percentile(samples: usize) -> u32 {
    ((100.0 - 1000.0 / samples as f64).floor().max(0.0) as u32).min(99)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`,
/// every value with all its digits (`fscan::json` rounds floats to six
/// decimals).
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 0);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(96), 89);
        assert_eq!(tail_percentile(192), 94);
        for n in 20..2000 {
            let k = tail_percentile(n) as f64;
            assert!(n as f64 * (100.0 - k) / 100.0 >= 10.0);
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 1, &[metric("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
