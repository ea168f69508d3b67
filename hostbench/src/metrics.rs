//! Named metrics, the summary statistics behind them, and JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics by name, each with its unit, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`. A value that is not finite (a
    /// ratio over an empty set) is stored as 0 so the output stays JSON.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(k),
                    json_number(*v),
                    json_string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// `{"name": v, ...}`, for the trace file.
    #[must_use]
    pub fn to_flat_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, _))| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A number as JSON, with every digit Rust's shortest round-trip form
/// gives.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A string as a JSON literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The median (mean of the middle two for an even count; 0 for none).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile of `xs` by nearest rank (0 for none).
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sets `images_per_s` from per-image host milliseconds, one sample per
/// forward or per repetition: the rate of the 90th-percentile sample, which
/// 90 % of samples reach. Returns the sample count and the p50 and p90
/// times as notes.
///
/// On a host whose cores are shared, one forward runs at two speeds about
/// 2× apart as neighbours come and go, each lasting tens of seconds. A
/// run's median and mean then depend on how long each speed lasted and
/// move by up to 40 % between runs; the 90th percentile follows the slower
/// speed and stays within about 10 %.
pub fn set_host_rate(m: &mut Metrics, per_image_ms: &[f64]) -> Vec<(String, String)> {
    let p90 = percentile(per_image_ms, 90.0);
    m.set("images_per_s", 1e3 / p90, "1/s");
    vec![
        ("samples".into(), per_image_ms.len().to_string()),
        ("forward_ms.p50".into(), json_number(median(per_image_ms))),
        ("forward_ms.p90".into(), json_number(p90)),
    ]
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where the kernel
/// does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn json_rendering_escapes_and_keeps_digits() {
        let mut m = Metrics::default();
        m.set("a\"b", 0.1234567891234, "ms");
        m.set("n", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\\\"b\": {\"value\": 0.1234567891234, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }
}
