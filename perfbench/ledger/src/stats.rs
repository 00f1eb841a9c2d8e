//! Order statistics, a seeded generator, process memory, and the result
//! record every workload fills in.

use std::collections::BTreeMap;
use std::path::Path;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values (0 when there are none).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a tiny deterministic generator, so the same `--seed`
/// always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process when
/// `None`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (cells, or requests).
    pub attempted: u64,
    /// Operations that failed: failed cells, output mismatches, errored
    /// replies and replies whose bytes differ.
    pub failed: u64,
    /// Check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Reported metrics: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Deterministic work counters, compared with earlier runs.
    pub counters: BTreeMap<String, u64>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a deterministic counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Records a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("pps-ledger: FAIL: {message}");
        self.problems.push(message);
    }

    /// Compares the counters with the record an earlier run of the same
    /// key left in `dir`, or leaves the record when there is none. Work
    /// counters do not depend on timing, so any difference means the
    /// program is not deterministic.
    pub fn check_counters(&mut self, dir: &Path, key: &str) {
        let path = dir.join(format!("counters-{key}.txt"));
        let text: String = self
            .counters
            .iter()
            .map(|(name, value)| format!("{name} {value}\n"))
            .collect();
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous == text => {}
            Ok(previous) => {
                let old: BTreeMap<&str, &str> =
                    previous.lines().filter_map(|l| l.split_once(' ')).collect();
                let diffs: Vec<String> = self
                    .counters
                    .iter()
                    .filter(|(name, value)| {
                        old.get(name.as_str()) != Some(&value.to_string().as_str())
                    })
                    .map(|(name, value)| {
                        format!(
                            "{name}: {} -> {value}",
                            old.get(name.as_str()).unwrap_or(&"absent")
                        )
                    })
                    .collect();
                self.problem(format!(
                    "deterministic counters differ from the earlier run recorded in {}: {}",
                    path.display(),
                    diffs.join(", ")
                ));
            }
            Err(_) => {
                if let Err(e) = std::fs::write(&path, text) {
                    self.problem(format!("{}: {e}", path.display()));
                }
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
