//! Percentiles, medians and the per-layer call timer.

use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs` (mean of the two middle values for even counts).
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

/// Mean of the values of `xs` ranked between the `lo` and `hi` quantiles
/// (at least one value): a robust average that, unlike a median of
/// whole microseconds, does not read the same on every run.
pub fn mean_between(xs: &[f64], lo: f64, hi: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let a = ((lo * n as f64).floor() as usize).min(n - 1);
    let b = ((hi * n as f64).ceil() as usize).clamp(a + 1, n);
    v[a..b].iter().sum::<f64>() / (b - a) as f64
}

/// A log-linear histogram of nanosecond samples: exact below 128, then
/// 128 sub-buckets per power of two (under 0.8% relative width), so a
/// million samples cost a fixed 58 KiB instead of a vector of them.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB: u64 = 128;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (58 * SUB) as usize],
            total: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let idx = if v < SUB {
            v
        } else {
            let e = 63 - u64::from(v.leading_zeros());
            (e - 6) * SUB + ((v >> (e - 7)) - SUB)
        };
        self.counts[idx as usize] += 1;
        self.total += 1;
    }

    /// `[lo, lo + width)` of bucket `idx`.
    fn range(idx: u64) -> (u64, u64) {
        if idx < SUB {
            return (idx, 1);
        }
        let e = idx / SUB + 6;
        ((idx % SUB + SUB) << (e - 7), 1 << (e - 7))
    }

    /// The `q`-quantile, interpolated by rank within its bucket (exact
    /// below 128); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut before = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= target {
                let (lo, width) = Self::range(idx as u64);
                if width == 1 {
                    return lo as f64;
                }
                return lo as f64 + width as f64 * (target - before) as f64 / c as f64;
            }
            before += c;
        }
        0.0
    }
}

/// Calls into one layer: how many, how long in total, and (when timed)
/// the distribution of call durations.
#[derive(Default)]
pub struct Layer {
    pub calls: u64,
    pub busy: Duration,
    hist: Hist,
}

impl Layer {
    /// Runs `f` as one call into the layer, timing it when `timed`.
    pub fn time<R>(&mut self, timed: bool, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !timed {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let d = start.elapsed();
        self.busy += d;
        self.hist.record(d.as_nanos() as u64);
        out
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy.as_secs_f64() * 1e3
    }

    /// The `q`-quantile of the timed call durations, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q) / 1e3
    }
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert!(
            self.0.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`
    pub fn to_json(&self) -> String {
        let mut w = shard_obs::ObjWriter::new();
        for (name, value, unit) in &self.0 {
            let entry = shard_obs::ObjWriter::new()
                .f64("value", *value)
                .str("unit", unit)
                .finish();
            w = w.raw(name, &entry);
        }
        w.finish()
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_START`]).
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// `part / whole` as a fraction, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(mean_between(&xs, 0.0, 0.2), 1.5);
        assert_eq!(mean_between(&xs, 0.25, 0.75), 5.5);
        assert_eq!(mean_between(&[7.0], 0.0, 0.2), 7.0);
    }

    #[test]
    fn log_linear_histogram_stays_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.01, 0.5, 0.99] {
            let exact = (q * 100_000.0_f64).ceil() * 37.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.01,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        let mut small = Hist::default();
        small.record(5);
        assert_eq!(small.quantile(0.5), 5.0);
    }
}
