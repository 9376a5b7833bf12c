//! Order statistics, host-time spans and the result line.

use std::fmt::Write as _;
use std::time::Instant;

use allscale_des::LogHistogram;

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The highest percentile of `xs` with at least ten samples beyond it, as
/// `(percentile, value)`; `None` with eleven samples or fewer.
pub fn tail(xs: &mut [f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = n - 11; // ten samples lie above index n - 11
    Some((100.0 * (rank + 1) as f64 / n as f64, xs[rank]))
}

/// Smallest `k` in `lo..=hi` with `!pred(k)` (`hi + 1` if none), for a
/// `pred` that holds on a prefix of the range.
fn first_false(mut lo: u64, hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    let mut end = hi + 1;
    while lo < end {
        let mid = lo + (end - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            end = mid;
        }
    }
    lo
}

/// Quantile `q` (0 < q ≤ 1) of a log2-bucketed histogram, in its unit.
/// The bucket holding rank ⌈q·n⌉ is found as `LogHistogram::percentile`
/// finds it; inside it the value is interpolated linearly by rank over
/// the bucket's range clipped to the observed min and max, so the result
/// moves smoothly instead of doubling at bucket edges. 0 when empty.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> f64 {
    let t = h.tally();
    let n = t.count();
    if n == 0 {
        return 0.0;
    }
    // Upper bound of the bucket holding the k-th smallest sample.
    let upper = |k: u64| h.percentile(100.0 * (k as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let top = upper(rank);
    let first = first_false(1, rank, |k| upper(k) < top);
    let last = first_false(rank, n, |k| upper(k) <= top) - 1;
    let lo = (top / 2 + 1).max(t.min().unwrap_or(0)) as f64;
    let hi = top.min(t.max().unwrap_or(top)) as f64;
    let frac = (rank - first + 1) as f64 / (last - first + 1) as f64;
    lo + (hi - lo).max(0.0) * frac
}

/// Peak resident set size of this process in MiB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux, and RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    ru.maxrss as f64 / 1024.0
}

/// Host-time spans around the benchmark's own calls into the program,
/// kept in memory and written out once at the end.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

impl Spans {
    /// An empty recorder; times count from now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Run `f` inside a span named `name`, nested in the innermost open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Chrome trace-event JSON of every span (complete "X" events; the
    /// causing span's index is in `args.parent`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us
            );
        }
        out.push_str("]}");
        out
    }
}

/// Named metrics in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// One `name value unit` line per metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "{name:<28} {value:>18.6} {unit}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&mut [1.0; 10]).is_none());
        let mut xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p, v) = tail(&mut xs).unwrap();
        assert_eq!(v, 10.0);
        assert_eq!(p, 50.0);
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let mut h = LogHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        // All samples share the bucket [1024, 2047] except 1000..1023.
        let p50 = hist_quantile(&h, 0.5);
        assert!((1450.0..1550.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile(&h, 1.0), 1999.0);
        let mut one = LogHistogram::new();
        for _ in 0..10 {
            one.record(777);
        }
        assert_eq!(hist_quantile(&one, 0.99), 777.0);
        assert_eq!(hist_quantile(&LogHistogram::new(), 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.push("host_s", 1.25, "s");
        assert_eq!(
            m.result_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
