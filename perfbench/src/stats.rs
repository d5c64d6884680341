//! Sample statistics, failure accounting and the metric record the benchmark
//! prints.

use std::fmt::Write as _;

/// Fewest samples that must lie strictly beyond a percentile before it is
/// reported: a tail estimate resting on fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order): the smallest sample
/// such that at least `p` percent of the samples are ≤ it. Returns `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank, or when
/// `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(p, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. `p * n`
/// is formed before the division so whole percentages rank exactly.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0).ceil().clamp(1.0, n as f64) as usize
}

/// Fewest samples for which [`percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n: &usize| n - nearest_rank(p, n) >= MIN_BEYOND)
        .expect("some sample count suffices")
}

/// Percentile `p` of one run's samples, taken in the order they were
/// measured, as the median over consecutive windows. Each window holds whole
/// blocks of `block` samples (one pass through the job list, so every window
/// has the same job mix) and is just large enough for [`percentile`] to
/// report `p`; the last window also takes the samples that do not fill
/// another. A burst of host contention then moves the percentiles of the
/// windows it covers, not the median over all of them. `None` when the
/// samples do not fill one window.
pub fn windowed_percentile(samples: &[f64], p: f64, block: usize) -> Option<f64> {
    let window = min_samples_for(p).div_ceil(block.max(1)) * block.max(1);
    let count = samples.len() / window;
    let per_window: Vec<f64> = (0..count)
        .map(|i| {
            let end = if i + 1 == count {
                samples.len()
            } else {
                (i + 1) * window
            };
            percentile(&samples[i * window..end], p).expect("a window holds enough samples")
        })
        .collect();
    median(&per_window)
}

/// Median (mean of the middle pair for an even count); `None` when empty.
/// Used for repeated measurements of one quantity, not for latency tails.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// How one attempted job ended, from the benchmark's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEnd {
    /// Finished with every correctness check passing.
    Correct,
    /// Rejected with a typed error before it was admitted.
    Error(String),
    /// Admitted, then ended in a typed error instead of `done`.
    Failed(String),
    /// Ended cancelled.
    Cancelled,
    /// No terminal event arrived within the job timeout.
    Timeout,
    /// Finished, but a correctness check on its result failed.
    CheckFailed(String),
}

/// Tally of job ends: `failed_frac` is every end other than
/// [`JobEnd::Correct`] over the jobs attempted.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that did not end correct.
    pub failed: usize,
    /// One line per failure, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one job end.
    pub fn record(&mut self, job: &str, end: JobEnd) {
        self.attempted += 1;
        if end != JobEnd::Correct {
            self.failed += 1;
            self.reasons.push(format!("{job}: {end:?}"));
        }
    }

    /// Records a check on the whole run (not tied to one job) that failed;
    /// it counts as one failed attempt so the run cannot report clean.
    pub fn record_run_check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.record(what, JobEnd::CheckFailed(what.to_string()));
        }
    }

    /// Failed jobs over attempted jobs (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every attempted job ended correct (and at least one ran).
    pub fn all_correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every metric recorded so far.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric; a repeated name is a bug in the benchmark.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_metric_name(name), "invalid metric name {name}");
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded twice in one run"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records [`windowed_percentile`] of `samples` with windows of whole
    /// `block`s, unless it declines to report it (the caller then finds the
    /// metric missing).
    pub fn push_windowed_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        block: usize,
        unit: &'static str,
    ) {
        if let Some(v) = windowed_percentile(samples, p, block) {
            self.push(name, v, unit, samples.len());
        }
    }

    /// The metric called `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable table, one metric per line.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {:<8} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The final result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (`name → {value, unit}`) for the metrics named in
/// `names`, in that order. Values print with every digit (`f64` `Display`
/// round-trips exactly).
pub fn result_json(tally: &Tally, report: &Report, names: &[&str]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.all_correct(),
        tally.attempted,
        tally.failed
    );
    let mut first = true;
    for name in names {
        let m = report
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
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
    fn nearest_rank_percentile_picks_the_ranked_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // ceil(0.5 * 21) = 11th smallest; 10 samples lie beyond it.
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&odd, 50.0), Some(11.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&s(19), 50.0), None);
        assert_eq!(percentile(&s(20), 50.0), Some(10.0));
        assert_eq!(percentile(&s(99), 90.0), None);
        assert_eq!(percentile(&s(100), 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(min_samples_for(90.0), 100);
        for p in [50.0, 90.0, 99.0] {
            let n = min_samples_for(p);
            assert!(percentile(&s(n), p).is_some());
            assert!(percentile(&s(n - 1), p).is_none());
        }
    }

    #[test]
    fn windowed_percentile_takes_the_median_over_whole_block_windows() {
        // 300 samples in blocks of 30: p90 windows hold 120 samples, so
        // there are two, the second taking the last 180.
        let mut samples: Vec<f64> = (0..300).map(|i| (i % 30) as f64).collect();
        assert_eq!(windowed_percentile(&samples, 90.0, 30), Some(26.0));
        // A burst over one window of three leaves the median unmoved.
        let mut three: Vec<f64> = (0..360).map(|i| (i % 30) as f64).collect();
        for x in &mut three[..120] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&three, 90.0, 30), Some(26.0));
        assert_eq!(percentile(&three, 90.0), Some(200.0));
        // p50 windows need 20 samples: one block of 30 each.
        samples.truncate(90);
        assert_eq!(windowed_percentile(&samples, 50.0, 30), Some(14.0));
        assert_eq!(windowed_percentile(&three[..119], 90.0, 30), None);
        assert_eq!(windowed_percentile(&[], 50.0, 1), None);
        // One-sample blocks give windows of exactly min_samples_for(p).
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(windowed_percentile(&s, 90.0, 1), percentile(&s, 90.0));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_every_end_but_correct() {
        let mut tally = Tally::default();
        tally.record("a", JobEnd::Correct);
        tally.record("b", JobEnd::Error("too_few_ranks".into()));
        tally.record("c", JobEnd::Failed("internal".into()));
        tally.record("d", JobEnd::Cancelled);
        tally.record("e", JobEnd::Timeout);
        tally.record("f", JobEnd::CheckFailed("cost bits differ".into()));
        tally.record("g", JobEnd::Correct);
        tally.record("h", JobEnd::Correct);
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failed, 5);
        assert_eq!(tally.failed_frac(), 5.0 / 8.0);
        assert!(!tally.all_correct());
        assert_eq!(tally.reasons.len(), 5);
    }

    #[test]
    fn clean_and_empty_tallies() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_frac(), 0.0);
        assert!(
            !tally.all_correct(),
            "a run that attempted nothing is not correct"
        );
        tally.record("a", JobEnd::Correct);
        tally.record_run_check("digest stable", true);
        assert!(tally.all_correct());
        tally.record_run_check("digest stable", false);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        assert!(valid_metric_name("sime-core.iterate_ms"));
        assert!(valid_metric_name("sime-parallel.run_ms.portfolio_mixed"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut tally = Tally::default();
        tally.record("a", JobEnd::Correct);
        let mut report = Report::default();
        report.push("a_ms", 1.25, "ms", 3);
        report.push("b", 0.1 + 0.2, "count", 1);
        report.push("unlisted", 9.0, "count", 1);
        let line = result_json(&tally, &report, &["a_ms", "b"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"count\"}}}"
        );
    }
}
