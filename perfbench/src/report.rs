//! Result line, summary statistics and host probes shared by the
//! workloads.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports: whether every output check passed, how many
/// operations it attempted and how many of them failed, and its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result as one JSON line. Values keep every digit Rust's
    /// shortest round-trip formatting gives them.
    ///
    /// # Errors
    ///
    /// Refuses a non-finite value (JSON has no spelling for it), a
    /// duplicated name, and an outcome that attempted nothing.
    pub fn to_json(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("a run must attempt at least one operation".into());
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a percentile needs strictly above its rank before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `values`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank — the
/// highest percentile worth reporting has at least ten samples past it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// [`percentile`] for a metric that must be reported.
///
/// # Errors
///
/// Names the metric and the sample count when there are too few
/// samples beyond the rank.
pub fn required_percentile(what: &str, values: &[f64], q: f64) -> Result<f64, String> {
    percentile(values, q).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than {MIN_BEYOND} beyond p{:.0}",
            values.len(),
            q * 100.0
        )
    })
}

/// Paces a run to its time budget: rounds continue while fewer than
/// `min` are done, or while one more round of the average length so far
/// still ends within the budget. A slow host then measures fewer rounds
/// instead of overrunning the run's time.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    budget: Duration,
    min: usize,
    rounds: usize,
}

impl Pacer {
    /// Starts the clock on a budget of `seconds`.
    pub fn new(seconds: u64, min: usize) -> Pacer {
        Pacer {
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
            min: min.max(1),
            rounds: 0,
        }
    }

    /// Whether to run another round; counts it if so.
    pub fn more(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        let go = self.rounds < self.min || elapsed + elapsed / self.rounds as u32 <= self.budget;
        if go {
            self.rounds += 1;
        }
        go
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// A `kB` field (`VmRSS`, `VmHWM`, ...) of `/proc/<pid>/status`, in MB;
/// `None` for the calling process reads `/proc/self`.
pub fn proc_status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resident set size of this process in MB (0 where `/proc` is absent).
pub fn rss_mb() -> f64 {
    proc_status_mb(None, "VmRSS").unwrap_or(0.0)
}

/// Accumulates the failures of one run's output checks; the run is
/// correct only if none was recorded.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Records a fingerprint comparison.
    pub fn same_fingerprint(&mut self, what: &str, expected: u64, got: u64) {
        self.expect(expected == got, || {
            format!("{what}: fingerprint {got:016x}, expected {expected:016x}")
        });
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(120), 0.9), Some(108.0));
        assert!(required_percentile("x", &ramp(99), 0.9)
            .unwrap_err()
            .contains("99 samples"));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn printer_names_every_metric_with_its_unit() {
        let out = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                metric("wall_s", 1.25, "s"),
                metric("points_per_s", 1.0 / 3.0, "1/s"),
            ],
        };
        assert_eq!(
            out.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"points_per_s\": {\"value\": 0.3333333333333333, \"unit\": \"1/s\"}}}"
        );
        let parsed = ringmesh_serve::json::Json::parse(&out.to_json().unwrap()).unwrap();
        let wall = parsed.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(|u| u.as_str()), Some("s"));
    }

    #[test]
    fn printer_refuses_bad_results() {
        let base = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("wall_s", f64::NAN, "s")],
        };
        assert!(base.to_json().is_err());
        let dup = Outcome {
            metrics: vec![metric("a", 1.0, "s"), metric("a", 2.0, "s")],
            ..base.clone()
        };
        assert!(dup.to_json().is_err());
        let idle = Outcome {
            attempted: 0,
            metrics: vec![],
            ..base
        };
        assert!(idle.to_json().is_err());
    }

    #[test]
    fn pacer_runs_the_minimum_then_stops_at_the_budget() {
        let mut none = Pacer::new(0, 3);
        assert!(none.more() && none.more() && none.more());
        assert!(!none.more());
        assert_eq!(none.rounds(), 3);
        let mut long = Pacer::new(60, 1);
        assert!(long.more() && long.more());
    }

    #[test]
    fn whole_number_values_stay_numbers() {
        let out = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![metric("n", 4.0, "count")],
        };
        assert!(out.to_json().unwrap().contains("\"value\": 4.0"));
    }
}
