//! Measurement plumbing: counters and completion recorders shared by
//! simulation actors.
//!
//! Experiments need two kinds of observations:
//! * **counters** — how many operations of each kind happened,
//! * **completion records** — a timestamp per finished operation, from which
//!   progress curves (paper Fig. 6) and throughput (Fig. 7) are derived.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Records a timestamp for each completed operation; the raw material for
/// progress curves and throughput numbers.
#[derive(Clone, Debug, Default)]
pub struct CompletionLog {
    times: Vec<SimTime>,
    sorted: bool,
}

impl CompletionLog {
    /// New empty log.
    #[cfg(test)]
    pub(crate) fn new() -> CompletionLog {
        CompletionLog::default()
    }

    /// Record one completion.
    pub(crate) fn record(&mut self, at: SimTime) {
        if let Some(&last) = self.times.last() {
            if at < last {
                self.sorted = false;
            }
        }
        self.times.push(at);
    }

    /// Total completions.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// The instant by which `frac` (in `[0,1]`) of all operations had
    /// completed. Used directly for the paper's Figure 6 progress curves.
    pub fn time_at_fraction(&mut self, frac: f64) -> SimTime {
        if self.times.is_empty() {
            return SimTime::ZERO;
        }
        self.ensure_sorted();
        let idx = (((self.times.len() as f64) * frac.clamp(0.0, 1.0)).ceil() as usize)
            .clamp(1, self.times.len());
        self.times[idx - 1]
    }

    /// Mean completion instant (e.g. average node finish time).
    pub fn mean_time(&self) -> SimTime {
        if self.times.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u128 = self.times.iter().map(|t| t.0 as u128).sum();
        SimTime((sum / self.times.len() as u128) as u64)
    }

    /// Last completion time (the makespan contribution of this log).
    pub fn last(&mut self) -> SimTime {
        self.ensure_sorted();
        self.times.last().copied().unwrap_or(SimTime::ZERO)
    }

    /// Aggregate throughput in completions/second over `[0, last]`.
    pub fn throughput(&mut self) -> f64 {
        let n = self.times.len();
        if n == 0 {
            return 0.0;
        }
        let span = self.last().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        n as f64 / span
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.times.sort_unstable();
            self.sorted = true;
        }
        // An empty or single-element log is trivially sorted; mark it so.
        self.sorted = true;
    }
}

/// Central metrics registry handed to actors through the simulation context.
#[derive(Clone, Debug, Default)]
pub struct MetricsHub {
    counters: BTreeMap<String, u64>,
    completions: BTreeMap<String, CompletionLog>,
}

impl MetricsHub {
    /// New empty hub.
    pub(crate) fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Increment a named counter.
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a completion timestamp into a named log.
    pub fn complete(&mut self, name: &str, at: SimTime) {
        self.completions
            .entry(name.to_string())
            .or_default()
            .record(at);
    }

    /// Access a completion log mutably (created on demand).
    pub fn completions_mut(&mut self, name: &str) -> &mut CompletionLog {
        self.completions.entry(name.to_string()).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_progress_fractions() {
        let mut log = CompletionLog::new();
        for s in [4u64, 1, 3, 2] {
            log.record(SimTime(s * 1_000_000));
        }
        assert_eq!(log.time_at_fraction(0.25), SimTime(1_000_000));
        assert_eq!(log.time_at_fraction(0.5), SimTime(2_000_000));
        assert_eq!(log.time_at_fraction(1.0), SimTime(4_000_000));
        assert_eq!(log.last(), SimTime(4_000_000));
    }

    #[test]
    fn completion_throughput() {
        let mut log = CompletionLog::new();
        for i in 1..=10u64 {
            log.record(SimTime(i * 100_000)); // 10 ops over 1 s
        }
        let tp = log.throughput();
        assert!((tp - 10.0).abs() < 1e-9, "throughput {tp}");
    }

    #[test]
    fn hub_counters_and_completions() {
        let mut hub = MetricsHub::new();
        hub.incr("ops", 3);
        hub.incr("ops", 2);
        assert_eq!(hub.counter("ops"), 5);
        assert_eq!(hub.counter("missing"), 0);
        hub.complete("done", SimTime(5));
        assert_eq!(hub.completions_mut("done").count(), 1);
    }
}
