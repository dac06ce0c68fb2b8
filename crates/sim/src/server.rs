//! Single-server FIFO service-queue model.
//!
//! A service (e.g. a metadata registry instance) can process one request at
//! a time; requests arriving while it is busy wait in FIFO order. The model
//! is *work-conserving*: given an arrival at `now`, service starts at
//! `max(now, busy_until)` and the server is then busy until
//! `start + service_time`.
//!
//! This is the mechanism behind the paper's key baseline observation: a
//! **centralized** registry saturates as concurrency grows — its queue
//! builds up and per-op response time grows "in a near-exponential behavior"
//! (paper §VI-B) — while decentralized registries split the load n ways.

use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};

/// How long one request occupies the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceTime {
    /// Every request takes exactly this long.
    Fixed(SimDuration),
    /// Exponentially distributed with this mean (M/M/1-style).
    Exponential(SimDuration),
}

impl ServiceTime {
    fn sample(&self, rng: &mut SplitMix64) -> SimDuration {
        match *self {
            ServiceTime::Fixed(d) => d,
            ServiceTime::Exponential(mean) => {
                SimDuration::from_secs_f64(rng.sample_exp(mean.as_secs_f64()))
            }
        }
    }
}

/// FIFO single-server queue.
#[derive(Clone, Debug)]
pub struct ServiceQueue {
    service_time: ServiceTime,
    busy_until: SimTime,
    rng: SplitMix64,
    served: u64,
    busy_micros: u64,
    max_queue_delay: SimDuration,
}

impl ServiceQueue {
    /// New queue with the given service-time model. `seed` feeds the
    /// stochastic service-time variant.
    pub fn new(service_time: ServiceTime, seed: u64) -> ServiceQueue {
        ServiceQueue {
            service_time,
            busy_until: SimTime::ZERO,
            rng: SplitMix64::new(seed).split(0x7365_7276), // "serv"
            served: 0,
            busy_micros: 0,
            max_queue_delay: SimDuration::ZERO,
        }
    }

    /// Admit a request arriving at `now`; returns the instant its response
    /// is ready (service completion). Queueing delay is implicit.
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        let queued = start - now;
        if queued > self.max_queue_delay {
            self.max_queue_delay = queued;
        }
        let st = self.service_time.sample(&mut self.rng);
        let done = start + st;
        self.busy_until = done;
        self.served += 1;
        self.busy_micros += st.as_micros();
        done
    }

    /// Admit a request whose service costs a fractional `factor` of the
    /// normal service time. Used for cheap batched operations (factor < 1)
    /// and for congestion-inflated service (factor > 1).
    pub fn admit_scaled(&mut self, now: SimTime, factor: f64) -> SimTime {
        debug_assert!(factor >= 0.0, "service factor must be non-negative");
        let start = now.max(self.busy_until);
        let queued = start - now;
        if queued > self.max_queue_delay {
            self.max_queue_delay = queued;
        }
        let st = self.service_time.sample(&mut self.rng).mul_f64(factor);
        let done = start + st;
        self.busy_until = done;
        self.served += 1;
        self.busy_micros += st.as_micros();
        done
    }

    /// The nominal (mean) service time of this queue.
    pub fn base_service_time(&self) -> SimDuration {
        match self.service_time {
            ServiceTime::Fixed(d) | ServiceTime::Exponential(d) => d,
        }
    }

    /// Current queueing delay a request arriving at `now` would face.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until - now
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cumulative busy time (for utilization accounting).
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_micros(self.busy_micros)
    }

    /// Largest queueing delay any request has faced.
    #[cfg(test)]
    pub(crate) fn max_queue_delay(&self) -> SimDuration {
        self.max_queue_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(ms: u64) -> ServiceQueue {
        ServiceQueue::new(ServiceTime::Fixed(SimDuration::from_millis(ms)), 0)
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut q = fixed(5);
        let done = q.admit(SimTime(1_000));
        assert_eq!(done, SimTime(1_000 + 5_000));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut q = fixed(10);
        let d1 = q.admit(SimTime::ZERO);
        let d2 = q.admit(SimTime::ZERO); // arrives while busy
        let d3 = q.admit(SimTime(5_000)); // still behind both
        assert_eq!(d1, SimTime(10_000));
        assert_eq!(d2, SimTime(20_000));
        assert_eq!(d3, SimTime(30_000));
        assert_eq!(q.served(), 3);
        assert_eq!(q.max_queue_delay(), SimDuration::from_millis(15));
    }

    #[test]
    fn gaps_leave_server_idle() {
        let mut q = fixed(10);
        q.admit(SimTime::ZERO);
        let done = q.admit(SimTime(100_000));
        assert_eq!(done, SimTime(110_000));
    }

    #[test]
    fn exponential_mean_tracks_target() {
        let mut q = ServiceQueue::new(ServiceTime::Exponential(SimDuration::from_millis(4)), 7);
        let n = 20_000u64;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            // Arrive after the previous completion: no queueing, so busy
            // time equals the sum of service times.
            t = q.admit(t);
        }
        let mean_ms = q.busy_time().as_secs_f64() * 1_000.0 / n as f64;
        assert!((mean_ms - 4.0).abs() < 0.2, "mean service {mean_ms} ms");
    }

    #[test]
    fn saturation_throughput_is_capacity_bound() {
        // Offered load far above capacity: completions are spaced exactly
        // one service time apart — the closed-form saturation of Fig. 7's
        // centralized curve.
        let mut q = fixed(5);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = q.admit(SimTime::ZERO);
        }
        assert_eq!(last, SimTime(500_000)); // 100 ops * 5 ms
    }
}
