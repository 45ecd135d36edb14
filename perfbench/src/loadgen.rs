//! The open-loop schedule: tick `k` is due at `t0 + k·period` whatever
//! the daemon is doing, and every latency is timed from that due time,
//! so a stall counts against each tick it delays (no coordinated
//! omission).

use std::io;
use std::time::{Duration, Instant};

/// Time since the run's `t0`, and a way to wait for a later one.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

/// The real clock.
pub struct WallClock {
    pub t0: Instant,
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.t0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// When tick `k` is due, relative to `t0`.
pub fn due(k: usize, period: Duration) -> Duration {
    period * u32::try_from(k).expect("tick index fits in u32")
}

/// What the generator saw for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// How late the generator began writing the tick.
    pub lag: Duration,
    /// How long the write blocked.
    pub blocked: Duration,
}

/// Sends `ticks` ticks on the open-loop schedule. A tick whose due time
/// has passed (the previous write blocked) is sent at once; nothing is
/// skipped and the schedule never shifts.
///
/// # Errors
///
/// The first error `send` returns.
pub fn run_paced<C: Clock>(
    clock: &mut C,
    ticks: usize,
    period: Duration,
    mut send: impl FnMut(usize, &mut C) -> io::Result<()>,
) -> io::Result<Vec<Sent>> {
    let mut log = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let due_at = due(k, period);
        clock.sleep_until(due_at);
        let start = clock.now();
        send(k, clock)?;
        log.push(Sent {
            lag: start.saturating_sub(due_at),
            blocked: clock.now() - start,
        });
    }
    Ok(log)
}

/// Latency of each answered tick, timed from its due time.
pub fn tick_latencies(answered: &[Duration], period: Duration) -> Vec<Duration> {
    answered
        .iter()
        .enumerate()
        .map(|(k, &at)| at.saturating_sub(due(k, period)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }

        fn sleep_until(&mut self, t: Duration) {
            self.0 = self.0.max(t);
        }
    }

    const P: Duration = Duration::from_millis(4);

    #[test]
    fn ticks_go_out_on_schedule_when_nothing_stalls() {
        let mut clock = FakeClock(Duration::ZERO);
        let log = run_paced(&mut clock, 5, P, |_, _| Ok(())).unwrap();
        assert!(log.iter().all(|s| s.lag.is_zero() && s.blocked.is_zero()));
        assert_eq!(clock.now(), due(4, P));
    }

    #[test]
    fn a_stall_of_k_periods_makes_k_late_ticks_timed_from_their_due_times() {
        for k in 1..6u32 {
            // The daemon stops reading for k periods while tick 0 is
            // written, then answers each tick as soon as it arrives.
            let mut clock = FakeClock(Duration::ZERO);
            let mut answered = Vec::new();
            let log = run_paced(&mut clock, 20, P, |tick, c| {
                if tick == 0 {
                    c.0 += P * k;
                }
                answered.push(c.now());
                Ok(())
            })
            .unwrap();
            let latencies = tick_latencies(&answered, P);
            let late: Vec<usize> = (0..latencies.len())
                .filter(|&i| !latencies[i].is_zero())
                .collect();
            assert_eq!(
                late,
                (0..k as usize).collect::<Vec<_>>(),
                "stall of {k} periods"
            );
            for (i, lat) in latencies.iter().take(k as usize).enumerate() {
                assert_eq!(
                    *lat,
                    P * (k - i as u32),
                    "tick {i} is timed from its due time"
                );
            }
            // The ticks that came due during the stall went out late,
            // all at once, rather than being rescheduled.
            for (i, sent) in log.iter().enumerate().take(k as usize + 1).skip(1) {
                assert_eq!(sent.lag, P * (k - i as u32));
            }
            assert_eq!(log[0].blocked, P * k);
            // Timing from the send instead would hide every one but the
            // stalled tick itself.
            let from_send = (1..20)
                .filter(|&i| answered[i] > due(i, P) + log[i].lag)
                .count();
            assert_eq!(from_send, 0);
        }
    }
}
