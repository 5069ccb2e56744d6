//! Scaled virtual clock shared by the session and its data plane.
//!
//! The runtime executes a *cost model* of GPU work rather than real kernels,
//! so it can run faster than real time: one virtual second is mapped to
//! `wall_per_virtual` wall-clock seconds (default 0.002, i.e. a 500× speed-up).
//! All latencies and throughputs reported by the runtime are in virtual
//! seconds, which makes them directly comparable with the discrete-event
//! simulator and with the paper's numbers.

use std::time::{Duration, Instant};

/// A shared, monotonically increasing virtual clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VirtualClock {
    start: Instant,
    wall_per_virtual: f64,
}

impl VirtualClock {
    /// Creates a clock mapping one virtual second to `wall_per_virtual`
    /// wall-clock seconds.
    ///
    /// # Panics
    ///
    /// Panics if `wall_per_virtual` is not strictly positive and finite.
    pub(crate) fn new(wall_per_virtual: f64) -> Self {
        assert!(
            wall_per_virtual.is_finite() && wall_per_virtual > 0.0,
            "wall_per_virtual must be positive and finite, got {wall_per_virtual}"
        );
        VirtualClock {
            start: Instant::now(),
            wall_per_virtual,
        }
    }

    /// Virtual seconds elapsed since the clock was created.
    pub(crate) fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.wall_per_virtual
    }

    /// Wall-clock seconds elapsed since the clock was created.
    pub(crate) fn wall_elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The wall-clock [`Instant`] at which virtual time reaches
    /// `virtual_secs`, for deadline-based waits.  Times in the past (or
    /// non-finite) map to the clock's epoch; far futures are clamped so the
    /// conversion never overflows.
    pub(crate) fn instant_at(&self, virtual_secs: f64) -> Instant {
        if !virtual_secs.is_finite() || virtual_secs <= 0.0 {
            return self.start;
        }
        let wall = (virtual_secs * self.wall_per_virtual).min(86_400.0 * 365.0);
        self.start + Duration::from_secs_f64(wall)
    }

    /// The wall-clock [`Instant`] `wall` after the clock's epoch — the
    /// deadline matching a `wall_elapsed() > wall` check.
    pub(crate) fn instant_at_wall(&self, wall: Duration) -> Instant {
        self.start + wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_time_advances_faster_than_wall_time() {
        let clock = VirtualClock::new(0.001);
        std::thread::sleep(Duration::from_millis(5));
        assert!(
            clock.now() >= 4.0,
            "5 ms of wall time is at least 4 virtual seconds"
        );
        assert!(clock.wall_elapsed() >= Duration::from_millis(5));
    }

    /// What the type's doctest showed while the type was public.
    #[test]
    fn the_clock_never_runs_backwards() {
        let clock = VirtualClock::new(0.001); // 1 virtual second = 1 ms of wall time
        let start = clock.now();
        assert!(start >= 0.0);
        assert!(clock.now() >= start);
    }

    #[test]
    #[should_panic(expected = "wall_per_virtual")]
    fn zero_scale_is_rejected() {
        let _ = VirtualClock::new(0.0);
    }

    #[test]
    fn deadline_instants_track_the_scale() {
        let clock = VirtualClock::new(0.001);
        let epoch = clock.instant_at(f64::NEG_INFINITY);
        assert_eq!(clock.instant_at(-3.0), epoch);
        assert_eq!(clock.instant_at(10.0) - epoch, Duration::from_millis(10));
        assert_eq!(
            clock.instant_at_wall(Duration::from_millis(7)) - epoch,
            Duration::from_millis(7)
        );
    }
}
