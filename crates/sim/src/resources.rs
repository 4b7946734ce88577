//! Contended resources of the deployment's contention timeline.

use aeon_types::{SimDuration, SimTime};

/// A context's sequencer lock in the timeline model.
///
/// Exclusive holders serialize; read-only holders may overlap each other but
/// not writers.  Requests are granted in the order they are offered to the
/// lock (the deployment offers them in arrival order), which mirrors the FIFO
/// activation queues of the runtime.
#[derive(Debug, Clone, Default)]
pub struct LockTimeline {
    /// Time at which the last exclusive holder releases.
    writer_free_at: SimTime,
    /// Latest release time among read-only holders admitted since the last
    /// writer.
    readers_free_at: SimTime,
}

impl LockTimeline {
    /// Earliest time at or after `now` at which an exclusive acquisition can
    /// start (does not take the lock).
    pub fn next_exclusive_start(&self, now: SimTime) -> SimTime {
        now.max(self.writer_free_at).max(self.readers_free_at)
    }

    /// Earliest time at or after `now` at which a shared acquisition can
    /// start (does not take the lock).
    pub fn next_shared_start(&self, now: SimTime) -> SimTime {
        now.max(self.writer_free_at)
    }

    /// Records that an exclusive holder keeps the lock until `end`.
    pub fn hold_exclusive_until(&mut self, end: SimTime) {
        if end > self.writer_free_at {
            self.writer_free_at = end;
        }
        if end > self.readers_free_at {
            self.readers_free_at = end;
        }
    }

    /// Records that a shared holder keeps the lock until `end`.
    pub fn hold_shared_until(&mut self, end: SimTime) {
        if end > self.readers_free_at {
            self.readers_free_at = end;
        }
    }
}

/// A server's CPU: `cores` independent execution units, each FIFO.
#[derive(Debug, Clone)]
pub struct CpuTimeline {
    cores: Vec<SimTime>,
}

impl CpuTimeline {
    /// Creates a CPU with `cores` cores (at least one).
    pub fn new(cores: usize) -> Self {
        Self {
            cores: vec![SimTime::ZERO; cores.max(1)],
        }
    }

    /// Runs a job of length `service` starting at or after `now` on the
    /// first core to become free.  Returns the completion time.
    pub fn run(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let (idx, free_at) = self
            .cores
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, t)| *t)
            .expect("at least one core");
        let start = now.max(free_at);
        let end = start + service;
        self.cores[idx] = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Takes the lock exclusively at or after `now` for `hold`, the way the
    /// deployment's timeline does; returns the acquisition time.
    fn write(lock: &mut LockTimeline, now: SimTime, hold: SimDuration) -> SimTime {
        let start = lock.next_exclusive_start(now);
        lock.hold_exclusive_until(start + hold);
        start
    }

    /// The shared counterpart of [`write`].
    fn read(lock: &mut LockTimeline, now: SimTime, hold: SimDuration) -> SimTime {
        let start = lock.next_shared_start(now);
        lock.hold_shared_until(start + hold);
        start
    }

    #[test]
    fn exclusive_acquisitions_serialize() {
        let mut lock = LockTimeline::default();
        assert_eq!(write(&mut lock, at(0), ms(10)), at(0));
        // Second request arriving at t=2 must wait until t=10.
        assert_eq!(write(&mut lock, at(2), ms(5)), at(10));
        assert_eq!(lock.next_exclusive_start(at(0)), at(15));
    }

    #[test]
    fn readers_overlap_but_respect_writers() {
        let mut lock = LockTimeline::default();
        write(&mut lock, at(0), ms(10));
        // Two readers arriving during the write both start at t=10.
        assert_eq!(read(&mut lock, at(3), ms(5)), at(10));
        assert_eq!(read(&mut lock, at(4), ms(7)), at(10));
        // A writer then waits for the slowest reader.
        assert_eq!(write(&mut lock, at(5), ms(1)), at(17));
    }

    #[test]
    fn multi_core_cpu_runs_jobs_in_parallel() {
        let mut cpu = CpuTimeline::new(2);
        assert_eq!(cpu.run(at(0), ms(10)), at(10));
        assert_eq!(cpu.run(at(0), ms(10)), at(10)); // second core
        assert_eq!(cpu.run(at(0), ms(10)), at(20)); // queues behind first
    }

    #[test]
    fn single_core_is_fifo() {
        let mut cpu = CpuTimeline::new(1);
        assert_eq!(cpu.run(at(0), ms(5)), at(5));
        assert_eq!(cpu.run(at(1), ms(5)), at(10));
        assert_eq!(cpu.run(at(20), ms(5)), at(25));
    }
}
