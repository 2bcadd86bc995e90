//! Phase scheduling and failure accounting.

use cadb_common::Parallelism;
use std::time::Instant;

/// The worker-pool setting of every call the benchmark makes. Serial: on
/// a small shared host the `Auto` pool's hand-offs to a second core make
/// a query's latency depend on what else that core runs (per-pass query
/// p50s of 2.6–5.3 ms under `Auto` against 1.6–2.1 ms serial, measured
/// side by side on 2 cores), and results are identical for every setting.
pub const PAR: Parallelism = Parallelism::Serial;

/// How much work one phase of a run does, in whole units (a set-up, a
/// grid pass, a query pass, a serve cycle).
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Units the phase runs however short the run.
    pub min_units: usize,
    /// For the phase the workload is named after: keep going until this
    /// many seconds of the run's measured time have passed.
    pub seconds: Option<f64>,
    /// Whether the phase's units count toward the measured time
    /// (repeated set-ups do not).
    pub measured: bool,
}

/// Run the phases' units interleaved, so that each phase's samples spread
/// over the whole run and a slow spell of the machine does not land on
/// one phase only. Always steps the phase that is least far along — its
/// units over its minimum, or for a timed phase the measured time so far
/// over its seconds — until every phase has met its target. Each phase's
/// successive units run on the process's allowed cores in turn (see
/// [`Cores`]).
pub fn interleave(targets: &[Target], mut step: impl FnMut(usize)) {
    let cores = Cores::allowed();
    let mut elapsed = 0.0;
    let mut done = vec![0usize; targets.len()];
    loop {
        let next = targets
            .iter()
            .enumerate()
            .filter(|&(i, t)| done[i] < t.min_units || t.seconds.is_some_and(|s| elapsed < s))
            .map(|(i, t)| {
                let progress = match t.seconds {
                    Some(s) if s > 0.0 => elapsed / s,
                    _ => done[i] as f64 / t.min_units.max(1) as f64,
                };
                (progress, i)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0));
        match next {
            Some((_, i)) => {
                cores.pin(done[i]);
                let t = Instant::now();
                step(i);
                if targets[i].measured {
                    elapsed += t.elapsed().as_secs_f64();
                }
                done[i] += 1;
            }
            None => return cores.release(),
        }
    }
}

/// The cores this process may run on, for pinning its one thread to each
/// in turn. On a shared host each core's speed changes on its own as the
/// other tenants come and go (two pinned copies of one loop on a 2-core
/// x86-64 VM ran, at the same moment, at 2.0 ms and at 3.1 ms per
/// iteration for seconds at a time), and the scheduler leaves a thread on
/// its core however slow that core is. Units that take turns on every
/// core let [`crate::stats::fastest`] find fast units even while one core
/// stays slow for a whole run.
pub struct Cores {
    allowed: Vec<usize>,
    mask: CpuSet,
}

/// A `cpu_set_t` of 1024 cores.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

impl Cores {
    /// The calling thread's allowed cores (none where they cannot be
    /// read, and then [`Cores::pin`] does nothing).
    pub fn allowed() -> Self {
        let mut mask: CpuSet = [0; 16];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            mask = [0; 16];
        }
        let allowed = (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Cores { allowed, mask }
    }

    /// Pin the calling thread to the `n`-th allowed core, cyclically.
    pub fn pin(&self, n: usize) {
        if self.allowed.len() > 1 {
            let core = self.allowed[n % self.allowed.len()];
            let mut one: CpuSet = [0; 16];
            one[core / 64] |= 1 << (core % 64);
            self.set(&one);
        }
    }

    /// Let the calling thread run on every allowed core again.
    pub fn release(&self) {
        if self.allowed.len() > 1 {
            self.set(&self.mask);
        }
    }

    fn set(&self, _mask: &CpuSet) {
        #[cfg(target_os = "linux")]
        // SAFETY: `_mask` is a `cpu_set_t` of the size passed. A failure
        // leaves the thread where it was, which only loses the spread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), _mask);
        }
    }
}

/// Operations attempted and failed. An operation fails when the call
/// returns an error or when its result does not pass the benchmark's
/// check; each operation counts as failed at most once.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Mark the current operation as failed and say why on stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_meets_every_minimum_in_proportion() {
        let t = |n| Target {
            min_units: n,
            seconds: None,
            measured: true,
        };
        let mut order = Vec::new();
        interleave(&[t(2), t(1), t(4)], |i| order.push(i));
        assert_eq!(order, vec![0, 1, 2, 2, 0, 2, 2]);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_takes_turns_and_is_released() {
        let cores = Cores::allowed();
        assert!(!cores.allowed.is_empty());
        for n in 0..3 {
            cores.pin(n);
            if cores.allowed.len() > 1 {
                let on = cores.allowed[n % cores.allowed.len()];
                assert_eq!(Cores::allowed().allowed, vec![on]);
            }
        }
        cores.release();
        assert_eq!(Cores::allowed().allowed, cores.allowed);
    }
}
