//! One round of one workload (set-up, warm-up, timed slices, invariant) and
//! the arithmetic that turns its raw records into per-slice metric values.

use crate::loadgen::{run_phase, Binning, PhaseLog, Stop};
use crate::procfs;
use crate::report::RoundDoc;
use crate::stats::{percentile, Histogram};
use crate::workload::{Size, Tally, Workload, World};
use aeon::api::Deployment;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the timed part of a round.
#[derive(Debug, Clone, Copy)]
pub struct Slicing {
    /// Timed slices per round.
    pub slices: usize,
    /// Length of one slice.
    pub slice: Duration,
}

/// The per-slice value of every timed metric, in metric order.
pub type SliceRow = Vec<(&'static str, f64)>;

/// A deployed workload.
pub struct Deployed {
    /// The backend under test.
    pub deployment: Arc<dyn Deployment>,
    /// Its world and op streams.
    pub world: World,
    /// Wall time of `aeon::deploy`.
    pub deploy: (Instant, Instant),
    /// Wall time of the world deployment and stream binding.
    pub world_deploy: (Instant, Instant),
}

/// Builds the backend and deploys the world.
pub fn deploy(workload: Workload, seed: u64, size: Size) -> Result<Deployed, String> {
    let t0 = Instant::now();
    let deployment = aeon::deploy_shared(workload.deploy_config())
        .map_err(|e| format!("aeon::deploy failed: {e}"))?;
    let t1 = Instant::now();
    let world = workload
        .deploy_world(&deployment, seed, size)
        .map_err(|e| format!("world deployment failed: {e}"))?;
    Ok(Deployed {
        deployment,
        world,
        deploy: (t0, t1),
        world_deploy: (t1, Instant::now()),
    })
}

/// Folds a phase into the running totals of a run.
pub fn account(log: &PhaseLog, tally: &mut Tally, attempted: &mut u64, failed: &mut u64) {
    tally.tallied_ok += log.tallied_ok;
    *attempted += log.attempted;
    *failed += log.failed;
}

/// `Err` when any operation failed or the final state violates the
/// workload's invariant.
pub fn verdict(deployed: &Deployed, tally: &Tally, logs: &[&PhaseLog]) -> Result<(), String> {
    if let Some(error) = logs.iter().find_map(|log| log.first_error.as_ref()) {
        let failed: u64 = logs.iter().map(|log| log.failed).sum();
        return Err(format!("{failed} operations failed, first: {error}"));
    }
    (deployed.world.invariant)(deployed.deployment.as_ref(), tally)
        .map_err(|e| format!("invariant violated: {e}"))
}

/// Computes every timed metric of a timed phase per slice; the phase was
/// binned by slice, and `cpu_us` holds the process CPU time read at each
/// of the `slices + 1` slice boundaries.  A metric with no sample in a
/// slice is left out of that slice's row.
pub fn slice_rows(log: &PhaseLog, cpu_us: &[u64], slice_ns: u64) -> Vec<SliceRow> {
    (0..cpu_us.len().saturating_sub(1))
        .map(|k| {
            let (lo, hi) = (k as u64 * slice_ns, (k as u64 + 1) * slice_ns);
            let bin = log.bins.get(k).cloned().unwrap_or_default();
            let events = bin.len() as f64;
            let micros = |h: &Histogram, q| h.percentile_ns(q).map(|ns| ns / 1e3);
            let mut migrations: Vec<f64> = log
                .migrations
                .iter()
                .filter(|m| m.done_ns >= lo && m.done_ns < hi)
                .map(|m| m.duration_ns as f64 / 1e6)
                .collect();
            let cpu = cpu_us[k + 1].saturating_sub(cpu_us[k]) as f64;
            let mut row: SliceRow = vec![
                ("samples", events),
                ("throughput_eps", events / (slice_ns as f64 / 1e9)),
            ];
            let mut put = |name, value: Option<f64>| row.extend(value.map(|v| (name, v)));
            let all = bin.all();
            put("latency_p50_us", micros(&all, 0.50));
            put("latency_p99_us", micros(&all, 0.99));
            put("read_latency_p50_us", micros(&bin.reads, 0.50));
            put("write_latency_p50_us", micros(&bin.writes, 0.50));
            put("cpu_us_per_event", (events > 0.0).then(|| cpu / events));
            put("migration_ms_p50", percentile(&mut migrations, 0.50));
            row
        })
        .collect()
}

/// Runs the timed phase of `slicing` on a warmed-up deployment and computes
/// every timed metric per slice.  Both the untraced rounds and the untraced
/// pass of the traced run measure the client's view through this function.
pub fn run_slices(
    workload: Workload,
    deployed: &Deployed,
    slicing: Slicing,
) -> (PhaseLog, Vec<BTreeMap<String, f64>>) {
    let mut cpu_us = Vec::with_capacity(slicing.slices + 1);
    let total = slicing.slice * slicing.slices as u32;
    let slice_ns = slicing.slice.as_nanos() as u64;
    let timed = run_phase(
        deployed.deployment.as_ref(),
        &deployed.world,
        workload.load(),
        Stop::At(Instant::now() + total),
        Binning {
            bin_ns: slice_ns,
            bins: slicing.slices,
        },
        None,
        |start, _| {
            cpu_us.push(procfs::process_cpu_us());
            for k in 1..=slicing.slices as u32 {
                let boundary = start + slicing.slice * k;
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                cpu_us.push(procfs::process_cpu_us());
            }
        },
    );
    let rows = slice_rows(&timed, &cpu_us, slice_ns)
        .into_iter()
        .map(|row| row.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        .collect();
    (timed, rows)
}

/// How long the load threads of the untimed warm-up submit, at either size.
///
/// A time, not an op count, so that a round spends the same time between
/// its set-up and its first timed slice whatever the system's speed; that
/// time is part of `setup_s`.
pub fn warmup_window(size: Size) -> Duration {
    size.pick(Duration::from_millis(200), Duration::from_millis(50))
}

/// The untimed warm-up of `workload`: the load of the timed slices,
/// submitted for [`warmup_window`] and waited out.
pub fn warm_up(workload: Workload, deployed: &Deployed, size: Size) -> PhaseLog {
    run_phase(
        deployed.deployment.as_ref(),
        &deployed.world,
        workload.load(),
        Stop::At(Instant::now() + warmup_window(size)),
        Binning::WHOLE,
        None,
        |_, _| {},
    )
}

/// Runs one untraced round in this process.
pub fn run_round(workload: Workload, seed: u64, size: Size, slicing: Slicing) -> RoundDoc {
    let mut round = RoundDoc {
        setups_s: Vec::new(),
        warmup_s: warmup_window(size).as_secs_f64(),
        peak_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
        error: None,
        rows: Vec::new(),
    };
    // The deployment is built, populated and shut down again
    // `Workload::setups` times; the last one is kept and loaded.
    let mut kept: Option<Deployed> = None;
    for _ in 0..workload.setups(size) {
        if let Some(previous) = kept.take() {
            previous.deployment.shutdown();
        }
        match deploy(workload, seed, size) {
            Ok(deployed) => {
                let setup = deployed.world_deploy.1 - deployed.deploy.0;
                round.setups_s.push(setup.as_secs_f64());
                kept = Some(deployed);
            }
            Err(error) => {
                round.error = Some(error);
                return round;
            }
        }
    }
    let deployed = kept.expect("at least one set-up is made");
    let mut tally = Tally::default();
    let warmup = warm_up(workload, &deployed, size);
    account(&warmup, &mut tally, &mut round.attempted, &mut round.failed);
    let (timed, rows) = run_slices(workload, &deployed, slicing);
    account(&timed, &mut tally, &mut round.attempted, &mut round.failed);
    round.rows = rows;
    round.error = verdict(&deployed, &tally, &[&warmup, &timed]).err();
    deployed.deployment.shutdown();
    round.peak_rss_mb = procfs::peak_rss_mb();
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{Bin, Migration};

    #[test]
    fn every_metric_is_computed_per_slice() {
        let bin = |reads_us: &[u64], writes_us: &[u64]| {
            let mut bin = Bin::default();
            reads_us.iter().for_each(|us| bin.reads.record(us * 1_000));
            writes_us
                .iter()
                .for_each(|us| bin.writes.record(us * 1_000));
            bin
        };
        let mut log = PhaseLog {
            bins: vec![
                // Slice 0: three reads of 100/200/300 us, one write of 1 ms.
                bin(&[100, 200, 300], &[1_000]),
                // Slice 1: one write.
                bin(&[], &[50]),
            ],
            ..PhaseLog::default()
        };
        log.migrations.push(Migration {
            done_ns: 1_500_000_000,
            duration_ns: 4_000_000,
            bytes: 64,
        });
        let rows = slice_rows(&log, &[0, 20_000, 30_000], 1_000_000_000);
        assert_eq!(rows.len(), 2);
        let get =
            |row: &SliceRow, name: &str| row.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        // Latencies come from a histogram that resolves 1 part in 64 and
        // interpolates inside a bucket.
        let near =
            |got: Option<f64>, want: f64| got.is_some_and(|got| (got - want).abs() <= want / 32.0);
        assert_eq!(get(&rows[0], "samples"), Some(4.0));
        assert_eq!(get(&rows[0], "throughput_eps"), Some(4.0));
        assert!(near(get(&rows[0], "latency_p50_us"), 200.0));
        // Rank 0.99 x 3 of the ranks 0..=3 lies in the third sample's bucket.
        assert!(near(get(&rows[0], "latency_p99_us"), 300.0));
        assert!(near(get(&rows[0], "read_latency_p50_us"), 200.0));
        assert!(near(get(&rows[0], "write_latency_p50_us"), 1_000.0));
        assert_eq!(get(&rows[0], "cpu_us_per_event"), Some(5_000.0));
        assert_eq!(get(&rows[0], "migration_ms_p50"), None);
        assert_eq!(get(&rows[1], "samples"), Some(1.0));
        assert_eq!(get(&rows[1], "read_latency_p50_us"), None);
        assert_eq!(get(&rows[1], "cpu_us_per_event"), Some(10_000.0));
        assert_eq!(get(&rows[1], "migration_ms_p50"), Some(4.0));
        // A slice in which nothing completed still has a row.
        let rows = slice_rows(&PhaseLog::default(), &[0, 10], 1_000);
        assert_eq!(get(&rows[0], "samples"), Some(0.0));
        assert_eq!(get(&rows[0], "latency_p50_us"), None);
    }
}
