//! Multi-seed experiment runner with parallel execution and series
//! averaging — "each data point is the average of 50 simulation runs"
//! (§V-B).

use std::time::Duration;

use photodtn_contacts::ContactTrace;

use crate::supervisor::{run_batch_scoped, FailureKind};
use crate::{MetricSample, Scheme, SimConfig, SimResult, Simulation};

/// The machine's available parallelism (1 if it cannot be determined) —
/// the shared default worker count of the batch supervisor and
/// [`run_averaged`].
#[must_use]
pub fn default_worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A metric series averaged across seeds, aligned by sample index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AveragedSeries {
    /// The scheme name.
    pub scheme: String,
    /// Number of runs averaged.
    pub runs: usize,
    /// Mean samples (truncated to the shortest run).
    pub samples: Vec<MetricSample>,
}

impl AveragedSeries {
    /// The last averaged sample.
    ///
    /// # Panics
    ///
    /// Panics if no runs were averaged.
    #[must_use]
    pub fn final_sample(&self) -> &MetricSample {
        self.samples.last().expect("averaged series is never empty")
    }
}

/// One seed's failure inside an averaged run, with attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedFailure {
    /// The scheme that was running.
    pub scheme: String,
    /// The seed whose run failed.
    pub seed: u64,
    /// Failure classification.
    pub kind: FailureKind,
    /// The panic payload / error message.
    pub message: String,
}

impl std::fmt::Display for SeedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheme {:?} seed {}: {}: {}",
            self.scheme, self.seed, self.kind, self.message
        )
    }
}

/// Error of [`try_run_averaged`]: at least one seed failed.
///
/// Surviving seeds' average stays available in `surviving`, so a caller
/// can degrade to partial results instead of losing the batch.
#[derive(Clone, Debug)]
pub struct AveragedError {
    /// Every failed seed, in seed order.
    pub failures: Vec<SeedFailure>,
    /// The average over the seeds that completed (`None` when all
    /// failed).
    pub surviving: Option<AveragedSeries>,
}

impl std::fmt::Display for AveragedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let survivors = self.surviving.as_ref().map_or(0, |s| s.runs);
        write!(
            f,
            "{} of {} seeds failed",
            self.failures.len(),
            self.failures.len() + survivors
        )?;
        for failure in &self.failures {
            write!(f, "\n  {failure}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AveragedError {}

/// Runs `scheme_factory()` once per `(trace, seed)` pair produced by
/// `trace_for_seed`, in parallel, and averages the series.
///
/// Every run gets its own world (PoIs, gateways, photo schedule) derived
/// from its seed, exactly like independent simulation runs in the paper.
///
/// Parallelism is bounded: at most [`default_worker_count`] worker
/// threads (one per available core) pull seeds from a shared queue, so a
/// 50-seed sweep on a 4-core box runs 4 simulations at a time instead
/// of oversubscribing with 50 threads. Results are collected in seed
/// order regardless of completion order, so the averaged series is
/// identical to a sequential run.
///
/// A panicking seed no longer poisons the pool: each seed runs under
/// [`supervisor`](crate::supervisor) panic isolation, the other seeds
/// complete, and the error names every failing `(scheme, seed)` pair and
/// carries the surviving seeds' average.
///
/// # Errors
///
/// Returns [`AveragedError`] when any seed fails.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn try_run_averaged<S, TF, SF>(
    config: &SimConfig,
    trace_for_seed: TF,
    scheme_factory: SF,
    seeds: &[u64],
) -> Result<AveragedSeries, AveragedError>
where
    S: Scheme,
    TF: Fn(u64) -> ContactTrace + Sync,
    SF: Fn() -> S + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let scheme_name = scheme_factory().name();
    // max_attempts = 1: this runner only fails by panicking, which is
    // deterministic and never retried anyway.
    let outcomes = run_batch_scoped(seeds, 0, 1, Duration::ZERO, &|&seed: &u64| {
        let trace = trace_for_seed(seed);
        let mut scheme = scheme_factory();
        Ok(Simulation::new(config, &trace, seed).run(&mut scheme))
    });

    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (&seed, (outcome, _attempts)) in seeds.iter().zip(outcomes) {
        match outcome {
            Ok(result) => results.push(result),
            Err(err) => failures.push(SeedFailure {
                scheme: scheme_name.to_string(),
                seed,
                kind: err.kind,
                message: err.message,
            }),
        }
    }
    if failures.is_empty() {
        Ok(average(results))
    } else {
        Err(AveragedError {
            failures,
            surviving: if results.is_empty() {
                None
            } else {
                Some(average(results))
            },
        })
    }
}

/// [`try_run_averaged`] for callers that treat any seed failure as fatal.
///
/// # Panics
///
/// Panics if `seeds` is empty or any seed fails, naming every failing
/// `(scheme, seed)` pair.
pub fn run_averaged<S, TF, SF>(
    config: &SimConfig,
    trace_for_seed: TF,
    scheme_factory: SF,
    seeds: &[u64],
) -> AveragedSeries
where
    S: Scheme,
    TF: Fn(u64) -> ContactTrace + Sync,
    SF: Fn() -> S + Sync,
{
    match try_run_averaged(config, trace_for_seed, scheme_factory, seeds) {
        Ok(avg) => avg,
        Err(err) => panic!("run_averaged: {err}"),
    }
}

/// Averages already-computed runs (exposed for custom drivers).
///
/// # Panics
///
/// Panics if `results` is empty.
#[must_use]
pub fn average(results: Vec<SimResult>) -> AveragedSeries {
    assert!(!results.is_empty(), "nothing to average");
    let scheme = results[0].scheme.clone();
    let len = results.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    let runs = results.len();
    let mut samples = Vec::with_capacity(len);
    for i in 0..len {
        let mut acc = MetricSample::default();
        for r in &results {
            let s = &r.samples[i];
            acc.t_hours += s.t_hours;
            acc.point_coverage += s.point_coverage;
            acc.aspect_coverage_deg += s.aspect_coverage_deg;
            acc.delivered_photos += s.delivered_photos;
            acc.uploaded_bytes += s.uploaded_bytes;
            acc.mean_latency_hours += s.mean_latency_hours;
            acc.metadata_bytes += s.metadata_bytes;
            acc.contacts_interrupted += s.contacts_interrupted;
            acc.transfers_lost += s.transfers_lost;
            acc.transfers_corrupt += s.transfers_corrupt;
            acc.node_crashes += s.node_crashes;
            acc.uplinks_degraded += s.uplinks_degraded;
        }
        let n = runs as f64;
        let mean_u64 = |total: u64| (total as f64 / n).round() as u64;
        samples.push(MetricSample {
            t_hours: acc.t_hours / n,
            point_coverage: acc.point_coverage / n,
            aspect_coverage_deg: acc.aspect_coverage_deg / n,
            delivered_photos: mean_u64(acc.delivered_photos),
            uploaded_bytes: mean_u64(acc.uploaded_bytes),
            mean_latency_hours: acc.mean_latency_hours / n,
            metadata_bytes: mean_u64(acc.metadata_bytes),
            contacts_interrupted: mean_u64(acc.contacts_interrupted),
            transfers_lost: mean_u64(acc.transfers_lost),
            transfers_corrupt: mean_u64(acc.transfers_corrupt),
            node_crashes: mean_u64(acc.node_crashes),
            uplinks_degraded: mean_u64(acc.uplinks_degraded),
        });
    }
    AveragedSeries {
        scheme,
        runs,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_api::FloodScheme;
    use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};

    fn trace_for_seed(seed: u64) -> ContactTrace {
        CommunityTraceGenerator::new(TraceStyle::MitLike)
            .with_num_nodes(8)
            .with_duration_hours(10.0)
            .generate(seed)
    }

    #[test]
    fn averaging_across_seeds() {
        let config = SimConfig::mit_default().with_photos_per_hour(20.0);
        let avg = run_averaged(&config, trace_for_seed, || FloodScheme, &[1, 2, 3]);
        assert_eq!(avg.runs, 3);
        assert_eq!(avg.scheme, "best-possible");
        assert!(!avg.samples.is_empty());
        assert!(avg.final_sample().delivered_photos > 0);
    }

    #[test]
    fn average_of_single_run_is_identity() {
        let config = SimConfig::mit_default().with_photos_per_hour(20.0);
        let trace = trace_for_seed(5);
        let single = Simulation::new(&config, &trace, 5).run(&mut FloodScheme);
        let avg = average(vec![single.clone()]);
        assert_eq!(avg.samples, single.samples);
    }

    #[test]
    fn average_truncates_to_shortest() {
        let a = SimResult {
            scheme: "x".into(),
            seed: 0,
            samples: vec![
                MetricSample {
                    t_hours: 1.0,
                    ..Default::default()
                };
                5
            ],
        };
        let b = SimResult {
            scheme: "x".into(),
            seed: 1,
            samples: vec![
                MetricSample {
                    t_hours: 3.0,
                    ..Default::default()
                };
                3
            ],
        };
        let avg = average(vec![a, b]);
        assert_eq!(avg.samples.len(), 3);
        assert!((avg.samples[0].t_hours - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panics() {
        let config = SimConfig::mit_default();
        let _ = run_averaged(&config, trace_for_seed, || FloodScheme, &[]);
    }

    #[test]
    fn one_panicking_seed_does_not_abort_the_pool() {
        let config = SimConfig::mit_default().with_photos_per_hour(20.0);
        let err = try_run_averaged(
            &config,
            |seed| {
                if seed == 2 {
                    panic!("injected trace failure for seed {seed}");
                }
                trace_for_seed(seed)
            },
            || FloodScheme,
            &[1, 2, 3],
        )
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        let failure = &err.failures[0];
        assert_eq!(failure.scheme, "best-possible");
        assert_eq!(failure.seed, 2);
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure
                .message
                .contains("injected trace failure for seed 2"),
            "{failure}"
        );
        let surviving = err.surviving.as_ref().expect("two seeds survived");
        assert_eq!(surviving.runs, 2);
        assert!(surviving.final_sample().delivered_photos > 0);
        let shown = err.to_string();
        assert!(shown.contains("1 of 3 seeds failed"), "{shown}");
        assert!(shown.contains("seed 2"), "{shown}");
    }

    #[test]
    fn all_seeds_failing_leaves_no_survivors() {
        let config = SimConfig::mit_default();
        let err = try_run_averaged(
            &config,
            |_seed| -> ContactTrace { panic!("every trace fails") },
            || FloodScheme,
            &[1, 2],
        )
        .unwrap_err();
        assert_eq!(err.failures.len(), 2);
        assert!(err.surviving.is_none());
    }

    #[test]
    #[should_panic(expected = "seed 2: panic: injected")]
    fn run_averaged_panics_with_attribution() {
        let config = SimConfig::mit_default();
        let _ = run_averaged(
            &config,
            |seed| {
                if seed == 2 {
                    panic!("injected");
                }
                trace_for_seed(seed)
            },
            || FloodScheme,
            &[1, 2],
        );
    }
}
