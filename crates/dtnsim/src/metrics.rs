use serde::{Deserialize, Serialize};

use photodtn_coverage::CacheStats;

/// One sampled data point of a simulation run — the quantities plotted in
/// Figs. 5–8 of the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Sample time, hours.
    pub t_hours: f64,
    /// Point coverage obtained by the command center, normalized by the
    /// total PoI weight (`0..=1`).
    pub point_coverage: f64,
    /// Aspect coverage per PoI, degrees (`0..=360`), i.e.
    /// `Σ C_as / |X|` expressed in degrees as in Fig. 8's discussion.
    pub aspect_coverage_deg: f64,
    /// Unique photos delivered to the command center.
    pub delivered_photos: u64,
    /// Total bytes schemes pushed over the uplink so far (including
    /// duplicates).
    pub uploaded_bytes: u64,
    /// Mean capture-to-delivery latency of delivered photos, hours.
    pub mean_latency_hours: f64,
    /// Bytes spent exchanging metadata so far (our scheme's overhead;
    /// zero for metadata-free baselines).
    pub metadata_bytes: u64,
    /// Contacts whose byte budget was cut short by fault injection.
    #[serde(default)]
    pub contacts_interrupted: u64,
    /// Photo transmissions lost in flight so far.
    #[serde(default)]
    pub transfers_lost: u64,
    /// Photo transmissions that arrived corrupted and were discarded.
    #[serde(default)]
    pub transfers_corrupt: u64,
    /// Node crashes executed so far.
    #[serde(default)]
    pub node_crashes: u64,
    /// Uplink windows dropped or degraded so far.
    #[serde(default)]
    pub uplinks_degraded: u64,
}

/// The full time series of one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The scheme that produced this run.
    pub scheme: String,
    /// The random seed of the run.
    pub seed: u64,
    /// Samples at the configured interval, plus one final sample.
    pub samples: Vec<MetricSample>,
}

impl SimResult {
    /// The last sample (end-of-run state).
    ///
    /// # Panics
    ///
    /// Panics if the run produced no samples (a run always produces at
    /// least the final sample).
    #[must_use]
    pub fn final_sample(&self) -> &MetricSample {
        self.samples
            .last()
            .expect("a finished run has at least the final sample")
    }

    /// The sample closest to `t_hours`.
    #[must_use]
    pub fn sample_at(&self, t_hours: f64) -> Option<&MetricSample> {
        self.samples.iter().min_by(|a, b| {
            (a.t_hours - t_hours)
                .abs()
                .total_cmp(&(b.t_hours - t_hours).abs())
        })
    }
}

/// Performance counters of one simulation run, returned by
/// [`Simulation::run_instrumented`](crate::Simulation::run_instrumented)
/// as a *side channel* next to the [`SimResult`].
///
/// Wall-clock time is nondeterministic, so none of this ever enters
/// [`SimResult`] — the determinism tests compare results byte-for-byte
/// across runs and builds, and performance numbers must not disturb that
/// contract.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct RunStats {
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// Events executed (generates + contacts + uploads + crash/reboot).
    pub events: u64,
    /// Contact events executed.
    pub contacts: u64,
    /// Uplink-window events executed.
    pub uploads: u64,
    /// Coverage-table cache counters of the run.
    pub cache: CacheStats,
    /// Whether the run stopped early at a checkpoint boundary (graceful
    /// stop request or a halt hook) instead of reaching the end of the
    /// schedule; the accompanying `SimResult` is partial.
    pub interrupted: bool,
}

impl RunStats {
    /// Events executed per wall-clock second (0 if the run took no
    /// measurable time).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Mean wall-clock nanoseconds per contact event (0 without contacts).
    #[must_use]
    pub fn ns_per_contact(&self) -> f64 {
        if self.contacts == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.contacts as f64
        }
    }

    /// Wall-clock duration, seconds.
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SimResult {
        SimResult {
            scheme: "test".into(),
            seed: 0,
            samples: (0..5)
                .map(|i| MetricSample {
                    t_hours: i as f64,
                    point_coverage: i as f64 / 10.0,
                    aspect_coverage_deg: i as f64,
                    delivered_photos: i,
                    ..MetricSample::default()
                })
                .collect(),
        }
    }

    #[test]
    fn final_sample_is_last() {
        assert_eq!(result().final_sample().t_hours, 4.0);
    }

    #[test]
    fn sample_at_picks_closest() {
        let r = result();
        assert_eq!(r.sample_at(2.2).unwrap().t_hours, 2.0);
        assert_eq!(r.sample_at(100.0).unwrap().t_hours, 4.0);
        assert_eq!(r.sample_at(-5.0).unwrap().t_hours, 0.0);
    }

    #[test]
    #[should_panic(expected = "final sample")]
    fn empty_result_panics() {
        let r = SimResult::default();
        let _ = r.final_sample();
    }

    #[test]
    fn metric_sample_roundtrips_through_json() {
        let sample = MetricSample {
            t_hours: 12.5,
            point_coverage: 0.875,
            aspect_coverage_deg: 211.25,
            delivered_photos: 42,
            uploaded_bytes: 176160768,
            mean_latency_hours: 3.5,
            metadata_bytes: 8192,
            contacts_interrupted: 3,
            transfers_lost: 2,
            transfers_corrupt: 1,
            node_crashes: 4,
            uplinks_degraded: 5,
        };
        let text = serde_json::to_string(&sample).unwrap();
        let back: MetricSample = serde_json::from_str(&text).unwrap();
        assert_eq!(back, sample);
    }

    #[test]
    fn sim_result_roundtrips_through_json() {
        let r = result();
        let text = serde_json::to_string(&r).unwrap();
        let back: SimResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn old_json_without_fault_fields_still_loads() {
        // Results serialized before fault injection existed lack the five
        // fault counters; `#[serde(default)]` must fill them with zeros so
        // archived result files keep loading.
        let old = r#"{
            "t_hours": 24.0,
            "point_coverage": 0.5,
            "aspect_coverage_deg": 180.0,
            "delivered_photos": 100,
            "uploaded_bytes": 1000,
            "mean_latency_hours": 2.0,
            "metadata_bytes": 50
        }"#;
        let sample: MetricSample = serde_json::from_str(old).unwrap();
        assert_eq!(sample.t_hours, 24.0);
        assert_eq!(sample.delivered_photos, 100);
        assert_eq!(sample.contacts_interrupted, 0);
        assert_eq!(sample.transfers_lost, 0);
        assert_eq!(sample.transfers_corrupt, 0);
        assert_eq!(sample.node_crashes, 0);
        assert_eq!(sample.uplinks_degraded, 0);

        let old_result = format!(r#"{{ "scheme": "ours", "seed": 7, "samples": [{old}] }}"#);
        let r: SimResult = serde_json::from_str(&old_result).unwrap();
        assert_eq!(r.scheme, "ours");
        assert_eq!(r.final_sample().delivered_photos, 100);
        assert_eq!(r.final_sample().node_crashes, 0);
    }
}
