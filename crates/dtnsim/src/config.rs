use serde::{Deserialize, Serialize};

use photodtn_contacts::NodeId;
use photodtn_core::validity::ValidityModel;
use photodtn_coverage::CoverageParams;
use photodtn_prophet::ProphetParams;

use crate::faults::FaultConfig;

/// How the command center is attached to the network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CommandCenterMode {
    /// The command center is outside the trace; a random fraction of
    /// participants are gateways (satellite radios / data mules) with a
    /// periodic uplink window (§V-A).
    Gateways {
        /// Fraction of participants that can reach the command center
        /// (the paper uses "about 2%"). At least one gateway is always
        /// chosen.
        fraction: f64,
        /// Seconds between a gateway's uplink windows.
        period: f64,
        /// Length of each uplink window, seconds.
        window: f64,
    },
    /// One trace node *is* the command center (the §IV-B demo): all its
    /// trace contacts are uplink opportunities.
    TraceNode(NodeId),
}

/// All simulation parameters (Table I defaults).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Region size (east, north), meters. Table I: 6300 m × 6300 m.
    pub region: (f64, f64),
    /// Number of PoIs randomly placed in the region (250 in §V-A).
    pub num_pois: u32,
    /// Coverage parameters (`θ` = 30° in Table I).
    pub coverage: CoverageParams,
    /// Per-node storage, bytes (0.6 GB default).
    pub storage_bytes: u64,
    /// Photo payload size, bytes (4 MB).
    pub photo_size: u64,
    /// Photos generated network-wide per hour (250).
    pub photos_per_hour: f64,
    /// Link bandwidth, bytes/second (2 MB/s, §V-C).
    pub bandwidth: u64,
    /// If set, caps each contact's usable duration, seconds (§V-C sweeps
    /// 30 s … 10 min). `None` uses the trace durations as-is.
    pub contact_duration_cap: Option<f64>,
    /// PROPHET parameters (Table I).
    pub prophet: ProphetParams,
    /// Metadata validity threshold (Table I: 0.8).
    pub validity: ValidityModel,
    /// Command-center attachment.
    pub command_center: CommandCenterMode,
    /// Metric sampling interval, seconds.
    pub sample_interval: f64,
    /// Crowdsourcing deadline, hours (§III-A: the command center "issues
    /// a PoI list … and a deadline indicating how long the PoI list will
    /// be valid"). Events after it are discarded; `None` runs the whole
    /// trace.
    pub deadline_hours: Option<f64>,
    /// Fraction of participants that *fail* (power loss, damage — this is
    /// a disaster scenario) at a uniform random time during the run,
    /// taking their stored photos with them. 0 disables failures.
    pub failure_fraction: f64,
    /// Fault-injection rates (interruption, loss/corruption, churn,
    /// degraded uplinks). The default is all-zero — no faults, and
    /// bit-identical results to a build without the injector.
    #[serde(default)]
    pub faults: FaultConfig,
    /// Capacity bound of the per-run coverage-table cache (entries).
    /// Zero disables caching; any value produces byte-identical results
    /// (evicted tables are deterministically rebuilt), only speed differs.
    #[serde(default = "default_coverage_cache_capacity")]
    pub coverage_cache_capacity: usize,
    /// If set, only nodes `0..camera_nodes` take photos; nodes above are
    /// pure relays (e.g. stationary throwboxes appended to a trace by
    /// `RelayOverlay`) that store and forward but never photograph.
    /// `None` — the default — lets every participant photograph, on the
    /// exact RNG path of builds without this knob.
    #[serde(default)]
    pub camera_nodes: Option<u32>,
}

fn default_coverage_cache_capacity() -> usize {
    photodtn_coverage::CoverageTableCache::DEFAULT_CAPACITY
}

impl SimConfig {
    /// Table I defaults for the MIT-like scenario.
    #[must_use]
    pub fn mit_default() -> Self {
        SimConfig {
            region: (6300.0, 6300.0),
            num_pois: 250,
            coverage: CoverageParams::default(),
            storage_bytes: (0.6 * 1024.0 * 1024.0 * 1024.0) as u64,
            photo_size: 4 * 1024 * 1024,
            photos_per_hour: 250.0,
            bandwidth: 2 * 1024 * 1024,
            contact_duration_cap: None,
            prophet: ProphetParams::paper_default(),
            validity: ValidityModel::paper_default(),
            command_center: CommandCenterMode::Gateways {
                fraction: 0.02,
                period: 6.0 * 3600.0,
                window: 120.0,
            },
            sample_interval: 3600.0,
            deadline_hours: None,
            failure_fraction: 0.0,
            faults: FaultConfig::default(),
            coverage_cache_capacity: default_coverage_cache_capacity(),
            camera_nodes: None,
        }
    }

    /// Table I defaults for the Cambridge-like scenario (identical except
    /// the trace supplies fewer nodes / a shorter window).
    #[must_use]
    pub fn cambridge_default() -> Self {
        Self::mit_default()
    }

    /// Overrides per-node storage, bytes (builder-style).
    #[must_use]
    pub fn with_storage_bytes(mut self, bytes: u64) -> Self {
        self.storage_bytes = bytes;
        self
    }

    /// Overrides the photo generation rate (builder-style).
    #[must_use]
    pub fn with_photos_per_hour(mut self, rate: f64) -> Self {
        self.photos_per_hour = rate.max(0.0);
        self
    }

    /// Caps contact durations (builder-style), as in §V-C.
    #[must_use]
    pub fn with_contact_duration_cap(mut self, seconds: f64) -> Self {
        self.contact_duration_cap = Some(seconds.max(0.0));
        self
    }

    /// Overrides the command-center mode (builder-style).
    #[must_use]
    pub fn with_command_center(mut self, mode: CommandCenterMode) -> Self {
        self.command_center = mode;
        self
    }

    /// Sets the crowdsourcing deadline (builder-style).
    #[must_use]
    pub fn with_deadline_hours(mut self, hours: f64) -> Self {
        self.deadline_hours = Some(hours.max(0.0));
        self
    }

    /// Sets the failed-participant fraction (builder-style), clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn with_failure_fraction(mut self, fraction: f64) -> Self {
        self.failure_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the fault-injection configuration (builder-style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the coverage-table cache capacity (builder-style); zero
    /// disables caching.
    #[must_use]
    pub fn with_coverage_cache_capacity(mut self, entries: usize) -> Self {
        self.coverage_cache_capacity = entries;
        self
    }

    /// Restricts photography to nodes `0..n` (builder-style); nodes at
    /// or above `n` become pure relays.
    #[must_use]
    pub fn with_camera_nodes(mut self, n: u32) -> Self {
        self.camera_nodes = Some(n);
        self
    }

    /// Storage capacity in photos of the configured size.
    #[must_use]
    pub fn photos_per_node(&self) -> u64 {
        if self.photo_size == 0 {
            return u64::MAX;
        }
        self.storage_bytes / self.photo_size
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::mit_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SimConfig::mit_default();
        assert_eq!(c.region, (6300.0, 6300.0));
        assert_eq!(c.num_pois, 250);
        assert_eq!(c.photo_size, 4 * 1024 * 1024);
        assert_eq!(c.photos_per_hour, 250.0);
        assert!((c.coverage.effective_angle.to_degrees() - 30.0).abs() < 1e-9);
        assert_eq!(c.prophet.p_init, 0.75);
        assert_eq!(c.prophet.beta, 0.25);
        assert_eq!(c.prophet.gamma, 0.98);
        assert_eq!(c.validity.p_threshold, 0.8);
        // 0.6 GB at 4 MB per photo ≈ 153 photos
        assert_eq!(c.photos_per_node(), 153);
        match c.command_center {
            CommandCenterMode::Gateways { fraction, .. } => assert!((fraction - 0.02).abs() < 1e-9),
            CommandCenterMode::TraceNode(_) => panic!("default should use gateways"),
        }
    }

    #[test]
    fn builders() {
        let c = SimConfig::mit_default()
            .with_storage_bytes(100)
            .with_photos_per_hour(10.0)
            .with_contact_duration_cap(30.0)
            .with_command_center(CommandCenterMode::TraceNode(NodeId(3)));
        assert_eq!(c.storage_bytes, 100);
        assert_eq!(c.photos_per_hour, 10.0);
        assert_eq!(c.contact_duration_cap, Some(30.0));
        assert_eq!(c.command_center, CommandCenterMode::TraceNode(NodeId(3)));
    }

    #[test]
    fn degenerate_photo_size() {
        let mut c = SimConfig::mit_default();
        c.photo_size = 0;
        assert_eq!(c.photos_per_node(), u64::MAX);
    }
}
