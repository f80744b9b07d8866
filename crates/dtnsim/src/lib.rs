//! Event-driven simulator for DTN photo crowdsourcing (§V of the paper).
//!
//! The simulator replays a [contact trace](photodtn_contacts::ContactTrace)
//! over a population of participant nodes. Participants take photos over
//! time; a routing **scheme** (the [`Scheme`] trait) decides what is
//! stored and what is exchanged at every contact, under the paper's
//! resource constraints:
//!
//! * finite per-node storage ([`SimConfig::storage_bytes`], 0.6 GB in
//!   Fig. 5),
//! * finite contact capacity — bandwidth × (possibly capped) contact
//!   duration (§V-C),
//! * scarce connectivity to the command center: ~2 % of nodes are
//!   *gateways* with periodic uplink windows (§V-A), or — as in the §IV
//!   demo — one trace node *is* the command center.
//!
//! Metrics sampled over time are exactly the paper's: point coverage and
//! aspect coverage obtained by the command center (normalized by the
//! number of PoIs) and the number of delivered photos.
//!
//! # Example
//!
//! ```
//! use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
//! use photodtn_sim::{schemes_api::FloodScheme, SimConfig, Simulation};
//!
//! let trace = CommunityTraceGenerator::new(TraceStyle::MitLike)
//!     .with_num_nodes(10)
//!     .with_duration_hours(20.0)
//!     .generate(1);
//! let config = SimConfig::mit_default().with_photos_per_hour(10.0);
//! let mut sim = Simulation::new(&config, &trace, 1);
//! let result = sim.run(&mut FloodScheme::default());
//! assert!(result.final_sample().delivered_photos > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checked;
pub mod checkpoint;
mod config;
mod ctx;
#[cfg(test)]
mod ctx_tests;
mod engine;
pub mod faults;
mod metrics;
mod queue;
mod runner;
pub mod scenario;
pub mod schemes_api;
pub mod supervisor;
pub mod trace;

pub use checked::Checked;
pub use checkpoint::{CheckpointError, CheckpointPayload, CheckpointPolicy};
pub use config::{CommandCenterMode, SimConfig};
pub use ctx::{SchemeRng, SimCtx, UploadOutcome};
pub use engine::{SimBuildError, Simulation};
pub use faults::{FaultConfig, FaultPlan, FaultState, FaultStats};
pub use metrics::{MetricSample, RunStats, SimResult};
pub use photodtn_coverage::CacheStats;
pub use runner::{
    default_worker_count, run_averaged, try_run_averaged, AveragedError, AveragedSeries,
    SeedFailure,
};
pub use scenario::{Scenario, WorldSource, WorldSpec};
pub use schemes_api::Scheme;
pub use supervisor::{
    run_batch, BatchPolicy, BatchReport, CellError, CellFailure, CellId, CellState, FailureKind,
};
pub use trace::{JsonlSink, NullSink, TraceEvent, TraceSink, VecSink};
