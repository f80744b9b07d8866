//! Scenario-engine determinism: a TOML scenario that restates a
//! CLI-expressible world must produce **byte-identical** `SimResult`s to
//! the hand-built preset, for every scheme and fault intensity; and the
//! scenario-only worlds (stationary relays, scheduled PoI importance)
//! must run end-to-end under the full lineup, repeat exactly, and
//! compose with mid-run checkpoint/restore.

use photodtn_contacts::synth::{CommunityTraceGenerator, TraceStyle};
use photodtn_contacts::ContactTrace;
use photodtn_schemes::{
    BestPossible, CentralizedOracle, DirectDelivery, Epidemic, ModifiedSpray, OurScheme, PhotoNet,
    ProphetRouting, SprayAndWait,
};
use photodtn_sim::{
    checkpoint, CheckpointPolicy, FaultConfig, Scenario, Scheme, SimConfig, Simulation,
};

fn lineup() -> Vec<Box<dyn Scheme + Send>> {
    vec![
        Box::new(BestPossible),
        Box::new(OurScheme::new()),
        Box::new(OurScheme::no_metadata()),
        Box::new(ModifiedSpray::new()),
        Box::new(SprayAndWait::new()),
        Box::new(PhotoNet::new()),
        Box::new(Epidemic::new()),
        Box::new(DirectDelivery::new()),
        Box::new(CentralizedOracle::new()),
        Box::new(ProphetRouting::new()),
    ]
}

/// The determinism-matrix world of `tests/determinism.rs` and
/// `dump_results`, spelled as a scenario.
fn matrix_scenario(intensity: f64) -> Scenario {
    let text = format!(
        "[scenario]\nversion = 1\nname = \"matrix\"\nseed = 42\n\n\
         [world]\nstyle = \"mit\"\nnodes = 16\nhours = 36.0\ntrace_seed = 3\n\n\
         [pois]\ncount = 60\n\n\
         [workload]\nphotos_per_hour = 30.0\n\n\
         [faults]\nintensity = {intensity}\n\n\
         [sim]\nstorage_gb = 0.15625\n"
    );
    Scenario::parse(&text).unwrap()
}

fn preset_trace() -> ContactTrace {
    CommunityTraceGenerator::new(TraceStyle::MitLike)
        .with_num_nodes(16)
        .with_duration_hours(36.0)
        .generate(3)
}

fn preset_config(intensity: f64) -> SimConfig {
    let mut config = SimConfig::mit_default()
        .with_photos_per_hour(30.0)
        .with_storage_bytes(40 * 4 * 1024 * 1024)
        .with_faults(FaultConfig::chaos(intensity));
    config.num_pois = 60;
    config
}

/// The tentpole contract: the scenario spelling of the preset world is
/// byte-identical to the hand-built one — every sample, every counter,
/// all 10 schemes, faulted and unfaulted.
#[test]
fn scenario_matches_preset_for_every_scheme_and_intensity() {
    for intensity in [0.0, 0.5] {
        let sc = matrix_scenario(intensity);
        let preset_trace = preset_trace();
        let preset_config = preset_config(intensity);
        let scenario_trace = sc.world.build_trace(sc.seed).unwrap();
        for (preset, scenario) in lineup().into_iter().zip(lineup()) {
            let name = preset.name();
            let mut a = preset;
            let mut b = scenario;
            let r1 = Simulation::new(&preset_config, &preset_trace, 42).run(&mut a);
            let r2 = sc
                .build_simulation(&sc.base, &scenario_trace, sc.seed)
                .unwrap()
                .run(&mut b);
            assert_eq!(
                r1, r2,
                "{name} at intensity {intensity}: scenario diverged from the CLI preset"
            );
        }
    }
}

/// A stationary-relay world — a scenario-only topology — runs end-to-end
/// under the whole lineup at both fault intensities, and repeats exactly.
#[test]
fn relay_world_runs_and_repeats_under_every_scheme() {
    for intensity in [0.0, 0.5] {
        let text = format!(
            "[scenario]\nversion = 1\nseed = 7\n\
             [world]\nstyle = \"mit\"\nnodes = 12\nhours = 12\ntrace_seed = 2\nrelays = 2\n\
             relay_visits_per_hour = 2.0\nrelay_visit_minutes = 8\n\
             [pois]\ncount = 20\n[workload]\nphotos_per_hour = 20\n\
             [faults]\nintensity = {intensity}\n"
        );
        let sc = Scenario::parse(&text).unwrap();
        let trace = sc.world.build_trace(sc.seed).unwrap();
        assert_eq!(trace.num_nodes(), 14, "12 mobile + 2 relays");
        for (first, second) in lineup().into_iter().zip(lineup()) {
            let name = first.name();
            let mut a = first;
            let mut b = second;
            let r1 = sc
                .build_simulation(&sc.base, &trace, sc.seed)
                .unwrap()
                .run(&mut a);
            let r2 = sc
                .build_simulation(&sc.base, &trace, sc.seed)
                .unwrap()
                .run(&mut b);
            assert_eq!(r1, r2, "{name} at intensity {intensity} diverged");
            assert!(!r1.samples.is_empty(), "{name}: no samples");
        }
    }
}

/// A scheduled-importance world (PoI reweighting mid-run) runs end-to-end
/// under the whole lineup at both fault intensities, and repeats exactly.
#[test]
fn scheduled_world_runs_and_repeats_under_every_scheme() {
    for intensity in [0.0, 0.5] {
        let text = format!(
            "[scenario]\nversion = 1\nseed = 9\n\
             [world]\nstyle = \"mit\"\nnodes = 12\nhours = 12\ntrace_seed = 4\n\
             [pois]\ncount = 20\n\
             [pois.phase_0]\nat_hours = 4\nfocus = [0, 1, 2]\nfocus_weight = 6.0\n\
             [pois.phase_1]\nat_hours = 8\nfocus = [10, 11]\nfocus_weight = 9.0\nbase_weight = 0.5\n\
             [workload]\nphotos_per_hour = 20\n\
             [faults]\nintensity = {intensity}\n"
        );
        let sc = Scenario::parse(&text).unwrap();
        let trace = sc.world.build_trace(sc.seed).unwrap();
        for (first, second) in lineup().into_iter().zip(lineup()) {
            let name = first.name();
            let mut a = first;
            let mut b = second;
            let mut sim1 = sc.build_simulation(&sc.base, &trace, sc.seed).unwrap();
            assert_eq!(sim1.poi_schedule().len(), 2);
            let r1 = sim1.run(&mut a);
            let r2 = sc
                .build_simulation(&sc.base, &trace, sc.seed)
                .unwrap()
                .run(&mut b);
            assert_eq!(r1, r2, "{name} at intensity {intensity} diverged");
        }
    }
}

/// Scenarios compose with mid-run checkpoint/restore — including the
/// PoI-schedule replay on resume: halting a scheduled world mid-run and
/// resuming from the snapshot reproduces the straight-through result
/// byte-for-byte.
#[test]
fn scheduled_scenario_checkpoint_resume_is_byte_identical() {
    let text = "[scenario]\nversion = 1\nseed = 11\n\
                [world]\nstyle = \"mit\"\nnodes = 10\nhours = 12\ntrace_seed = 5\n\
                [pois]\ncount = 16\n\
                [pois.phase_0]\nat_hours = 3\nfocus = [0, 1]\nfocus_weight = 5.0\n\
                [workload]\nphotos_per_hour = 15\n";
    let sc = Scenario::parse(text).unwrap();
    let trace = sc.world.build_trace(sc.seed).unwrap();

    let mut straight = OurScheme::new();
    let reference = sc
        .build_simulation(&sc.base, &trace, sc.seed)
        .unwrap()
        .run(&mut straight);

    let dir = std::env::temp_dir().join(format!("photodtn-scenario-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Halt at 6 h — after the 3 h reweight, so the snapshot carries the
    // phase-1 world and resume must re-derive the active PoI list.
    let fp = checkpoint::run_fingerprint(&sc.base, &trace, sc.seed, "ours") ^ sc.fingerprint;
    let mut first_half = sc.build_simulation(&sc.base, &trace, sc.seed).unwrap();
    first_half.set_checkpoints(
        CheckpointPolicy::new(&dir, f64::INFINITY, fp, "scenario ckpt test")
            .with_halt_after(6.0 * 3600.0),
    );
    let mut scheme = OurScheme::new();
    let (_, _, stats) = first_half.run_instrumented(&mut scheme);
    assert!(stats.interrupted, "halt-after did not interrupt");

    let (payload, _) = checkpoint::load_latest(&dir, Some(fp)).unwrap();
    let mut resumed_scheme = OurScheme::new();
    let mut resumed = sc.build_simulation(&sc.base, &trace, sc.seed).unwrap();
    resumed.resume_from(payload, &resumed_scheme).unwrap();
    let result = resumed.run(&mut resumed_scheme);
    assert_eq!(result, reference, "resumed scheduled scenario diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
