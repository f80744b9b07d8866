//! Dumps every scheme's full `SimResult` as JSON for byte-identity
//! comparison across builds.
//!
//! Runs the exact determinism-test matrix (the 10-scheme lineup on the
//! MIT-like 16-node/36-hour trace, fault intensities 0.0 and 0.5, run
//! seed 42) and writes one `<scheme>_<intensity>.json` per cell into the
//! directory given as the first argument. Running this against two
//! builds and `diff -r`-ing the directories proves the optimized
//! simulator produces byte-identical results — every sample, every
//! counter.
//!
//! With `--trace TRACEDIR` every cell additionally records its full
//! event stream to `TRACEDIR/<scheme>_<intensity>.jsonl`. Diffing the
//! *result* directories of a traced and an untraced invocation proves
//! the tracing subsystem is a pure observer (CI does exactly that).
//!
//! With `--resume-split HOURS` every cell runs **twice**: a first run
//! that checkpoints and deterministically halts at the split time (its
//! partial result is discarded), then a fresh simulation that resumes
//! from the snapshot and finishes. Diffing against a plain invocation's
//! directory proves mid-run checkpoint/restore is byte-exact for every
//! scheme and fault intensity (CI does exactly that as well).
//!
//! With `--scenario FILE` the world (trace, config, PoI layout) comes
//! from a declarative TOML scenario instead of the built-in preset; the
//! fault-intensity sweep, run seed, scheme lineup and output layout stay
//! the same. Pointing it at a scenario that restates the preset world
//! (examples/scenarios/matrix.toml) and diffing against a plain
//! invocation proves the scenario engine is a pure re-spelling — CI does
//! exactly that.
//!
//! Either way the world is a [`Scenario`]: the preset is one built in
//! code (fingerprint 0), so both spellings share a single build path.

use photodtn_bench::scheme_by_name;
use photodtn_contacts::ContactTrace;
use photodtn_sim::{
    checkpoint, CheckpointPolicy, FaultConfig, JsonlSink, MetricSample, Scenario, SimConfig,
    SimResult, Simulation, WorldSource, WorldSpec,
};

const SCHEMES: [&str; 10] = [
    "best-possible",
    "ours",
    "no-metadata",
    "modified-spray",
    "spray-wait",
    "photonet",
    "epidemic",
    "direct",
    "oracle",
    "prophet",
];

/// Hand-rolled JSON (the vendored serde_json cannot serialize arbitrary
/// types). `{:?}` on finite `f64`s is the shortest round-trip
/// representation — a valid JSON number, and bit-exact for comparison.
fn sample_json(s: &MetricSample) -> String {
    format!(
        "    {{ \"t_hours\": {:?}, \"point_coverage\": {:?}, \"aspect_coverage_deg\": {:?}, \
         \"delivered_photos\": {}, \"uploaded_bytes\": {}, \"mean_latency_hours\": {:?}, \
         \"metadata_bytes\": {}, \"contacts_interrupted\": {}, \"transfers_lost\": {}, \
         \"transfers_corrupt\": {}, \"node_crashes\": {}, \"uplinks_degraded\": {} }}",
        s.t_hours,
        s.point_coverage,
        s.aspect_coverage_deg,
        s.delivered_photos,
        s.uploaded_bytes,
        s.mean_latency_hours,
        s.metadata_bytes,
        s.contacts_interrupted,
        s.transfers_lost,
        s.transfers_corrupt,
        s.node_crashes,
        s.uplinks_degraded
    )
}

fn result_json(r: &SimResult) -> String {
    let samples: Vec<String> = r.samples.iter().map(sample_json).collect();
    format!(
        "{{\n  \"scheme\": \"{}\",\n  \"seed\": {},\n  \"samples\": [\n{}\n  ]\n}}\n",
        r.scheme,
        r.seed,
        samples.join(",\n")
    )
}

/// The determinism-matrix preset: the MIT-like trace cut to 16 nodes over
/// 36 h from trace seed 3, run seed 42, 60 PoIs, 30 photos/h and storage
/// for 40 photos per node.
fn preset() -> Scenario {
    let source = WorldSource::synthetic("mit", Some(16), Some(36.0), None, None)
        .expect("the preset world is valid");
    let mut world = WorldSpec::new(source);
    world.trace_seed = Some(3);
    let mut base = SimConfig::mit_default()
        .with_photos_per_hour(30.0)
        .with_storage_bytes(40 * 4 * 1024 * 1024);
    base.num_pois = 60;
    let mut scenario = Scenario::new(world, base);
    scenario.seed = 42;
    scenario
}

/// Builds one cell's simulation; panics on an unbuildable world.
fn build(scenario: &Scenario, config: &SimConfig, trace: &ContactTrace, seed: u64) -> Simulation {
    scenario
        .build_simulation(config, trace, seed)
        .unwrap_or_else(|e| panic!("building scenario world: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: dump_results OUTDIR [--scenario FILE] [--trace TRACEDIR] \
                 [--resume-split HOURS]";
    let outdir = args.first().cloned().unwrap_or_else(|| panic!("{usage}"));
    let mut tracedir = None;
    let mut resume_split: Option<f64> = None;
    let mut scenario: Option<Scenario> = None;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => {
                let path = it.next().cloned().unwrap_or_else(|| panic!("{usage}"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {path}: {e}"));
                scenario = Some(Scenario::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}")));
            }
            "--trace" => {
                tracedir = Some(it.next().cloned().unwrap_or_else(|| panic!("{usage}")));
            }
            "--resume-split" => {
                resume_split = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|h: &f64| h.is_finite() && *h > 0.0)
                        .unwrap_or_else(|| panic!("{usage}")),
                );
            }
            other => panic!("unknown argument {other:?}\n{usage}"),
        }
    }
    assert!(
        !(resume_split.is_some() && tracedir.is_some()),
        "--resume-split is exclusive with --trace: the checkpointed halves \
         run untraced"
    );
    std::fs::create_dir_all(&outdir).expect("create output directory");
    if let Some(dir) = &tracedir {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }

    // The run seed and trace: the preset pins both; a scenario's
    // trace_seed defaults to the run seed, exactly like the CLI.
    let scenario = scenario.unwrap_or_else(preset);
    let run_seed = scenario.seed;
    let trace = scenario
        .world
        .build_trace(run_seed)
        .unwrap_or_else(|e| panic!("building scenario trace: {e}"));

    for intensity in [0.0_f64, 0.5] {
        // The intensity sweep overrides any [faults] block in a scenario
        // so the output layout is identical either way.
        let config = scenario
            .base
            .clone()
            .with_faults(FaultConfig::chaos(intensity));

        for name in SCHEMES {
            let mut scheme = scheme_by_name(name);
            let mut sim = build(&scenario, &config, &trace, run_seed);
            if let Some(dir) = &tracedir {
                let trace_path = format!("{dir}/{name}_{intensity}.jsonl");
                let sink = JsonlSink::create(&trace_path)
                    .unwrap_or_else(|e| panic!("creating {trace_path}: {e}"));
                sim.set_trace_sink(Box::new(sink));
            }
            let result = match resume_split {
                None => sim.run(&mut *scheme),
                Some(hours) => {
                    // Phase 1: checkpoint and deterministically halt at
                    // the split; the partial result is discarded.
                    let ckpt = format!("{outdir}/.ckpt-{name}_{intensity}");
                    let _ = std::fs::remove_dir_all(&ckpt);
                    let fp = checkpoint::run_fingerprint(&config, &trace, run_seed, name)
                        ^ scenario.fingerprint;
                    let world = format!("dump_results {name} intensity={intensity}");
                    sim.set_checkpoints(
                        CheckpointPolicy::new(&ckpt, f64::INFINITY, fp, world.as_str())
                            .with_halt_after(hours * 3600.0),
                    );
                    let (_, _, stats) = sim.run_instrumented(&mut *scheme);
                    assert!(
                        stats.interrupted,
                        "{name}: --resume-split {hours} h did not interrupt the run \
                         (split past the end of the trace?)"
                    );
                    // Phase 2: a fresh simulation and scheme resume from
                    // the snapshot and run to completion.
                    let (payload, _) =
                        checkpoint::load_latest(std::path::Path::new(&ckpt), Some(fp))
                            .unwrap_or_else(|e| panic!("{name}: loading snapshot: {e}"));
                    let mut scheme = scheme_by_name(name);
                    let mut sim = build(&scenario, &config, &trace, run_seed);
                    sim.resume_from(payload, &*scheme)
                        .unwrap_or_else(|e| panic!("{name}: resuming: {e}"));
                    let result = sim.run(&mut *scheme);
                    let _ = std::fs::remove_dir_all(&ckpt);
                    result
                }
            };
            let json = result_json(&result);
            let path = format!("{outdir}/{name}_{intensity}.json");
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("dump_results: wrote {path}");
        }
    }
}
