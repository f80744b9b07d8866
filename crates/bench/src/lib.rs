//! Shared harness for the figure-reproduction binaries (`fig3` … `fig8`).
//!
//! Each binary regenerates one figure of the paper's evaluation: it
//! builds the Table I scenario, runs the scheme lineup over several
//! seeds, and prints the same series the figure plots (plus a JSON block
//! for machine consumption). See `EXPERIMENTS.md` at the repository root
//! for paper-vs-measured records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demo;
pub mod svg;

use photodtn_contacts::synth::TraceStyle;
use photodtn_contacts::ContactTrace;
use photodtn_schemes::{ModifiedSpray, OurScheme, PhotoNet, SprayAndWait};
use photodtn_sim::{try_run_averaged, AveragedSeries, Scheme, SimConfig, WorldSource, WorldSpec};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Number of independent runs to average (the paper uses 50; the
    /// default here is 5 to keep a laptop run in minutes).
    pub runs: u64,
    /// Which trace family to use.
    pub style: TraceStyle,
    /// Optional override of the trace length in hours.
    pub hours: Option<f64>,
    /// Emit the machine-readable JSON block.
    pub json: bool,
    /// Include the extra baselines (epidemic, prophet, oracle) beyond the
    /// paper's lineup.
    pub extended: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            runs: 3,
            style: TraceStyle::MitLike,
            hours: None,
            json: true,
            extended: false,
        }
    }
}

impl Args {
    /// The scheme lineup for this invocation: the paper's five, plus the
    /// extra baselines when `--extended` was given.
    #[must_use]
    pub fn lineup(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = LINEUP.to_vec();
        if self.extended {
            names.extend_from_slice(EXTENDED_LINEUP);
        }
        names
    }

    /// Parses `--runs N`, `--trace mit|cambridge`, `--hours H`,
    /// `--no-json`, `--extended` from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--runs" => {
                    args.runs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--runs needs a positive integer");
                }
                "--trace" => {
                    args.style = match it.next().as_deref() {
                        Some("mit") => TraceStyle::MitLike,
                        Some("cambridge") => TraceStyle::CambridgeLike,
                        other => panic!("--trace must be mit or cambridge, got {other:?}"),
                    };
                }
                "--hours" => {
                    args.hours = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--hours needs a number"),
                    );
                }
                "--no-json" => args.json = false,
                "--extended" => args.extended = true,
                other => panic!(
                    "unknown flag {other:?} (use --runs/--trace/--hours/--no-json/--extended)"
                ),
            }
        }
        args
    }

    /// The seeds of the averaged runs.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        (1..=self.runs).collect()
    }

    /// This experiment's world: the selected trace family at its preset
    /// size, over `--hours` when given. Panics when `--hours` is not
    /// positive.
    fn world(&self) -> WorldSpec {
        let source = WorldSource::synthetic(self.style.name(), None, self.hours, None, None)
            .unwrap_or_else(|e| panic!("--hours: {e}"));
        WorldSpec::new(source)
    }

    /// Builds this experiment's trace for one seed.
    #[must_use]
    pub fn trace(&self, seed: u64) -> ContactTrace {
        self.world()
            .build_trace(seed)
            .expect("synthetic worlds always build")
    }

    /// The Table I configuration matching the selected trace style.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.world().source.default_config()
    }
}

/// Identifier of every scheme in the Fig. 5–8 lineup.
pub const LINEUP: &[&str] = &[
    "best-possible",
    "ours",
    "no-metadata",
    "modified-spray",
    "spray-wait",
];

/// The extra baselines appended by `--extended`.
pub const EXTENDED_LINEUP: &[&str] = &["epidemic", "prophet", "oracle"];

/// Every name [`scheme_by_name`] understands, for validation and error
/// messages.
pub const ALL_SCHEME_NAMES: &[&str] = &[
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

/// Instantiates a scheme by its lineup name, or `None` for an unknown
/// name (so callers can validate a sweep spec up front instead of
/// panicking mid-batch).
#[must_use]
pub fn try_scheme_by_name(name: &str) -> Option<Box<dyn Scheme + Send>> {
    Some(match name {
        "best-possible" => Box::new(photodtn_schemes::BestPossible),
        "ours" => Box::new(OurScheme::new()),
        "no-metadata" => Box::new(OurScheme::no_metadata()),
        "modified-spray" => Box::new(ModifiedSpray::new()),
        "spray-wait" => Box::new(SprayAndWait::new()),
        "photonet" => Box::new(PhotoNet::new()),
        "epidemic" => Box::new(photodtn_schemes::Epidemic::new()),
        "direct" => Box::new(photodtn_schemes::DirectDelivery::new()),
        "oracle" => Box::new(photodtn_schemes::CentralizedOracle::new()),
        "prophet" => Box::new(photodtn_schemes::ProphetRouting::new()),
        _ => return None,
    })
}

/// Checks every name against the lineup.
///
/// # Errors
///
/// The first unknown name, prefixed with `context` (a spec path or a
/// flag) and followed by the known names.
pub fn validate_schemes(context: &str, names: &[String]) -> Result<(), String> {
    for name in names {
        if try_scheme_by_name(name).is_none() {
            return Err(format!(
                "{context}: unknown scheme {name:?} (known: {})",
                ALL_SCHEME_NAMES.join(", ")
            ));
        }
    }
    Ok(())
}

/// A scenario's `[schemes] names` as lineup names: `["all"]` expands to
/// [`ALL_SCHEME_NAMES`], any other list is checked with
/// [`validate_schemes`].
///
/// # Errors
///
/// As [`validate_schemes`].
pub fn resolve_schemes(context: &str, names: &[String]) -> Result<Vec<String>, String> {
    if names == ["all"] {
        return Ok(ALL_SCHEME_NAMES.iter().map(|s| (*s).to_string()).collect());
    }
    validate_schemes(context, names)?;
    Ok(names.to_vec())
}

/// Instantiates a scheme by its lineup name.
///
/// # Panics
///
/// Panics on an unknown name.
#[must_use]
pub fn scheme_by_name(name: &str) -> Box<dyn Scheme + Send> {
    try_scheme_by_name(name).unwrap_or_else(|| panic!("unknown scheme {name:?}"))
}

/// Runs one averaged experiment under supervisor panic isolation.
///
/// A panicking seed no longer aborts the whole figure binary: the
/// failure is attributed on stderr (scheme, seed, payload) and the
/// experiment degrades to the surviving seeds' average. The process
/// exits (code 1) only when *every* seed failed — there is nothing left
/// to plot.
pub fn run_averaged_or_exit<S, TF, SF>(
    tag: &str,
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
        Ok(series) => series,
        Err(err) => {
            eprintln!("{tag}: {err}");
            match err.surviving {
                Some(series) => {
                    eprintln!(
                        "{tag}: continuing with the {} surviving seed(s) of {}",
                        series.runs,
                        seeds.len()
                    );
                    series
                }
                None => {
                    eprintln!("{tag}: every seed failed; nothing to average");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Prints one experiment's averaged series as an aligned table.
pub fn print_series_table(title: &str, series: &[AveragedSeries], every: usize) {
    println!("\n── {title} ──");
    print!("{:>7}", "t (h)");
    for s in series {
        print!(" | {:^30}", s.scheme);
    }
    println!();
    print!("{:>7}", "");
    for _ in series {
        print!(" | {:>8} {:>9} {:>10}", "point%", "aspect°", "delivered");
    }
    println!();
    let len = series.iter().map(|s| s.samples.len()).min().unwrap_or(0);
    for i in (0..len).step_by(every.max(1)) {
        print!("{:>7.0}", series[0].samples[i].t_hours);
        for s in series {
            let x = &s.samples[i];
            print!(
                " | {:>7.1}% {:>8.1}° {:>10}",
                100.0 * x.point_coverage,
                x.aspect_coverage_deg,
                x.delivered_photos
            );
        }
        println!();
    }
}

/// Prints one experiment's final samples as JSON rows for EXPERIMENTS.md.
pub fn print_json(figure: &str, args: &Args, series: &[AveragedSeries]) {
    if !args.json {
        return;
    }
    let rows: Vec<serde_json::Value> = series
        .iter()
        .map(|s| {
            let f = s.final_sample();
            serde_json::json!({
                "figure": figure,
                "trace": args.style.name(),
                "runs": s.runs,
                "scheme": s.scheme,
                "point_coverage": f.point_coverage,
                "aspect_coverage_deg": f.aspect_coverage_deg,
                "delivered_photos": f.delivered_photos,
            })
        })
        .collect();
    println!(
        "\nJSON {}",
        serde_json::to_string_pretty(&rows).expect("series serialize")
    );
}

/// The `machine` block every BENCH file records: core count, CPU model,
/// `rustc -V` and the git revision, as a one-line JSON object. A field
/// that cannot be read (no `/proc/cpuinfo`, no `git` on the path, not a
/// checkout) reads `"unknown"`.
#[must_use]
pub fn machine_json() -> String {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        });
    let text = |v: Option<String>| {
        serde_json::to_string(v.as_deref().unwrap_or("unknown")).expect("strings serialize")
    };
    format!(
        "{{ \"cores\": {}, \"cpu\": {}, \"rustc\": {}, \"git_revision\": {} }}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        text(cpu),
        text(run("rustc", &["-V"])),
        text(run("git", &["rev-parse", "HEAD"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_block_is_a_json_object_with_every_field() {
        let machine: serde_json::Value =
            serde_json::from_str(&machine_json()).expect("machine block is JSON");
        for key in ["cores", "cpu", "rustc", "git_revision"] {
            assert!(machine.get(key).is_some(), "machine block lacks {key}");
        }
        assert!(machine["cores"].as_u64().is_some_and(|n| n >= 1));
    }

    #[test]
    fn lineup_names_resolve() {
        for name in LINEUP {
            assert_eq!(scheme_by_name(name).name(), *name);
        }
        assert_eq!(scheme_by_name("photonet").name(), "photonet");
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics() {
        let _ = scheme_by_name("bogus");
    }

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.runs, 3);
        assert_eq!(a.seeds(), vec![1, 2, 3]);
        let t = a.trace(1);
        assert_eq!(t.num_nodes(), 97);
    }
}
