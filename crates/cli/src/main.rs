//! `photodtn` — command-line front end for the photodtn toolkit.
//!
//! ```text
//! photodtn trace gen   --style mit|cambridge|metro|waypoint [--seed N] [--nodes N] [--hours H] [--out FILE]
//! photodtn trace info  FILE
//! photodtn run         --scheme NAME [--scenario FILE | --trace FILE | --style STYLE] [options]
//! photodtn demo        [--seed N]
//! photodtn schemes
//! ```
//!
//! Run `photodtn help` for the full option list.

use std::process::ExitCode;

mod args;
mod cmd_demo;
mod cmd_inspect;
mod cmd_report;
mod cmd_run;
mod cmd_sweep;
mod cmd_trace;
mod signals;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("photodtn: {e}");
            eprintln!("run `photodtn help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match argv.first().map(String::as_str) {
        Some("trace") => done(cmd_trace::run(&argv[1..])),
        // run returns its own exit code: 0 ok, 75 gracefully interrupted
        // (a final snapshot was written; rerun with --resume-from).
        Some("run") => cmd_run::run(&argv[1..]).map(ExitCode::from),
        Some("demo") => done(cmd_demo::run(&argv[1..])),
        Some("inspect") => done(cmd_inspect::run(&argv[1..])),
        Some("report") => done(cmd_report::run(&argv[1..])),
        // sweep owns its exit-code contract (0/2/3/4) and prints its own
        // errors — partial failure must be distinguishable in scripts.
        Some("sweep") => Ok(ExitCode::from(cmd_sweep::run(&argv[1..]))),
        Some("schemes") => {
            for name in photodtn_bench::LINEUP
                .iter()
                .chain(&["photonet", "epidemic", "direct", "oracle", "prophet"])
            {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

const USAGE: &str = "\
photodtn — resource-aware photo crowdsourcing through DTNs (ICDCS'16 reproduction)

USAGE:
  photodtn trace gen  --style mit|cambridge|metro|waypoint [--seed N]
                      [--nodes N] [--hours H] [--region M] [--out FILE]
      Generate a synthetic contact trace (text format on stdout or FILE).
      Waypoint worlds default to 20 nodes in a 1000 m region for 24 h.

  photodtn trace info FILE
      Summarize a contact trace: volume, durations, inter-contact
      statistics and the exponential fit behind the metadata-validity
      model.

  photodtn run [--scenario FILE | --trace FILE |
                --style mit|cambridge|metro|waypoint]
               [--scheme NAME] [--seed N] [--nodes N] [--hours H]
               [--photos-per-hour R] [--storage-gb G] [--deadline H]
               [--failures F] [--faults K] [--trace-out FILE]
               [--report] [--json]
               [--checkpoint-dir D [--checkpoint-every SIMSECS]
                [--checkpoint-keep K]] [--resume-from D]
      Run one crowdsourcing simulation and print the coverage series.
      The world flags are shorthand for a scenario; --scenario FILE
      loads the whole world — topology, mobility, relays, PoI layout
      and importance schedule, workload, fault plan — from a
      declarative TOML scenario (see examples/scenarios/) instead, and
      the world flags then conflict with it. --scheme and
      --seed still override the scenario's defaults, and the
      run-mechanics flags (checkpoints, --trace-out) compose as
      usual. Every simulation runs on one thread; use `sweep
      --workers N` to spread independent runs over cores.
      --report adds a full-view analysis of the delivered photos.
      --faults K enables deterministic fault injection at chaos
      intensity K in 0..=1 (contact interruptions, transfer loss and
      corruption, node crash/reboot churn, degraded uplinks) and prints
      the fault counters.
      --trace-out FILE records every engine decision (contacts,
      selections, metadata exchanges, uploads, faults) as JSON lines
      for `photodtn inspect`; the simulated result is byte-identical
      with or without it.
      --checkpoint-dir D snapshots the full simulation state into D
      every --checkpoint-every simulated seconds (default 3600),
      keeping the last --checkpoint-keep rotations (default 3).
      SIGINT/SIGTERM then stop gracefully: the trace sink is flushed,
      a final snapshot is written, and the process exits with code 75.
      --resume-from D continues from the newest snapshot in D; the
      resumed run (same world flags required — snapshots are
      fingerprinted) reproduces the uninterrupted result byte-for-
      byte and keeps checkpointing into D.

  photodtn inspect EVENTS.jsonl [--bins N] [--top N]
      Summarize a --trace-out file: run header, event counts,
      per-node and per-contact-pair tables, and latency /
      buffer-occupancy histograms.

  photodtn sweep SPEC.toml [--out FILE] [--journal FILE] [--resume]
                 [--workers N] [--cell-deadline SECS] [--retries N]
                 [--backoff-ms MS] [--cell-checkpoint SIMSECS]
                 [--sync] [--quiet]
      Run a (scheme \u{d7} config \u{d7} seed) grid under the crash-tolerant
      supervisor. Panicking cells are isolated and never retried,
      hung cells time out against --cell-deadline, transient trace-IO
      failures retry with exponential backoff, and every resolved
      cell is journaled (--sync adds fsync). After a crash or kill,
      rerun with --resume to skip completed cells; the merged report
      is byte-identical to an uninterrupted run. --cell-checkpoint
      additionally snapshots each in-flight cell every SIMSECS
      simulated seconds under {journal}.ckpt/, so retried or rerun
      cells resume mid-run instead of starting over. Exit codes: 0
      all cells ok, 2 bad spec, 3 partial failure, 4 total failure.
      SPEC.toml is a [scenario] file (examples/sweep.toml,
      examples/scenarios/): the sweep runs its [schemes] names over
      its [grid] axes and seeds.

  photodtn demo [--seed N]
      Run the paper's \u{a7}IV-B prototype demo (Fig. 3) with our scheme,
      PhotoNet and Spray&Wait.

  photodtn report [--faults] FILE...
      Consolidate the JSON blocks from figure-binary outputs into one
      markdown table. --faults adds fault-counter columns for rows
      produced by fault-injected runs.

  photodtn schemes
      List available scheme names.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_schemes_succeed() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["help".into()]).is_ok());
        assert!(dispatch(&["schemes".into()]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }
}
