//! Crash-tolerant batch supervision for parametric sweeps.
//!
//! A multi-hour batch run dies in four distinct ways, and each needs a
//! different answer:
//!
//! * **A cell panics.** Simulations are deterministic in
//!   `(config, trace, seed)`, so a panicking cell would panic identically
//!   on every retry. The supervisor isolates it with
//!   [`std::panic::catch_unwind`], records a typed
//!   [`CellFailure`] (scheme, variant, seed, payload), **never retries
//!   it**, and keeps the rest of the batch running.
//! * **A cell hangs.** A watchdog on the supervising thread enforces an
//!   optional per-attempt wall-clock budget
//!   ([`BatchPolicy::deadline`]); overdue cells are marked
//!   [`FailureKind::Timeout`] and the batch degrades gracefully to
//!   partial results. Wall-clock never enters a
//!   [`SimResult`] — it only decides *whether* a result exists.
//! * **The environment flakes.** Trace-file reads and worker spawns can
//!   fail transiently; those [`FailureKind`]s are retried up to
//!   [`BatchPolicy::max_attempts`] with exponential backoff.
//! * **The process is killed.** Every resolved cell is journaled through
//!   a caller-supplied callback (see [`journal`]) before the next one
//!   starts, so `photodtn sweep --resume` can skip completed cells and
//!   reproduce the uninterrupted report byte-for-byte (determinism makes
//!   resumed cells exact replays).
//!
//! Two executors share the same outcome taxonomy:
//!
//! * [`run_batch`] — the full supervisor: detached worker threads, so the
//!   watchdog can abandon a hung cell without waiting for its thread.
//!   Requires `'static` workloads.
//! * [`run_batch_scoped`] — panic isolation and retry for *borrowed*
//!   workloads (used by [`try_run_averaged`](crate::try_run_averaged)).
//!   Scoped threads must be joined, so this variant cannot offer
//!   deadlines: a hung cell would hang the scope.

pub mod journal;
pub mod spec;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::SimResult;

/// Identifies one cell of a sweep grid: one scheme run on one config
/// variant with one seed.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Scheme name (as understood by the caller's scheme factory).
    pub scheme: String,
    /// Config-variant name (`"base"` when the grid has one point).
    pub variant: String,
    /// The run seed.
    pub seed: u64,
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/seed{}", self.scheme, self.variant, self.seed)
    }
}

/// Why a cell failed — the taxonomy deciding retry behaviour.
///
/// Deterministic failures ([`Panic`](FailureKind::Panic),
/// [`Timeout`](FailureKind::Timeout)) are never retried: the simulator is
/// deterministic in `(config, trace, seed)`, so they would fail
/// identically. Environment failures ([`TraceIo`](FailureKind::TraceIo),
/// [`Spawn`](FailureKind::Spawn)) are transient and retried with backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The cell panicked. Deterministic — never retried.
    Panic,
    /// The cell exceeded the per-attempt wall-clock deadline. A hang in a
    /// deterministic simulation reproduces too — never retried.
    Timeout,
    /// Reading the contact-trace file failed. Transient — retried.
    TraceIo,
    /// A worker thread could not be spawned. Transient — retried.
    Spawn,
    /// The cell was gracefully interrupted mid-run (stop request) after
    /// writing a checkpoint. Retried — the retry resumes from the cell's
    /// last snapshot instead of starting over.
    Interrupted,
}

impl FailureKind {
    /// Whether a failure of this kind may succeed on retry.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(
            self,
            FailureKind::TraceIo | FailureKind::Spawn | FailureKind::Interrupted
        )
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::TraceIo => "trace-io",
            FailureKind::Spawn => "spawn",
            FailureKind::Interrupted => "interrupted",
        })
    }
}

/// A typed error returned by a cell runner (panics are caught separately
/// and classified as [`FailureKind::Panic`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellError {
    /// Failure classification (drives retry).
    pub kind: FailureKind,
    /// Human-readable description.
    pub message: String,
}

impl CellError {
    /// A trace-file IO failure (retryable).
    #[must_use]
    pub fn trace_io(message: impl Into<String>) -> Self {
        CellError {
            kind: FailureKind::TraceIo,
            message: message.into(),
        }
    }

    /// A graceful mid-run interruption after a checkpoint (retryable; the
    /// retry resumes from the snapshot).
    #[must_use]
    pub fn interrupted(message: impl Into<String>) -> Self {
        CellError {
            kind: FailureKind::Interrupted,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for CellError {}

/// A resolved failure of one cell, with attribution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Which cell failed.
    pub cell: CellId,
    /// Failure classification.
    pub kind: FailureKind,
    /// The panic payload / error message of the final attempt.
    pub message: String,
    /// How many attempts were made (1 for non-retryable kinds).
    pub attempts: u32,
}

/// Final state of one cell after supervision.
#[derive(Clone, Debug, PartialEq)]
pub enum CellState {
    /// The cell produced a result.
    Done(SimResult),
    /// The cell failed (after exhausting retries, when retryable).
    Failed(CellFailure),
}

impl CellState {
    /// The result, if the cell completed.
    #[must_use]
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            CellState::Done(r) => Some(r),
            CellState::Failed(_) => None,
        }
    }

    /// The failure record, if the cell failed.
    #[must_use]
    pub fn failure(&self) -> Option<&CellFailure> {
        match self {
            CellState::Done(_) => None,
            CellState::Failed(f) => Some(f),
        }
    }
}

/// Supervision policy of one batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Worker threads; 0 means
    /// [`default_worker_count`](crate::default_worker_count).
    pub workers: usize,
    /// Per-attempt wall-clock budget. `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Total attempts per cell (≥ 1). Only retryable [`FailureKind`]s
    /// ever reach attempt 2.
    pub max_attempts: u32,
    /// Backoff before retry `k` (counting from 1) is
    /// `backoff * 2^(k-1)`.
    pub backoff: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            workers: 0,
            deadline: None,
            max_attempts: 3,
            backoff: Duration::from_millis(100),
        }
    }
}

impl BatchPolicy {
    fn effective_workers(&self, cells: usize) -> usize {
        let configured = if self.workers == 0 {
            crate::default_worker_count()
        } else {
            self.workers
        };
        configured.clamp(1, cells.max(1))
    }
}

/// The outcome of one supervised batch.
///
/// `outcomes` is in **canonical cell order** (sorted by [`CellId`]),
/// independent of scheduling and completion order — merged reports built
/// from it are byte-stable across runs.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Every cell with its final state, sorted by cell id.
    pub outcomes: Vec<(CellId, CellState)>,
}

impl BatchReport {
    /// Builds a report from unordered outcomes (sorts canonically).
    #[must_use]
    pub fn from_outcomes(mut outcomes: Vec<(CellId, CellState)>) -> Self {
        outcomes.sort_by(|a, b| a.0.cmp(&b.0));
        BatchReport { outcomes }
    }

    /// The completed cells, in canonical order.
    pub fn completed(&self) -> impl Iterator<Item = (&CellId, &SimResult)> {
        self.outcomes
            .iter()
            .filter_map(|(c, s)| s.result().map(|r| (c, r)))
    }

    /// The failed cells, in canonical order.
    pub fn failures(&self) -> Vec<&CellFailure> {
        self.outcomes
            .iter()
            .filter_map(|(_, s)| s.failure())
            .collect()
    }

    /// Whether every cell completed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Whether no cell completed (and the batch was non-empty).
    #[must_use]
    pub fn total_failure(&self) -> bool {
        !self.outcomes.is_empty() && self.completed().next().is_none()
    }
}

/// Extracts a human-readable message from a panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of a cell under panic isolation.
fn run_attempt<T, R>(runner: &R, cell: &T) -> Result<SimResult, CellError>
where
    R: Fn(&T) -> Result<SimResult, CellError>,
{
    // AssertUnwindSafe: every attempt constructs its world (trace, scheme,
    // simulation) from scratch inside the runner; a panicking attempt's
    // partial state is discarded wholesale, so no broken invariant can
    // leak into later cells.
    match catch_unwind(AssertUnwindSafe(|| runner(cell))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(CellError {
            kind: FailureKind::Panic,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Runs a cell to resolution: retryable failures are retried with
/// exponential backoff, deterministic ones resolve immediately.
/// Returns the final outcome and the number of attempts made.
fn resolve_cell<T, R>(
    runner: &R,
    cell: &T,
    max_attempts: u32,
    backoff: Duration,
    mut on_attempt: impl FnMut(u32),
) -> (Result<SimResult, CellError>, u32)
where
    R: Fn(&T) -> Result<SimResult, CellError>,
{
    let max_attempts = max_attempts.max(1);
    let mut attempt = 1;
    loop {
        on_attempt(attempt);
        match run_attempt(runner, cell) {
            Ok(result) => return (Ok(result), attempt),
            Err(err) if err.kind.retryable() && attempt < max_attempts => {
                // Exponential backoff: base, 2×base, 4×base, …
                std::thread::sleep(backoff * 2u32.saturating_pow(attempt - 1));
                attempt += 1;
            }
            Err(err) => return (Err(err), attempt),
        }
    }
}

/// Messages from worker threads to the supervising thread.
enum WorkerMsg {
    /// Attempt `attempt` of cell `cell` started now.
    Started { cell: usize, attempt: u32 },
    /// Cell `cell` resolved (possibly after retries).
    Resolved {
        cell: usize,
        outcome: Result<SimResult, CellError>,
        attempts: u32,
    },
}

/// Runs `cells` under full supervision: bounded detached workers, panic
/// isolation, watchdog deadlines, retry with backoff.
///
/// `on_resolve` fires on the supervising thread the moment each cell
/// resolves — in **completion** order, before the batch finishes — so the
/// caller can journal progress crash-consistently.
///
/// Worker threads are detached on purpose: when a cell exceeds its
/// deadline the supervisor abandons the thread (it cannot be killed
/// safely) and spawns a replacement so the batch keeps its parallelism.
/// Abandoned threads die with the process; their late results are
/// discarded.
pub fn run_batch<R, F>(
    cells: &[CellId],
    runner: Arc<R>,
    policy: &BatchPolicy,
    mut on_resolve: F,
) -> BatchReport
where
    R: Fn(&CellId) -> Result<SimResult, CellError> + Send + Sync + 'static,
    F: FnMut(&CellId, &CellState),
{
    let n = cells.len();
    if n == 0 {
        return BatchReport::default();
    }
    let queue: Arc<Mutex<std::collections::VecDeque<usize>>> =
        Arc::new(Mutex::new((0..n).collect()));
    let owned_cells: Arc<Vec<CellId>> = Arc::new(cells.to_vec());
    let (tx, rx) = mpsc::channel::<WorkerMsg>();

    let workers = policy.effective_workers(n);
    let max_attempts = policy.max_attempts;
    let backoff = policy.backoff;
    let spawn_worker = |id: usize| -> std::io::Result<()> {
        let queue = Arc::clone(&queue);
        let owned_cells = Arc::clone(&owned_cells);
        let runner = Arc::clone(&runner);
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("sweep-worker-{id}"))
            .spawn(move || loop {
                let Some(idx) = queue.lock().expect("work queue poisoned").pop_front() else {
                    return;
                };
                let cell = &owned_cells[idx];
                let (outcome, attempts) =
                    resolve_cell(runner.as_ref(), cell, max_attempts, backoff, |attempt| {
                        // A send only fails when the supervisor is gone,
                        // i.e. this worker was abandoned — stop quietly.
                        let _ = tx.send(WorkerMsg::Started { cell: idx, attempt });
                    });
                let _ = tx.send(WorkerMsg::Resolved {
                    cell: idx,
                    outcome,
                    attempts,
                });
            })
            .map(|_| ())
    };

    let mut live_workers = 0usize;
    let mut spawned = 0usize;
    for _ in 0..workers {
        if spawn_worker(spawned).is_ok() {
            live_workers += 1;
        }
        spawned += 1;
    }

    let mut states: Vec<Option<CellState>> = (0..n).map(|_| None).collect();
    let mut resolved = 0usize;
    // cell index -> (watchdog deadline, attempt number) of the running
    // attempt.
    let mut running: HashMap<usize, (Instant, u32)> = HashMap::new();
    // Replacement spawns are bounded: one per cell is more than any real
    // batch can need (each replacement covers one abandoned worker).
    let mut replacements_left = n;

    if live_workers == 0 {
        // Nothing could be spawned: resolve every cell as a spawn failure
        // so the caller gets attribution instead of a hang.
        let report = BatchReport::from_outcomes(
            owned_cells
                .iter()
                .map(|cell| {
                    (
                        cell.clone(),
                        CellState::Failed(CellFailure {
                            cell: cell.clone(),
                            kind: FailureKind::Spawn,
                            message: "no worker thread could be spawned".into(),
                            attempts: 0,
                        }),
                    )
                })
                .collect(),
        );
        for (cell, state) in &report.outcomes {
            on_resolve(cell, state);
        }
        return report;
    }

    let mut resolve = |idx: usize,
                       state: CellState,
                       states: &mut Vec<Option<CellState>>,
                       resolved: &mut usize| {
        if states[idx].is_none() {
            on_resolve(&owned_cells[idx], &state);
            states[idx] = Some(state);
            *resolved += 1;
        }
    };

    while resolved < n {
        // Wait for the next worker event, capped at the nearest watchdog
        // deadline.
        let msg = match running.values().map(|(d, _)| *d).min() {
            Some(deadline) => {
                let now = Instant::now();
                if deadline > now {
                    match rx.recv_timeout(deadline - now) {
                        Ok(msg) => Some(msg),
                        Err(mpsc::RecvTimeoutError::Timeout) => None,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                } else {
                    // Deadline already passed: drain without blocking.
                    rx.try_recv().ok()
                }
            }
            None => match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => break,
            },
        };

        match msg {
            Some(WorkerMsg::Started { cell, attempt }) => {
                if let Some(deadline) = policy.deadline {
                    if states[cell].is_none() {
                        running.insert(cell, (Instant::now() + deadline, attempt));
                    }
                }
            }
            Some(WorkerMsg::Resolved {
                cell,
                outcome,
                attempts,
            }) => {
                running.remove(&cell);
                let state = match outcome {
                    Ok(result) => CellState::Done(result),
                    Err(err) => CellState::Failed(CellFailure {
                        cell: owned_cells[cell].clone(),
                        kind: err.kind,
                        message: err.message,
                        attempts,
                    }),
                };
                resolve(cell, state, &mut states, &mut resolved);
            }
            None => {
                // Watchdog tick: resolve every overdue cell as TimedOut
                // and replace its (abandoned) worker so pending cells
                // still run in parallel.
                let now = Instant::now();
                let overdue: Vec<(usize, u32)> = running
                    .iter()
                    .filter(|(_, (deadline, _))| *deadline <= now)
                    .map(|(&idx, &(_, attempt))| (idx, attempt))
                    .collect();
                for (idx, attempt) in overdue {
                    running.remove(&idx);
                    let state = CellState::Failed(CellFailure {
                        cell: owned_cells[idx].clone(),
                        kind: FailureKind::Timeout,
                        message: format!(
                            "exceeded the {:.1}s per-cell deadline",
                            policy.deadline.unwrap_or_default().as_secs_f64()
                        ),
                        attempts: attempt,
                    });
                    resolve(idx, state, &mut states, &mut resolved);
                    let work_pending = !queue.lock().expect("work queue poisoned").is_empty();
                    if work_pending && replacements_left > 0 {
                        replacements_left -= 1;
                        if spawn_worker(spawned).is_ok() {
                            spawned += 1;
                        }
                    }
                }
            }
        }
    }

    // Channel disconnected with unresolved cells (all workers died
    // without reporting — should be impossible, but never hang).
    for idx in 0..n {
        if states[idx].is_none() {
            let state = CellState::Failed(CellFailure {
                cell: owned_cells[idx].clone(),
                kind: FailureKind::Spawn,
                message: "worker lost without reporting a result".into(),
                attempts: 0,
            });
            resolve(idx, state, &mut states, &mut resolved);
        }
    }

    BatchReport::from_outcomes(
        owned_cells
            .iter()
            .cloned()
            .zip(states.into_iter().map(|s| s.expect("all cells resolved")))
            .collect(),
    )
}

/// Runs borrowed cells under panic isolation and retry, on scoped
/// workers.
///
/// This is [`run_batch`] minus the watchdog: scoped threads must be
/// joined before returning, so a hung cell would hang the batch — use
/// [`run_batch`] when a deadline is needed. Outcomes come back in
/// **input order** (the caller owns cell identity).
pub fn run_batch_scoped<T, R>(
    cells: &[T],
    workers: usize,
    max_attempts: u32,
    backoff: Duration,
    runner: &R,
) -> Vec<(Result<SimResult, CellError>, u32)>
where
    T: Sync,
    R: Fn(&T) -> Result<SimResult, CellError> + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    if cells.is_empty() {
        return Vec::new();
    }
    let workers = if workers == 0 {
        crate::default_worker_count()
    } else {
        workers
    }
    .clamp(1, cells.len());
    let next = AtomicUsize::new(0);
    type Slot = Mutex<Option<(Result<SimResult, CellError>, u32)>>;
    let slots: Vec<Slot> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let outcome = resolve_cell(runner, cell, max_attempts, backoff, |_| {});
                *slots[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("scoped worker resolves every claimed cell")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricSample;

    fn fake_result(cell: &CellId) -> SimResult {
        SimResult {
            scheme: cell.scheme.clone(),
            seed: cell.seed,
            samples: vec![MetricSample {
                t_hours: cell.seed as f64,
                ..MetricSample::default()
            }],
        }
    }

    fn cell(seed: u64) -> CellId {
        CellId {
            scheme: "test".into(),
            variant: "base".into(),
            seed,
        }
    }

    #[test]
    fn failure_kind_taxonomy() {
        assert!(!FailureKind::Panic.retryable());
        assert!(!FailureKind::Timeout.retryable());
        assert!(FailureKind::TraceIo.retryable());
        assert!(FailureKind::Spawn.retryable());
    }

    #[test]
    fn batch_completes_and_orders_canonically() {
        let cells: Vec<CellId> = [3, 1, 2].into_iter().map(cell).collect();
        let report = run_batch(
            &cells,
            Arc::new(|c: &CellId| Ok(fake_result(c))),
            &BatchPolicy::default(),
            |_, _| {},
        );
        let seeds: Vec<u64> = report.outcomes.iter().map(|(c, _)| c.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3], "canonical (sorted) cell order");
        assert!(report.all_ok());
        assert!(!report.total_failure());
    }

    #[test]
    fn empty_batch_is_ok() {
        let report = run_batch(
            &[],
            Arc::new(|c: &CellId| Ok(fake_result(c))),
            &BatchPolicy::default(),
            |_, _| {},
        );
        assert!(report.outcomes.is_empty());
        assert!(report.all_ok());
        assert!(!report.total_failure());
    }

    #[test]
    fn on_resolve_fires_per_cell() {
        let cells: Vec<CellId> = (1..=5).map(cell).collect();
        let mut seen = Vec::new();
        let _ = run_batch(
            &cells,
            Arc::new(|c: &CellId| Ok(fake_result(c))),
            &BatchPolicy::default(),
            |c, s| {
                assert!(s.result().is_some());
                seen.push(c.seed);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panic_message_extracts_strs_and_strings() {
        let p: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(p.as_ref()), "boom");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(p.as_ref()), "kaboom");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn scoped_batch_isolates_panics_in_input_order() {
        let cells: Vec<CellId> = (1..=4).map(cell).collect();
        let outcomes = run_batch_scoped(&cells, 2, 1, Duration::ZERO, &|c: &CellId| {
            if c.seed == 3 {
                panic!("injected panic for seed {}", c.seed);
            }
            Ok(fake_result(c))
        });
        assert_eq!(outcomes.len(), 4);
        for (i, (outcome, attempts)) in outcomes.iter().enumerate() {
            let seed = i as u64 + 1;
            if seed == 3 {
                let err = outcome.as_ref().unwrap_err();
                assert_eq!(err.kind, FailureKind::Panic);
                assert!(err.message.contains("injected panic for seed 3"), "{err}");
                assert_eq!(*attempts, 1, "deterministic panics are not retried");
            } else {
                assert_eq!(outcome.as_ref().unwrap().seed, seed);
            }
        }
    }

    #[test]
    fn resolve_cell_retries_only_retryable_kinds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let (outcome, attempts) = resolve_cell(
            &|_: &CellId| -> Result<SimResult, CellError> {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(CellError::trace_io("disk flake"))
            },
            &cell(1),
            3,
            Duration::from_millis(1),
            |_| {},
        );
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(attempts, 3);
        assert_eq!(outcome.unwrap_err().kind, FailureKind::TraceIo);

        let calls = AtomicU32::new(0);
        let (outcome, attempts) = resolve_cell(
            &|_: &CellId| -> Result<SimResult, CellError> {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("deterministic bug");
            },
            &cell(1),
            3,
            Duration::from_millis(1),
            |_| {},
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "panics must not retry");
        assert_eq!(attempts, 1);
        assert_eq!(outcome.unwrap_err().kind, FailureKind::Panic);
    }
}
