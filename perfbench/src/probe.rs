//! Wrappers around the program's public seams: a [`Measurement`] and an
//! [`EvalBackend`] that time and check every simulator run, a [`WriteFs`]
//! that counts persistence writes, and a telemetry [`Sink`] that folds the
//! program's own spans into a per-layer ledger.
//!
//! Every wrapper delegates each trait method, including the batch paths,
//! `content_pure` and `lane_width`, so a probed run takes the code path an
//! unprobed one would. The wrappers are installed in untraced rounds too,
//! with timing off: the difference between the two arms is then exactly
//! the clock reads and the telemetry pipeline.

use gest_core::{
    EvalBackend, EvalRequest, GestError, MeasuredBatch, Measurement, RealFs, WriteFs,
    CHECKPOINT_FILE,
};
use gest_isa::Program;
use gest_serve::registry::{INDEX_FILE, RUN_MANIFEST_FILE};
use gest_sim::RunResult;
use gest_telemetry::{Event, Sink};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Relative tolerance of the `RunResult` invariants. The simulator derives
/// each side from the same integers, so only float rounding separates them.
const INVARIANT_RTOL: f64 = 1e-9;

/// Counters shared by every wrapper of one benchmark round. Counts are
/// always kept (they are the exact work the round did); durations only
/// when `timed`.
#[derive(Debug, Default)]
pub struct Probe {
    timed: bool,
    pub sim_runs: AtomicU64,
    pub sim_instructions: AtomicU64,
    pub sim_cycles: AtomicU64,
    pub sim_ns: AtomicU64,
    pub sim_errors: AtomicU64,
    pub eval_calls: AtomicU64,
    pub eval_ns: AtomicU64,
    pub checkpoint_writes: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    pub registry_writes: AtomicU64,
    pub registry_ns: AtomicU64,
    /// Backend time per candidate, in microseconds (timed rounds only).
    candidate_us: Mutex<Vec<f64>>,
    violations: AtomicU64,
    first_violation: Mutex<Option<String>>,
}

impl Probe {
    pub fn new(timed: bool) -> Arc<Probe> {
        Arc::new(Probe {
            timed,
            ..Probe::default()
        })
    }

    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn elapsed_ns(started: Option<Instant>) -> u64 {
        started.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// Records a failed output check.
    pub fn violation(&self, message: String) {
        self.violations.fetch_add(1, Ordering::Relaxed);
        let mut first = self.first_violation.lock().expect("probe lock");
        if first.is_none() {
            *first = Some(message);
        }
    }

    pub fn violations(&self) -> (u64, Option<String>) {
        (
            self.violations.load(Ordering::Relaxed),
            self.first_violation.lock().expect("probe lock").clone(),
        )
    }

    pub fn candidate_us(&self) -> Vec<f64> {
        self.candidate_us.lock().expect("probe lock").clone()
    }

    fn sim_result(&self, result: &Result<(Vec<f64>, Option<RunResult>), GestError>, clock_hz: f64) {
        match result {
            Ok((_, Some(run))) => {
                self.sim_runs.fetch_add(1, Ordering::Relaxed);
                self.sim_instructions
                    .fetch_add(run.instructions, Ordering::Relaxed);
                self.sim_cycles.fetch_add(run.cycles, Ordering::Relaxed);
                if let Err(message) = check_run(run, clock_hz) {
                    self.violation(format!("{}: {message}", run.name));
                }
            }
            Ok((_, None)) => {
                self.violation("a sim-backed measurement returned no RunResult".into())
            }
            Err(_) => {
                self.sim_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= INVARIANT_RTOL * a.abs().max(b.abs()).max(1e-300)
}

/// The physical invariants every simulator result must satisfy.
fn check_run(run: &RunResult, clock_hz: f64) -> Result<(), String> {
    let instructions = run.instructions as f64;
    let cycles = run.cycles as f64;
    if !close(run.ipc * cycles, instructions) {
        return Err(format!(
            "ipc*cycles = {} but instructions = {}",
            run.ipc * cycles,
            run.instructions
        ));
    }
    if run.peak_power_w.is_nan() || run.peak_power_w < run.avg_power_w {
        return Err(format!(
            "peak power {} W below average {} W",
            run.peak_power_w, run.avg_power_w
        ));
    }
    let energy = run.avg_power_w * cycles / clock_hz;
    if !close(run.energy_j, energy) {
        return Err(format!(
            "energy {} J but avg power x cycles / f = {energy} J",
            run.energy_j
        ));
    }
    Ok(())
}

/// A [`Measurement`] that times, counts and checks every simulator run.
#[derive(Debug)]
pub struct ProbedMeasurement {
    inner: Arc<dyn Measurement>,
    probe: Arc<Probe>,
    clock_hz: f64,
}

impl ProbedMeasurement {
    pub fn new(inner: Arc<dyn Measurement>, probe: Arc<Probe>, clock_hz: f64) -> Self {
        ProbedMeasurement {
            inner,
            probe,
            clock_hz,
        }
    }
}

impl Measurement for ProbedMeasurement {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn metrics(&self) -> &'static [&'static str] {
        self.inner.metrics()
    }

    /// Routed through the detailed path, so that every run is counted and
    /// checked whichever entry point a caller uses.
    fn measure(&self, program: &Program) -> Result<Vec<f64>, GestError> {
        self.measure_detailed(program).map(|(values, _)| values)
    }

    fn measure_detailed(
        &self,
        program: &Program,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let started = self.probe.start();
        let result = self.inner.measure_detailed(program);
        self.probe
            .sim_ns
            .fetch_add(Probe::elapsed_ns(started), Ordering::Relaxed);
        self.probe.sim_result(&result, self.clock_hz);
        result
    }

    fn measure_batch_detailed(&self, programs: &[Program]) -> MeasuredBatch {
        let started = self.probe.start();
        let results = self.inner.measure_batch_detailed(programs);
        self.probe
            .sim_ns
            .fetch_add(Probe::elapsed_ns(started), Ordering::Relaxed);
        for result in &results {
            self.probe.sim_result(result, self.clock_hz);
        }
        results
    }

    fn content_pure(&self) -> bool {
        self.inner.content_pure()
    }
}

/// An [`EvalBackend`] that times every candidate the runner hands over.
#[derive(Debug)]
pub struct ProbedBackend {
    inner: Arc<dyn EvalBackend>,
    probe: Arc<Probe>,
}

impl ProbedBackend {
    pub fn new(inner: Arc<dyn EvalBackend>, probe: Arc<Probe>) -> Self {
        ProbedBackend { inner, probe }
    }

    fn record(&self, started: Option<Instant>, candidates: usize) {
        self.probe
            .eval_calls
            .fetch_add(candidates as u64, Ordering::Relaxed);
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            self.probe.eval_ns.fetch_add(ns, Ordering::Relaxed);
            let per_candidate_us = ns as f64 / 1e3 / candidates.max(1) as f64;
            let mut samples = self.probe.candidate_us.lock().expect("probe lock");
            samples.extend(std::iter::repeat_n(per_candidate_us, candidates));
        }
    }
}

impl EvalBackend for ProbedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn slots(&self, pending: usize) -> usize {
        self.inner.slots(pending)
    }

    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        let started = self.probe.start();
        let result = self.inner.measure(slot, request);
        self.record(started, 1);
        result
    }

    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        let started = self.probe.start();
        let results = self.inner.measure_batch(slot, requests);
        self.record(started, requests.len());
        results
    }
}

/// A [`WriteFs`] over the real filesystem that splits persistence writes
/// into the checkpoint layer (manifest and sidecars) and the serve
/// registry (run manifests and the run index).
#[derive(Debug)]
pub struct ProbedFs {
    probe: Arc<Probe>,
}

impl ProbedFs {
    pub fn new(probe: Arc<Probe>) -> Self {
        ProbedFs { probe }
    }
}

impl WriteFs for ProbedFs {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let started = self.probe.start();
        let result = RealFs.write_atomic(path, bytes);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == RUN_MANIFEST_FILE || name == INDEX_FILE {
            self.probe.registry_writes.fetch_add(1, Ordering::Relaxed);
            self.probe
                .registry_ns
                .fetch_add(Probe::elapsed_ns(started), Ordering::Relaxed);
        } else {
            if name == CHECKPOINT_FILE {
                self.probe.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
            }
            self.probe
                .checkpoint_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        result
    }
}

/// Per-layer totals folded from the program's telemetry events.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Open spans: id → (name, parent).
    open: HashMap<u64, (String, Option<u64>)>,
    /// Total seconds per span name.
    pub span_s: BTreeMap<String, f64>,
    /// Seconds of `checkpoint` spans nested in a `generation` span (the
    /// periodic checkpoints of a step, as opposed to eviction ones).
    pub checkpoint_in_step_s: f64,
    /// Point events per name.
    pub points: BTreeMap<String, u64>,
    /// Last value of each counter.
    pub counters: BTreeMap<String, u64>,
    /// Size of the events as JSONL.
    pub bytes: u64,
}

impl Ledger {
    pub fn event(&mut self, event: &Event) {
        match event {
            Event::SpanStart {
                id, parent, name, ..
            } => {
                self.open.insert(*id, (name.clone(), *parent));
            }
            Event::SpanEnd {
                id, name, dur_us, ..
            } => {
                let seconds = *dur_us as f64 / 1e6;
                *self.span_s.entry(name.clone()).or_default() += seconds;
                if let Some((_, parent)) = self.open.remove(id) {
                    let in_step = parent
                        .and_then(|p| self.open.get(&p))
                        .is_some_and(|(parent_name, _)| parent_name == "generation");
                    if name == "checkpoint" && in_step {
                        self.checkpoint_in_step_s += seconds;
                    }
                }
            }
            Event::Point { name, .. } => {
                *self.points.entry(name.clone()).or_default() += 1;
            }
            Event::Counter { name, value } => {
                self.counters.insert(name.clone(), *value);
            }
            _ => {}
        }
    }

    pub fn span(&self, name: &str) -> f64 {
        self.span_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds a `run_trace.jsonl` file written by the program.
    pub fn read_trace(&mut self, path: &Path) -> std::io::Result<()> {
        let text = std::fs::read_to_string(path)?;
        for line in text.lines() {
            self.bytes += line.len() as u64 + 1;
            let parsed = gest_telemetry::json::Value::parse(line)
                .ok()
                .and_then(|value| Event::from_json(&value));
            if let Some(event) = parsed {
                self.event(&event);
            }
        }
        Ok(())
    }
}

/// An in-memory telemetry sink feeding a [`Ledger`]. Each event is also
/// rendered as its JSONL line, the cost a trace file would pay.
#[derive(Debug, Default)]
pub struct LedgerSink {
    ledger: Mutex<Ledger>,
}

impl LedgerSink {
    pub fn take(&self) -> Ledger {
        std::mem::take(&mut *self.ledger.lock().expect("ledger lock"))
    }
}

impl Sink for LedgerSink {
    fn event(&self, event: &Event) {
        let mut line = String::new();
        event.to_json().write(&mut line);
        let mut ledger = self.ledger.lock().expect("ledger lock");
        ledger.bytes += line.len() as u64 + 1;
        ledger.event(event);
    }
}
