//! The three workloads. A workload runs rounds: each round is one fixed
//! search budget derived from the workload seed, so every round of a seed
//! does the same work and must produce bit-identical outputs.

use crate::probe::{Ledger, Probe, ProbedFs};
use crate::search::{derive_seed, probed, run_search, scan_outputs, Digest, SearchOutcome, Spec};
use gest_core::{
    sim_fast_path_stats, Checkpoint, GestConfig, GestError, SimFastPathStats, SurrogateMode,
    SurrogateOptions, CHECKPOINT_FILE,
};
use gest_serve::scheduler::TRACE_FILE;
use gest_serve::{BackendFactory, ServeOptions, ServeServer};
use gest_telemetry::json::Value;
use gest_telemetry::{NoopSink, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// What one round did and how long it took.
#[derive(Debug, Default)]
pub struct Round {
    /// Mean time of one set-up over the set-up batches timed in the round,
    /// outside its timed search (untraced rounds only).
    pub setup_s: f64,
    pub wall_s: f64,
    /// Candidates given a fitness: simulated, served from the cache or
    /// screened.
    pub candidates: u64,
    /// Start-to-done time of each search in the round.
    pub latencies_s: Vec<f64>,
    /// Best measured fitness (mean over the round's searches).
    pub best_fitness: f64,
    /// Digest of best fitness, measurement vectors and population files.
    pub digest: u64,
    /// Exact work counts.
    pub work: BTreeMap<&'static str, u64>,
    /// Per-layer metrics (traced rounds only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted (candidate evaluations, or serve runs) and
    /// how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Peak resident memory of the process during the round's searches.
    pub peak_rss_mb: f64,
}

/// A workload that writes artifacts rewrites the same output directories
/// in every round and deletes only the checkpoints a run would resume
/// from until the process ends: on ext4 with online discard, creating
/// files that reuse recently freed inodes is up to ~30 times slower than
/// creating fresh ones, so per-round directories and their clean-up would
/// measure the filesystem's inode recycling. The untimed warm-up round
/// creates the files; timed rounds overwrite them.
///
/// Set-up is timed apart from the searches, in batches spread over every
/// untraced round: one set-up's time shifts by up to a factor of two from
/// one moment to the next, so each round's figure is the mean over batches
/// taken at several moments, and `setup_s` is the median over rounds.
pub trait Workload {
    fn round(&mut self, work: &Path, index: usize, traced: bool) -> Result<Round, GestError>;

    /// Work counts that depend on scheduling, not on the seed alone.
    fn schedule_dependent(&self) -> &'static [&'static str] {
        &[]
    }
}

/// The workload `name` for `seed`, keeping its files under `work`.
pub fn by_name(name: &str, seed: u64, work: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold_didt" => Box::new(FreshSearches::cold_didt(seed)),
        "serve_tenants" => Box::new(ServeTenants::new(seed, work)),
        "screened_mix" => Box::new(FreshSearches::screened_mix(seed)),
        _ => return None,
    })
}

pub const WORKLOADS: [&str; 3] = ["cold_didt", "serve_tenants", "screened_mix"];

fn slots() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// The `q` quantile of `values`, interpolating between neighbours (so the
/// 0.5 quantile of an even count is the mean of the middle two); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// Resets the kernel's peak-resident-set mark of this process, so the
/// next reading covers only what follows. Where the kernel refuses, the
/// reading stays the process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, from `/proc/self/status`.
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn fast_path_delta(before: SimFastPathStats) -> (u64, u64) {
    let after = sim_fast_path_stats();
    (
        after.steady_hits - before.steady_hits,
        after.extrapolated_iterations - before.extrapolated_iterations,
    )
}

/// Work counts and failures every round reads off its probe; the number of
/// candidate measurements that failed or broke an invariant.
fn probe_counts(round: &mut Round, probe: &Probe, steady: (u64, u64)) -> u64 {
    let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed);
    round.work.insert("sim.runs", load(&probe.sim_runs));
    round
        .work
        .insert("sim.instructions", load(&probe.sim_instructions));
    round.work.insert("sim.cycles", load(&probe.sim_cycles));
    round.work.insert("sim.steady_hits", steady.0);
    round.work.insert("sim.extrapolated_iterations", steady.1);
    round
        .work
        .insert("checkpoint.writes", load(&probe.checkpoint_writes));
    round
        .work
        .insert("checkpoint.bytes", load(&probe.checkpoint_bytes));
    let (violations, first) = probe.violations();
    if violations > 0 {
        round.failures.push(format!(
            "{violations} simulator result(s) broke an invariant; first: {}",
            first.unwrap_or_default()
        ));
    }
    let errors = load(&probe.sim_errors);
    if errors > 0 {
        round
            .failures
            .push(format!("{errors} candidate measurement(s) failed"));
    }
    violations + errors
}

/// Span totals of the program's run layers.
#[derive(Default)]
struct Spans {
    step_s: f64,
    breed_s: f64,
    evaluate_s: f64,
    save_s: f64,
    checkpoint_s: f64,
    checkpoint_in_step_s: f64,
    resumes: u64,
    trace_bytes: u64,
}

impl Spans {
    fn add(&mut self, ledger: &Ledger) {
        self.breed_s += ledger.span("breed");
        self.evaluate_s += ledger.span("evaluate");
        self.save_s += ledger.span("save");
        self.checkpoint_s += ledger.span("checkpoint");
        self.checkpoint_in_step_s += ledger.checkpoint_in_step_s;
        self.resumes += ledger.points.get("resume").copied().unwrap_or(0);
        self.trace_bytes += ledger.bytes;
    }
}

/// The per-layer metrics every workload reports; layers a workload does
/// not exercise read zero.
fn layer_metrics(round: &mut Round, probe: &Probe, spans: &Spans) {
    let ns = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed) as f64;
    let sim_s = ns(&probe.sim_ns) / 1e9;
    let eval_s = ns(&probe.eval_ns) / 1e9;
    let instructions = ns(&probe.sim_instructions);
    let candidate_ms: Vec<f64> = probe.candidate_us().iter().map(|us| us / 1e3).collect();
    let work = |name: &str| round.work.get(name).copied().unwrap_or(0) as f64;
    let hits = work("evalcache.hits");
    let lookups = hits + work("evalcache.misses");
    let screened = work("surrogate.screened");
    let mut layers: Vec<(&'static str, f64)> = vec![
        ("ga.breed_s", spans.breed_s),
        ("isa.materialize_s", (eval_s - sim_s).max(0.0)),
        ("sim.busy_s", sim_s),
        (
            "sim.ns_per_instr",
            if instructions > 0.0 {
                sim_s * 1e9 / instructions
            } else {
                0.0
            },
        ),
        ("eval.calls", ns(&probe.eval_calls)),
        ("eval.busy_s", eval_s),
        (
            "eval.slot_utilization",
            if spans.evaluate_s > 0.0 {
                eval_s / (slots() * spans.evaluate_s)
            } else {
                0.0
            },
        ),
        ("eval.candidate_p50_ms", quantile(&candidate_ms, 0.50)),
        ("eval.candidate_p99_ms", quantile(&candidate_ms, 0.99)),
        (
            "evalcache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("runner.step_s", spans.step_s),
        (
            "runner.self_s",
            spans.step_s
                - spans.breed_s
                - spans.evaluate_s
                - spans.save_s
                - spans.checkpoint_in_step_s,
        ),
        ("output.save_s", spans.save_s),
        ("checkpoint.write_s", spans.checkpoint_s),
        ("checkpoint.resumes", spans.resumes as f64),
        (
            "surrogate.screen_ratio",
            if round.candidates > 0 {
                screened / round.candidates as f64
            } else {
                0.0
            },
        ),
        ("telemetry.trace_bytes", spans.trace_bytes as f64),
    ];
    for (name, value) in &round.work {
        layers.push((name, *value as f64));
    }
    round.layers.extend(layers);
}

/// Folds in-process search outcomes into a round.
fn search_round(
    outcomes: Vec<SearchOutcome>,
    probe: &Probe,
    steady: (u64, u64),
    traced: bool,
) -> Round {
    let searches = outcomes.len() as f64;
    let mut round = Round::default();
    let mut digest = Digest::new();
    let mut spans = Spans::default();
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    let (mut screened, mut simulated, mut spearman) = (0, 0, Vec::new());
    for outcome in &outcomes {
        round.wall_s += outcome.wall_s;
        round.candidates += outcome.candidates;
        round.latencies_s.push(outcome.wall_s);
        round.best_fitness += outcome.best_fitness / searches;
        digest.u64(outcome.digest);
        if let Some(cache) = outcome.cache {
            hits += cache.hits;
            misses += cache.misses;
            evictions += cache.evictions;
        }
        if let Some(stats) = outcome.surrogate {
            screened += stats.screened;
            simulated += stats.simulated;
            spearman.extend(stats.spearman);
        }
        spans.step_s += outcome.step_s;
        spans.add(&outcome.ledger);
    }
    round.work.insert("evalcache.hits", hits);
    round.work.insert("evalcache.misses", misses);
    round.work.insert("evalcache.evictions", evictions);
    round.work.insert("surrogate.screened", screened);
    round.work.insert("surrogate.simulated", simulated);
    round.digest = digest.finish();
    round.attempted = round.candidates;
    round.failed = probe_counts(&mut round, probe, steady);
    if traced {
        layer_metrics(&mut round, probe, &spans);
        let mean_spearman = if spearman.is_empty() {
            0.0
        } else {
            spearman.iter().sum::<f64>() / spearman.len() as f64
        };
        round.layers.insert("surrogate.spearman", mean_spearman);
    }
    round
}

/// Searches per round of the in-process workloads: each round runs one
/// search per seed derived from the workload seed, so a round's figures
/// average over several search trajectories instead of following one.
const DIDT_SEARCHES: u64 = 8;
/// Set-ups of every search configuration in one set-up batch.
const SEARCH_SETUP_REPEATS: usize = 4;

/// Fresh in-process searches run one after another.
pub struct FreshSearches {
    xmls: Vec<String>,
    surrogate: Option<SurrogateOptions>,
}

impl FreshSearches {
    /// dI/dt searches on the Athlon model: bred candidates are mostly
    /// novel, so the simulator's pipeline and PDN integration dominate;
    /// no output directory.
    fn cold_didt(seed: u64) -> FreshSearches {
        let xmls = (0..DIDT_SEARCHES)
            .map(|k| {
                Spec {
                    machine: "athlon-x4",
                    measurement: "voltage_noise",
                    population: 48,
                    individual: 46,
                    generations: 24,
                    seed: derive_seed(seed, k),
                    max_iterations: 200,
                    max_cycles: 12_000,
                    checkpoint_every: None,
                    output: None,
                }
                .xml()
            })
            .collect();
        FreshSearches {
            xmls,
            surrogate: None,
        }
    }

    /// Surrogate-screened searches, one per machine and measurement of
    /// the a15/a7/xgene2 × power/ipc/temperature mix.
    fn screened_mix(seed: u64) -> FreshSearches {
        let xmls = (0..9)
            .map(|i| {
                Spec {
                    machine: MACHINES[i % 3],
                    measurement: MEASUREMENTS[i / 3],
                    population: 48,
                    individual: 50,
                    generations: 30,
                    seed: derive_seed(seed, i as u64),
                    max_iterations: 120,
                    max_cycles: 6_000,
                    checkpoint_every: None,
                    output: None,
                }
                .xml()
            })
            .collect();
        FreshSearches {
            xmls,
            surrogate: Some(SurrogateOptions {
                mode: SurrogateMode::Screen,
                ..SurrogateOptions::default()
            }),
        }
    }

    /// One set-up batch: the mean time of one set-up.
    fn setup_batch(&self) -> Result<f64, GestError> {
        let probe = Probe::new(false);
        let mut total = 0.0;
        for _ in 0..SEARCH_SETUP_REPEATS {
            for xml in &self.xmls {
                total += run_search(xml, self.surrogate, &probe, false, true)?.setup_s;
            }
        }
        Ok(total / (SEARCH_SETUP_REPEATS * self.xmls.len()) as f64)
    }
}

impl Workload for FreshSearches {
    fn round(&mut self, _work: &Path, _index: usize, traced: bool) -> Result<Round, GestError> {
        let probe = Probe::new(traced);
        let before = sim_fast_path_stats();
        let mut outcomes = Vec::with_capacity(self.xmls.len());
        let (mut setup_s, mut peak_rss_mb) = (0.0, 0.0_f64);
        for xml in &self.xmls {
            reset_peak_rss();
            outcomes.push(run_search(xml, self.surrogate, &probe, traced, false)?);
            peak_rss_mb = peak_rss_mb.max(read_peak_rss_mb());
            if !traced {
                setup_s += self.setup_batch()? / self.xmls.len() as f64;
            }
        }
        let steady = fast_path_delta(before);
        let mut round = search_round(outcomes, &probe, steady, traced);
        round.setup_s = setup_s;
        round.peak_rss_mb = peak_rss_mb;
        Ok(round)
    }
}

/// The filesystem's current time, read back from a marker file (file
/// times come from a coarser clock than `SystemTime::now`).
fn fs_now(work: &Path) -> Result<SystemTime, GestError> {
    let marker = work.join("round.stamp");
    std::fs::write(&marker, b"")?;
    Ok(std::fs::metadata(&marker)?.modified()?)
}

const MACHINES: [&str; 3] = ["cortex-a15", "cortex-a7", "xgene2"];
const MEASUREMENTS: [&str; 3] = ["power", "ipc", "temperature"];

/// Distinct tenant configurations, each submitted once, and how many of
/// them (the first ones) are submitted a second time. Many distinct
/// configurations keep a round's work close to its mean over seeds; the
/// duplicates are runs that could share an eval cache.
const SERVE_CONFIGS: usize = 20;
const SERVE_DUPLICATES: usize = 4;
/// Generations a run advances per scheduling slice.
const SERVE_PRIORITY: u32 = 2;
/// Population and generations of every tenant.
const TENANT_POPULATION: usize = 16;
const TENANT_GENERATIONS: u32 = 10;
const TENANT_CANDIDATES: u64 = TENANT_POPULATION as u64 * TENANT_GENERATIONS as u64;
const SERVE_POLL: Duration = Duration::from_millis(20);
const SERVE_TIMEOUT: Duration = Duration::from_secs(150);
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-up batches after each round, and services started (and running at
/// once) in one batch: more at once would leave thread stacks and
/// allocator arenas behind that the rounds never need, and the next
/// round's `peak_rss_mb` would include them.
const SERVE_SETUP_BATCHES: usize = 16;
const SERVE_SETUP_BATCH: usize = 2;

/// Short mixed searches submitted at once over loopback HTTP to an
/// in-process service that may keep only one run resident, so runs are
/// evicted to their checkpoints and rehydrated from them.
pub struct ServeTenants {
    seed: u64,
    /// Each tenant's configuration and output directory.
    tenants: Vec<(String, PathBuf)>,
}

impl ServeTenants {
    fn new(seed: u64, work: &Path) -> ServeTenants {
        let tenants = (0..SERVE_CONFIGS + SERVE_DUPLICATES)
            .map(|t| {
                let i = t % SERVE_CONFIGS;
                let dir = work.join(format!("tenant_{t}"));
                // The long simulator window keeps the per-candidate file
                // writes, whose cost swings widely from run to run on a
                // virtual disk, to about a fifth of the step time.
                let spec = Spec {
                    machine: MACHINES[i % 3],
                    measurement: MEASUREMENTS[(i / 3) % 3],
                    population: TENANT_POPULATION,
                    individual: 48,
                    generations: TENANT_GENERATIONS,
                    seed: derive_seed(seed, 100 + i as u64),
                    max_iterations: 1_000,
                    max_cycles: 48_000,
                    checkpoint_every: Some(4),
                    output: Some(dir.clone()),
                };
                (spec.xml(), dir)
            })
            .collect();
        ServeTenants { seed, tenants }
    }

    /// Service options: one resident run (the backend factory's lease
    /// then covers every activation, so every evaluation passes the
    /// probe), probed persistence, and the registry-only telemetry handle
    /// the service would otherwise create itself, so that the caller can
    /// read the scheduler's counters.
    fn options(&self, dir: &Path, probe: &Arc<Probe>) -> ServeOptions {
        let mut options = ServeOptions::new(dir);
        options.max_active = 1;
        options.id_seed = self.seed;
        options.write_fs = Arc::new(ProbedFs::new(Arc::clone(probe)));
        options.telemetry = Telemetry::new(Arc::new(NoopSink));
        let factory_probe = Arc::clone(probe);
        let factory: BackendFactory = Arc::new(move |xml: &str| {
            let config = GestConfig::from_xml_str(xml)?;
            Ok(probed(&config, &factory_probe)?.backend)
        });
        options.backend_factory = Some(factory);
        options
    }

    /// One set-up batch: the mean time of one `ServeServer::start`.
    fn setup_batch(&self, work: &Path) -> Result<f64, GestError> {
        let probe = Probe::new(false);
        let mut total = 0.0;
        let mut servers = Vec::with_capacity(SERVE_SETUP_BATCH);
        for k in 0..SERVE_SETUP_BATCH {
            // Every batch starts services on the same (empty) state
            // directories, so the disk sees no new directories after the
            // first batch.
            let options = self.options(&work.join(format!("setup_{k}")), &probe);
            let started = Instant::now();
            servers.push(ServeServer::start("127.0.0.1:0", options)?);
            total += started.elapsed().as_secs_f64();
        }
        // A shutdown waits out the accept loop's poll period; shutting the
        // services down in parallel waits it out once.
        std::thread::scope(|scope| {
            for mut server in servers {
                scope.spawn(move || server.shutdown());
            }
        });
        Ok(total / SERVE_SETUP_BATCH as f64)
    }
}

/// `(id, state)` of every run in a `GET /runs` reply.
fn run_states(body: &str) -> Result<Vec<(String, String)>, GestError> {
    let bad = || GestError::Config(format!("unexpected GET /runs reply: {body}"));
    let value = Value::parse(body).map_err(|_| bad())?;
    value
        .as_arr()
        .ok_or_else(bad)?
        .iter()
        .map(|run| {
            let field = |key: &str| run.get(key).and_then(Value::as_str).map(str::to_string);
            Some((field("id")?, field("state")?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)
}

/// One request to the service: the reply's status and body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), GestError> {
    let (status, body) = gest_obs::http_request(addr, method, path, body.as_bytes(), HTTP_TIMEOUT)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

impl Workload for ServeTenants {
    fn schedule_dependent(&self) -> &'static [&'static str] {
        &["checkpoint.writes", "checkpoint.bytes"]
    }

    fn round(&mut self, work: &Path, index: usize, traced: bool) -> Result<Round, GestError> {
        reset_peak_rss();
        // Tenants write into the previous round's directories: without its
        // checkpoint, the service starts each run afresh.
        for (_, dir) in &self.tenants {
            match std::fs::remove_file(dir.join(CHECKPOINT_FILE)) {
                Err(error) if error.kind() != std::io::ErrorKind::NotFound => {
                    return Err(error.into())
                }
                _ => {}
            }
        }
        let since = fs_now(work)?;
        let dir = work.join(format!("state_{index}"));
        let probe = Probe::new(traced);
        let options = self.options(&dir, &probe);
        let telemetry = options.telemetry.clone();
        let before = sim_fast_path_stats();
        let mut round = Round::default();

        let mut server = ServeServer::start("127.0.0.1:0", options)?;
        let addr = server.addr().to_string();

        let t0 = Instant::now();
        let mut submit_ms = Vec::new();
        let mut tenants: Vec<(String, PathBuf, Instant)> = Vec::new();
        for (xml, _) in &self.tenants {
            let sent = Instant::now();
            let (status, body) = request(
                &addr,
                "POST",
                &format!("/runs?priority={SERVE_PRIORITY}"),
                xml,
            )?;
            submit_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            if status != 201 {
                round.failed += 1;
                round
                    .failures
                    .push(format!("submission answered {status}: {}", body.trim()));
                continue;
            }
            let doc = Value::parse(&body)
                .map_err(|_| GestError::Config(format!("bad submit reply: {body}")))?;
            let field = |key: &str| doc.get(key).and_then(Value::as_str).map(str::to_string);
            match (field("id"), field("dir")) {
                (Some(id), Some(run_dir)) => tenants.push((id, PathBuf::from(run_dir), sent)),
                _ => {
                    round.failed += 1;
                    round.failures.push(format!("bad submit reply: {body}"));
                }
            }
        }

        let mut poll_ms = Vec::new();
        let mut ended: HashMap<String, (String, Instant)> = HashMap::new();
        while ended.len() < tenants.len() {
            if t0.elapsed() > SERVE_TIMEOUT {
                return Err(GestError::Config(format!(
                    "serve round timed out with {} of {} runs ended",
                    ended.len(),
                    tenants.len()
                )));
            }
            std::thread::sleep(SERVE_POLL);
            let sent = Instant::now();
            let (_, body) = request(&addr, "GET", "/runs", "")?;
            let seen = Instant::now();
            poll_ms.push((seen - sent).as_secs_f64() * 1e3);
            for (id, state) in run_states(&body)? {
                let terminal = matches!(
                    state.as_str(),
                    "done" | "failed" | "cancelled" | "quarantined" | "expired"
                );
                if terminal {
                    ended.entry(id).or_insert((state, seen));
                }
            }
        }
        round.wall_s = t0.elapsed().as_secs_f64();
        server.shutdown();
        round.peak_rss_mb = read_peak_rss_mb();
        let steady = fast_path_delta(before);
        if !traced {
            for _ in 0..SERVE_SETUP_BATCHES {
                round.setup_s += self.setup_batch(work)? / SERVE_SETUP_BATCHES as f64;
            }
        }

        let mut digest = Digest::new();
        let mut spans = Spans::default();
        let (mut files, mut bytes, mut hits, mut misses) = (0, 0, 0, 0);
        for (id, run_dir, submitted) in &tenants {
            let (state, seen) = &ended[id];
            if state != "done" {
                round.failed += 1;
                round.failures.push(format!("run {id} ended {state}"));
                continue;
            }
            round.latencies_s.push((*seen - *submitted).as_secs_f64());
            let best = Checkpoint::load(run_dir)?.best.ok_or_else(|| {
                GestError::Config(format!("run {id} finished without a best individual"))
            })?;
            round.best_fitness += best.fitness / tenants.len() as f64;
            digest.f64(best.fitness);
            for &value in &best.measurements {
                digest.f64(value);
            }
            let (run_files, run_bytes, population_digest) = scan_outputs(run_dir, since)?;
            files += run_files;
            bytes += run_bytes;
            digest.u64(population_digest);
            let mut ledger = Ledger::default();
            ledger.read_trace(&run_dir.join(TRACE_FILE))?;
            hits += ledger.counter("evalcache.hits");
            misses += ledger.counter("evalcache.misses");
            spans.step_s += ledger.span("generation");
            spans.add(&ledger);
            round.candidates += TENANT_CANDIDATES;
        }
        round.digest = digest.finish();
        round.attempted = self.tenants.len() as u64;
        round
            .work
            .insert("runs.done", round.latencies_s.len() as u64);
        round.work.insert("evalcache.hits", hits);
        round.work.insert("evalcache.misses", misses);
        round.work.insert("output.files", files);
        round.work.insert("output.bytes", bytes);
        round.work.insert("surrogate.screened", 0);
        round.work.insert("surrogate.simulated", 0);
        // A failed candidate measurement cannot be traced to its run, so
        // it fails every run of the round.
        if probe_counts(&mut round, &probe, steady) > 0 {
            round.failed = round.attempted;
        }
        if traced {
            layer_metrics(&mut round, &probe, &spans);
            let counter = |name: &str| telemetry.counter_value(name) as f64;
            round.layers.extend([
                ("serve.submit_p50_ms", quantile(&submit_ms, 0.5)),
                ("serve.poll_p50_ms", quantile(&poll_ms, 0.5)),
                ("serve.activations", counter("serve.activations")),
                ("serve.evictions", counter("serve.evictions")),
                ("serve.restarts", counter("serve.restarts")),
                (
                    "serve.registry_writes",
                    probe.registry_writes.load(Ordering::Relaxed) as f64,
                ),
                (
                    "serve.registry_write_s",
                    probe.registry_ns.load(Ordering::Relaxed) as f64 / 1e9,
                ),
                ("surrogate.spearman", 0.0),
            ]);
        }
        Ok(round)
    }
}
