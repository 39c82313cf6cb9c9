//! Driving one search through the public builder API, probed, and the
//! helpers the workloads share: configuration rendering, output scans and
//! digests.

use crate::probe::{Ledger, LedgerSink, Probe, ProbedBackend, ProbedFs, ProbedMeasurement};
use gest_core::{
    EvalBackend, EvalCacheStats, GestConfig, GestError, GestRun, LocalBackend, Measurement,
    OutputWriter, Registry, SurrogateOptions, SurrogateStats,
};
use gest_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

const DIDT_XML: &str = include_str!("../configs/didt.xml");
const ARM_XML: &str = include_str!("../configs/arm.xml");

/// One search configuration, rendered to the XML a user would write.
#[derive(Debug, Clone)]
pub struct Spec {
    pub machine: &'static str,
    pub measurement: &'static str,
    pub population: usize,
    pub individual: usize,
    pub generations: u32,
    pub seed: u64,
    pub max_iterations: u64,
    pub max_cycles: u64,
    pub checkpoint_every: Option<u32>,
    pub output: Option<PathBuf>,
}

impl Spec {
    pub fn xml(&self) -> String {
        let template = if self.machine == "athlon-x4" {
            DIDT_XML
        } else {
            ARM_XML
        };
        let checkpoint = self.checkpoint_every.map_or(String::new(), |every| {
            format!(" checkpoint_every=\"{every}\"")
        });
        let output = self.output.as_ref().map_or(String::new(), |dir| {
            format!("\n  <output dir=\"{}\"/>", dir.display())
        });
        template
            .replace("{machine}", self.machine)
            .replace("{measurement}", self.measurement)
            .replace("{population}", &self.population.to_string())
            .replace("{individual}", &self.individual.to_string())
            .replace("{generations}", &self.generations.to_string())
            .replace("{seed}", &self.seed.to_string())
            .replace("{max_iterations}", &self.max_iterations.to_string())
            .replace("{max_cycles}", &self.max_cycles.to_string())
            .replace("{checkpoint}", &checkpoint)
            .replace("{output}", &output)
    }
}

/// What one search did.
pub struct SearchOutcome {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Summed wall time of the `step()` calls (traced rounds only).
    pub step_s: f64,
    pub candidates: u64,
    pub best_fitness: f64,
    pub digest: u64,
    pub cache: Option<EvalCacheStats>,
    pub surrogate: Option<SurrogateStats>,
    pub ledger: Ledger,
}

/// The measurement and backend a run would build by default, probed.
pub struct Probed {
    pub measurement: Arc<dyn Measurement>,
    pub backend: Arc<dyn EvalBackend>,
}

/// The measurement a run would resolve from its configuration and a
/// [`LocalBackend`] over it, both probed.
pub fn probed(config: &GestConfig, probe: &Arc<Probe>) -> Result<Probed, GestError> {
    let measurement = Registry::default().build_measurement(
        &config.measurement_name,
        config.machine.clone(),
        config.run_config,
    )?;
    let measurement: Arc<dyn Measurement> = Arc::new(ProbedMeasurement::new(
        measurement,
        Arc::clone(probe),
        config.machine.clock_hz,
    ));
    let local = LocalBackend::new(
        Arc::clone(&measurement),
        config.template.clone(),
        config.threads,
    )
    .with_lane_width(config.lane_width);
    let backend: Arc<dyn EvalBackend> =
        Arc::new(ProbedBackend::new(Arc::new(local), Arc::clone(probe)));
    Ok(Probed {
        measurement,
        backend,
    })
}

/// Sets up a search from its configuration XML (parse and
/// `GestRun::build`) and, unless `setup_only`, steps it to its generation
/// budget.
pub fn run_search(
    xml: &str,
    surrogate: Option<SurrogateOptions>,
    probe: &Arc<Probe>,
    traced: bool,
    setup_only: bool,
) -> Result<SearchOutcome, GestError> {
    let sink = Arc::new(LedgerSink::default());
    let telemetry = if traced {
        Telemetry::new(Arc::clone(&sink) as Arc<dyn gest_telemetry::Sink>)
    } else {
        Telemetry::disabled()
    };
    let setup_started = Instant::now();
    let config = GestConfig::from_xml_str(xml)?;
    let population = config.ga.population_size as u64;
    let Probed {
        measurement,
        backend,
    } = probed(&config, probe)?;
    let mut builder = GestRun::builder()
        .config(config)
        .measurement(measurement)
        .eval_backend(backend)
        .write_fs(Arc::new(ProbedFs::new(Arc::clone(probe))))
        .telemetry(telemetry);
    if let Some(options) = surrogate {
        builder = builder.surrogate(options);
    }
    let mut run = builder.build()?;
    let setup_s = setup_started.elapsed().as_secs_f64();
    let mut step_s = 0.0;
    let started = Instant::now();
    if !setup_only {
        while !run.is_complete() {
            if traced {
                let step_started = Instant::now();
                run.step()?;
                step_s += step_started.elapsed().as_secs_f64();
            } else {
                run.step()?;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let candidates = u64::from(run.generation()) * population;
    let mut digest = Digest::new();
    let best_fitness = match run.best() {
        Some(best) => {
            digest.f64(best.fitness);
            for &value in &best.measurements {
                digest.f64(value);
            }
            best.fitness
        }
        None => f64::NAN,
    };
    if let Some(population) = run.population() {
        for individual in &population.individuals {
            digest.f64(individual.fitness);
        }
    }
    let cache = run.eval_cache_stats();
    let surrogate = run.surrogate_stats();
    run.finish();
    drop(run);
    Ok(SearchOutcome {
        setup_s,
        wall_s,
        step_s,
        candidates,
        best_fitness,
        digest: digest.finish(),
        cache,
        surrogate,
        ledger: sink.take(),
    })
}

/// FNV-1a over the values that must repeat bit for bit.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The output layer's files: the paper's per-individual sources and the
/// population files.
fn is_output(name: &str) -> bool {
    name.ends_with(".txt") && name != "template.txt"
        || name.starts_with("population_") && name.ends_with(".bin")
}

/// Output-layer files and bytes written into `dir` since `since`, and a
/// digest of those population files in generation order. Rounds rewrite
/// the same directory, so the modification time tells this round's files
/// apart; a file a round failed to rewrite drops out of the counts.
pub fn scan_outputs(dir: &Path, since: SystemTime) -> Result<(u64, u64, u64), GestError> {
    let fresh = |meta: &std::fs::Metadata| meta.modified().is_ok_and(|t| t >= since);
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if is_output(&entry.file_name().to_string_lossy()) && fresh(&meta) {
            files += 1;
            bytes += meta.len();
        }
    }
    let mut digest = Digest::new();
    for path in OutputWriter::population_files(dir)? {
        if fresh(&std::fs::metadata(&path)?) {
            digest.bytes(&std::fs::read(&path)?);
        }
    }
    Ok((files, bytes, digest.finish()))
}

/// Deterministic seed derivation (SplitMix64).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000
}
