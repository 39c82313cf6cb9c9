//! Property tests over the simulator: for arbitrary instruction mixes the
//! timing, power, and PDN models must uphold their physical invariants.

use gest_isa::{asm, Program, Template};
use gest_sim::{BatchScratch, MachineConfig, Pdn, PdnConfig, RunConfig, Simulator};
use proptest::prelude::*;

/// A strategy over small loop bodies drawn from a safe instruction menu.
fn body_strategy() -> impl Strategy<Value = Vec<String>> {
    let menu = prop::sample::select(vec![
        "ADD x1, x2, x3",
        "SUB x4, x5, x6",
        "EOR x7, x1, x2",
        "MUL x8, x2, x3",
        "SDIV x9, x2, x3",
        "FMUL v0, v1, v2",
        "FMLA v3, v4, v5",
        "VFMLA v6, v7, v1",
        "VEOR v2, v3, v4",
        "LDR x11, [x10, #8]",
        "STR x1, [x10, #16]",
        "LDP x12, x13, [x10, #32]",
        "VLDR v5, [x10, #64]",
        "CBNZ x1, #2",
        "B #1",
        "NOP",
    ]);
    prop::collection::vec(menu.prop_map(str::to_owned), 1..32)
}

/// The PDN integrator in its textbook division form — `(…)/L·dt` and
/// `(…)/C·dt` on every step — as the reference the division-free
/// [`Pdn::step`] must track.
struct DivisionPdn {
    config: PdnConfig,
    dt_s: f64,
    i_l: f64,
    v_die: f64,
}

impl DivisionPdn {
    fn new(config: PdnConfig, idle_current_a: f64, dt_s: f64) -> DivisionPdn {
        DivisionPdn {
            config,
            dt_s,
            i_l: idle_current_a,
            v_die: config.vdd - config.resistance * idle_current_a,
        }
    }

    fn step(&mut self, i_load_a: f64) -> f64 {
        let c = self.config;
        self.i_l += (c.vdd - c.resistance * self.i_l - self.v_die) / c.inductance * self.dt_s;
        self.v_die += (self.i_l - i_load_a) / c.capacitance * self.dt_s;
        self.v_die
    }
}

/// The short run window every property below simulates.
fn config() -> RunConfig {
    RunConfig {
        max_iterations: 40,
        max_cycles: 3000,
        ..RunConfig::default()
    }
}

fn run(machine: MachineConfig, lines: &[String]) -> gest_sim::RunResult {
    let body = asm::parse_block(&lines.join("\n")).unwrap();
    let program: Program = Template::default_stress().materialize("prop", body);
    Simulator::new(machine).run(&program, &config()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn physical_invariants_hold(lines in body_strategy()) {
        let body = asm::parse_block(&lines.join("\n")).unwrap();
        let program: Program = Template::default_stress().materialize("prop", body);
        for machine in MachineConfig::all_presets() {
            let (result, traces) = Simulator::new(machine.clone())
                .run_traced(&program, &config())
                .unwrap();
            // IPC is instructions per cycle and can never exceed the
            // machine width.
            prop_assert_eq!(result.ipc, result.instructions as f64 / result.cycles as f64);
            prop_assert!(result.ipc <= machine.max_ipc() + 1e-9, "ipc {}", result.ipc);
            prop_assert!(result.ipc > 0.0);
            // Power is at least static, and finite.
            prop_assert!(result.avg_power_w >= machine.energy.static_w - 1e-9);
            prop_assert!(result.avg_power_w.is_finite());
            prop_assert!(result.peak_power_w >= result.avg_power_w - 1e-9);
            // Temperature between ambient and a physically silly bound.
            prop_assert!(result.temperature_c >= machine.thermal.ambient_c - 1e-6);
            prop_assert!(result.temperature_c < 500.0);
            // Energy = avg power × time.
            let time_s = result.cycles as f64 / machine.clock_hz;
            prop_assert!((result.energy_j - result.avg_power_w * time_s).abs()
                <= 1e-9 * result.energy_j.max(1e-12));
            // The traced power waveform averages to the reported power, up
            // to each sample's f32 rounding (relative 2^-24).
            prop_assert_eq!(traces.power_w.len() as u64, result.cycles);
            let traced_mean = traces.power_w.iter().map(|&p| f64::from(p)).sum::<f64>()
                / result.cycles as f64;
            prop_assert!(
                (traced_mean - result.avg_power_w).abs() <= 1e-6 * result.avg_power_w,
                "traced mean {traced_mean} vs avg power {}",
                result.avg_power_w
            );
            // Class counts partition the retired instructions.
            prop_assert_eq!(result.class_counts.iter().sum::<u64>(), result.instructions);
            // Branch accuracy is a probability.
            prop_assert!((0.0..=1.0).contains(&result.branch_accuracy));
        }
    }

    #[test]
    fn steady_fast_path_is_bit_identical_on_every_machine(lines in body_strategy()) {
        // The steady-state extrapolation must be invisible: whether or not
        // the detector fires, RunResult *and* the per-cycle Traces must be
        // bit-for-bit what full simulation produces, on all four machines.
        for machine in [
            MachineConfig::cortex_a15(),
            MachineConfig::cortex_a7(),
            MachineConfig::xgene2(),
            MachineConfig::athlon_x4(),
        ] {
            let body = asm::parse_block(&lines.join("\n")).unwrap();
            let program: Program = Template::default_stress().materialize("prop", body);
            let config = |steady| RunConfig {
                max_iterations: 40,
                max_cycles: 3000,
                steady_detect: steady,
                ..RunConfig::default()
            };
            let simulator = Simulator::new(machine);
            let (fast, fast_traces) = simulator.run_traced(&program, &config(true)).unwrap();
            let (full, full_traces) = simulator.run_traced(&program, &config(false)).unwrap();
            prop_assert_eq!(&fast, &full);
            prop_assert_eq!(
                fast_traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                full_traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                fast_traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                full_traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn run_batch_is_field_identical_to_single_runs(
        batch in prop::collection::vec(
            prop::collection::vec(
                prop::sample::select(vec![
                    "ADD x1, x2, x3",
                    "MUL x8, x2, x3",
                    "FMUL v0, v1, v2",
                    "VFMLA v6, v7, v1",
                    "LDR x11, [x10, #8]",
                    "STR x1, [x10, #16]",
                    "CBNZ x1, #2",
                    "NOP",
                ]).prop_map(str::to_owned),
                // Empty bodies are legal inputs here: they must surface as
                // per-lane `SimError::EmptyProgram` without disturbing
                // their neighbours.
                0..24,
            ),
            1..9,
        )
    ) {
        let config = RunConfig {
            max_iterations: 40,
            max_cycles: 3000,
            ..RunConfig::default()
        };
        // One scratch across both machines exercises instrument pooling
        // under geometry changes, not just the first cold batch.
        let mut scratch = BatchScratch::new();
        for machine in [MachineConfig::cortex_a15(), MachineConfig::athlon_x4()] {
            let programs: Vec<Program> = batch
                .iter()
                .enumerate()
                .map(|(i, lines)| {
                    let body = asm::parse_block(&lines.join("\n")).unwrap();
                    Template::default_stress().materialize(format!("lane{i}"), body)
                })
                .collect();
            let simulator = Simulator::new(machine);

            let batched = simulator.run_batch_with_scratch(&programs, &config, &mut scratch);
            prop_assert_eq!(batched.len(), programs.len());
            let mut single_runs = 0u64;
            let mut single_steady = 0u64;
            let mut single_extrapolated = 0u64;
            for (program, lane) in programs.iter().zip(&batched) {
                let mut single_scratch = gest_sim::SimScratch::new();
                let single = simulator.run_with_scratch(program, &config, &mut single_scratch);
                prop_assert_eq!(lane, &single, "{}", program.name);
                single_runs += single_scratch.runs;
                single_steady += single_scratch.steady_hits;
                single_extrapolated += single_scratch.extrapolated_iterations;
            }
            prop_assert_eq!(scratch.runs, single_runs, "aggregate run count");
            prop_assert_eq!(scratch.steady_hits, single_steady, "aggregate steady hits");
            prop_assert_eq!(
                scratch.extrapolated_iterations, single_extrapolated,
                "aggregate extrapolated iterations"
            );
            scratch.runs = 0;
            scratch.steady_hits = 0;
            scratch.extrapolated_iterations = 0;

            // Traced batches must match traced singles bit-for-bit too.
            let traced = simulator.run_batch_traced(&programs, &config);
            for (program, lane) in programs.iter().zip(traced) {
                match (lane, simulator.run_traced(program, &config)) {
                    (Ok((result, traces)), Ok((single, single_traces))) => {
                        prop_assert_eq!(result, single);
                        prop_assert_eq!(
                            traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                            single_traces.power_w.iter().map(|w| w.to_bits()).collect::<Vec<_>>()
                        );
                        prop_assert_eq!(
                            traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            single_traces.voltage_v.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        );
                    }
                    (Err(lane_err), Err(single_err)) => prop_assert_eq!(lane_err, single_err),
                    (lane, single) => prop_assert!(
                        false,
                        "lane ok={} but single ok={}",
                        lane.is_ok(),
                        single.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn determinism(lines in body_strategy()) {
        let a = run(MachineConfig::athlon_x4(), &lines);
        let b = run(MachineConfig::athlon_x4(), &lines);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn voltage_within_physical_bounds(lines in body_strategy()) {
        let result = run(MachineConfig::athlon_x4(), &lines);
        let config = MachineConfig::athlon_x4().pdn.unwrap();
        let stats = result.voltage.unwrap();
        prop_assert!(stats.min_v > 0.5 * config.vdd, "min_v {}", stats.min_v);
        prop_assert!(stats.max_v < 1.5 * config.vdd, "max_v {}", stats.max_v);
        prop_assert!(stats.min_v <= stats.max_v);
    }

    #[test]
    fn class_counts_sum_to_instructions(lines in body_strategy()) {
        let result = run(MachineConfig::xgene2(), &lines);
        let total: u64 = result.class_counts.iter().sum();
        prop_assert_eq!(total, result.instructions);
    }

    #[test]
    fn division_free_pdn_tracks_division_form(
        idle in 0.0f64..30.0,
        currents in prop::collection::vec(0.0f64..60.0, 64..4096),
    ) {
        // Folding dt/L and dt/C into step gains may only move voltages in
        // their trailing ulps, over a whole candidate's worth of cycles.
        let machine = MachineConfig::athlon_x4();
        let config = machine.pdn.unwrap();
        let dt = 1.0 / machine.clock_hz;
        let mut pdn = Pdn::new(config, idle, dt);
        let mut reference = DivisionPdn::new(config, idle, dt);
        let (mut min_v, mut max_v) = (f64::INFINITY, f64::NEG_INFINITY);
        for (cycle, &i) in currents.iter().enumerate() {
            let v = pdn.step(i);
            let v_ref = reference.step(i);
            prop_assert!(
                (v - v_ref).abs() <= 1e-12 * v_ref.abs(),
                "cycle {cycle}: {v} vs division form {v_ref}"
            );
            if cycle >= Pdn::DEFAULT_WARMUP_STEPS as usize {
                min_v = min_v.min(v_ref);
                max_v = max_v.max(v_ref);
            }
        }
        let stats = pdn.stats();
        prop_assert!((stats.min_v - min_v).abs() <= 1e-12 * min_v.abs());
        prop_assert!((stats.max_v - max_v).abs() <= 1e-12 * max_v.abs());
    }

    #[test]
    fn pdn_energy_conservation(currents in prop::collection::vec(0.0f64..50.0, 64..512)) {
        // For any bounded load-current sequence the die voltage stays
        // bounded (no numerical blow-up in the integrator).
        let config = MachineConfig::athlon_x4().pdn.unwrap();
        let dt = 1.0 / MachineConfig::athlon_x4().clock_hz;
        let mut pdn = Pdn::new(config, 0.0, dt);
        for &i in &currents {
            let v = pdn.step(i);
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 10.0 * config.vdd, "runaway voltage {v}");
        }
    }
}
