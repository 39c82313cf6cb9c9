//! Golden digest: pins every simulator output bit for bit.
//!
//! The corpus is seeded random bodies that cover every opcode, the
//! `gest-workloads` proxies, and all four machine presets. Each program is
//! run with the steady-state detector on and off, untraced and traced, on
//! the single-run path and the batch path. Every `RunResult` field
//! (floats through `to_bits()`) and every trace sample is folded into a
//! stable FNV-1a digest, which must equal the constant below.
//!
//! The constants were computed on the simulator that executed `Instruction`s
//! directly, before its hot loop ran lowered micro-ops, so they pin the
//! lowered loop to the old results. A change that moves results on purpose
//! must update them and say so in CHANGES.md.

use gest_isa::{Instruction, Opcode, Operand, OperandSlot, Program, Reg, Template, VReg};
use gest_sim::{
    MachineConfig, MultiCoreSimulator, RunConfig, RunResult, SimScratch, Simulator, Traces,
    UncoreConfig,
};

/// Expected digest of [`single_and_batch_runs_match_golden_digest`].
const RUN_DIGEST: u64 = 0xc035_f6b8_9328_f11a;
/// Expected digest of [`multicore_runs_match_golden_digest`].
const MULTICORE_DIGEST: u64 = 0x330e_fed4_470a_e941;

/// 64-bit FNV-1a: stable across Rust releases and platforms, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn result(&mut self, r: &RunResult) {
        // Destructured without `..`: a new field fails to compile here
        // until it is hashed too.
        let RunResult {
            name,
            cycles,
            instructions,
            ipc,
            energy_j,
            avg_power_w,
            chip_power_w,
            peak_power_w,
            temperature_c,
            steady_temp_c,
            l1,
            branch_accuracy,
            voltage,
            class_counts,
        } = r;
        self.str(name);
        self.u64(*cycles);
        self.u64(*instructions);
        for v in [
            *ipc,
            *energy_j,
            *avg_power_w,
            *chip_power_w,
            *peak_power_w,
            *temperature_c,
            *steady_temp_c,
            *branch_accuracy,
        ] {
            self.f64(v);
        }
        self.u64(l1.hits);
        self.u64(l1.misses);
        match voltage {
            Some(v) => {
                self.u64(1);
                self.f64(v.nominal_v);
                self.f64(v.min_v);
                self.f64(v.max_v);
            }
            None => self.u64(0),
        }
        for &count in class_counts {
            self.u64(count);
        }
    }

    fn traces(&mut self, t: &Traces) {
        for wave in [&t.power_w, &t.voltage_v] {
            self.u64(wave.len() as u64);
            for &sample in wave.iter() {
                self.u64(u64::from(sample.to_bits()));
            }
        }
    }
}

/// SplitMix64: a tiny seeded generator, so the corpus depends on nothing
/// outside this file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One instruction of `opcode` with seeded random operands. Immediates
/// alternate between small offsets and full 64-bit patterns, so memory
/// offsets wrap, shifts exceed 63 and FP lanes see NaN/inf bit patterns.
fn random_instruction(rng: &mut Rng, opcode: Opcode) -> Instruction {
    let operands = opcode
        .slots()
        .iter()
        .map(|slot| match slot {
            OperandSlot::IntDst | OperandSlot::IntSrc => {
                Operand::Reg(Reg::new(rng.below(16) as u8).unwrap())
            }
            OperandSlot::VecDst | OperandSlot::VecSrc => {
                Operand::VReg(VReg::new(rng.below(16) as u8).unwrap())
            }
            OperandSlot::Imm => Operand::Imm(if rng.below(2) == 0 {
                rng.below(512) as i64 - 256
            } else {
                rng.next() as i64
            }),
            OperandSlot::BranchTarget => Operand::Target(1 + rng.below(3) as u8),
        })
        .collect();
    Instruction::new(opcode, operands).unwrap()
}

/// Seeded bodies: the first walks `Opcode::ALL` in order, the rest draw
/// opcodes at random. Half use the stress template (checkerboard
/// registers, `0xAA` fill), half a bare zero-filled program.
fn seeded_programs() -> Vec<Program> {
    let mut rng = Rng(0x6765_5354_676f_6c64);
    let mut bodies = vec![Opcode::ALL
        .iter()
        .map(|&op| random_instruction(&mut rng, op))
        .collect::<Vec<_>>()];
    for _ in 0..9 {
        let len = 4 + rng.below(20) as usize;
        bodies.push(
            (0..len)
                .map(|_| {
                    let op = Opcode::ALL[rng.below(Opcode::ALL.len() as u64) as usize];
                    random_instruction(&mut rng, op)
                })
                .collect(),
        );
    }
    for op in Opcode::ALL {
        assert!(
            bodies.iter().flatten().any(|i| i.opcode() == *op),
            "{op:?} is not covered by the seeded bodies"
        );
    }
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let name = format!("seeded{i}");
            if i % 2 == 0 {
                Template::default_stress().materialize(name, body)
            } else {
                Program::from_body(name, body)
            }
        })
        .collect()
}

fn corpus() -> Vec<Program> {
    let mut programs = seeded_programs();
    programs.extend(gest_workloads::all().into_iter().map(|w| w.program));
    programs
}

#[test]
fn single_and_batch_runs_match_golden_digest() {
    let programs = corpus();
    let mut digest = Fnv::new();
    for machine in MachineConfig::all_presets() {
        let simulator = Simulator::new(machine);
        digest.str(&simulator.machine().name);
        for steady_detect in [true, false] {
            let config = RunConfig {
                steady_detect,
                ..RunConfig::default()
            };
            let mut scratch = SimScratch::new();
            for program in &programs {
                let result = simulator
                    .run_with_scratch(program, &config, &mut scratch)
                    .unwrap();
                digest.result(&result);
                let (traced, traces) = simulator.run_traced(program, &config).unwrap();
                digest.result(&traced);
                digest.traces(&traces);
            }
            for result in simulator.run_batch(&programs, &config) {
                digest.result(&result.unwrap());
            }
            for entry in simulator.run_batch_traced(&programs, &config) {
                let (result, traces) = entry.unwrap();
                digest.result(&result);
                digest.traces(&traces);
            }
        }
    }
    assert_eq!(
        digest.0, RUN_DIGEST,
        "simulator output moved: got {:#018x}",
        digest.0
    );
}

#[test]
fn multicore_runs_match_golden_digest() {
    let programs = corpus();
    let mut digest = Fnv::new();
    for machine in [MachineConfig::xgene2(), MachineConfig::cortex_a7()] {
        let simulator = MultiCoreSimulator::new(machine, UncoreConfig::server());
        for program in programs.iter().step_by(3) {
            let result = simulator.run_replicated(program, 3, 20).unwrap();
            digest.u64(u64::from(result.cores));
            for core in &result.per_core {
                digest.u64(core.cycles);
                digest.u64(core.instructions);
                digest.f64(core.ipc);
                digest.f64(core.avg_power_w);
                digest.u64(core.l1.hits);
                digest.u64(core.l1.misses);
            }
            digest.u64(result.l2.hits);
            digest.u64(result.l2.misses);
            digest.f64(result.uncore_traffic_w);
            digest.f64(result.chip_power_w);
            digest.f64(result.scaling_efficiency);
        }
    }
    assert_eq!(
        digest.0, MULTICORE_DIGEST,
        "multi-core output moved: got {:#018x}",
        digest.0
    );
}
