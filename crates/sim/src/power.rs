//! Activity-based energy model.
//!
//! Dynamic energy per instruction combines:
//!
//! * a base cost per instruction class (what abstract models use),
//! * switching energy proportional to destination bit toggles and source
//!   bit population — this is what makes register *values* matter, the
//!   paper's checkerboard-initialization observation (§III.B.2),
//! * cache access/miss energy for memory instructions,
//! * "occupancy" energy for every cycle the instruction sits in flight —
//!   the issue-queue/dependency-tracking cost that rewards the paper's
//!   power virus for keeping a few long-latency instructions around
//!   (§V, Table IV discussion).

use crate::machine::{EnergyConfig, MachineConfig};
use gest_isa::{Effect, InstrClass};

/// Computes per-instruction and per-cycle energy for one machine.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    config: EnergyConfig,
    /// Clock period in seconds (for static energy per cycle).
    period_s: f64,
}

impl EnergyModel {
    /// Builds the model from a machine configuration.
    pub fn new(machine: &MachineConfig) -> EnergyModel {
        EnergyModel {
            config: machine.energy,
            period_s: 1.0 / machine.clock_hz,
        }
    }

    /// Dynamic energy (picojoules) of one executed instruction.
    ///
    /// `latency` is the instruction's result latency on this machine;
    /// `l1_miss` whether a memory access missed the L1.
    ///
    /// # Examples
    ///
    /// ```
    /// use gest_isa::{Effect, InstrClass};
    /// use gest_sim::{EnergyModel, MachineConfig};
    /// let model = EnergyModel::new(&MachineConfig::cortex_a15());
    /// let quiet = model.instruction_pj(InstrClass::ShortInt, &Effect::default(), 1, false);
    /// let busy = model.instruction_pj(
    ///     InstrClass::ShortInt,
    ///     &Effect { dest_toggles: 64, src_bits: 128, ..Effect::default() },
    ///     1,
    ///     false,
    /// );
    /// assert!(busy > quiet, "bit switching must cost energy");
    /// ```
    pub fn instruction_pj(
        &self,
        class: InstrClass,
        effect: &Effect,
        latency: u8,
        l1_miss: bool,
    ) -> f64 {
        let index = InstrClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("class in ALL");
        self.instruction_pj_indexed(index, effect, latency, l1_miss)
    }

    /// Like [`instruction_pj`](EnergyModel::instruction_pj) with the class
    /// pre-resolved to its index in [`InstrClass::ALL`]. The simulator
    /// resolves indices once per static instruction instead of linearly
    /// scanning per retired instruction.
    ///
    /// # Panics
    ///
    /// Panics if `class_index` is out of range.
    pub fn instruction_pj_indexed(
        &self,
        class_index: usize,
        effect: &Effect,
        latency: u8,
        l1_miss: bool,
    ) -> f64 {
        let mut energy = self.config.base_pj[class_index];
        energy += self.config.toggle_pj * effect.dest_toggles as f64;
        energy += self.config.srcbit_pj * effect.src_bits as f64;
        energy += self.config.occupancy_pj * latency as f64;
        if effect.mem.is_some() {
            energy += self.config.l1_access_pj;
            if l1_miss {
                energy += self.config.l1_miss_pj;
            }
        }
        energy
    }

    /// Static (leakage) energy per clock cycle, in picojoules.
    pub fn static_pj_per_cycle(&self) -> f64 {
        self.config.static_w * self.period_s * 1e12
    }

    /// Converts a per-cycle energy (picojoules) into instantaneous power
    /// (watts).
    pub fn cycle_power_w(&self, cycle_energy_pj: f64) -> f64 {
        cycle_energy_pj * 1e-12 / self.period_s
    }

    /// Converts a per-cycle energy (picojoules) into supply current (amps)
    /// at voltage `vdd`.
    pub fn cycle_current_a(&self, cycle_energy_pj: f64, vdd: f64) -> f64 {
        cycle_energy_pj * self.amps_per_pj(vdd)
    }

    /// Supply current (amps) per picojoule of per-cycle energy at voltage
    /// `vdd`, i.e. `1e-12 / period / vdd`. Per-cycle loops compute it once
    /// and multiply, keeping divisions off the PDN's loop-carried chain.
    pub fn amps_per_pj(&self, vdd: f64) -> f64 {
        1e-12 / self.period_s / vdd
    }

    /// The underlying configuration.
    pub fn config(&self) -> &EnergyConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_isa::MemAccess;

    fn model() -> EnergyModel {
        EnergyModel::new(&MachineConfig::cortex_a15())
    }

    #[test]
    fn class_base_costs_ordered() {
        let model = model();
        let base = |class| model.instruction_pj(class, &Effect::default(), 1, false);
        assert!(base(InstrClass::FloatSimd) > base(InstrClass::LongInt));
        assert!(base(InstrClass::LongInt) > base(InstrClass::ShortInt));
        assert!(base(InstrClass::ShortInt) > base(InstrClass::Nop));
    }

    #[test]
    fn memory_access_and_miss_cost_extra() {
        let model = model();
        let effect = Effect {
            mem: Some(MemAccess {
                addr: 0,
                width: 8,
                is_store: false,
            }),
            ..Effect::default()
        };
        let hit = model.instruction_pj(InstrClass::Mem, &effect, 3, false);
        let miss = model.instruction_pj(InstrClass::Mem, &effect, 3, true);
        let no_mem = model.instruction_pj(InstrClass::Mem, &Effect::default(), 3, false);
        assert!(hit > no_mem);
        assert!(miss > hit);
    }

    #[test]
    fn occupancy_rewards_latency() {
        let model = model();
        let short = model.instruction_pj(InstrClass::LongInt, &Effect::default(), 1, false);
        let long = model.instruction_pj(InstrClass::LongInt, &Effect::default(), 12, false);
        assert!(long > short);
    }

    #[test]
    fn static_power_round_trips() {
        let machine = MachineConfig::cortex_a15();
        let model = EnergyModel::new(&machine);
        let static_pj = model.static_pj_per_cycle();
        let reconstructed = model.cycle_power_w(static_pj);
        assert!((reconstructed - machine.energy.static_w).abs() < 1e-9);
    }

    #[test]
    fn current_is_power_over_voltage() {
        let model = model();
        let power = model.cycle_power_w(100.0);
        let current = model.cycle_current_a(100.0, 2.0);
        assert!((current - power / 2.0).abs() < 1e-15);
    }
}
