//! Machine (micro-architecture) configurations.
//!
//! Each preset stands in for one of the paper's four evaluation CPUs
//! (Table II). Parameters are chosen for *qualitative* fidelity — widths,
//! relative latencies and relative energy costs shape which instruction
//! mixes maximize power/IPC/noise on each machine, which is what the
//! paper's cross-machine findings depend on — not for absolute accuracy.

use crate::cache::CacheConfig;
use gest_isa::{InstrClass, Opcode};

/// Functional-unit classes instructions are scheduled onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Single-cycle integer ALUs.
    Alu,
    /// Integer multiply pipeline.
    Mul,
    /// Integer divide unit (typically unpipelined).
    Div,
    /// Floating-point / SIMD pipes.
    Fp,
    /// Load/store port(s).
    Mem,
    /// Branch unit.
    Branch,
}

impl FuClass {
    /// All functional-unit classes.
    pub const ALL: [FuClass; 6] = [
        FuClass::Alu,
        FuClass::Mul,
        FuClass::Div,
        FuClass::Fp,
        FuClass::Mem,
        FuClass::Branch,
    ];

    /// This class's position in [`FuClass::ALL`] (the declaration order),
    /// without scanning it.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Which FU executes the given opcode.
    pub fn for_opcode(opcode: Opcode) -> FuClass {
        match opcode.class() {
            InstrClass::ShortInt | InstrClass::Nop => FuClass::Alu,
            InstrClass::LongInt => match opcode {
                Opcode::Sdiv | Opcode::Udiv => FuClass::Div,
                _ => FuClass::Mul,
            },
            // FP divide/sqrt share the (unpipelined) divider — iterative
            // units on real cores, an order of magnitude slower than the
            // FMA pipes.
            InstrClass::FloatSimd => match opcode {
                Opcode::Fdiv | Opcode::Fsqrt => FuClass::Div,
                _ => FuClass::Fp,
            },
            InstrClass::Mem => FuClass::Mem,
            InstrClass::Branch => FuClass::Branch,
        }
    }
}

/// Per-functional-unit timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Number of identical units of this class.
    pub count: u8,
    /// Result latency in cycles (source of dependent-instruction stalls).
    pub latency: u8,
    /// Initiation interval: cycles before the same unit accepts another
    /// instruction (1 = fully pipelined, `latency` = unpipelined).
    pub interval: u8,
}

impl FuConfig {
    const fn new(count: u8, latency: u8, interval: u8) -> FuConfig {
        FuConfig {
            count,
            latency,
            interval,
        }
    }
}

/// Energy-model parameters (picojoules unless noted).
///
/// Dynamic energy per instruction = `base_pj[class]`
/// `+ toggle_pj × dest_toggles + srcbit_pj × src_bits`
/// `+ l1_access_pj` for memory ops
/// `+ occupancy_pj × latency` (issue-queue / dependency-tracking cost of
/// keeping the instruction in flight — why the paper's power virus keeps "a
/// few long-latency instructions").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyConfig {
    /// Base energy per instruction class, indexed by [`InstrClass::ALL`]
    /// order: ShortInt, LongInt, Float/SIMD, Mem, Branch, Nop.
    pub base_pj: [f64; 6],
    /// Energy per destination bit toggled.
    pub toggle_pj: f64,
    /// Energy per source operand bit set.
    pub srcbit_pj: f64,
    /// Energy per cycle an instruction occupies the window/issue queue.
    pub occupancy_pj: f64,
    /// Energy per L1 data-cache access.
    pub l1_access_pj: f64,
    /// Extra energy per L1 miss (line fill).
    pub l1_miss_pj: f64,
    /// Static (leakage + clock-tree) power in watts.
    pub static_w: f64,
}

/// Lumped thermal-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Junction-to-ambient thermal resistance (K/W).
    pub r_th: f64,
    /// Thermal capacitance (J/K).
    pub c_th: f64,
    /// Ambient temperature (°C).
    pub ambient_c: f64,
    /// Maximum junction temperature (°C), the TJMAX used to normalize
    /// temperature scores in the paper's complex fitness (Equation 1).
    pub tjmax_c: f64,
}

/// Power-delivery-network parameters (series R-L from the regulator, die
/// capacitance at the load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnConfig {
    /// Nominal supply voltage (V).
    pub vdd: f64,
    /// Series (IR-drop) resistance (Ω).
    pub resistance: f64,
    /// Package + board inductance (H).
    pub inductance: f64,
    /// On-die + package decoupling capacitance (F).
    pub capacitance: f64,
    /// Die voltage below which timing errors occur at nominal frequency
    /// (V); drives [`crate::vmin`].
    pub v_crit: f64,
}

impl PdnConfig {
    /// First-order resonance frequency `1 / (2π √(LC))` in Hz.
    ///
    /// # Examples
    ///
    /// ```
    /// let pdn = gest_sim::MachineConfig::athlon_x4().pdn.unwrap();
    /// let f = pdn.resonance_hz();
    /// assert!((5.0e7..2.0e8).contains(&f), "PDN resonance ~100 MHz, got {f}");
    /// ```
    pub fn resonance_hz(&self) -> f64 {
        1.0 / (2.0 * std::f64::consts::PI * (self.inductance * self.capacitance).sqrt())
    }

    /// Damping ratio `ζ = (R/2)·√(C/L)`; < 1 means underdamped (ringing).
    pub fn damping_ratio(&self) -> f64 {
        self.resistance / 2.0 * (self.capacitance / self.inductance).sqrt()
    }
}

/// A complete machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Core clock frequency (Hz).
    pub clock_hz: f64,
    /// Fetch/issue width (instructions per cycle).
    pub width: u8,
    /// `true` = out-of-order core with `window` in-flight instructions;
    /// `false` = in-order.
    pub out_of_order: bool,
    /// Reorder-buffer / window size (ignored for in-order cores).
    pub window: u16,
    /// Per-FU-class timing, indexed by [`FuClass::ALL`] order.
    pub fus: [FuConfig; 6],
    /// Branch mispredict penalty (cycles of fetch bubble).
    pub mispredict_penalty: u8,
    /// Taken-branch fetch bubble even when predicted correctly (cycles);
    /// small cores without branch folding pay 1.
    pub taken_penalty: u8,
    /// L1 data-cache geometry.
    pub l1d: CacheConfig,
    /// L1 miss penalty in cycles (added to load latency).
    pub miss_penalty: u8,
    /// Energy model parameters.
    pub energy: EnergyConfig,
    /// Thermal model parameters.
    pub thermal: ThermalConfig,
    /// PDN parameters; `None` for machines without voltage sense points.
    pub pdn: Option<PdnConfig>,
    /// Size of the architectural scratch memory buffer (bytes, power of
    /// two). Kept within L1 so stress loops hit in cache like the paper's
    /// viruses.
    pub mem_bytes: usize,
    /// Number of cores on the chip (paper Table II). Like the paper's
    /// protocol — "a virus is tested by running it on all cores", and the
    /// viruses share nothing so they scale linearly — chip power is
    /// `cores x core power + uncore_w`, and the thermal model integrates
    /// chip power.
    pub cores: u8,
    /// Uncore/SoC static power (watts) added once per chip.
    pub uncore_w: f64,
}

impl MachineConfig {
    /// Timing for the FU class.
    pub fn fu(&self, class: FuClass) -> FuConfig {
        self.fus[class.index()]
    }

    /// Result latency of an opcode on this machine (excluding cache
    /// misses).
    pub fn latency(&self, opcode: Opcode) -> u8 {
        self.fu(FuClass::for_opcode(opcode)).latency
    }

    /// Maximum theoretical IPC (the issue width).
    pub fn max_ipc(&self) -> f64 {
        self.width as f64
    }

    /// Base dynamic energy of an instruction class in picojoules.
    pub fn base_energy_pj(&self, class: InstrClass) -> f64 {
        self.energy.base_pj[class.index()]
    }

    /// A 3-wide out-of-order big core, standing in for the Cortex-A15
    /// (paper: 2 cores on a Versatile Express board, bare metal, measured
    /// with an ARM energy probe).
    ///
    /// Wide FP/SIMD with high per-op energy: the evolved power virus should
    /// be dominated by Float/SIMD with plenty of memory ops and almost no
    /// branches (paper Table III: 22 F/S, 18 mem, 1 branch of 50).
    pub fn cortex_a15() -> MachineConfig {
        MachineConfig {
            name: "cortex-a15".into(),
            clock_hz: 1.2e9,
            width: 3,
            out_of_order: true,
            window: 40,
            fus: [
                FuConfig::new(2, 1, 1),   // Alu
                FuConfig::new(1, 4, 1),   // Mul
                FuConfig::new(1, 12, 12), // Div (unpipelined)
                FuConfig::new(2, 4, 1),   // Fp: two 128-bit NEON pipes
                FuConfig::new(1, 3, 1),   // Mem
                FuConfig::new(1, 1, 1),   // Branch
            ],
            mispredict_penalty: 15,
            taken_penalty: 0,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 2,
            },
            miss_penalty: 20,
            energy: EnergyConfig {
                //         ShortInt LongInt F/SIMD  Mem  Branch Nop
                base_pj: [30.0, 90.0, 320.0, 80.0, 40.0, 6.0],
                toggle_pj: 0.8,
                srcbit_pj: 0.15,
                occupancy_pj: 4.0,
                l1_access_pj: 80.0,
                l1_miss_pj: 400.0,
                static_w: 0.25,
            },
            thermal: ThermalConfig {
                r_th: 8.0,
                c_th: 0.05,
                ambient_c: 28.0,
                tjmax_c: 110.0,
            },
            pdn: None,
            mem_bytes: 16 * 1024,
            cores: 2,
            uncore_w: 0.15,
        }
    }

    /// A 2-wide in-order little core, standing in for the Cortex-A7.
    ///
    /// The branch unit is cheap to dual-issue and the fetch engine is a
    /// large fraction of core power, so branches carry a relatively high
    /// energy weight: the evolved virus should use many more branches than
    /// the A15's (paper Table III: 10 branches of 50).
    pub fn cortex_a7() -> MachineConfig {
        MachineConfig {
            name: "cortex-a7".into(),
            clock_hz: 1.0e9,
            width: 2,
            out_of_order: false,
            window: 8,
            fus: [
                FuConfig::new(2, 1, 1),   // Alu
                FuConfig::new(1, 3, 1),   // Mul
                FuConfig::new(1, 10, 10), // Div
                FuConfig::new(1, 4, 2),   // Fp: one half-throughput NEON pipe
                FuConfig::new(1, 2, 1),   // Mem
                FuConfig::new(1, 1, 1),   // Branch (can pair with any slot)
            ],
            mispredict_penalty: 8,
            taken_penalty: 0,
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 64,
                ways: 4,
            },
            miss_penalty: 25,
            energy: EnergyConfig {
                //        ShortInt LongInt F/SIMD  Mem  Branch Nop
                base_pj: [12.0, 30.0, 55.0, 30.0, 42.0, 3.0],
                toggle_pj: 0.3,
                srcbit_pj: 0.08,
                occupancy_pj: 1.5,
                l1_access_pj: 30.0,
                l1_miss_pj: 150.0,
                static_w: 0.06,
            },
            thermal: ThermalConfig {
                r_th: 12.0,
                c_th: 0.03,
                ambient_c: 28.0,
                tjmax_c: 110.0,
            },
            pdn: None,
            mem_bytes: 8 * 1024,
            cores: 3,
            uncore_w: 0.05,
        }
    }

    /// A 4-wide out-of-order server core, standing in for one Ampere
    /// X-Gene2 core (paper: 8 cores, CentOS, i2c temperature sensor and
    /// perf counters).
    pub fn xgene2() -> MachineConfig {
        MachineConfig {
            name: "xgene2".into(),
            clock_hz: 2.4e9,
            width: 4,
            out_of_order: true,
            window: 64,
            fus: [
                FuConfig::new(3, 1, 1),   // Alu
                FuConfig::new(1, 5, 1),   // Mul
                FuConfig::new(1, 16, 16), // Div
                FuConfig::new(2, 5, 1),   // Fp
                FuConfig::new(2, 3, 1),   // Mem: two ports
                FuConfig::new(1, 1, 1),   // Branch
            ],
            mispredict_penalty: 14,
            taken_penalty: 0,
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                ways: 8,
            },
            miss_penalty: 30,
            energy: EnergyConfig {
                //        ShortInt LongInt F/SIMD  Mem   Branch Nop
                base_pj: [60.0, 160.0, 380.0, 250.0, 70.0, 10.0],
                toggle_pj: 1.0,
                srcbit_pj: 0.2,
                occupancy_pj: 8.0,
                l1_access_pj: 150.0,
                l1_miss_pj: 800.0,
                static_w: 1.5,
            },
            thermal: ThermalConfig {
                r_th: 1.2,
                c_th: 0.8,
                ambient_c: 30.0,
                tjmax_c: 105.0,
            },
            pdn: None,
            mem_bytes: 16 * 1024,
            cores: 8,
            uncore_w: 8.0,
        }
    }

    /// A 3-wide out-of-order desktop core with exposed voltage sense
    /// points, standing in for the AMD Athlon II X4 645 on the Asus
    /// M5A78L LE board (paper §VI: oscilloscope + differential probe).
    ///
    /// The PDN resonates near 100 MHz — with the 3.1 GHz clock that is a
    /// ~31-cycle period, which is why the paper's rule of thumb puts dI/dt
    /// loop lengths at 15–50 instructions.
    pub fn athlon_x4() -> MachineConfig {
        MachineConfig {
            name: "athlon-x4".into(),
            clock_hz: 3.1e9,
            width: 3,
            out_of_order: true,
            window: 72,
            fus: [
                FuConfig::new(3, 1, 1),   // Alu
                FuConfig::new(1, 3, 1),   // Mul
                FuConfig::new(1, 14, 14), // Div
                FuConfig::new(2, 4, 1),   // Fp
                FuConfig::new(2, 3, 1),   // Mem
                FuConfig::new(1, 1, 1),   // Branch
            ],
            mispredict_penalty: 12,
            taken_penalty: 0,
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                ways: 2,
            },
            miss_penalty: 25,
            energy: EnergyConfig {
                //        ShortInt LongInt F/SIMD  Mem   Branch Nop
                base_pj: [90.0, 250.0, 500.0, 350.0, 100.0, 15.0],
                toggle_pj: 1.2,
                srcbit_pj: 0.25,
                occupancy_pj: 8.0,
                l1_access_pj: 200.0,
                l1_miss_pj: 900.0,
                static_w: 4.0,
            },
            thermal: ThermalConfig {
                r_th: 0.6,
                c_th: 1.5,
                ambient_c: 30.0,
                tjmax_c: 95.0,
            },
            pdn: Some(PdnConfig {
                vdd: 1.40,
                resistance: 4.0e-3,
                inductance: 25.0e-12,
                capacitance: 100.0e-9,
                v_crit: 1.18,
            }),
            mem_bytes: 16 * 1024,
            cores: 4,
            uncore_w: 12.0,
        }
    }

    /// All four paper machines.
    pub fn all_presets() -> Vec<MachineConfig> {
        vec![
            MachineConfig::cortex_a15(),
            MachineConfig::cortex_a7(),
            MachineConfig::xgene2(),
            MachineConfig::athlon_x4(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_index_is_position_in_all() {
        for (i, class) in FuClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn presets_are_self_consistent() {
        for machine in MachineConfig::all_presets() {
            assert!(machine.width >= 1);
            assert!(machine.clock_hz > 0.0);
            assert!(machine.mem_bytes.is_power_of_two());
            assert!(
                machine.mem_bytes <= machine.l1d.size_bytes,
                "{}: scratch buffer must fit in L1 so viruses stay cache-resident",
                machine.name
            );
            for class in FuClass::ALL {
                let fu = machine.fu(class);
                assert!(fu.count >= 1, "{}: no {class:?} units", machine.name);
                assert!(fu.latency >= 1);
                assert!(fu.interval >= 1 && fu.interval <= fu.latency.max(1));
            }
            assert!(machine.energy.static_w >= 0.0);
            assert!(machine.thermal.tjmax_c > machine.thermal.ambient_c);
            assert!(machine.cores >= 1);
            assert!(machine.uncore_w >= 0.0);
        }
    }

    #[test]
    fn opcode_to_fu_mapping() {
        assert_eq!(FuClass::for_opcode(Opcode::Add), FuClass::Alu);
        assert_eq!(FuClass::for_opcode(Opcode::Mul), FuClass::Mul);
        assert_eq!(FuClass::for_opcode(Opcode::Sdiv), FuClass::Div);
        assert_eq!(FuClass::for_opcode(Opcode::Vfmla), FuClass::Fp);
        assert_eq!(FuClass::for_opcode(Opcode::Ldr), FuClass::Mem);
        assert_eq!(FuClass::for_opcode(Opcode::B), FuClass::Branch);
        assert_eq!(FuClass::for_opcode(Opcode::Nop), FuClass::Alu);
    }

    #[test]
    fn a15_fp_heavier_than_a7() {
        // The big core's FP ops must cost more energy than the little
        // core's: this asymmetry drives the paper's cross-virus finding.
        let a15 = MachineConfig::cortex_a15();
        let a7 = MachineConfig::cortex_a7();
        assert!(
            a15.base_energy_pj(InstrClass::FloatSimd)
                > 3.0 * a7.base_energy_pj(InstrClass::FloatSimd)
        );
        // On the A7 a branch costs *more* than a short int op (fetch-engine
        // dominated little core); on the A15 FP dwarfs branches.
        assert!(a7.base_energy_pj(InstrClass::Branch) > a7.base_energy_pj(InstrClass::ShortInt));
        assert!(
            a15.base_energy_pj(InstrClass::FloatSimd)
                > 5.0 * a15.base_energy_pj(InstrClass::Branch)
        );
    }

    #[test]
    fn athlon_pdn_is_underdamped_near_100mhz() {
        let pdn = MachineConfig::athlon_x4().pdn.unwrap();
        let resonance = pdn.resonance_hz();
        assert!((7.0e7..1.5e8).contains(&resonance), "{resonance}");
        let zeta = pdn.damping_ratio();
        assert!(zeta < 0.3, "should ring: ζ = {zeta}");
        // Paper rule of thumb: loop length = IPC × f_clk / f_res lands in
        // 15..=50 for this machine.
        let machine = MachineConfig::athlon_x4();
        let loop_len = (machine.max_ipc() / 2.0) * machine.clock_hz / resonance;
        assert!((15.0..=50.0).contains(&loop_len), "{loop_len}");
    }

    #[test]
    fn latency_accessor() {
        let machine = MachineConfig::cortex_a15();
        assert_eq!(machine.latency(Opcode::Add), 1);
        assert_eq!(machine.latency(Opcode::Sdiv), 12);
        assert_eq!(machine.latency(Opcode::Fmul), 4);
    }
}
