//! Opcodes, instruction classes, and operand signatures.

use std::fmt;

/// Instruction classes used for breakdown statistics and machine timing.
///
/// These are exactly the categories of paper Table III / Table IV: short
/// latency integer, long (multi-cycle) integer, floating-point/SIMD, memory,
/// and branch instructions, plus `Nop` for padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// One-cycle integer ALU instructions (ADD, SUB, logical, shift, moves).
    ShortInt,
    /// Multi-cycle integer instructions (multiply, divide).
    LongInt,
    /// Scalar floating-point and SIMD instructions.
    FloatSimd,
    /// Loads and stores.
    Mem,
    /// Control-flow instructions.
    Branch,
    /// No-operation padding.
    Nop,
}

impl InstrClass {
    /// All classes in a stable report order.
    pub const ALL: [InstrClass; 6] = [
        InstrClass::ShortInt,
        InstrClass::LongInt,
        InstrClass::FloatSimd,
        InstrClass::Mem,
        InstrClass::Branch,
        InstrClass::Nop,
    ];

    /// This class's position in [`InstrClass::ALL`] (the declaration
    /// order), without scanning it.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in tables (matches the paper's column headers).
    pub fn label(self) -> &'static str {
        match self {
            InstrClass::ShortInt => "ShortInt",
            InstrClass::LongInt => "LongInt",
            InstrClass::FloatSimd => "Float/SIMD",
            InstrClass::Mem => "Mem",
            InstrClass::Branch => "Branch",
            InstrClass::Nop => "Nop",
        }
    }
}

impl fmt::Display for InstrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The kind of value an opcode expects in one operand position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSlot {
    /// An integer register written by the instruction.
    IntDst,
    /// An integer register read by the instruction.
    IntSrc,
    /// A vector register written by the instruction.
    VecDst,
    /// A vector register read by the instruction.
    VecSrc,
    /// An immediate value.
    Imm,
    /// A forward branch distance in instructions (1 = next instruction).
    BranchTarget,
}

impl OperandSlot {
    /// Human-readable description for error messages.
    pub fn describe(self) -> &'static str {
        match self {
            OperandSlot::IntDst => "integer destination register",
            OperandSlot::IntSrc => "integer source register",
            OperandSlot::VecDst => "vector destination register",
            OperandSlot::VecSrc => "vector source register",
            OperandSlot::Imm => "immediate value",
            OperandSlot::BranchTarget => "branch target offset",
        }
    }
}

macro_rules! opcodes {
    ($( $variant:ident => ($mnemonic:literal, $class:ident, [$($slot:ident),*]) ),+ $(,)?) => {
        /// An operation of the synthetic ISA.
        ///
        /// The set is ARM-flavoured and covers every category the paper's GA
        /// searches draw from: short- and long-latency integer, scalar FP,
        /// 128-bit SIMD, loads/stores (single and pair), and forward
        /// branches.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[non_exhaustive]
        pub enum Opcode {
            $(
                #[doc = concat!("The `", $mnemonic, "` instruction.")]
                $variant,
            )+
        }

        impl Opcode {
            /// Every opcode, in declaration order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$variant),+];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $mnemonic,)+
                }
            }

            /// Looks up an opcode by its mnemonic (case-insensitive).
            pub fn from_mnemonic(mnemonic: &str) -> Option<Opcode> {
                let upper = mnemonic.to_ascii_uppercase();
                match upper.as_str() {
                    $($mnemonic => Some(Opcode::$variant),)+
                    _ => None,
                }
            }

            /// The operand kinds this opcode requires, in order.
            pub fn slots(self) -> &'static [OperandSlot] {
                match self {
                    $(Opcode::$variant => &[$(OperandSlot::$slot),*],)+
                }
            }

            /// The instruction class (for statistics and machine timing).
            pub fn class(self) -> InstrClass {
                match self {
                    $(Opcode::$variant => InstrClass::$class,)+
                }
            }
        }
    };
}

opcodes! {
    // -- short-latency integer -------------------------------------------
    Add  => ("ADD",  ShortInt, [IntDst, IntSrc, IntSrc]),
    Sub  => ("SUB",  ShortInt, [IntDst, IntSrc, IntSrc]),
    And  => ("AND",  ShortInt, [IntDst, IntSrc, IntSrc]),
    Orr  => ("ORR",  ShortInt, [IntDst, IntSrc, IntSrc]),
    Eor  => ("EOR",  ShortInt, [IntDst, IntSrc, IntSrc]),
    Addi => ("ADDI", ShortInt, [IntDst, IntSrc, Imm]),
    Subi => ("SUBI", ShortInt, [IntDst, IntSrc, Imm]),
    Lsl  => ("LSL",  ShortInt, [IntDst, IntSrc, Imm]),
    Lsr  => ("LSR",  ShortInt, [IntDst, IntSrc, Imm]),
    Asr  => ("ASR",  ShortInt, [IntDst, IntSrc, Imm]),
    Mov  => ("MOV",  ShortInt, [IntDst, IntSrc]),
    Movi => ("MOVI", ShortInt, [IntDst, Imm]),
    // -- long-latency integer --------------------------------------------
    Mul   => ("MUL",   LongInt, [IntDst, IntSrc, IntSrc]),
    Mla   => ("MLA",   LongInt, [IntDst, IntSrc, IntSrc, IntSrc]),
    Smulh => ("SMULH", LongInt, [IntDst, IntSrc, IntSrc]),
    Sdiv  => ("SDIV",  LongInt, [IntDst, IntSrc, IntSrc]),
    Udiv  => ("UDIV",  LongInt, [IntDst, IntSrc, IntSrc]),
    // -- scalar floating point (lane 0 of a vector register) --------------
    Fadd  => ("FADD",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Fsub  => ("FSUB",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Fmul  => ("FMUL",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Fmla  => ("FMLA",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Fdiv  => ("FDIV",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Fsqrt => ("FSQRT", FloatSimd, [VecDst, VecSrc]),
    // -- SIMD (both 64-bit lanes) ------------------------------------------
    Vadd  => ("VADD",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vsub  => ("VSUB",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vmul  => ("VMUL",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vmla  => ("VMLA",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vand  => ("VAND",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Veor  => ("VEOR",  FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vfadd => ("VFADD", FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vfmul => ("VFMUL", FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vfmla => ("VFMLA", FloatSimd, [VecDst, VecSrc, VecSrc]),
    Vmovi => ("VMOVI", FloatSimd, [VecDst, Imm, Imm]),
    // -- memory ------------------------------------------------------------
    Ldr  => ("LDR",  Mem, [IntDst, IntSrc, Imm]),
    Str  => ("STR",  Mem, [IntSrc, IntSrc, Imm]),
    Ldp  => ("LDP",  Mem, [IntDst, IntDst, IntSrc, Imm]),
    Stp  => ("STP",  Mem, [IntSrc, IntSrc, IntSrc, Imm]),
    Vldr => ("VLDR", Mem, [VecDst, IntSrc, Imm]),
    Vstr => ("VSTR", Mem, [VecSrc, IntSrc, Imm]),
    // -- branches ------------------------------------------------------------
    B    => ("B",    Branch, [BranchTarget]),
    Cbz  => ("CBZ",  Branch, [IntSrc, BranchTarget]),
    Cbnz => ("CBNZ", Branch, [IntSrc, BranchTarget]),
    // -- padding -------------------------------------------------------------
    Nop  => ("NOP",  Nop, []),
}

impl Opcode {
    /// Whether this opcode reads memory.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ldr | Opcode::Ldp | Opcode::Vldr)
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Str | Opcode::Stp | Opcode::Vstr)
    }

    /// Whether this opcode is a control-flow instruction.
    pub fn is_branch(self) -> bool {
        self.class() == InstrClass::Branch
    }

    /// Whether this opcode addresses memory (load or store).
    pub fn is_mem(self) -> bool {
        self.class() == InstrClass::Mem
    }

    /// Memory access width in bytes (0 for non-memory opcodes).
    pub fn mem_width(self) -> usize {
        match self {
            Opcode::Ldr | Opcode::Str => 8,
            Opcode::Ldp | Opcode::Stp | Opcode::Vldr | Opcode::Vstr => 16,
            _ => 0,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_is_position_in_all() {
        for (i, class) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn mnemonic_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(
                Opcode::from_mnemonic(&op.mnemonic().to_lowercase()),
                Some(op)
            );
        }
    }

    #[test]
    fn unknown_mnemonic_is_none() {
        assert_eq!(Opcode::from_mnemonic("XYZZY"), None);
    }

    #[test]
    fn memory_widths_match_classes() {
        for &op in Opcode::ALL {
            if op.is_mem() {
                assert!(op.mem_width() > 0, "{op} should have a width");
                assert!(op.is_load() ^ op.is_store(), "{op} must be load xor store");
            } else {
                assert_eq!(op.mem_width(), 0, "{op}");
                assert!(!op.is_load() && !op.is_store());
            }
        }
    }

    #[test]
    fn branches_have_targets() {
        for &op in Opcode::ALL {
            if op.is_branch() {
                assert!(op.slots().contains(&OperandSlot::BranchTarget), "{op}");
            } else {
                assert!(!op.slots().contains(&OperandSlot::BranchTarget), "{op}");
            }
        }
    }

    #[test]
    fn every_class_is_populated() {
        for class in InstrClass::ALL {
            assert!(
                Opcode::ALL.iter().any(|op| op.class() == class),
                "no opcode in class {class}"
            );
        }
    }

    #[test]
    fn nop_has_no_operands() {
        assert!(Opcode::Nop.slots().is_empty());
    }

    #[test]
    fn class_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            InstrClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), InstrClass::ALL.len());
    }
}
