#![warn(missing_docs)]

//! Synthetic ARM-flavoured ISA underpinning the GeST reproduction.
//!
//! The GeST paper (ISPASS 2019) evolves loops of real ARM/x86 assembly and
//! measures them on silicon. This crate supplies the equivalent substrate for
//! a fully self-contained reproduction:
//!
//! * [`Reg`]/[`VReg`] — integer and vector register files,
//! * [`Opcode`]/[`Instruction`] — an ARM-flavoured instruction set with
//!   short/long integer, scalar FP, SIMD, memory and branch instructions,
//! * [`ArchState`]/[`Effect`]/[`MicroOp`] — functional execution semantics
//!   (instructions lower once to infallible micro-ops for hot loops), including
//!   per-instruction bit-toggle accounting that the power model consumes,
//! * [`InstructionDef`]/[`OperandDef`]/[`InstructionPool`] — the GA search
//!   space exactly as the paper's XML schema describes it (Figure 4),
//! * [`asm`] — a line assembler and disassembler,
//! * [`Template`]/[`Program`] — template source files with a `#loop_code`
//!   marker (paper §III.B.2),
//! * [`codec`] — a small length-checked binary codec used to persist
//!   populations (paper §III.D).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gest_isa::{asm, ArchState, Reg};
//!
//! let instr = asm::parse_line("ADD x1, x2, x3")?.expect("an instruction");
//! let mut state = ArchState::new(1 << 12);
//! state.set_reg(Reg::new(2)?, 40);
//! state.set_reg(Reg::new(3)?, 2);
//! instr.execute(&mut state)?;
//! assert_eq!(state.reg(Reg::new(1)?), 42);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod codec;
mod def;
mod def_xml;
mod error;
pub mod features;
mod instruction;
mod opcode;
mod program;
mod reg;
mod semantics;
mod template;

pub use def::{
    Gene, InstructionDef, InstructionPart, InstructionPool, OperandDef, OperandKind, PoolBuilder,
};
pub use def_xml::{pool_from_xml, pool_to_xml};
pub use error::{CodecError, ExecError, IsaError};
pub use instruction::{Instruction, Operand};
pub use opcode::{InstrClass, Opcode, OperandSlot};
pub use program::{MemInit, Program};
pub use reg::{Reg, VReg};
pub use semantics::{ArchState, Effect, Flow, MemAccess, MicroOp};
pub use template::Template;
