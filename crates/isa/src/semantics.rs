//! Functional execution semantics and activity accounting.
//!
//! Every instruction executes against an [`ArchState`] and yields an
//! [`Effect`] describing control flow plus the *bit-toggle activity* it
//! caused. The paper observes (§III.B.2) that register values have a
//! considerable effect on power — checkerboard patterns like `0xAAAA…`
//! maximize bit switching — so the simulator's power model is driven by the
//! Hamming-distance accounting collected here rather than by opcode class
//! alone.

use crate::instruction::{Instruction, Operand};
use crate::opcode::Opcode;
use crate::reg::{Reg, VReg, NUM_INT_REGS, NUM_VEC_REGS};
use crate::ExecError;

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Fall through to the next instruction.
    Sequential,
    /// Skip the following `n` instructions (a taken forward branch). Skips
    /// past the end of a block simply end the block.
    Skip(u8),
}

/// A memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address after masking and alignment.
    pub addr: usize,
    /// Access width in bytes.
    pub width: usize,
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
}

/// The observable outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Effect {
    /// Where control flow goes next.
    pub flow: Flow,
    /// Total Hamming distance between old and new values of every
    /// destination (registers and stored memory bytes). This is the dynamic
    /// switching-activity proxy consumed by the power model.
    pub dest_toggles: u32,
    /// Total population count of all source values read. A secondary
    /// activity proxy for operand-bus and ALU input capacitance.
    pub src_bits: u32,
    /// The memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// Whether a branch was taken (always `false` for non-branches).
    pub branch_taken: bool,
}

impl Default for Effect {
    fn default() -> Self {
        Effect {
            flow: Flow::Sequential,
            dest_toggles: 0,
            src_bits: 0,
            mem: None,
            branch_taken: false,
        }
    }
}

/// Architectural state: integer registers, vector registers, and a private
/// data-memory buffer.
///
/// The memory buffer plays the role of the virus's scratch array. Like the
/// viruses in the paper (which keep extremely high L1 hit rates), addresses
/// are wrapped into the buffer with a power-of-two mask, so any generated
/// base/offset combination is a safe, in-bounds access.
#[derive(Debug, Clone)]
pub struct ArchState {
    xregs: [u64; NUM_INT_REGS as usize],
    vregs: [[u64; 2]; NUM_VEC_REGS as usize],
    mem: Vec<u8>,
    /// Incremental content hash of `mem` (see [`ArchState::mem_hash`]):
    /// the XOR over all bytes of `mem_byte_mix(addr, mem[addr])`, kept
    /// current by [`store`](Self::store) so observers can compare memory
    /// images in O(1) instead of O(len). `Cell`: recomputed lazily after
    /// bulk writes that bypass `store`.
    mem_hash: std::cell::Cell<u64>,
    /// Set by bulk-write paths ([`fill_mem`](Self::fill_mem),
    /// [`mem_mut`](Self::mem_mut)); forces a rescan on the next
    /// [`mem_hash`](Self::mem_hash) call.
    mem_hash_dirty: std::cell::Cell<bool>,
}

impl PartialEq for ArchState {
    fn eq(&self, other: &ArchState) -> bool {
        self.xregs == other.xregs && self.vregs == other.vregs && self.mem == other.mem
    }
}

impl Eq for ArchState {}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Zobrist-style per-byte memory mix. Zero bytes map to zero so a zeroed
/// buffer hashes to zero without scanning it.
fn mem_byte_mix(addr: usize, byte: u8) -> u64 {
    if byte == 0 {
        0
    } else {
        splitmix64(((addr as u64) << 8) | u64::from(byte))
    }
}

impl ArchState {
    /// Creates a state with a zeroed memory buffer of `mem_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `mem_size` is not a power of two or is smaller than 64
    /// bytes (the widest access is 16 bytes and needs alignment room).
    pub fn new(mem_size: usize) -> ArchState {
        assert!(
            mem_size.is_power_of_two() && mem_size >= 64,
            "memory size must be a power of two >= 64, got {mem_size}"
        );
        ArchState {
            xregs: [0; NUM_INT_REGS as usize],
            vregs: [[0; 2]; NUM_VEC_REGS as usize],
            mem: vec![0; mem_size],
            // zero bytes contribute 0 to the mix, so a fresh buffer is clean
            mem_hash: std::cell::Cell::new(0),
            mem_hash_dirty: std::cell::Cell::new(false),
        }
    }

    /// The memory buffer size in bytes.
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }

    /// Returns the state to its freshly-constructed condition (all
    /// registers and memory zero) without releasing the memory buffer,
    /// so pooled states can be recycled across simulation runs.
    pub fn reset(&mut self) {
        self.reset_regs();
        self.mem.fill(0);
        self.mem_hash.set(0);
        self.mem_hash_dirty.set(false);
    }

    /// Zeroes just the register files, leaving the memory buffer (and its
    /// hash bookkeeping) untouched — for callers that are about to
    /// overwrite the whole memory image anyway, like the simulator
    /// re-filling a pooled state.
    pub fn reset_regs(&mut self) {
        self.xregs = [0; NUM_INT_REGS as usize];
        self.vregs = [[0; 2]; NUM_VEC_REGS as usize];
    }

    /// Installs a known content hash for the current memory image,
    /// clearing any pending rescan. Callers that initialize many states
    /// with the same fill pattern can compute the hash once and seed the
    /// rest; subsequent [`store`](Self::store) updates stay incremental
    /// from the seeded value.
    ///
    /// Debug builds verify the seed against a full rescan, so any
    /// mismatch is caught by the test suite rather than silently skewing
    /// hash-based observers.
    pub fn seed_mem_hash(&self, hash: u64) {
        #[cfg(debug_assertions)]
        {
            let mut check = 0u64;
            for (addr, &byte) in self.mem.iter().enumerate() {
                check ^= mem_byte_mix(addr, byte);
            }
            debug_assert_eq!(check, hash, "seeded mem hash must match the image");
        }
        self.mem_hash.set(hash);
        self.mem_hash_dirty.set(false);
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.xregs[r.index() as usize]
    }

    /// Writes an integer register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.xregs[r.index() as usize] = value;
    }

    /// Reads a vector register as two 64-bit lanes.
    pub fn vreg(&self, v: VReg) -> [u64; 2] {
        self.vregs[v.index() as usize]
    }

    /// Writes a vector register.
    pub fn set_vreg(&mut self, v: VReg, lanes: [u64; 2]) {
        self.vregs[v.index() as usize] = lanes;
    }

    /// Fills the memory buffer with a repeating byte pattern.
    pub fn fill_mem(&mut self, byte: u8) {
        self.mem.fill(byte);
        self.mem_hash_dirty.set(true);
    }

    /// Direct read access to the memory buffer (e.g. for workload setup).
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// All integer registers in index order.
    pub fn xregs(&self) -> &[u64] {
        &self.xregs
    }

    /// All vector registers in index order, as 64-bit lane pairs.
    pub fn vregs(&self) -> &[[u64; 2]] {
        &self.vregs
    }

    /// Direct mutable access to the memory buffer.
    pub fn mem_mut(&mut self) -> &mut [u8] {
        self.mem_hash_dirty.set(true);
        &mut self.mem
    }

    /// A 64-bit content hash of the memory buffer, equal for equal images.
    ///
    /// Maintained incrementally by [`store`](Self::store) — one XOR pair per
    /// changed byte — so during simulation this is O(1) per call rather than
    /// O(len). Bulk writes through [`fill_mem`](Self::fill_mem) or
    /// [`mem_mut`](Self::mem_mut) mark the hash stale and the next call
    /// rescans the buffer once.
    ///
    /// Two different images collide with probability ~2⁻⁶⁴; callers that
    /// need certainty must compare [`mem`](Self::mem) directly.
    pub fn mem_hash(&self) -> u64 {
        if self.mem_hash_dirty.get() {
            let mut h = 0u64;
            for (addr, &byte) in self.mem.iter().enumerate() {
                h ^= mem_byte_mix(addr, byte);
            }
            self.mem_hash.set(h);
            self.mem_hash_dirty.set(false);
        }
        self.mem_hash.get()
    }

    fn mem_addr(&self, base: u64, offset: i64, width: usize) -> usize {
        let raw = base.wrapping_add(offset as u64) as usize;
        (raw & (self.mem.len() - 1)) & !(width - 1)
    }

    /// Reads the little-endian 64-bit word at `addr` (in bounds: `addr`
    /// comes from [`mem_addr`](Self::mem_addr) with width 8 or 16).
    fn load(&self, addr: usize) -> u64 {
        let bytes = &self.mem[addr..addr + 8];
        u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
    }

    /// Writes the little-endian 64-bit word at `addr` and returns how many
    /// bits flipped. The content hash takes one XOR pair per changed byte,
    /// so it stays equal to a full rescan.
    fn store(&mut self, addr: usize, value: u64) -> u32 {
        let bytes: &mut [u8; 8] = (&mut self.mem[addr..addr + 8])
            .try_into()
            .expect("8-byte slice");
        let old = u64::from_le_bytes(*bytes);
        let diff = old ^ value;
        if diff != 0 {
            *bytes = value.to_le_bytes();
            let mut hash_delta = 0u64;
            for i in 0..8 {
                let (old_byte, new_byte) = ((old >> (8 * i)) as u8, (value >> (8 * i)) as u8);
                if old_byte != new_byte {
                    hash_delta ^=
                        mem_byte_mix(addr + i, old_byte) ^ mem_byte_mix(addr + i, new_byte);
                }
            }
            self.mem_hash.set(self.mem_hash.get() ^ hash_delta);
        }
        diff.count_ones()
    }
}

/// The canonical checkerboard initialization pattern used by the paper's
/// templates to maximize bit switching.
pub const CHECKERBOARD: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// An [`Instruction`] lowered for execution: its operands resolved once
/// to raw register indices, immediates and a branch distance, so
/// [`execute`](MicroOp::execute) neither re-validates operands nor can
/// fail. Hot loops lower each static instruction once and execute the
/// micro-op per dynamic instance; [`Instruction::execute`] lowers on the
/// fly, so both run the same semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    opcode: Opcode,
    /// Register operands by operand position: an integer or vector
    /// register index, as the opcode's slot says. Other positions are 0.
    regs: [u8; 4],
    /// Forward branch distance (branches only).
    target: u8,
    /// Immediate operands, in operand order.
    imm: [i64; 2],
}

// Register indices are masked into range on every access, which both
// keeps out-of-range indices impossible and lets the compiler drop the
// register-file bounds checks; that needs power-of-two register files.
const _: () = assert!(NUM_INT_REGS.is_power_of_two() && NUM_VEC_REGS.is_power_of_two());

fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

impl Instruction {
    /// Lowers this instruction to a [`MicroOp`].
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use gest_isa::{asm, ArchState, Reg};
    /// let op = asm::parse_line("ADDI x1, x1, #5")?.unwrap().lower();
    /// let mut state = ArchState::new(64);
    /// op.execute(&mut state);
    /// op.execute(&mut state);
    /// assert_eq!(state.reg(Reg::new(1)?), 10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn lower(&self) -> MicroOp {
        let mut op = MicroOp {
            opcode: self.opcode(),
            regs: [0; 4],
            target: 0,
            imm: [0; 2],
        };
        let mut imms = 0;
        for (i, &operand) in self.operands().iter().enumerate() {
            match operand {
                Operand::Reg(r) => op.regs[i] = r.index(),
                Operand::VReg(v) => op.regs[i] = v.index(),
                Operand::Imm(v) => {
                    op.imm[imms] = v;
                    imms += 1;
                }
                Operand::Target(t) => op.target = t,
            }
        }
        op
    }

    /// Executes this instruction against `state`.
    ///
    /// # Errors
    ///
    /// None: instructions are validated on construction, so execution
    /// cannot fail. The `Result` is kept for API compatibility; hot loops
    /// should [`lower`](Instruction::lower) once and call
    /// [`MicroOp::execute`] instead.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use gest_isa::{asm, ArchState, Flow};
    /// let mut state = ArchState::new(64);
    /// let b = asm::parse_line("B #2")?.unwrap();
    /// let effect = b.execute(&mut state)?;
    /// assert_eq!(effect.flow, Flow::Skip(2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn execute(&self, state: &mut ArchState) -> Result<Effect, ExecError> {
        Ok(self.lower().execute(state))
    }
}

impl MicroOp {
    /// Integer register index of operand `i`.
    #[inline(always)]
    fn x(&self, i: usize) -> usize {
        usize::from(self.regs[i] & (NUM_INT_REGS - 1))
    }

    /// Vector register index of operand `i`.
    #[inline(always)]
    fn v(&self, i: usize) -> usize {
        usize::from(self.regs[i] & (NUM_VEC_REGS - 1))
    }

    /// Integer three-operand helper: dst = f(a, b).
    #[inline(always)]
    fn int3(&self, state: &mut ArchState, effect: &mut Effect, f: impl Fn(u64, u64) -> u64) {
        let dst = self.x(0);
        let a = state.xregs[self.x(1)];
        let b = state.xregs[self.x(2)];
        let result = f(a, b);
        effect.src_bits = a.count_ones() + b.count_ones();
        effect.dest_toggles = hamming(state.xregs[dst], result);
        state.xregs[dst] = result;
    }

    /// Integer reg+imm helper: dst = f(a, imm).
    #[inline(always)]
    fn int_imm(&self, state: &mut ArchState, effect: &mut Effect, f: impl Fn(u64, i64) -> u64) {
        let dst = self.x(0);
        let a = state.xregs[self.x(1)];
        let result = f(a, self.imm[0]);
        effect.src_bits = a.count_ones();
        effect.dest_toggles = hamming(state.xregs[dst], result);
        state.xregs[dst] = result;
    }

    /// Scalar FP helper on lane 0: dst = f(a, b) with lane 1 preserved.
    #[inline(always)]
    fn fp2(&self, state: &mut ArchState, effect: &mut Effect, f: impl Fn(f64, f64) -> f64) {
        let dst = self.v(0);
        let a = state.vregs[self.v(1)];
        let b = state.vregs[self.v(2)];
        let result = sanitize(f(f64::from_bits(a[0]), f64::from_bits(b[0])));
        let old = state.vregs[dst];
        let new = [result.to_bits(), old[1]];
        effect.src_bits = a[0].count_ones() + b[0].count_ones();
        effect.dest_toggles = hamming(old[0], new[0]);
        state.vregs[dst] = new;
    }

    /// SIMD lane-wise integer helper.
    #[inline(always)]
    fn simd3(&self, state: &mut ArchState, effect: &mut Effect, f: impl Fn(u64, u64) -> u64) {
        let dst = self.v(0);
        let a = state.vregs[self.v(1)];
        let b = state.vregs[self.v(2)];
        let old = state.vregs[dst];
        let new = [f(a[0], b[0]), f(a[1], b[1])];
        effect.src_bits =
            a[0].count_ones() + a[1].count_ones() + b[0].count_ones() + b[1].count_ones();
        effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
        state.vregs[dst] = new;
    }

    /// SIMD lane-wise FP helper.
    #[inline(always)]
    fn simd_fp(&self, state: &mut ArchState, effect: &mut Effect, f: impl Fn(f64, f64) -> f64) {
        let dst = self.v(0);
        let a = state.vregs[self.v(1)];
        let b = state.vregs[self.v(2)];
        let old = state.vregs[dst];
        let new = [
            sanitize(f(f64::from_bits(a[0]), f64::from_bits(b[0]))).to_bits(),
            sanitize(f(f64::from_bits(a[1]), f64::from_bits(b[1]))).to_bits(),
        ];
        effect.src_bits =
            a[0].count_ones() + a[1].count_ones() + b[0].count_ones() + b[1].count_ones();
        effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
        state.vregs[dst] = new;
    }

    /// Executes this micro-op against `state`. Infallible: the operands
    /// were resolved by [`Instruction::lower`].
    #[inline]
    pub fn execute(&self, state: &mut ArchState) -> Effect {
        let mut effect = Effect::default();
        match self.opcode {
            Opcode::Add => self.int3(state, &mut effect, u64::wrapping_add),
            Opcode::Sub => self.int3(state, &mut effect, u64::wrapping_sub),
            Opcode::And => self.int3(state, &mut effect, |a, b| a & b),
            Opcode::Orr => self.int3(state, &mut effect, |a, b| a | b),
            Opcode::Eor => self.int3(state, &mut effect, |a, b| a ^ b),
            Opcode::Addi => self.int_imm(state, &mut effect, |a, i| a.wrapping_add(i as u64)),
            Opcode::Subi => self.int_imm(state, &mut effect, |a, i| a.wrapping_sub(i as u64)),
            Opcode::Lsl => self.int_imm(state, &mut effect, |a, i| a << (i as u32 & 63)),
            Opcode::Lsr => self.int_imm(state, &mut effect, |a, i| a >> (i as u32 & 63)),
            Opcode::Asr => self.int_imm(state, &mut effect, |a, i| {
                ((a as i64) >> (i as u32 & 63)) as u64
            }),
            Opcode::Mov => {
                let dst = self.x(0);
                let a = state.xregs[self.x(1)];
                effect.src_bits = a.count_ones();
                effect.dest_toggles = hamming(state.xregs[dst], a);
                state.xregs[dst] = a;
            }
            Opcode::Movi => {
                let dst = self.x(0);
                let value = self.imm[0] as u64;
                effect.dest_toggles = hamming(state.xregs[dst], value);
                state.xregs[dst] = value;
            }
            Opcode::Mul => self.int3(state, &mut effect, u64::wrapping_mul),
            Opcode::Smulh => self.int3(state, &mut effect, |a, b| {
                (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64
            }),
            Opcode::Mla => {
                let dst = self.x(0);
                let a = state.xregs[self.x(1)];
                let b = state.xregs[self.x(2)];
                let c = state.xregs[self.x(3)];
                let result = a.wrapping_mul(b).wrapping_add(c);
                effect.src_bits = a.count_ones() + b.count_ones() + c.count_ones();
                effect.dest_toggles = hamming(state.xregs[dst], result);
                state.xregs[dst] = result;
            }
            Opcode::Sdiv => self.int3(state, &mut effect, |a, b| {
                let (a, b) = (a as i64, b as i64);
                if b == 0 {
                    0
                } else if a == i64::MIN && b == -1 {
                    a as u64 // ARM: overflow case returns the dividend pattern.
                } else {
                    (a / b) as u64
                }
            }),
            Opcode::Udiv => self.int3(state, &mut effect, |a, b| a.checked_div(b).unwrap_or(0)),
            Opcode::Fadd => self.fp2(state, &mut effect, |a, b| a + b),
            Opcode::Fsub => self.fp2(state, &mut effect, |a, b| a - b),
            Opcode::Fmul => self.fp2(state, &mut effect, |a, b| a * b),
            Opcode::Fdiv => self.fp2(state, &mut effect, |a, b| a / b),
            Opcode::Fmla => {
                // dst = dst + a * b (fused multiply-add accumulating in dst).
                let dst = self.v(0);
                let a = state.vregs[self.v(1)];
                let b = state.vregs[self.v(2)];
                let old = state.vregs[dst];
                let result = sanitize(
                    f64::from_bits(a[0]).mul_add(f64::from_bits(b[0]), f64::from_bits(old[0])),
                );
                effect.src_bits = a[0].count_ones() + b[0].count_ones() + old[0].count_ones();
                let new = [result.to_bits(), old[1]];
                effect.dest_toggles = hamming(old[0], new[0]);
                state.vregs[dst] = new;
            }
            Opcode::Fsqrt => {
                let dst = self.v(0);
                let a = state.vregs[self.v(1)];
                let result = sanitize(f64::from_bits(a[0]).sqrt());
                let old = state.vregs[dst];
                let new = [result.to_bits(), old[1]];
                effect.src_bits = a[0].count_ones();
                effect.dest_toggles = hamming(old[0], new[0]);
                state.vregs[dst] = new;
            }
            Opcode::Vadd => self.simd3(state, &mut effect, u64::wrapping_add),
            Opcode::Vsub => self.simd3(state, &mut effect, u64::wrapping_sub),
            Opcode::Vmul => self.simd3(state, &mut effect, u64::wrapping_mul),
            Opcode::Vmla => {
                let dst = self.v(0);
                let a = state.vregs[self.v(1)];
                let b = state.vregs[self.v(2)];
                let old = state.vregs[dst];
                let new = [
                    old[0].wrapping_add(a[0].wrapping_mul(b[0])),
                    old[1].wrapping_add(a[1].wrapping_mul(b[1])),
                ];
                effect.src_bits =
                    a[0].count_ones() + a[1].count_ones() + b[0].count_ones() + b[1].count_ones();
                effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
                state.vregs[dst] = new;
            }
            Opcode::Vand => self.simd3(state, &mut effect, |a, b| a & b),
            Opcode::Veor => self.simd3(state, &mut effect, |a, b| a ^ b),
            Opcode::Vfadd => self.simd_fp(state, &mut effect, |a, b| a + b),
            Opcode::Vfmul => self.simd_fp(state, &mut effect, |a, b| a * b),
            Opcode::Vfmla => {
                let dst = self.v(0);
                let a = state.vregs[self.v(1)];
                let b = state.vregs[self.v(2)];
                let old = state.vregs[dst];
                let new = [
                    sanitize(
                        f64::from_bits(a[0]).mul_add(f64::from_bits(b[0]), f64::from_bits(old[0])),
                    )
                    .to_bits(),
                    sanitize(
                        f64::from_bits(a[1]).mul_add(f64::from_bits(b[1]), f64::from_bits(old[1])),
                    )
                    .to_bits(),
                ];
                effect.src_bits =
                    a[0].count_ones() + a[1].count_ones() + b[0].count_ones() + b[1].count_ones();
                effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
                state.vregs[dst] = new;
            }
            Opcode::Vmovi => {
                let dst = self.v(0);
                let new = [self.imm[0] as u64, self.imm[1] as u64];
                let old = state.vregs[dst];
                effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
                state.vregs[dst] = new;
            }
            Opcode::Ldr => {
                let dst = self.x(0);
                let base = state.xregs[self.x(1)];
                let addr = state.mem_addr(base, self.imm[0], 8);
                let value = state.load(addr);
                effect.src_bits = base.count_ones();
                effect.dest_toggles = hamming(state.xregs[dst], value);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 8,
                    is_store: false,
                });
                state.xregs[dst] = value;
            }
            Opcode::Str => {
                let value = state.xregs[self.x(0)];
                let base = state.xregs[self.x(1)];
                let addr = state.mem_addr(base, self.imm[0], 8);
                effect.src_bits = value.count_ones() + base.count_ones();
                effect.dest_toggles = state.store(addr, value);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 8,
                    is_store: true,
                });
            }
            Opcode::Ldp => {
                let dst1 = self.x(0);
                let dst2 = self.x(1);
                let base = state.xregs[self.x(2)];
                let addr = state.mem_addr(base, self.imm[0], 16);
                let v1 = state.load(addr);
                let v2 = state.load(addr + 8);
                effect.src_bits = base.count_ones();
                effect.dest_toggles =
                    hamming(state.xregs[dst1], v1) + hamming(state.xregs[dst2], v2);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 16,
                    is_store: false,
                });
                state.xregs[dst1] = v1;
                state.xregs[dst2] = v2;
            }
            Opcode::Stp => {
                let v1 = state.xregs[self.x(0)];
                let v2 = state.xregs[self.x(1)];
                let base = state.xregs[self.x(2)];
                let addr = state.mem_addr(base, self.imm[0], 16);
                effect.src_bits = v1.count_ones() + v2.count_ones() + base.count_ones();
                effect.dest_toggles = state.store(addr, v1) + state.store(addr + 8, v2);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 16,
                    is_store: true,
                });
            }
            Opcode::Vldr => {
                let dst = self.v(0);
                let base = state.xregs[self.x(1)];
                let addr = state.mem_addr(base, self.imm[0], 16);
                let new = [state.load(addr), state.load(addr + 8)];
                let old = state.vregs[dst];
                effect.src_bits = base.count_ones();
                effect.dest_toggles = hamming(old[0], new[0]) + hamming(old[1], new[1]);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 16,
                    is_store: false,
                });
                state.vregs[dst] = new;
            }
            Opcode::Vstr => {
                let value = state.vregs[self.v(0)];
                let base = state.xregs[self.x(1)];
                let addr = state.mem_addr(base, self.imm[0], 16);
                effect.src_bits = value[0].count_ones() + value[1].count_ones() + base.count_ones();
                effect.dest_toggles = state.store(addr, value[0]) + state.store(addr + 8, value[1]);
                effect.mem = Some(MemAccess {
                    addr,
                    width: 16,
                    is_store: true,
                });
            }
            Opcode::B => {
                effect.flow = Flow::Skip(self.target);
                effect.branch_taken = true;
            }
            Opcode::Cbz => {
                let value = state.xregs[self.x(0)];
                effect.src_bits = value.count_ones();
                if value == 0 {
                    effect.flow = Flow::Skip(self.target);
                    effect.branch_taken = true;
                }
            }
            Opcode::Cbnz => {
                let value = state.xregs[self.x(0)];
                effect.src_bits = value.count_ones();
                if value != 0 {
                    effect.flow = Flow::Skip(self.target);
                    effect.branch_taken = true;
                }
            }
            Opcode::Nop => {}
        }
        effect
    }
}

/// Clamps non-finite floating-point results back into a benign range.
///
/// Stress loops repeatedly multiply/accumulate; without this, values explode
/// to infinity within a few iterations, after which bit activity collapses
/// (inf op inf = inf: zero toggles). Real viruses avoid this by choosing
/// operand values carefully; we make the substrate forgiving instead so the
/// GA explores freely. NaN/inf fold to a fixed mid-range constant.
fn sanitize(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        1.234_567_890_123e10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    fn run(state: &mut ArchState, line: &str) -> Effect {
        asm::parse_line(line)
            .unwrap()
            .unwrap()
            .execute(state)
            .unwrap()
    }

    fn x(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn v(i: u8) -> VReg {
        VReg::new(i).unwrap()
    }

    #[test]
    fn integer_arithmetic() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 10);
        s.set_reg(x(2), 3);
        run(&mut s, "ADD x0, x1, x2");
        assert_eq!(s.reg(x(0)), 13);
        run(&mut s, "SUB x0, x1, x2");
        assert_eq!(s.reg(x(0)), 7);
        run(&mut s, "MUL x0, x1, x2");
        assert_eq!(s.reg(x(0)), 30);
        run(&mut s, "MLA x0, x1, x2, x1");
        assert_eq!(s.reg(x(0)), 40);
    }

    #[test]
    fn logic_and_shifts() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 0b1100);
        s.set_reg(x(2), 0b1010);
        run(&mut s, "AND x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b1000);
        run(&mut s, "ORR x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b1110);
        run(&mut s, "EOR x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0b0110);
        run(&mut s, "LSL x0, x1, #2");
        assert_eq!(s.reg(x(0)), 0b110000);
        run(&mut s, "LSR x0, x1, #2");
        assert_eq!(s.reg(x(0)), 0b11);
        s.set_reg(x(3), (-8i64) as u64);
        run(&mut s, "ASR x0, x3, #1");
        assert_eq!(s.reg(x(0)) as i64, -4);
    }

    #[test]
    fn division_edge_cases() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 7);
        s.set_reg(x(2), 0);
        run(&mut s, "UDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0, "divide by zero yields zero");
        run(&mut s, "SDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), 0);
        s.set_reg(x(1), i64::MIN as u64);
        s.set_reg(x(2), (-1i64) as u64);
        run(&mut s, "SDIV x0, x1, x2");
        assert_eq!(s.reg(x(0)), i64::MIN as u64, "overflow case preserved");
    }

    #[test]
    fn smulh_computes_high_bits() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), 1u64 << 40);
        s.set_reg(x(2), 1u64 << 40);
        run(&mut s, "SMULH x0, x1, x2");
        assert_eq!(s.reg(x(0)), 1u64 << 16);
    }

    #[test]
    fn scalar_fp_lane0_only() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [2.0f64.to_bits(), 777]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 888]);
        s.set_vreg(v(0), [0, 999]);
        run(&mut s, "FMUL v0, v1, v2");
        let lanes = s.vreg(v(0));
        assert_eq!(f64::from_bits(lanes[0]), 6.0);
        assert_eq!(lanes[1], 999, "lane 1 preserved by scalar op");
    }

    #[test]
    fn fmla_accumulates_in_dst() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(0), [10.0f64.to_bits(), 0]);
        s.set_vreg(v(1), [2.0f64.to_bits(), 0]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 0]);
        run(&mut s, "FMLA v0, v1, v2");
        assert_eq!(f64::from_bits(s.vreg(v(0))[0]), 16.0);
    }

    #[test]
    fn fp_nonfinite_sanitized() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [f64::MAX.to_bits(), 0]);
        s.set_vreg(v(2), [f64::MAX.to_bits(), 0]);
        run(&mut s, "FMUL v0, v1, v2");
        assert!(f64::from_bits(s.vreg(v(0))[0]).is_finite());
        s.set_vreg(v(3), [(-1.0f64).to_bits(), 0]);
        run(&mut s, "FSQRT v0, v3");
        assert!(f64::from_bits(s.vreg(v(0))[0]).is_finite());
    }

    #[test]
    fn simd_both_lanes() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [1, 100]);
        s.set_vreg(v(2), [2, 200]);
        run(&mut s, "VADD v0, v1, v2");
        assert_eq!(s.vreg(v(0)), [3, 300]);
        run(&mut s, "VMLA v0, v1, v2");
        assert_eq!(s.vreg(v(0)), [5, 20300]);
        run(&mut s, "VEOR v0, v1, v1");
        assert_eq!(s.vreg(v(0)), [0, 0]);
    }

    #[test]
    fn simd_fp_both_lanes() {
        let mut s = ArchState::new(64);
        s.set_vreg(v(1), [2.0f64.to_bits(), 4.0f64.to_bits()]);
        s.set_vreg(v(2), [3.0f64.to_bits(), 5.0f64.to_bits()]);
        run(&mut s, "VFMUL v0, v1, v2");
        let lanes = s.vreg(v(0));
        assert_eq!(f64::from_bits(lanes[0]), 6.0);
        assert_eq!(f64::from_bits(lanes[1]), 20.0);
    }

    #[test]
    fn load_store_round_trip() {
        let mut s = ArchState::new(256);
        s.set_reg(x(1), 0xDEAD_BEEF_CAFE_F00D);
        s.set_reg(x(10), 64);
        let eff = run(&mut s, "STR x1, [x10, #8]");
        assert_eq!(
            eff.mem,
            Some(MemAccess {
                addr: 72,
                width: 8,
                is_store: true
            })
        );
        run(&mut s, "LDR x2, [x10, #8]");
        assert_eq!(s.reg(x(2)), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn pair_and_vector_memory() {
        let mut s = ArchState::new(256);
        s.set_reg(x(1), 111);
        s.set_reg(x(2), 222);
        s.set_reg(x(10), 32);
        run(&mut s, "STP x1, x2, [x10, #0]");
        run(&mut s, "LDP x3, x4, [x10, #0]");
        assert_eq!((s.reg(x(3)), s.reg(x(4))), (111, 222));
        run(&mut s, "VLDR v0, [x10, #0]");
        assert_eq!(s.vreg(v(0)), [111, 222]);
        s.set_vreg(v(1), [5, 6]);
        run(&mut s, "VSTR v1, [x10, #16]");
        run(&mut s, "LDP x5, x6, [x10, #16]");
        assert_eq!((s.reg(x(5)), s.reg(x(6))), (5, 6));
    }

    #[test]
    fn addresses_wrap_and_align() {
        let mut s = ArchState::new(64);
        s.set_reg(x(10), u64::MAX);
        let eff = run(&mut s, "LDR x0, [x10, #3]");
        let access = eff.mem.unwrap();
        assert!(access.addr < 64);
        assert_eq!(access.addr % 8, 0, "8-byte access is aligned");
        let eff = run(&mut s, "VLDR v0, [x10, #9]");
        assert_eq!(eff.mem.unwrap().addr % 16, 0, "16-byte access is aligned");
    }

    #[test]
    fn branch_semantics() {
        let mut s = ArchState::new(64);
        let eff = run(&mut s, "B #3");
        assert_eq!(eff.flow, Flow::Skip(3));
        assert!(eff.branch_taken);

        s.set_reg(x(1), 0);
        let eff = run(&mut s, "CBZ x1, #2");
        assert_eq!(eff.flow, Flow::Skip(2));
        let eff = run(&mut s, "CBNZ x1, #2");
        assert_eq!(eff.flow, Flow::Sequential);
        assert!(!eff.branch_taken);

        s.set_reg(x(1), 5);
        let eff = run(&mut s, "CBNZ x1, #1");
        assert!(eff.branch_taken);
    }

    #[test]
    fn toggles_reflect_bit_switching() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), CHECKERBOARD);
        s.set_reg(x(2), !CHECKERBOARD);
        // x0 starts 0; ORR of the two checkerboards = all ones: 64 toggles.
        let eff = run(&mut s, "ORR x0, x1, x2");
        assert_eq!(eff.dest_toggles, 64);
        assert_eq!(eff.src_bits, 64);
        // Re-running writes the same value: zero toggles.
        let eff = run(&mut s, "ORR x0, x1, x2");
        assert_eq!(eff.dest_toggles, 0);
    }

    #[test]
    fn store_toggles_count_memory_flips() {
        let mut s = ArchState::new(64);
        s.set_reg(x(1), u64::MAX);
        s.set_reg(x(10), 0);
        let eff = run(&mut s, "STR x1, [x10, #0]");
        assert_eq!(eff.dest_toggles, 64);
        let eff = run(&mut s, "STR x1, [x10, #0]");
        assert_eq!(eff.dest_toggles, 0);
    }

    #[test]
    fn mem_hash_tracks_stores_incrementally() {
        let rescan = |s: &ArchState| {
            let mut h = 0u64;
            for (addr, &byte) in s.mem().iter().enumerate() {
                h ^= mem_byte_mix(addr, byte);
            }
            h
        };

        let mut s = ArchState::new(256);
        assert_eq!(s.mem_hash(), 0, "zeroed memory hashes to zero");

        s.set_reg(x(1), CHECKERBOARD);
        s.set_reg(x(10), 8);
        run(&mut s, "STR x1, [x10, #0]");
        run(&mut s, "VSTR v0, [x10, #32]");
        s.set_reg(x(1), 7);
        run(&mut s, "STR x1, [x10, #120]");
        assert_eq!(s.mem_hash(), rescan(&s), "incremental hash matches rescan");

        // Overwriting with the same value keeps the hash unchanged.
        let before = s.mem_hash();
        run(&mut s, "STR x1, [x10, #120]");
        assert_eq!(s.mem_hash(), before);

        // Bulk writes invalidate and the next call rescans.
        s.fill_mem(0xAA);
        assert_eq!(s.mem_hash(), rescan(&s));
        s.mem_mut()[3] = 0x55;
        assert_eq!(s.mem_hash(), rescan(&s));

        // Equal images hash equal regardless of write history.
        let mut t = ArchState::new(256);
        t.mem_mut().copy_from_slice(s.mem());
        assert_eq!(t.mem_hash(), s.mem_hash());
    }

    #[test]
    fn reset_and_seeded_hash_match_fresh_state() {
        let mut s = ArchState::new(256);
        s.set_reg(x(1), CHECKERBOARD);
        s.set_vreg(crate::reg::VReg::new(2).unwrap(), [7, 9]);
        s.set_reg(x(10), 8);
        run(&mut s, "STR x1, [x10, #0]");
        s.reset();
        assert_eq!(s, ArchState::new(256), "reset == freshly constructed");
        assert_eq!(s.mem_hash(), 0);

        // A seeded hash behaves exactly like a rescanned one: stores keep
        // updating it incrementally from the seeded base.
        let mut reference = ArchState::new(256);
        reference.fill_mem(0x5A);
        let expected = reference.mem_hash();
        s.fill_mem(0x5A);
        s.seed_mem_hash(expected);
        assert_eq!(s.mem_hash(), expected);
        s.set_reg(x(1), 3);
        s.set_reg(x(10), 16);
        reference.set_reg(x(1), 3);
        reference.set_reg(x(10), 16);
        run(&mut s, "STR x1, [x10, #0]");
        run(&mut reference, "STR x1, [x10, #0]");
        assert_eq!(s.mem_hash(), reference.mem_hash());

        // reset_regs leaves memory (and its hash) alone.
        s.reset_regs();
        assert_eq!(s.reg(x(1)), 0);
        assert_eq!(s.mem_hash(), reference.mem_hash());
    }

    #[test]
    fn nop_has_no_effect() {
        let mut s = ArchState::new(64);
        let before = s.clone();
        let eff = Instruction::nop().execute(&mut s).unwrap();
        assert_eq!(s, before);
        assert_eq!(eff, Effect::default());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_mem_size_panics() {
        let _ = ArchState::new(100);
    }

    #[test]
    fn movi_and_vmovi() {
        let mut s = ArchState::new(64);
        run(&mut s, "MOVI x3, #0xAAAAAAAAAAAAAAAA");
        assert_eq!(s.reg(x(3)), CHECKERBOARD);
        run(&mut s, "VMOVI v2, #1, #2");
        assert_eq!(s.vreg(v(2)), [1, 2]);
    }
}
