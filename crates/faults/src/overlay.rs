//! Non-destructive fault overlays on a shared simulation tape.
//!
//! An [`OverlaySim`] owns only a value array; the tape itself stays an
//! immutable `Arc<SimProgram>` shared with every healthy simulator and
//! every other overlay. Faults are applied *around* the tape:
//!
//! - stuck-at faults on combinational nets interpose on the wave by
//!   segmented execution (`exec_range` up to the faulted op, force its
//!   output slot, continue) — the netlist is never rewritten;
//! - stuck-at faults on state nets (inputs, constants, DFF outputs)
//!   force the state slot before every settle;
//! - DFF flips invert the register slot after every capture edge;
//! - input bridges wire-AND two primary-input slots before every
//!   settle.
//!
//! The executor is generic over [`SimWord`], with per-lane fault masks:
//! [`FaultySim`] (scalar, every fault on the one lane) and the batched
//! overlays built by [`OverlaySim::batched`] (**one fault per lane**,
//! [`SimWord::LANES`] lanes — 64 for the [`FaultBatchSim`] alias, 256
//! or 512 for the wide words) share the same force/flip/bridge
//! machinery, so a campaign sweeps up to `LANES` distinct faults per
//! tape walk.

use crate::spec::{resolve, FaultSpec, ResolvedFault};
use hwperm_logic::{NetId, SimProgram, SimWord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Force applied to a combinational op's output slot, mid-wave.
#[derive(Debug, Clone, Copy)]
struct CombForce<W> {
    op: usize,
    slot: usize,
    mask: W,
    /// Forced bits, pre-masked (`value ⊆ mask`).
    value: W,
}

/// Force applied to a state slot before every settle.
#[derive(Debug, Clone, Copy)]
struct StateForce<W> {
    slot: usize,
    mask: W,
    value: W,
}

/// Register-slot inversion applied after every capture edge.
#[derive(Debug, Clone, Copy)]
struct Flip<W> {
    slot: usize,
    mask: W,
}

/// Wired-AND of two input slots, applied before every settle.
#[derive(Debug, Clone, Copy)]
struct Bridge<W> {
    a_slot: usize,
    b_slot: usize,
    mask: W,
}

/// A fault-overlay executor over a shared tape. See the module docs;
/// use the [`FaultySim`] / [`FaultBatchSim`] aliases to construct one.
#[derive(Debug)]
pub struct OverlaySim<W: SimWord> {
    program: Arc<SimProgram>,
    values: Vec<W>,
    scratch: Vec<W>,
    /// Sorted by op (one merged entry per faulted op), so the eval loop
    /// walks ascending contiguous segments as `exec_range` requires.
    comb: Vec<CombForce<W>>,
    state: Vec<StateForce<W>>,
    flips: Vec<Flip<W>>,
    bridges: Vec<Bridge<W>>,
}

/// Builds the merged force tables from `(fault, lane mask)` pairs.
/// Forces on the same slot merge mask-wise; where scalar masks collide,
/// the later fault wins (documented on [`FaultySim::new`]).
fn build<W: SimWord>(
    program: Arc<SimProgram>,
    faults: impl Iterator<Item = (FaultSpec, W)>,
) -> OverlaySim<W> {
    let mut comb: BTreeMap<usize, CombForce<W>> = BTreeMap::new();
    let mut state: BTreeMap<usize, StateForce<W>> = BTreeMap::new();
    let mut flips: BTreeMap<usize, Flip<W>> = BTreeMap::new();
    let mut bridges: Vec<Bridge<W>> = Vec::new();
    let merge = |mask: &mut W, value: &mut W, m: W, v: bool| {
        *mask = *mask | m;
        *value = (*value & !m) | (W::splat(v) & m);
    };
    for (fault, m) in faults {
        match resolve(&program, &fault) {
            ResolvedFault::CombForce { op, slot, value } => {
                let e = comb.entry(op).or_insert(CombForce {
                    op,
                    slot,
                    mask: W::splat(false),
                    value: W::splat(false),
                });
                merge(&mut e.mask, &mut e.value, m, value);
            }
            ResolvedFault::StateForce { slot, value } => {
                let e = state.entry(slot).or_insert(StateForce {
                    slot,
                    mask: W::splat(false),
                    value: W::splat(false),
                });
                merge(&mut e.mask, &mut e.value, m, value);
            }
            ResolvedFault::DffFlip { slot } => {
                let e = flips.entry(slot).or_insert(Flip {
                    slot,
                    mask: W::splat(false),
                });
                e.mask = e.mask | m;
            }
            ResolvedFault::InputBridge { a_slot, b_slot } => {
                bridges.push(Bridge {
                    a_slot,
                    b_slot,
                    mask: m,
                });
            }
        }
    }
    let values = program.initial_values();
    OverlaySim {
        program,
        values,
        scratch: Vec::new(),
        comb: comb.into_values().collect(),
        state: state.into_values().collect(),
        flips: flips.into_values().collect(),
        bridges,
    }
}

impl<W: SimWord> OverlaySim<W> {
    /// A batched overlay with fault `k` assigned to lane `k` — the
    /// width-generic constructor behind [`FaultBatchSim::new`]. Lanes
    /// beyond `faults.len()` are fault-free (useful as a golden lane).
    ///
    /// # Panics
    /// Panics if `faults.len() > W::LANES` or on malformed specs.
    pub fn batched(program: Arc<SimProgram>, faults: &[FaultSpec]) -> OverlaySim<W> {
        assert!(
            faults.len() <= W::LANES,
            "{} faults exceed the {}-lane batch width",
            faults.len(),
            W::LANES
        );
        build(
            program,
            faults.iter().enumerate().map(|(k, &f)| (f, W::lane_one(k))),
        )
    }

    /// The shared tape this overlay executes.
    pub fn program(&self) -> &Arc<SimProgram> {
        &self.program
    }

    /// Drives every lane of the named input port with the same `value`
    /// (the campaign pattern: one index across all faults).
    ///
    /// # Panics
    /// Panics if the port does not exist or `value` does not fit it.
    pub fn set_input_all_lanes_u64(&mut self, name: &str, value: u64) {
        let program = Arc::clone(&self.program);
        let slots = program.input_slots(name);
        assert!(
            slots.len() >= 64 || value >> slots.len() == 0,
            "value {value:#x} does not fit input port {name:?} ({} bits)",
            slots.len()
        );
        for (bit, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = W::splat((value >> bit) & 1 == 1);
        }
    }

    /// Drives the named input port bit-by-bit with prepacked lane
    /// words, one word per port bit (the `Sweep` table layout).
    ///
    /// # Panics
    /// Panics if the port does not exist or `words` has the wrong width.
    pub fn set_input_words(&mut self, name: &str, words: &[W]) {
        let program = Arc::clone(&self.program);
        let slots = program.input_slots(name);
        assert!(
            words.len() == slots.len(),
            "{} words do not match input port {name:?} ({} bits)",
            words.len(),
            slots.len()
        );
        for (&slot, &w) in slots.iter().zip(words) {
            self.values[slot as usize] = w;
        }
    }

    /// Reads the named output port as one lane word per port bit.
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn read_output_words(&self, name: &str) -> Vec<W> {
        self.program
            .output_slots(name)
            .iter()
            .map(|&slot| self.values[slot as usize])
            .collect()
    }

    /// Extracts one lane of the named output port as a `u64`
    /// (LSB-first).
    ///
    /// # Panics
    /// Panics if the port does not exist, is wider than 64 bits, or
    /// `lane >= W::LANES`.
    pub fn read_output_lane_u64(&self, name: &str, lane: usize) -> u64 {
        assert!(
            lane < W::LANES,
            "lane {lane} out of range for the {}-lane batch",
            W::LANES
        );
        let slots = self.program.output_slots(name);
        assert!(
            slots.len() <= 64,
            "output port {name:?} ({} bits) does not fit a u64",
            slots.len()
        );
        slots.iter().enumerate().fold(0u64, |acc, (bit, &slot)| {
            acc | ((self.values[slot as usize].lane(lane) as u64) << bit)
        })
    }

    /// Bridge shorts and state-slot forces, applied before the wave.
    fn apply_pre(&mut self) {
        for br in &self.bridges {
            let and = (self.values[br.a_slot] & self.values[br.b_slot]) & br.mask;
            self.values[br.a_slot] = (self.values[br.a_slot] & !br.mask) | and;
            self.values[br.b_slot] = (self.values[br.b_slot] & !br.mask) | and;
        }
        for sf in &self.state {
            self.values[sf.slot] = (self.values[sf.slot] & !sf.mask) | sf.value;
        }
    }

    /// Combinational settle under the fault overlay. Note that bridge
    /// faults overwrite the bridged input slots, so drive input ports
    /// before *every* `eval`, as a hardware testbench would.
    pub fn eval(&mut self) {
        self.apply_pre();
        let mut start = 0;
        for cf in &self.comb {
            self.program.exec_range(&mut self.values, start..cf.op + 1);
            self.values[cf.slot] = (self.values[cf.slot] & !cf.mask) | cf.value;
            start = cf.op + 1;
        }
        self.program
            .exec_range(&mut self.values, start..self.program.op_count());
    }

    /// One clock: settle, capture every DFF, then invert flipped
    /// register slots (the upset rides the capture path, so it recurs
    /// on every edge).
    pub fn step(&mut self) {
        self.eval();
        self.program.latch(&mut self.values, &mut self.scratch);
        for fl in &self.flips {
            self.values[fl.slot] = self.values[fl.slot] ^ fl.mask;
        }
    }

    /// Resets every DFF slot to its init value. Flip faults do not
    /// apply at reset (the upset model corrupts captures, not the
    /// asynchronous reset network).
    pub fn reset(&mut self) {
        self.program.reset(&mut self.values);
    }

    /// The settled value of a net.
    pub fn probe(&self, net: NetId) -> W {
        self.values[self.program.slot(net)]
    }
}

/// Scalar fault overlay: every fault applies to the single lane. Where
/// two stuck-at faults force the same net, the later one in the spec
/// list wins.
pub type FaultySim = OverlaySim<bool>;

impl OverlaySim<bool> {
    /// A scalar overlay applying all of `faults` at once.
    ///
    /// # Panics
    /// Panics on malformed specs (see [`FaultSpec`]).
    pub fn new(program: Arc<SimProgram>, faults: &[FaultSpec]) -> FaultySim {
        build(program, faults.iter().map(|&f| (f, true)))
    }

    /// Drives the named input port with the low bits of `value`
    /// (LSB-first, like the plain simulators).
    ///
    /// # Panics
    /// Panics if the port does not exist or `value` does not fit it.
    pub fn set_input_u64(&mut self, name: &str, value: u64) {
        let program = Arc::clone(&self.program);
        let slots = program.input_slots(name);
        assert!(
            slots.len() >= 64 || value >> slots.len() == 0,
            "value {value:#x} does not fit input port {name:?} ({} bits)",
            slots.len()
        );
        for (bit, &slot) in slots.iter().enumerate() {
            self.values[slot as usize] = (value >> bit) & 1 == 1;
        }
    }

    /// Reads the named output port as a `u64` (LSB-first).
    ///
    /// # Panics
    /// Panics if the port does not exist or is wider than 64 bits.
    pub fn read_output_u64(&self, name: &str) -> u64 {
        let slots = self.program.output_slots(name);
        assert!(
            slots.len() <= 64,
            "output port {name:?} ({} bits) does not fit a u64",
            slots.len()
        );
        slots.iter().enumerate().fold(0u64, |acc, (bit, &slot)| {
            acc | (u64::from(self.values[slot as usize]) << bit)
        })
    }
}

/// 64-lane fault overlay: lane `k` carries fault `k` alone, so one tape
/// walk evaluates up to 64 distinct single faults side by side. The
/// `u64` instantiation of the width-generic batched overlay — use
/// `OverlaySim::<W256>::batched` / `OverlaySim::<W512>::batched` for
/// 256 or 512 faults per walk.
pub type FaultBatchSim = OverlaySim<u64>;

impl OverlaySim<u64> {
    /// A 64-lane batched overlay with fault `k` assigned to lane `k` —
    /// [`OverlaySim::batched`] at `W = u64`.
    ///
    /// # Panics
    /// Panics if `faults.len() > 64` or on malformed specs.
    pub fn new(program: Arc<SimProgram>, faults: &[FaultSpec]) -> FaultBatchSim {
        Self::batched(program, faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::Builder;

    /// 4-bit adder with a carry-out — pure combinational.
    fn adder() -> Arc<SimProgram> {
        let mut b = Builder::new();
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        SimProgram::compile_shared(b.finish())
    }

    fn adder_sum(program: &Arc<SimProgram>, faults: &[FaultSpec], x: u64, y: u64) -> u64 {
        let mut sim = FaultySim::new(Arc::clone(program), faults);
        sim.set_input_u64("x", x);
        sim.set_input_u64("y", y);
        sim.eval();
        sim.read_output_u64("s") | (sim.read_output_u64("c") << 4)
    }

    #[test]
    fn fault_free_overlay_matches_plain_tape() {
        let program = adder();
        for (x, y) in [(0u64, 0u64), (3, 5), (9, 9), (15, 15)] {
            assert_eq!(adder_sum(&program, &[], x, y), x + y, "{x} + {y}");
        }
    }

    #[test]
    fn input_stuck_at_forces_the_state_slot() {
        let program = adder();
        // x's bit 0 is net 0; stuck-at-1 turns x = 0b0000 into 0b0001.
        let fault = FaultSpec::StuckAt {
            net: NetId::forged(0),
            value: true,
        };
        assert_eq!(adder_sum(&program, &[fault], 0, 0), 1);
        assert_eq!(
            adder_sum(&program, &[fault], 1, 0),
            1,
            "already set: no change"
        );
    }

    #[test]
    fn comb_stuck_at_interposes_mid_wave() {
        let program = adder();
        // Find the net feeding sum bit 0 (an XOR at some comb slot) via
        // the output port: force it to 1 and expect bit 0 set always.
        let s0_slot = program.output_slots("s")[0] as usize;
        let net = (0..program.netlist().len())
            .map(|i| NetId::forged(i as u32))
            .find(|&n| program.slot(n) == s0_slot)
            .unwrap();
        let fault = FaultSpec::StuckAt { net, value: true };
        assert_eq!(adder_sum(&program, &[fault], 0, 0), 1);
        assert_eq!(adder_sum(&program, &[fault], 2, 2), 5);
        assert_eq!(
            adder_sum(&program, &[fault], 1, 0),
            1,
            "masked when already 1"
        );
    }

    #[test]
    fn input_bridge_wire_ands_both_nets() {
        let program = adder();
        // Bridge x bit 0 (net 0) with y bit 0 (net 4).
        let fault = FaultSpec::InputBridge {
            a: NetId::forged(0),
            b: NetId::forged(4),
        };
        // 1 + 0: the AND pulls both low — sum 0.
        assert_eq!(adder_sum(&program, &[fault], 1, 0), 0);
        // 1 + 1: both stay high — unchanged.
        assert_eq!(adder_sum(&program, &[fault], 1, 1), 2);
    }

    #[test]
    fn dff_flip_inverts_after_every_capture() {
        // One DFF shifting its input; flip inverts the captured bit.
        let mut b = Builder::new();
        let x = b.input_bus("x", 1);
        let q = b.dff(x[0], false);
        b.output_bus("y", &[q]);
        let program = SimProgram::compile_shared(b.finish());
        let dff_net = NetId::forged(1);
        let mut sim = FaultySim::new(Arc::clone(&program), &[FaultSpec::DffFlip { net: dff_net }]);
        sim.set_input_u64("x", 1);
        sim.step();
        sim.eval();
        assert_eq!(sim.read_output_u64("y"), 0, "captured 1, flipped to 0");
        sim.set_input_u64("x", 0);
        sim.step();
        sim.eval();
        assert_eq!(sim.read_output_u64("y"), 1, "captured 0, flipped to 1");
        sim.reset();
        assert_eq!(sim.read_output_u64("y"), 0, "reset is not flipped");
    }

    #[test]
    fn batched_lanes_match_scalar_single_fault_runs() {
        let program = adder();
        let faults = [
            FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: true,
            },
            FaultSpec::StuckAt {
                net: NetId::forged(5),
                value: false,
            },
            FaultSpec::InputBridge {
                a: NetId::forged(1),
                b: NetId::forged(5),
            },
        ];
        let mut batch = FaultBatchSim::new(Arc::clone(&program), &faults);
        for (x, y) in [(0u64, 0u64), (5, 10), (15, 1), (7, 7)] {
            batch.set_input_all_lanes_u64("x", x);
            batch.set_input_all_lanes_u64("y", y);
            batch.eval();
            for (k, fault) in faults.iter().enumerate() {
                let got =
                    batch.read_output_lane_u64("s", k) | (batch.read_output_lane_u64("c", k) << 4);
                assert_eq!(
                    got,
                    adder_sum(&program, &[*fault], x, y),
                    "lane {k} ({fault}), x = {x}, y = {y}"
                );
            }
            // Unfaulted lane 3 stays golden.
            let golden =
                batch.read_output_lane_u64("s", 3) | (batch.read_output_lane_u64("c", 3) << 4);
            assert_eq!(golden, x + y, "golden lane, x = {x}, y = {y}");
        }
    }

    #[test]
    fn later_scalar_fault_wins_on_the_same_net() {
        let program = adder();
        let net = NetId::forged(0);
        let sa0 = FaultSpec::StuckAt { net, value: false };
        let sa1 = FaultSpec::StuckAt { net, value: true };
        assert_eq!(adder_sum(&program, &[sa0, sa1], 0, 0), 1);
        assert_eq!(adder_sum(&program, &[sa1, sa0], 1, 0), 0);
    }

    #[test]
    #[should_panic(expected = "65 faults exceed the 64-lane batch width")]
    fn batch_width_overflow_message_pinned() {
        let program = adder();
        let faults: Vec<FaultSpec> = (0..65)
            .map(|_| FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: false,
            })
            .collect();
        let _ = FaultBatchSim::new(program, &faults);
    }

    #[test]
    fn wide_batched_lanes_match_scalar_past_lane_64() {
        use hwperm_logic::W256;
        // More faults than any u64 batch can hold: the whole stuck-at
        // universe of an 8-bit adder (2 faults per net), one W256 lane
        // each, cross-checked against one scalar overlay per fault.
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (s, c) = b.add(&x, &y);
        b.output_bus("s", &s);
        b.output_bus("c", &[c]);
        let program = SimProgram::compile_shared(b.finish());
        let nets = program.netlist().len();
        let faults: Vec<FaultSpec> = (0..nets as u32)
            .flat_map(|i| {
                [false, true].map(|value| FaultSpec::StuckAt {
                    net: NetId::forged(i),
                    value,
                })
            })
            .collect();
        assert!(faults.len() > 64, "universe must overflow a u64 batch");
        let mut batch = OverlaySim::<W256>::batched(Arc::clone(&program), &faults);
        for (x, y) in [(0u64, 0u64), (137, 66), (255, 255)] {
            batch.set_input_all_lanes_u64("x", x);
            batch.set_input_all_lanes_u64("y", y);
            batch.eval();
            for (k, fault) in faults.iter().enumerate() {
                let got =
                    batch.read_output_lane_u64("s", k) | (batch.read_output_lane_u64("c", k) << 8);
                let mut scalar = FaultySim::new(Arc::clone(&program), &[*fault]);
                scalar.set_input_u64("x", x);
                scalar.set_input_u64("y", y);
                scalar.eval();
                let want = scalar.read_output_u64("s") | (scalar.read_output_u64("c") << 8);
                assert_eq!(got, want, "lane {k} ({fault}), x = {x}, y = {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "257 faults exceed the 256-lane batch width")]
    fn wide_batch_overflow_names_the_wide_width() {
        use hwperm_logic::W256;
        let program = adder();
        let faults: Vec<FaultSpec> = (0..257)
            .map(|_| FaultSpec::StuckAt {
                net: NetId::forged(0),
                value: false,
            })
            .collect();
        let _ = OverlaySim::<W256>::batched(program, &faults);
    }
}
