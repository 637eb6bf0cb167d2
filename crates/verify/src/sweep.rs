//! The exhaustive differential sweep: one plan over one fan-out.
//!
//! BDD equivalence (the rest of this crate) proves properties
//! symbolically; this module is the *simulation* side of the house:
//! sweep every index through the gate-level netlist and compare against
//! a precomputed expectation table.
//!
//! - [`Sweep`] is the plan, built once per (netlist, ports, table): the
//!   opcode-fused tape ([`SimProgram::compile_fused`]) behind an `Arc`
//!   plus the table pre-transposed into the word domain. The word type
//!   is the lane width — [`SimWord::LANES`] consecutive indices settle
//!   per tape walk: 64 (`u64`), 256 ([`W256`]) or 512 ([`W512`]).
//!   [`Sweep::check`] runs the plan on any number of workers, so
//!   throughput scales as *threads × lanes*.
//! - [`fan_out`] is the one thread fan-out: contiguous balanced shards
//!   ([`shard_ranges`]) on scoped threads, results in shard order, and
//!   no thread at all for a single worker. The sweep, the one-hot scan
//!   ([`find_one_hot_violation`]), the stuck-at campaign and the sharded
//!   oracle table all run on it.
//! - [`exhaustive_check_scalar`] is the reference: one scalar
//!   [`Simulator`] walk per index.
//!
//! **Deterministic reporting.** Every sweep reports the *lowest*
//! mismatching index (lowest batch, then lowest lane — the scalar
//! sweep's index order), so a fault has one canonical witness (index,
//! port, got, want) at every lane width and worker count. Shards are
//! contiguous and ascending, each worker reports the lowest divergence
//! within its shard, and the reduction takes the first report in shard
//! order, which is therefore the globally lowest index. Lanes are
//! independent (combinational words never mix bits across lanes), so
//! the got/want words cannot depend on which batch companions an index
//! happens to ride with, and fusion never elides an output port, so the
//! fused tape's verdict is the canonical tape's.
//!
//! The expectation table is data, not a closure, so a timed sweep
//! measures simulation throughput alone; table generation lives in the
//! oracle module ([`crate::expected_permutation_words`]).

use hwperm_bignum::Ubig;
use hwperm_logic::{
    BatchSim, BatchSimulator, NetId, Netlist, SimProgram, SimWord, Simulator, LANES,
};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

#[cfg(doc)]
use hwperm_logic::{W256, W512};

/// First divergence found by an exhaustive differential sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveMismatch {
    /// The lowest input index whose output diverges.
    pub index: u64,
    /// The output port that diverged.
    pub port: String,
    /// What the netlist produced at that index.
    pub got: u64,
    /// What the expectation table said it should produce.
    pub want: u64,
}

impl fmt::Display for ExhaustiveMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "index {}: output {:?} = {:#x}, expected {:#x}",
            self.index, self.port, self.got, self.want
        )
    }
}

impl std::error::Error for ExhaustiveMismatch {}

/// Splits `items` into `workers` contiguous, ascending ranges whose
/// sizes differ by at most one (the remainder spread over the leading
/// ranges — the same balanced split as `hwperm_core::ParallelPlan`).
/// Ranges beyond the item count are empty.
///
/// Public because shard boundaries are part of the determinism
/// contracts of every fan-out built on them ([`fan_out`] here, block
/// serving in `hwperm-serve`).
///
/// # Panics
/// Panics if `workers == 0`.
pub fn shard_ranges(items: usize, workers: usize) -> Vec<Range<usize>> {
    assert!(workers >= 1, "need at least one worker");
    let per = items / workers;
    let rem = items % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut cursor = 0usize;
    for i in 0..workers {
        let len = per + usize::from(i < rem);
        shards.push(cursor..cursor + len);
        cursor += len;
    }
    shards
}

/// Runs `job` once per shard of `0..items` split over `workers`
/// ([`shard_ranges`]) and returns the results in shard order.
///
/// Each shard runs on its own scoped thread. With `workers == 1` the
/// single shard runs inline on the caller's thread, so a sequential
/// sweep spawns nothing.
///
/// # Panics
/// Panics if `workers == 0`; a panicking shard re-raises its panic on
/// the caller.
pub fn fan_out<T, F>(items: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let shards = shard_ranges(items, workers);
    if workers == 1 {
        return shards.into_iter().map(job).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let job = &job;
                scope.spawn(move || job(shard))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Validates the swept ports against a table of `total` indices and
/// returns the input port width.
///
/// # Panics
/// Panics if either port is missing, either exceeds the `u64` value
/// domain, or the input port cannot represent every index.
pub(crate) fn port_width_checked(
    netlist: &Netlist,
    input: &str,
    output: &str,
    total: usize,
) -> usize {
    let in_w = netlist
        .input_port(input)
        .unwrap_or_else(|| panic!("no input port named {input:?}"))
        .nets
        .len();
    let out_w = netlist
        .output_port(output)
        .unwrap_or_else(|| panic!("no output port named {output:?}"))
        .nets
        .len();
    assert!(
        in_w < 64 && out_w <= 64,
        "ports {input:?} ({in_w} bits) / {output:?} ({out_w} bits) exceed the u64 sweep"
    );
    assert!(
        in_w == 63 || (total as u64) <= 1u64 << in_w,
        "{total} indices do not fit input port {input:?} ({in_w} bits)"
    );
    in_w
}

/// An exhaustive differential sweep, planned once: drive `input` with
/// `0, 1, …, expected.len() - 1` and compare `output` against
/// `expected` (element `i` = expected output word at index `i`).
///
/// The plan owns the compiled tape (shared with every worker's
/// simulator through an `Arc`) and the table transposed into batches of
/// [`SimWord::LANES`] indices: per batch, the lane words of every input
/// bit (the indices themselves), of every expected output bit, and a
/// mask of the lanes that carry a real index. A batch then costs one
/// word-level tape walk plus `out_bits` XOR/AND ops; no per-lane work
/// happens until a mismatch needs its witness. Index values stay `u64`
/// at every width — the lane count and the value domain are independent
/// axes.
///
/// ```
/// use hwperm_circuits::{converter_netlist, ConverterOptions};
/// use hwperm_logic::W512;
/// use hwperm_verify::{expected_permutation_words, Sweep};
///
/// let netlist = converter_netlist(5, ConverterOptions::default());
/// let sweep = Sweep::<W512>::new(&netlist, "index", "perm", &expected_permutation_words(5));
/// assert_eq!(sweep.check(1), Ok(()));
/// assert_eq!(sweep.check(3), Ok(()));
/// ```
#[derive(Debug)]
pub struct Sweep<W: SimWord> {
    program: Arc<SimProgram>,
    input: String,
    output: String,
    out_nets: Vec<NetId>,
    /// The original per-index table (witness extraction on mismatch).
    expected: Vec<u64>,
    in_bits: usize,
    /// Batch-major `[batch][in_bit]` lane words of the index values.
    in_words: Vec<W>,
    /// Batch-major `[batch][out_bit]` lane words of the expected outputs.
    want_words: Vec<W>,
    /// Per-batch mask of lanes that carry a real index.
    live: Vec<W>,
}

impl<W: SimWord> Sweep<W> {
    /// Plans the sweep on the opcode-fused tape of `netlist`.
    ///
    /// # Panics
    /// Panics if either port is missing, the input port cannot
    /// represent every index, or either port exceeds the 64-bit `u64`
    /// value domain.
    pub fn new(netlist: &Netlist, input: &str, output: &str, expected: &[u64]) -> Self {
        let program = SimProgram::compile_fused_shared(netlist.clone());
        Self::from_program(program, input, output, expected)
    }

    /// Plans the sweep on an already-compiled tape — fused or canonical
    /// ([`SimProgram::compile`]); the verdict is the same on both.
    ///
    /// # Panics
    /// Same conditions as [`Sweep::new`].
    pub fn from_program(
        program: Arc<SimProgram>,
        input: &str,
        output: &str,
        expected: &[u64],
    ) -> Self {
        let in_bits = port_width_checked(program.netlist(), input, output, expected.len());
        let out_nets = program
            .netlist()
            .output_port(output)
            .expect("port checked above")
            .nets
            .clone();
        let out_bits = out_nets.len();
        let batches = expected.len().div_ceil(W::LANES);
        let mut in_words = vec![W::zero(); batches * in_bits];
        let mut want_words = vec![W::zero(); batches * out_bits];
        let mut live = vec![W::zero(); batches];
        for (index, &want) in expected.iter().enumerate() {
            let (batch, lane) = (index / W::LANES, index % W::LANES);
            live[batch].set_lane(lane, true);
            for (b, word) in in_words[batch * in_bits..][..in_bits]
                .iter_mut()
                .enumerate()
            {
                word.set_lane(lane, (index >> b) & 1 == 1);
            }
            for (b, word) in want_words[batch * out_bits..][..out_bits]
                .iter_mut()
                .enumerate()
            {
                word.set_lane(lane, (want >> b) & 1 == 1);
            }
        }
        Sweep {
            program,
            input: input.to_string(),
            output: output.to_string(),
            out_nets,
            expected: expected.to_vec(),
            in_bits,
            in_words,
            want_words,
            live,
        }
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// `true` iff the sweep covers no indices.
    pub fn is_empty(&self) -> bool {
        self.expected.is_empty()
    }

    /// Number of [`SimWord::LANES`]-lane batches covering the table —
    /// the unit [`Sweep::check`] shards over workers.
    pub fn batches(&self) -> usize {
        self.live.len()
    }

    /// A fresh simulator over this sweep's shared tape, for
    /// [`Sweep::check_batches`]. Costs one flat word array.
    pub fn simulator(&self) -> BatchSim<W> {
        BatchSim::from_program(Arc::clone(&self.program))
    }

    /// Checks the batches in `batches` and reports the first mismatch
    /// *within that range* in index order. [`Sweep::check`] hands each
    /// worker one contiguous range; a caller that times repeated sweeps
    /// can reuse one simulator across calls.
    ///
    /// # Panics
    /// Panics if `sim` was not made by [`Sweep::simulator`] of this
    /// sweep, or the range runs past [`Sweep::batches`].
    pub fn check_batches(
        &self,
        sim: &mut BatchSim<W>,
        batches: Range<usize>,
    ) -> Result<(), ExhaustiveMismatch> {
        assert!(
            Arc::ptr_eq(sim.program(), &self.program),
            "the simulator does not run this sweep's tape"
        );
        let out_bits = self.out_nets.len();
        for batch in batches {
            let live = self.live[batch];
            sim.set_input_words(
                &self.input,
                &self.in_words[batch * self.in_bits..][..self.in_bits],
            );
            sim.eval();
            let want = &self.want_words[batch * out_bits..][..out_bits];
            let mut diff = W::zero();
            for (net, &want_word) in self.out_nets.iter().zip(want) {
                diff = diff | ((sim.probe(*net) ^ want_word) & live);
            }
            if let Some(lane) = diff.first_lane() {
                // Cold path: pinpoint the lowest mismatching lane and
                // re-extract its output word bit by bit.
                let index = batch * W::LANES + lane;
                let got = self
                    .out_nets
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (b, net)| {
                        acc | ((sim.probe(*net).lane(lane) as u64) << b)
                    });
                return Err(ExhaustiveMismatch {
                    index: index as u64,
                    port: self.output.clone(),
                    got,
                    want: self.expected[index],
                });
            }
        }
        Ok(())
    }
}

impl<W: SimWord + Send + Sync> Sweep<W> {
    /// Runs the whole sweep on `workers` threads ([`fan_out`] over
    /// [`Sweep::batches`]; inline for one worker) and returns the
    /// lowest-index mismatch, identical for every worker count.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn check(&self, workers: usize) -> Result<(), ExhaustiveMismatch> {
        fan_out(self.batches(), workers, |batches| {
            self.check_batches(&mut self.simulator(), batches)
        })
        .into_iter()
        .collect()
    }
}

/// One-worker [`Sweep`] of `netlist` at lane width `W`.
///
/// # Panics
/// Same conditions as [`Sweep::new`].
pub fn exhaustive_check_batched_wide<W: SimWord + Send + Sync>(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Result<(), ExhaustiveMismatch> {
    Sweep::<W>::new(netlist, input, output, expected).check(1)
}

/// `workers`-thread [`Sweep`] of `netlist` at lane width `W`.
///
/// # Panics
/// Same conditions as [`Sweep::new`] and [`Sweep::check`].
pub fn exhaustive_check_parallel_wide<W: SimWord + Send + Sync>(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
    workers: usize,
) -> Result<(), ExhaustiveMismatch> {
    Sweep::<W>::new(netlist, input, output, expected).check(workers)
}

/// Scalar reference sweep: one [`Simulator`] walk per index. Kept as
/// the reference implementation (mismatch parity) and the baseline side
/// of the scalar-vs-batched benchmarks.
///
/// # Panics
/// Same conditions as [`Sweep::new`].
pub fn exhaustive_check_scalar(
    netlist: &Netlist,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Result<(), ExhaustiveMismatch> {
    port_width_checked(netlist, input, output, expected.len());
    let mut sim = Simulator::new(netlist.clone());
    exhaustive_check_scalar_with(&mut sim, input, output, expected)
}

/// Steady-state core of [`exhaustive_check_scalar`]: sweeps the table
/// through an existing scalar simulator, one netlist walk per index.
pub fn exhaustive_check_scalar_with(
    sim: &mut Simulator,
    input: &str,
    output: &str,
    expected: &[u64],
) -> Result<(), ExhaustiveMismatch> {
    for (index, &want) in expected.iter().enumerate() {
        sim.set_input(input, &Ubig::from(index as u64));
        sim.eval();
        let got = sim
            .read_output(output)
            .to_u64()
            .expect("output checked <= 64 bits");
        if got != want {
            return Err(ExhaustiveMismatch {
                index: index as u64,
                port: output.to_string(),
                got,
                want,
            });
        }
    }
    Ok(())
}

/// Ground-truth-by-simulation check of every recorded one-hot bank:
/// sweeps all `2^w` values of the named input port, 64 per pass, on
/// `workers` threads ([`fan_out`]; inline for one worker), and returns
/// the lowest input value under which some bank is *not* exactly
/// one-hot (`None` when all banks hold everywhere) — identical for
/// every worker count.
///
/// The per-lane exactly-one predicate is computed word-parallel: for a
/// bank with line words `w`, the chain `one = (one & !w) | (none & w);
/// none &= !w` leaves bit `l` of `one` set iff lane `l` saw exactly one
/// hot line — the 64-wide analogue of the BDD chain in
/// [`crate::check_one_hot_bank`]. This is the simulation cross-check
/// the lint mutation sweep uses to validate BDD verdicts. It runs the
/// canonical tape, because bank lines are internal nets that fusion may
/// elide.
///
/// # Panics
/// Panics if `workers == 0`, or — when the netlist records a bank — if
/// the port is missing or 64+ bits wide (the sweep would not terminate
/// in this universe anyway).
pub fn find_one_hot_violation(netlist: &Netlist, input: &str, workers: usize) -> Option<u64> {
    assert!(workers >= 1, "need at least one worker");
    let banks = netlist.one_hot_banks();
    if banks.is_empty() {
        return None;
    }
    let width = netlist
        .input_port(input)
        .unwrap_or_else(|| panic!("no input port named {input:?}"))
        .nets
        .len();
    assert!(
        width < 64,
        "input port {input:?} too wide to sweep ({width} bits)"
    );
    let total = 1u64 << width;
    let program = SimProgram::compile_shared(netlist.clone());
    let batches = total.div_ceil(LANES as u64) as usize;
    fan_out(batches, workers, |shard| {
        let mut sim = BatchSimulator::from_program(Arc::clone(&program));
        let start = (shard.start * LANES) as u64;
        let end = ((shard.end * LANES) as u64).min(total);
        scan_one_hot_range(&mut sim, banks, input, start, end)
    })
    .into_iter()
    .flatten()
    .next()
}

/// Scans input values `[start, end)` 64 per pass and returns the lowest
/// violating value *within that range*. The trailing pass of a range
/// that is not a multiple of [`LANES`] masks its unused lanes, so
/// shards of any alignment compose without phantom witnesses.
fn scan_one_hot_range(
    sim: &mut BatchSimulator,
    banks: &[Vec<NetId>],
    input: &str,
    start: u64,
    end: u64,
) -> Option<u64> {
    let mut lanes = [0u64; LANES];
    let mut base = start;
    while base < end {
        let count = ((end - base) as usize).min(LANES);
        for (lane, slot) in lanes[..count].iter_mut().enumerate() {
            *slot = base + lane as u64;
        }
        sim.set_input_lanes_u64(input, &lanes[..count]);
        sim.eval();
        let live = if count == LANES {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        let mut violated = 0u64;
        for bank in banks {
            let mut one = 0u64;
            let mut none = u64::MAX;
            for &net in bank {
                let w = sim.probe(net);
                one = (one & !w) | (none & w);
                none &= !w;
            }
            violated |= !one & live;
        }
        if violated != 0 {
            return Some(base + violated.trailing_zeros() as u64);
        }
        base += count as u64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_logic::{Builder, Gate, W256, W512};

    /// A `bits`-bit identity "converter": y = x.
    fn passthrough(bits: usize) -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", bits);
        b.output_bus("y", &x);
        b.finish()
    }

    fn check<W: SimWord + Send + Sync>(
        nl: &Netlist,
        expected: &[u64],
        workers: usize,
    ) -> Result<(), ExhaustiveMismatch> {
        Sweep::<W>::new(nl, "x", "y", expected).check(workers)
    }

    #[test]
    fn shard_ranges_tile_and_balance() {
        for workers in 1..=9usize {
            for items in [0usize, 1, 3, 12, 64, 65] {
                let shards = shard_ranges(items, workers);
                assert_eq!(shards.len(), workers);
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards[workers - 1].end, items);
                let mut cursor = 0;
                let mut sizes = Vec::new();
                for s in &shards {
                    assert_eq!(s.start, cursor, "contiguous");
                    cursor = s.end;
                    sizes.push(s.len());
                }
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_sizes_match_parallel_plan() {
        // Same balanced-split idiom as hwperm_core::ParallelPlan: block
        // sizes must agree for every (span, workers) pairing.
        use hwperm_core::ParallelPlan;
        for workers in [1usize, 2, 3, 7, 8] {
            for items in [0usize, 3, 12, 24] {
                let shards = shard_ranges(items, workers);
                let plan = ParallelPlan::new(4, &Ubig::zero(), &Ubig::from(items as u64), workers);
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(
                        shard.len(),
                        plan.block(i).count(),
                        "{items} items x {workers} workers, block {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fan_out_with_one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let ran_on = fan_out(10, 1, |_| std::thread::current().id());
        assert_eq!(ran_on, [caller]);
        // More than one worker runs every shard on a spawned thread.
        let ran_on = fan_out(10, 2, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id != caller), "{ran_on:?}");
    }

    #[test]
    fn fan_out_ranges_are_the_shard_ranges_in_order() {
        for workers in 1..=9usize {
            for items in [0usize, 1, 5, 12, 65] {
                assert_eq!(
                    fan_out(items, workers, |range| range),
                    shard_ranges(items, workers),
                    "{items} items x {workers} workers"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn fan_out_reraises_a_worker_panic() {
        fan_out(3, 3, |range| assert!(range.start != 2, "shard 2 failed"));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let expected: Vec<u64> = (0..8).collect();
        let _ = check::<u64>(&passthrough(3), &expected, 0);
    }

    #[test]
    fn clean_sweep_passes_both_paths() {
        let nl = passthrough(3);
        let expected: Vec<u64> = (0..8).collect();
        assert_eq!(check::<u64>(&nl, &expected, 1), Ok(()));
        assert_eq!(exhaustive_check_scalar(&nl, "x", "y", &expected), Ok(()));
    }

    #[test]
    fn first_mismatch_agrees_between_paths() {
        let nl = passthrough(3);
        // Corrupt expectations at two indices; both sweeps must report
        // the *lower* one with identical got/want.
        let mut expected: Vec<u64> = (0..8).collect();
        expected[5] = 0;
        expected[6] = 0;
        let batched = check::<u64>(&nl, &expected, 1).unwrap_err();
        let scalar = exhaustive_check_scalar(&nl, "x", "y", &expected).unwrap_err();
        assert_eq!(batched, scalar);
        assert_eq!(batched.index, 5);
        assert_eq!(batched.got, 5);
        assert_eq!(batched.want, 0);
        assert_eq!(batched.port, "y");
    }

    #[test]
    fn partial_final_batch_checked() {
        // 100 indices: one full batch plus a 36-lane remainder whose
        // unused lanes must not produce phantom mismatches.
        let nl = passthrough(7);
        let expected: Vec<u64> = (0..100).collect();
        assert_eq!(check::<u64>(&nl, &expected, 1), Ok(()));
        let mut bad = expected;
        bad[99] = 42; // last lane of the partial batch
        let err = check::<u64>(&nl, &bad, 1).unwrap_err();
        assert_eq!(err.index, 99);
    }

    #[test]
    fn mismatch_display_names_port_and_index() {
        let m = ExhaustiveMismatch {
            index: 7,
            port: "perm".into(),
            got: 0x1b,
            want: 0x1e,
        };
        assert_eq!(
            m.to_string(),
            "index 7: output \"perm\" = 0x1b, expected 0x1e"
        );
    }

    #[test]
    fn wide_sweeps_agree_with_the_u64_sweep() {
        // 100 indices: a partial W256 batch and a partial W512 batch.
        let nl = passthrough(7);
        let clean: Vec<u64> = (0..100).collect();
        assert_eq!(check::<W256>(&nl, &clean, 1), Ok(()));
        assert_eq!(check::<W512>(&nl, &clean, 1), Ok(()));
        // Corrupt two indices: every width must report the same (lower)
        // witness as the canonical 64-lane sweep — index, port, got,
        // want all byte-identical.
        let mut bad = clean;
        bad[67] = 3; // past lane 64: a W256/W512 lane no u64 batch holds
        bad[99] = 1;
        let canonical = check::<u64>(&nl, &bad, 1).unwrap_err();
        assert_eq!(canonical.index, 67);
        assert_eq!(check::<W256>(&nl, &bad, 1).unwrap_err(), canonical);
        assert_eq!(check::<W512>(&nl, &bad, 1).unwrap_err(), canonical);
    }

    #[test]
    fn wide_plans_batch_like_the_u64_plan() {
        let nl = passthrough(7);
        let mut expected: Vec<u64> = (0..100).collect();
        expected[1] = 3;
        let narrow = Sweep::<u64>::new(&nl, "x", "y", &expected);
        let wide = Sweep::<W256>::new(&nl, "x", "y", &expected);
        assert_eq!(narrow.len(), wide.len());
        assert_eq!(narrow.batches(), 2);
        assert_eq!(wide.batches(), 1);
        // Batch ranges tile: the one mismatch sits in batch 0 at both
        // widths and nowhere else.
        let mut sim = narrow.simulator();
        assert_eq!(narrow.check_batches(&mut sim, 1..2), Ok(()));
        assert_eq!(narrow.check_batches(&mut sim, 0..2).unwrap_err().index, 1);
        assert_eq!(wide.check(1).unwrap_err().index, 1);
    }

    #[test]
    fn canonical_and_fused_tapes_report_identically() {
        let nl = passthrough(7);
        let mut bad: Vec<u64> = (0..100).collect();
        bad[70] = 0;
        let fused = Sweep::<u64>::new(&nl, "x", "y", &bad);
        let canonical = Sweep::<u64>::from_program(SimProgram::compile_shared(nl), "x", "y", &bad);
        assert_eq!(fused.check(2), canonical.check(2));
        assert_eq!(fused.check(1).unwrap_err().index, 70);
    }

    #[test]
    #[should_panic(expected = "does not run this sweep's tape")]
    fn foreign_simulator_rejected() {
        let nl = passthrough(3);
        let expected: Vec<u64> = (0..8).collect();
        let a = Sweep::<u64>::new(&nl, "x", "y", &expected);
        let b = Sweep::<u64>::new(&nl, "x", "y", &expected);
        let _ = a.check_batches(&mut b.simulator(), 0..1);
    }

    #[test]
    #[should_panic(expected = "do not fit input port")]
    fn oversized_table_rejected() {
        let expected: Vec<u64> = (0..9).collect(); // 9 > 2^3
        let _ = check::<u64>(&passthrough(3), &expected, 1);
    }

    #[test]
    fn clean_sweep_passes_for_every_worker_count() {
        let nl = passthrough(8); // 256 indices = 4 batches
        let expected: Vec<u64> = (0..256).collect();
        for workers in [1usize, 2, 3, 4, 8, 13] {
            assert_eq!(
                check::<u64>(&nl, &expected, workers),
                Ok(()),
                "workers = {workers}"
            );
        }
        for workers in [1usize, 3, 8] {
            assert_eq!(
                check::<W512>(&nl, &expected, workers),
                Ok(()),
                "W512, workers = {workers}"
            );
        }
    }

    #[test]
    fn first_mismatch_identical_to_sequential_for_every_worker_count() {
        let nl = passthrough(8);
        // Corrupt several indices across different prospective shards;
        // every worker count must report exactly the sequential witness.
        let mut expected: Vec<u64> = (0..256).collect();
        for &i in &[70usize, 71, 130, 255] {
            expected[i] ^= 0x3;
        }
        let sequential = check::<u64>(&nl, &expected, 1).unwrap_err();
        assert_eq!(sequential.index, 70);
        for workers in [1usize, 2, 3, 8] {
            assert_eq!(
                check::<u64>(&nl, &expected, workers).unwrap_err(),
                sequential,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn wide_parallel_witness_matches_sequential_for_every_worker_count() {
        let nl = passthrough(9); // 512 indices: 8 u64 / 2 W256 / 1 W512 batches
        let mut expected: Vec<u64> = (0..512).collect();
        for &i in &[200usize, 201, 400, 511] {
            expected[i] ^= 0x5;
        }
        let sequential = check::<u64>(&nl, &expected, 1).unwrap_err();
        assert_eq!(sequential.index, 200);
        for workers in [1usize, 2, 3, 8] {
            let w256 = check::<W256>(&nl, &expected, workers).unwrap_err();
            let w512 = check::<W512>(&nl, &expected, workers).unwrap_err();
            assert_eq!(w256, sequential, "W256, workers = {workers}");
            assert_eq!(w512, sequential, "W512, workers = {workers}");
        }
    }

    #[test]
    fn mismatch_in_late_shard_still_found() {
        let nl = passthrough(8);
        let mut expected: Vec<u64> = (0..256).collect();
        expected[255] = 0; // last lane of the last batch
        for workers in [1usize, 2, 4, 8] {
            let err = check::<u64>(&nl, &expected, workers).unwrap_err();
            assert_eq!(err.index, 255, "workers = {workers}");
            assert_eq!(err.got, 255);
            assert_eq!(err.want, 0);
        }
    }

    #[test]
    fn more_workers_than_batches_degrades_gracefully() {
        let nl = passthrough(3); // 8 indices = a single partial batch
        let mut expected: Vec<u64> = (0..8).collect();
        expected[6] = 0;
        let err = check::<u64>(&nl, &expected, 8).unwrap_err();
        assert_eq!(err.index, 6);
    }

    /// Decoder bank over a 4-bit select with `lines` of 16 lines.
    fn decoder_bank(lines: usize) -> Netlist {
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 4);
        let lines = b.decoder(&sel, lines);
        b.record_one_hot_bank(&lines);
        b.output_bus("hot", &lines);
        b.finish()
    }

    #[test]
    fn healthy_decoder_bank_has_no_violation() {
        let nl = decoder_bank(16);
        for workers in [1usize, 2, 8] {
            assert_eq!(find_one_hot_violation(&nl, "sel", workers), None);
        }
        // No recorded banks: trivially None, even with a missing port
        // untouched (the bank check short-circuits first).
        assert_eq!(find_one_hot_violation(&passthrough(3), "x", 4), None);
    }

    #[test]
    fn truncated_decoder_bank_reports_lowest_witness() {
        // 13 of 16 lines: sel in {13, 14, 15} drives zero of them, and
        // the sweep must name 13 — the lowest violating input — for
        // every worker count.
        let nl = decoder_bank(13);
        for workers in [1usize, 2, 3, 8] {
            assert_eq!(
                find_one_hot_violation(&nl, "sel", workers),
                Some(13),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn stuck_line_violation_found_in_partial_batch() {
        // A 2-bit select (4 values — a single partial batch of 4 lanes)
        // with one line stuck high: two-hot whenever another line fires.
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 2);
        let lines = b.decoder(&sel, 4);
        b.record_one_hot_bank(&lines);
        b.output_bus("hot", &lines);
        let nl = b.finish();
        let lines = nl.output_port("hot").unwrap().nets.clone();
        let stuck = nl.with_gate_replaced(lines[3].index(), Gate::Const(true));
        assert_eq!(find_one_hot_violation(&stuck, "sel", 1), Some(0));
    }
}
