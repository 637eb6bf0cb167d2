//! Determinism parity of the sweep engine against the scalar reference
//! sweep, over the mutation suite.
//!
//! The deterministic-reporting guarantee in `hwperm_verify::Sweep` says
//! [`Sweep::check`] returns *byte-identical* results to
//! [`exhaustive_check_scalar`] at every lane width and every worker
//! count. A clean netlist only exercises the `Ok` side of that claim,
//! so this suite drives the interesting side with the same
//! fault-injection population the circuits crate uses: every
//! fanin-preserving single-gate mutation of the Fig. 1 converter, each
//! checked for identical verdict AND identical first-mismatch witness
//! (index, port, got, want) at `u64`, `W256` and `W512` lanes and 1, 2,
//! 3 and 8 workers — plus worker-count parity for the one-hot bank
//! sweep and a property test over randomly corrupted expectation
//! tables.

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{Gate, Netlist, W256, W512};
use hwperm_verify::{
    exhaustive_check_scalar, expected_permutation_words, find_one_hot_violation,
    ExhaustiveMismatch, Sweep,
};
use proptest::prelude::*;

/// Worker counts the parity claims are pinned at: sequential-degenerate
/// (1), even splits (2, 8) and an odd count (3) whose remainder lands on
/// the leading shards.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A gate with the same fanin but a different function, if one exists —
/// the same mutation operator as the circuits crate's fault-injection
/// suite. Fanin preservation keeps every mutant structurally valid
/// (defined-before-use), so the levelizing tape compiler accepts all of
/// them.
fn mutate(gate: Gate) -> Option<Gate> {
    match gate {
        Gate::And(a, b) => Some(Gate::Or(a, b)),
        Gate::Or(a, b) => Some(Gate::And(a, b)),
        Gate::Xor(a, b) => Some(Gate::Or(a, b)),
        Gate::Not(a) => Some(Gate::And(a, a)), // identity instead of inversion
        Gate::Mux { sel, a, b } => Some(Gate::Mux { sel, a: b, b: a }),
        Gate::Const(v) => Some(Gate::Const(!v)),
        Gate::Input | Gate::Dff { .. } => None,
    }
}

/// Every single-gate mutant of a netlist, tagged with the mutated gate
/// index. Dead gates are included: a mutation there must yield `Ok`
/// from every oracle, which is parity worth checking too.
fn mutants(netlist: &Netlist) -> Vec<(usize, Netlist)> {
    (0..netlist.len())
        .filter_map(|i| {
            let mutated = mutate(netlist.gates()[i])?;
            (mutated != netlist.gates()[i]).then(|| (i, netlist.with_gate_replaced(i, mutated)))
        })
        .collect()
}

/// Every `Sweep::check` report for `netlist` against `expected`: one per
/// (lane width, worker count), labelled for assertion messages.
fn sweep_reports(
    netlist: &Netlist,
    expected: &[u64],
    workers: &[usize],
) -> Vec<(String, Result<(), ExhaustiveMismatch>)> {
    let u64s = Sweep::<u64>::new(netlist, "index", "perm", expected);
    let w256 = Sweep::<W256>::new(netlist, "index", "perm", expected);
    let w512 = Sweep::<W512>::new(netlist, "index", "perm", expected);
    let mut reports = Vec::new();
    for &k in workers {
        reports.push((format!("u64, {k} workers"), u64s.check(k)));
        reports.push((format!("W256, {k} workers"), w256.check(k)));
        reports.push((format!("W512, {k} workers"), w512.check(k)));
    }
    reports
}

#[test]
fn sweep_first_mismatch_matches_scalar_on_every_mutant() {
    let netlist = converter_netlist(4, ConverterOptions::default());
    let expected = expected_permutation_words(4);

    // Ok-side parity first: the pristine converter passes every sweep.
    assert_eq!(
        exhaustive_check_scalar(&netlist, "index", "perm", &expected),
        Ok(())
    );
    for (what, report) in sweep_reports(&netlist, &expected, &WORKER_COUNTS) {
        assert_eq!(report, Ok(()), "pristine netlist, {what}");
    }

    let population = mutants(&netlist);
    assert!(
        population.len() > 40,
        "mutant population too small: {}",
        population.len()
    );
    let mut killed = 0usize;
    for (gate, mutant) in &population {
        let scalar = exhaustive_check_scalar(mutant, "index", "perm", &expected);
        if scalar.is_err() {
            killed += 1;
        }
        for (what, report) in sweep_reports(mutant, &expected, &WORKER_COUNTS) {
            assert_eq!(
                report, scalar,
                "gate {gate}, {what}: sweep diverges from the scalar reference"
            );
        }
    }
    // The Err side must actually occur (the pristine check above covers
    // Ok), or the witness-parity sweep would be vacuous. The n = 4
    // converter has no dead gates, so in fact every mutant is killed;
    // asserting only the floor keeps the test robust to generator
    // changes that introduce dead logic.
    assert!(
        killed > 0,
        "no mutant was killed; the parity check is vacuous"
    );
}

#[test]
fn one_hot_parallel_matches_sequential_on_every_mutant() {
    // The converter's one-hot MUX select banks are recorded in the
    // netlist; mutations inside the decoder cones break exactly-one for
    // some swept input, and the parallel scan must report the identical
    // lowest witness (or identical None) at every worker count.
    let netlist = converter_netlist(4, ConverterOptions::default());
    assert!(
        !netlist.one_hot_banks().is_empty(),
        "converter should record its one-hot select banks"
    );
    let mut violating = 0usize;
    for (gate, mutant) in &mutants(&netlist) {
        let sequential = find_one_hot_violation(mutant, "index", 1);
        if sequential.is_some() {
            violating += 1;
        }
        for workers in WORKER_COUNTS {
            assert_eq!(
                find_one_hot_violation(mutant, "index", workers),
                sequential,
                "gate {gate}, {workers} workers: one-hot witness diverges"
            );
        }
    }
    assert!(
        violating > 0,
        "no mutant violated a one-hot bank; the parity check is vacuous"
    );
}

proptest! {
    // Each case runs a scalar sweep and six engine sweeps (three lane
    // widths at two worker counts) over all 120 indices of the n = 5
    // converter, so modest case counts cover thousands of cross-checked
    // vectors.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomly corrupted expectation tables: whatever the lowest
    /// corrupted-and-detected index turns out to be (including none,
    /// when xor pairs cancel), every sweep must report the exact same
    /// result as the scalar reference at an arbitrary worker count.
    #[test]
    fn corrupted_tables_report_identically(
        corruptions in prop::collection::vec((0usize..120, 1u64..16), 0..6),
        workers in 1usize..10,
    ) {
        let netlist = converter_netlist(5, ConverterOptions::default());
        let mut expected = expected_permutation_words(5);
        for &(index, mask) in &corruptions {
            expected[index] ^= mask;
        }
        let scalar = exhaustive_check_scalar(&netlist, "index", "perm", &expected);
        for (what, report) in sweep_reports(&netlist, &expected, &[1, workers]) {
            prop_assert_eq!(&report, &scalar, "{}", what);
        }
    }
}
