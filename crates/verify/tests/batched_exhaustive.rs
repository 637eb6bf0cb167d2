//! Exhaustive batched differential checks of the Fig. 1 converter:
//! every index in `[0, n!)` through the gate-level netlist, 64 lanes
//! per pass, against the software unranker — plus mismatch-reporting
//! parity with the scalar sweep on deliberately broken netlists.

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{Gate, Simulator};
use hwperm_verify::{
    exhaustive_check_scalar, expected_permutation_words, ExhaustiveMismatch, Sweep,
};

fn converter(n: usize) -> hwperm_logic::Netlist {
    converter_netlist(n, ConverterOptions::default())
}

/// The sequential 64-lane sweep of the converter's `index` → `perm`.
fn batched(netlist: &hwperm_logic::Netlist, expected: &[u64]) -> Result<(), ExhaustiveMismatch> {
    Sweep::<u64>::new(netlist, "index", "perm", expected).check(1)
}

#[test]
fn converter_n4_to_n6_pass_the_batched_sweep() {
    for n in 4..=6 {
        let netlist = converter(n);
        let expected = expected_permutation_words(n);
        assert_eq!(batched(&netlist, &expected), Ok(()), "n = {n}");
    }
}

#[test]
#[ignore = "n = 7 sweeps 5040 indices through a ~300-gate netlist; run with --ignored"]
fn converter_n7_passes_the_batched_sweep() {
    let netlist = converter(7);
    let expected = expected_permutation_words(7);
    assert_eq!(batched(&netlist, &expected), Ok(()));
}

/// The minimal mismatching index found by a third, independent walk:
/// one scalar simulation per index, no batching, no early-out state.
fn brute_force_first_mismatch(netlist: &hwperm_logic::Netlist, expected: &[u64]) -> Option<u64> {
    let mut sim = Simulator::new(netlist.clone());
    (0u64..expected.len() as u64).find(|&i| {
        sim.set_input_u64("index", i);
        sim.eval();
        sim.read_output("perm").to_u64() != Some(expected[i as usize])
    })
}

/// Swap every And for an Or (and vice versa), one gate at a time, and
/// demand that the batched sweep returns the exact same verdict as the
/// scalar sweep on each mutant — including which index and output the
/// first mismatch is reported at. The batched path scans its 64-lane
/// difference words lowest-lane-first, so ties must break identically.
#[test]
fn first_mismatch_report_is_lane_exact_on_mutants() {
    let netlist = converter(4);
    let expected = expected_permutation_words(4);
    let mut detected = 0usize;
    for (i, gate) in netlist.gates().iter().enumerate() {
        let swapped = match gate {
            Gate::And(a, b) => Gate::Or(*a, *b),
            Gate::Or(a, b) => Gate::And(*a, *b),
            _ => continue,
        };
        let mutant = netlist.with_gate_replaced(i, swapped);
        let batched = batched(&mutant, &expected);
        let scalar = exhaustive_check_scalar(&mutant, "index", "perm", &expected);
        assert_eq!(scalar, batched, "verdicts diverge on mutant of gate {i}");
        if let Err(m) = batched {
            detected += 1;
            assert_eq!(
                Some(m.index),
                brute_force_first_mismatch(&mutant, &expected),
                "gate {i}: batched sweep did not report the minimal index"
            );
            assert_eq!(m.port, "perm");
            assert_ne!(m.got, m.want);
            assert_eq!(m.want, expected[m.index as usize]);
        }
    }
    assert!(
        detected >= 5,
        "only {detected} gate swaps were caught; the oracle has gone soft"
    );
}

/// A mismatch seeded in a specific lane of a specific batch: index 37
/// lives in batch 0's lane 37 at n = 4 (24 indices — so use n = 5,
/// 120 indices: batch 0 covers 0..64, batch 1 covers 64..120). Forcing
/// the expectation wrong at one index must surface exactly that index.
#[test]
fn seeded_expectation_error_pinpoints_its_lane() {
    let netlist = converter(5);
    for &bad in &[0u64, 37, 63, 64, 100, 119] {
        let mut expected = expected_permutation_words(5);
        expected[bad as usize] ^= 1; // poison one index's expectation
        let err = batched(&netlist, &expected).expect_err("poisoned table must fail");
        assert_eq!(err.index, bad, "wrong index surfaced");
        assert_eq!(err.got, err.want ^ 1);
    }
}
