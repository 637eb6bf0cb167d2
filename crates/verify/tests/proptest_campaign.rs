//! Property tests for the stuck-at campaign engine: the per-fault
//! verdict list must be byte-identical no matter how the fault
//! universe is sharded across workers. Verdicts are a pure function of
//! (netlist, fault, expectation), so 1, 2, 3, and 8 workers — and the
//! scalar reference path — must all agree on every circuit family the
//! CLI's fault driver covers.

use hwperm_circuits::{
    converter_netlist, ConverterOptions, IndexToCombinationConverter, IndexToVariationConverter,
    PermToIndexConverter, SortingNetwork,
};
use hwperm_logic::Netlist;
use hwperm_perm::packed_is_permutation_u64;
use hwperm_verify::{
    expected_permutation_words, golden_output_words, stuck_at_campaign_scalar,
    stuck_at_campaign_wide,
};
use proptest::prelude::*;

/// The combinational families the `hwperm faults` driver sweeps;
/// sequential families are excluded because stuck-at campaigns
/// exhaustively enumerate the input space of a stateless tape.
const FAMILIES: [&str; 5] = ["converter", "rank", "combination", "variation", "sort"];

/// Same derived defaults as the CLI's fault driver.
fn family_ports(family: &str, n: usize) -> (Netlist, &'static str, &'static str) {
    let k = n.div_ceil(2);
    let key_width = (usize::BITS as usize - (n - 1).leading_zeros() as usize).max(2);
    match family {
        "converter" => (
            converter_netlist(n, ConverterOptions::default()),
            "index",
            "perm",
        ),
        "rank" => (
            PermToIndexConverter::new(n).netlist().clone(),
            "perm",
            "index",
        ),
        "combination" => (
            IndexToCombinationConverter::new(n, k).netlist().clone(),
            "index",
            "codeword",
        ),
        "variation" => (
            IndexToVariationConverter::new(n, k).netlist().clone(),
            "index",
            "out",
        ),
        "sort" => (
            SortingNetwork::new(n, key_width).netlist().clone(),
            "data",
            "sorted",
        ),
        other => panic!("unknown family {other:?}"),
    }
}

proptest! {
    // Each case runs five full campaigns at four worker counts plus
    // the scalar reference; small case counts already sweep hundreds
    // of faults per family.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign verdicts are identical across 1, 2, 3, and 8 workers
    /// for every campaign family, and match the scalar
    /// one-fault-at-a-time reference engine.
    #[test]
    fn verdicts_identical_across_worker_counts(n in 2usize..=4) {
        for family in FAMILIES {
            let (netlist, input, output) = family_ports(family, n);
            let expected = golden_output_words(&netlist, input, output);
            let baseline =
                stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, None, 1);
            for workers in [2usize, 3, 8] {
                let report =
                    stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, None, workers);
                prop_assert_eq!(
                    &report.verdicts,
                    &baseline.verdicts,
                    "{} verdicts differ between 1 and {} workers",
                    family,
                    workers
                );
            }
            let scalar = stuck_at_campaign_scalar(&netlist, input, output, &expected, None);
            prop_assert_eq!(
                &scalar.verdicts,
                &baseline.verdicts,
                "{} scalar engine disagrees with the batched engine",
                family
            );
        }
    }

    /// With the permutation-validity predicate in play (the converter's
    /// silent-fault classification), sharding still must not change a
    /// single verdict: silent witnesses are defined as lowest-index,
    /// independent of chunk boundaries.
    #[test]
    fn converter_predicate_verdicts_shard_invariant(n in 2usize..=5) {
        let (netlist, input, output) = family_ports("converter", n);
        let expected = expected_permutation_words(n);
        let valid = move |word: u64| packed_is_permutation_u64(n, word);
        let baseline = stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, Some(&valid), 1);
        for workers in [2usize, 3, 8] {
            let report =
                stuck_at_campaign_wide::<u64>(&netlist, input, output, &expected, Some(&valid), workers);
            prop_assert_eq!(
                &report.verdicts,
                &baseline.verdicts,
                "predicate verdicts differ between 1 and {} workers",
                workers
            );
        }
        let scalar =
            stuck_at_campaign_scalar(&netlist, input, output, &expected, Some(&valid));
        prop_assert_eq!(
            &scalar.verdicts,
            &baseline.verdicts,
            "scalar predicate engine disagrees with the batched engine"
        );
    }
}
