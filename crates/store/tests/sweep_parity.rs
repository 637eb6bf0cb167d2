//! Acceptance regression: a store-backed sweep and a computed sweep
//! see byte-identical expectation words, and — when the netlist is
//! wrong — report the *identical* first-mismatch witness at every
//! simulation width (64/256/512 lanes).

use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{W256, W512};
use hwperm_store::{build, BuildOptions, TableSource};
use hwperm_verify::{
    exhaustive_check_batched_wide, expected_permutation_words, ExhaustiveMismatch,
};
use std::path::PathBuf;

const N: usize = 5;

fn warm_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hwperm-store-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build(
        &dir,
        N,
        &BuildOptions {
            jobs: 2,
            chunk_words: 48,
            max_chunks: None,
        },
    )
    .unwrap();
    dir
}

#[test]
fn store_backed_and_computed_tables_are_byte_identical() {
    let store = warm_store("bytes");
    let computed = TableSource::Computed.permutation_words(N).unwrap();
    let loaded = TableSource::Store { dir: store.clone() }
        .permutation_words(N)
        .unwrap();
    assert_eq!(computed, loaded);
    assert_eq!(computed, expected_permutation_words(N));
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn correct_converter_passes_both_sources_at_every_width() {
    let store = warm_store("pass");
    let netlist = converter_netlist(N, ConverterOptions::default());
    for table in [
        TableSource::Computed.permutation_words(N).unwrap(),
        TableSource::Store { dir: store.clone() }
            .permutation_words(N)
            .unwrap(),
    ] {
        exhaustive_check_batched_wide::<u64>(&netlist, "index", "perm", &table).unwrap();
        exhaustive_check_batched_wide::<W256>(&netlist, "index", "perm", &table).unwrap();
        exhaustive_check_batched_wide::<W512>(&netlist, "index", "perm", &table).unwrap();
    }
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn first_mismatch_witness_is_identical_across_sources_and_widths() {
    let store = warm_store("witness");
    let netlist = converter_netlist(N, ConverterOptions::default());

    // Poison the same two entries in both tables: the sweep must
    // report the lowest poisoned index, identically, regardless of
    // where the table came from or how wide the simulator batches.
    let poison = |mut table: Vec<u64>| {
        table[37] ^= 0b11;
        table[90] ^= 0b11;
        table
    };
    let computed = poison(TableSource::Computed.permutation_words(N).unwrap());
    let loaded = poison(
        TableSource::Store { dir: store.clone() }
            .permutation_words(N)
            .unwrap(),
    );

    let mut witnesses: Vec<ExhaustiveMismatch> = Vec::new();
    for table in [&computed, &loaded] {
        witnesses.push(
            exhaustive_check_batched_wide::<u64>(&netlist, "index", "perm", table).unwrap_err(),
        );
        witnesses.push(
            exhaustive_check_batched_wide::<W256>(&netlist, "index", "perm", table).unwrap_err(),
        );
        witnesses.push(
            exhaustive_check_batched_wide::<W512>(&netlist, "index", "perm", table).unwrap_err(),
        );
    }
    let first = &witnesses[0];
    assert_eq!(first.index, 37, "lowest poisoned index wins: {first:?}");
    for w in &witnesses[1..] {
        assert_eq!(w, first, "witness diverged across source/width");
    }
    std::fs::remove_dir_all(&store).unwrap();
}
