//! Scalar vs 64-lane batched exhaustive sweep over the Fig. 1
//! converter — the criterion view of `tables simbench`. CI compile-
//! checks this target (`cargo bench --no-run`) on every push so the
//! batched verification API cannot silently rot out of the bench.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::{SimProgram, Simulator};
use hwperm_verify::{exhaustive_check_scalar_with, expected_permutation_words, Sweep};

fn bench_exhaustive_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive_converter_sweep");
    for n in [4usize, 5, 6] {
        let netlist = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let program = SimProgram::compile_shared(netlist.clone());
        let sweep = Sweep::<u64>::from_program(program, "index", "perm", &expected);
        group.throughput(Throughput::Elements(expected.len() as u64));

        let mut scalar = Simulator::new(netlist.clone());
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                exhaustive_check_scalar_with(
                    &mut scalar,
                    black_box("index"),
                    black_box("perm"),
                    &expected,
                )
                .unwrap()
            })
        });

        let mut batched = sweep.simulator();
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| {
                sweep
                    .check_batches(&mut batched, black_box(0..sweep.batches()))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exhaustive_sweep);
criterion_main!(benches);
