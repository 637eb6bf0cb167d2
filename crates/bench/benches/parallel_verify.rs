//! Thread-scaling of the sharded exhaustive sweep over the Fig. 1
//! converter — the criterion view of `tables threadbench`. CI compile-
//! checks this target (`cargo bench --no-run`) on every push so the
//! parallel verification API cannot silently rot out of the bench.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hwperm_bench::threadbench::repeated_check;
use hwperm_circuits::{converter_netlist, ConverterOptions};
use hwperm_logic::SimProgram;
use hwperm_verify::{expected_permutation_words, Sweep};

/// Sweeps per fan-out: enough work per spawn that the measured
/// steady state is sharded simulation throughput, not thread setup.
const REPEATS: usize = 16;

fn bench_sharded_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_converter_sweep");
    for n in [5usize, 6] {
        let netlist = converter_netlist(n, ConverterOptions::default());
        let expected = expected_permutation_words(n);
        let program = SimProgram::compile_shared(netlist);
        let sweep = Sweep::<u64>::from_program(program, "index", "perm", &expected);
        group.throughput(Throughput::Elements((expected.len() * REPEATS) as u64));

        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), workers),
                &workers,
                |b, &workers| {
                    b.iter(|| repeated_check(black_box(&sweep), workers, REPEATS).unwrap())
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_sweep);
criterion_main!(benches);
