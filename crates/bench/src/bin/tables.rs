//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hwperm-bench --bin tables -- all
//! cargo run --release -p hwperm-bench --bin tables -- table2
//! cargo run --release -p hwperm-bench --bin tables -- simbench-json > BENCH_sim.json
//! ```
//!
//! Subcommands: the paper experiments `table1 table2 table3 table4
//! fig1 fig3 bias fig4 fig4-netlist derangements naive sorter parallel
//! verify cascade rank variations prove`, `all`, and for each
//! measurement bench in [`BENCHES`] (`simbench threadbench widebench
//! oraclebench faultbench provebench servebench storebench
//! chaosbench`) both `<bench>`, its text table, and `<bench>-json`,
//! its record in the common `BENCH_*.json` shape of
//! [`hwperm_bench::record`], which CI archives as `BENCH_*.json`.

use hwperm_bench::{
    baselines, chaosbench, extensions, faultbench, figures, oraclebench, provebench, resources,
    servebench, simbench, storebench, tables, threadbench, widebench,
};

/// The measurement benches: subcommand name, text table, JSON record.
type Bench = (&'static str, fn() -> String, fn() -> String);

const BENCHES: [Bench; 9] = [
    ("simbench", simbench::text, simbench::json),
    ("threadbench", threadbench::text, threadbench::json),
    ("widebench", widebench::text, widebench::json),
    ("oraclebench", oraclebench::text, oraclebench::json),
    ("faultbench", faultbench::text, faultbench::json),
    ("provebench", provebench::text, provebench::json),
    ("servebench", servebench::text, servebench::json),
    ("storebench", storebench::text, storebench::json),
    ("chaosbench", chaosbench::text, chaosbench::json),
];

fn usage() -> ! {
    let benches: Vec<String> = BENCHES
        .iter()
        .map(|(name, ..)| format!("{name} {name}-json"))
        .collect();
    eprintln!(
        "usage: tables <experiment>\n  experiments: table1 table2 table3 table4 fig1 fig3 bias \
         fig4 fig4-netlist derangements naive sorter parallel verify cascade rank variations prove \
         {} all",
        benches.join(" ")
    );
    std::process::exit(2);
}

/// The bench named `name` (`<bench>` or `<bench>-json`), rendered.
fn bench(name: &str) -> Option<String> {
    let (base, json) = match name.strip_suffix("-json") {
        Some(base) => (base, true),
        None => (name, false),
    };
    let &(_, text, record) = BENCHES.iter().find(|(b, ..)| *b == base)?;
    Some(if json { record() } else { text() })
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let fig4_samples = 1u64 << 20; // the paper's 1,048,576
    let run = |name: &str| match name {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2(1).1),
        "table3" => print!("{}", resources::table3().1),
        "table4" => print!("{}", resources::table4().1),
        "fig1" => print!("{}", figures::fig1(4)),
        "fig3" => print!("{}", figures::fig3(4)),
        "bias" => print!("{}", figures::bias()),
        "fig4" => print!("{}", figures::fig4(fig4_samples, false)),
        "fig4-netlist" => print!("{}", figures::fig4(fig4_samples, true)),
        "derangements" => print!("{}", figures::derangements(fig4_samples, true)),
        "naive" => print!("{}", baselines::naive_baseline()),
        "sorter" => print!("{}", baselines::sorter_demo()),
        "parallel" => print!("{}", baselines::parallel_scaling(10)),
        "verify" => print!("{}", baselines::verify_all()),
        "cascade" => print!("{}", extensions::cascade()),
        "prove" => print!("{}", extensions::prove()),
        "rank" => print!("{}", extensions::rank_circuit()),
        "variations" => print!("{}", extensions::variations()),
        other => match bench(other) {
            Some(out) => print!("{out}"),
            None => usage(),
        },
    };
    if arg == "all" {
        let paper = [
            "verify",
            "table1",
            "table2",
            "table3",
            "table4",
            "fig1",
            "fig3",
            "bias",
            "fig4",
            "derangements",
            "naive",
            "sorter",
            "parallel",
            "cascade",
            "rank",
            "variations",
        ];
        let benches = BENCHES.iter().map(|&(name, ..)| name);
        for name in paper.into_iter().chain(benches).chain(["prove"]) {
            println!("==================================================================");
            run(name);
            println!();
        }
    } else {
        run(&arg);
    }
}
