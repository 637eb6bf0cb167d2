//! Every generated circuit family must be lint-clean.
//!
//! This is the integration contract between the generators and the static
//! analyzer: a freshly built netlist of any family, at any supported size,
//! produces zero Error-level diagnostics. Warnings are tolerated only where
//! noted (e.g. a one-hot proof that exceeds its BDD node budget degrades to
//! a warning rather than a false Error).

use hwperm_circuits::{
    converter_netlist, shuffle_netlist, ConverterOptions, IndexToCombinationConverter,
    IndexToVariationConverter, PermToIndexConverter, RandomIndexGenerator, ShuffleOptions,
    SortingNetwork,
};
use hwperm_lint::{lint_netlist, lint_netlist_with, LintConfig, LintId, LintReport, Severity};
use hwperm_logic::Netlist;

/// Lint `netlist` and fail the test with the full report if any diagnostic
/// reaches Error severity.
fn assert_lint_clean(label: &str, netlist: &Netlist) -> LintReport {
    let report = lint_netlist(netlist);
    assert!(
        report.is_clean(),
        "{label}: expected lint-clean netlist, got {} error(s):\n{report}",
        report.error_count()
    );
    report
}

/// Assert that every one-hot bank in the netlist was actually *proved*
/// one-hot (no BudgetExceeded fallback warnings slipped through).
fn assert_one_hot_proved(label: &str, report: &LintReport) {
    let unproved: Vec<_> = report.of(LintId::OneHot).collect();
    assert!(
        unproved.is_empty(),
        "{label}: one-hot pass left diagnostics (budget exceeded or worse):\n{}",
        unproved
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
}

/// BDD-independent cross-check of the one-hot verdict: exhaustively
/// simulate every input value on the batched 64-lane path and confirm
/// no bank violation exists. Only applicable (and only run) for
/// combinational netlists with a single input port narrow enough to
/// sweep; wider or sequential families rely on the BDD proof alone.
fn assert_banks_one_hot_by_simulation(label: &str, netlist: &Netlist) {
    if netlist.register_count() > 0 || netlist.one_hot_banks().is_empty() {
        return;
    }
    let [port] = netlist.input_ports() else {
        return;
    };
    if port.nets.len() > 16 {
        return;
    }
    let name = port.name.clone();
    assert_eq!(
        hwperm_verify::find_one_hot_violation(netlist, &name, 1),
        None,
        "{label}: exhaustive simulation refutes a bank the BDD pass proved"
    );
}

#[test]
fn converter_families_are_lint_clean() {
    for n in [2usize, 3, 4, 5, 6, 8] {
        let comb = converter_netlist(n, ConverterOptions::default());
        let report = assert_lint_clean(&format!("converter n={n}"), &comb);
        assert_one_hot_proved(&format!("converter n={n}"), &report);
        assert_banks_one_hot_by_simulation(&format!("converter n={n}"), &comb);

        let piped = converter_netlist(
            n,
            ConverterOptions {
                pipelined: true,
                ..ConverterOptions::default()
            },
        );
        let report = assert_lint_clean(&format!("converter-pipelined n={n}"), &piped);
        assert_one_hot_proved(&format!("converter-pipelined n={n}"), &report);
    }
}

#[test]
fn shuffle_family_is_lint_clean() {
    for n in [2usize, 3, 4, 6] {
        for pipelined in [false, true] {
            let opts = ShuffleOptions {
                pipelined,
                ..ShuffleOptions::default()
            };
            let nl = shuffle_netlist(n, opts);
            assert_lint_clean(&format!("shuffle n={n} pipelined={pipelined}"), &nl);
        }
    }
}

#[test]
fn rank_family_is_lint_clean() {
    for n in [2usize, 3, 4, 5, 6, 8] {
        let rank = PermToIndexConverter::new(n);
        let report = assert_lint_clean(&format!("rank n={n}"), rank.netlist());
        assert_one_hot_proved(&format!("rank n={n}"), &report);
        assert_banks_one_hot_by_simulation(&format!("rank n={n}"), rank.netlist());
    }
}

#[test]
fn combination_family_is_lint_clean() {
    for (n, k) in [(3usize, 1usize), (4, 2), (5, 2), (6, 3), (8, 4)] {
        let comb = IndexToCombinationConverter::new(n, k);
        assert_lint_clean(&format!("combination n={n} k={k}"), comb.netlist());
        assert_banks_one_hot_by_simulation(&format!("combination n={n} k={k}"), comb.netlist());
    }
}

#[test]
fn variation_family_is_lint_clean() {
    for (n, k) in [(3usize, 2usize), (4, 2), (5, 3), (6, 3), (8, 4)] {
        let var = IndexToVariationConverter::new(n, k);
        assert_lint_clean(&format!("variation n={n} k={k}"), var.netlist());
        assert_banks_one_hot_by_simulation(&format!("variation n={n} k={k}"), var.netlist());
    }
}

#[test]
fn sorter_family_is_lint_clean() {
    for (n, w) in [(2usize, 2usize), (3, 3), (4, 3), (6, 4)] {
        let sorter = SortingNetwork::new(n, w);
        let report = assert_lint_clean(&format!("sort n={n} w={w}"), sorter.netlist());
        assert_one_hot_proved(&format!("sort n={n} w={w}"), &report);
        assert_banks_one_hot_by_simulation(&format!("sort n={n} w={w}"), sorter.netlist());
    }
}

/// The contract for a one-hot proof that runs out of budget is
/// graceful degradation: the one-hot pass must downgrade to a
/// Warn-level "unverified" diagnostic, never a false Error. Starved BDD
/// and SAT budgets force that path on the n = 8 sorter's priority banks
/// (which depend on all 32 data input bits).
#[test]
fn sorter_over_budget_degrades_to_warning() {
    let sorter = SortingNetwork::new(8, 4);
    let mut starved = LintConfig::new();
    starved.node_budget = 4;
    starved.sat_conflict_budget = 0;
    let report = lint_netlist_with(sorter.netlist(), &starved);
    assert!(
        report.is_clean(),
        "sort n=8 w=4: starved budgets must not produce errors:\n{report}"
    );
    let one_hot: Vec<_> = report.of(LintId::OneHot).collect();
    assert!(
        !one_hot.is_empty(),
        "starved budgets must leave a one-hot diagnostic:\n{report}"
    );
    for d in one_hot {
        assert_eq!(
            d.severity,
            Severity::Warn,
            "over-budget one-hot check must warn, not error: {d}"
        );
        assert!(
            d.message.contains("budget"),
            "unexpected one-hot diagnostic at n=8: {d}"
        );
    }
}

#[test]
fn random_index_family_is_lint_clean() {
    for n in [2usize, 3, 5, 8] {
        let gen = RandomIndexGenerator::new(n, 0x5eed);
        assert_lint_clean(&format!("random-index n={n}"), gen.netlist());
    }
}

/// The sweep above tolerates Warn-level diagnostics; this test pins down
/// that the flagship Fig. 1 converter is *fully* quiet — not even warnings —
/// so regressions in the generators (dead gates, foldable constants,
/// rank-skewed pipelines) surface immediately.
#[test]
fn converter_has_no_diagnostics_at_all() {
    for n in [3usize, 5, 8] {
        for pipelined in [false, true] {
            let nl = converter_netlist(
                n,
                ConverterOptions {
                    pipelined,
                    ..ConverterOptions::default()
                },
            );
            let report = lint_netlist(&nl);
            let noisy: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity >= Severity::Warn)
                .collect();
            assert!(
                noisy.is_empty(),
                "converter n={n} pipelined={pipelined}: expected zero warnings, got:\n{}",
                noisy.iter().map(|d| format!("  {d}\n")).collect::<String>()
            );
        }
    }
}
