//! Regenerates the tables and figures of the paper's evaluation (§6):
//! `repro <table1|fig3|fig7|fig8|fig9|fig10|all>`.

use std::process::ExitCode;

use surrogate_bench::experiments::{fig10, fig3, fig7, fig8, fig9, table1};
use surrogate_bench::report::{d3, f3, render_table};
use surrogate_core::measures::OpacityModel;

/// Every reproduction, in the order `all` runs them.
const FIGURES: &[(&str, fn())] = &[
    ("fig3", print_fig3),
    ("table1", print_table1),
    ("fig7", print_fig7),
    ("fig8", print_fig8),
    ("fig9", print_fig9),
    ("fig10", print_fig10),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        return usage();
    };
    if name == "all" {
        for (name, run) in FIGURES {
            println!("================================================================");
            println!("== {name}");
            println!("================================================================");
            run();
            println!();
        }
        return ExitCode::SUCCESS;
    }
    match FIGURES.iter().find(|(figure, _)| figure == name) {
        Some((_, run)) => {
            run();
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: repro <{}|all>", names.join("|"));
    ExitCode::from(2)
}

/// Table 1: Path Utility and Opacity for the Fig. 2 accounts.
fn print_table1() {
    let rows = table1::run();
    println!("Table 1: Path Utility and Opacity measures for the Figure 2 accounts");
    println!("(opacity of edge f->g only; three opacity-model variants reported,");
    println!(" see DESIGN.md §3.1 item 2 for the Fig. 4 reconstruction)\n");
    let table = render_table(
        &[
            "account",
            "PathUtility(paper)",
            "PathUtility(ours)",
            "Opacity(paper)",
            "Opacity(default)",
            "Opacity(normalized)",
            "Opacity(fig5-literal)",
            "Opacity(fp-product)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.to_string(),
                    format!("{:.2}", r.paper_path_utility),
                    f3(r.path_utility),
                    format!("{:.3}", r.paper_opacity),
                    f3(r.opacity_default),
                    f3(r.opacity_normalized),
                    f3(r.opacity_fig5),
                    f3(r.opacity_fp_product),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!("Expected shape: utilities match the paper to rounding; opacity is 0 for");
    println!("(a), 1 for (b), and strictly ordered (c) < (d) as in the paper.");
}

/// Fig. 3(b) / §4.1: the worked numbers for the naïve account.
fn print_fig3() {
    let r = fig3::run();
    println!("Figure 3 / §4.1: naively protected account of Figure 1 (High-2 consumer)\n");
    let table = render_table(
        &["quantity", "paper", "ours"],
        &[
            vec!["%P(b')".into(), "0.100".into(), f3(r.pct_b)],
            vec!["%P(h')".into(), "0.300".into(), f3(r.pct_h)],
            vec!["PathUtility".into(), "0.130".into(), f3(r.path_utility)],
            vec![
                "NodeUtility".into(),
                format!("{:.3} (6/11)", 6.0 / 11.0),
                f3(r.node_utility),
            ],
        ],
    );
    println!("{table}");
}

/// Fig. 7: surrogate − hide differences per motif.
fn print_fig7() {
    let rows = fig7::run(OpacityModel::default());
    println!("Figure 7: difference between surrogating and hiding the first edge of");
    println!("each motif (positive = surrogating better)\n");
    let table = render_table(
        &[
            "motif",
            "Utility(sur)",
            "Utility(hide)",
            "dUtility",
            "Opacity(sur)",
            "Opacity(hide)",
            "dOpacity",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.kind.name().to_string(),
                    f3(r.utility_surrogate),
                    f3(r.utility_hide),
                    d3(r.utility_delta()),
                    f3(r.opacity_surrogate),
                    f3(r.opacity_hide),
                    d3(r.opacity_delta()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    println!("Expected shape (§6.2): both deltas positive for Star, Chain, Diamond,");
    println!("Tree, Inverted Tree; exactly zero for Bipartite and Lattice.");
}

/// Fig. 8: maximum utility at a given opacity rating, hide vs surrogate,
/// over the synthetic set.
fn print_fig8() {
    let configs = fig9::paper_configs(2011);
    eprintln!(
        "generating + protecting {} synthetic graphs…",
        configs.len()
    );
    let (cells, frontier) = fig8::run(&configs, OpacityModel::default(), 10);
    println!("Figure 8: maximum utility given an opacity rating (synthetic graphs)\n");
    let table = render_table(
        &[
            "opacity bin",
            "max Utility (Hide)",
            "max Utility (Surrogate)",
        ],
        &frontier
            .iter()
            .map(|bin| {
                vec![
                    format!("[{:.1},{:.1})", bin.opacity_lo, bin.opacity_hi),
                    bin.max_utility_hide.map(f3).unwrap_or_else(|| "-".into()),
                    bin.max_utility_surrogate
                        .map(f3)
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");

    // The tradeoff view behind the frontier: per protection level, the
    // mean (opacity, utility) point of each strategy.
    let fractions = [0.1, 0.3, 0.5, 0.7, 0.9];
    let mut rows = Vec::new();
    for &fraction in &fractions {
        let members: Vec<_> = cells
            .iter()
            .filter(|c| (c.protect_fraction - fraction).abs() < 1e-9)
            .collect();
        let mean = |pick: &dyn Fn(&&fig9::Fig9Cell) -> f64| {
            members.iter().map(pick).sum::<f64>() / members.len() as f64
        };
        rows.push(vec![
            format!("{:.0}%", fraction * 100.0),
            f3(mean(&|c| c.opacity_hide)),
            f3(mean(&|c| c.utility_hide)),
            f3(mean(&|c| c.opacity_surrogate)),
            f3(mean(&|c| c.utility_surrogate)),
        ]);
    }
    println!("Per-protection-level tradeoff (means over the connectivity sweep):\n");
    println!(
        "{}",
        render_table(
            &[
                "protect%",
                "Opacity(hide)",
                "Utility(hide)",
                "Opacity(sur)",
                "Utility(sur)",
            ],
            &rows,
        )
    );
    println!("Expected shape: at every opacity level the surrogate strategy offers at");
    println!("least the utility of hiding — \"it is better to use surrogates to");
    println!("maintain a desired opacity while sharing more useful graphs\" (§6.3).");
}

/// Fig. 9: surrogate − hide differences in opacity (9a) and utility (9b)
/// across connectedness × protection fraction.
fn print_fig9() {
    let configs = fig9::paper_configs(2011);
    eprintln!(
        "generating + protecting {} synthetic graphs…",
        configs.len()
    );
    let cells = fig9::run_grid(&configs, OpacityModel::default());

    // Rows = protection fraction (series); columns = connectivity steps.
    let fractions = [0.1, 0.3, 0.5, 0.7, 0.9];
    let headers: Vec<String> = std::iter::once("protect%".to_string())
        .chain(
            cells
                .iter()
                .take(10)
                .map(|c| format!("cp~{:.0}", c.achieved_connected_pairs)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    for (title, use_opacity) in [
        ("Figure 9a: OpacitySurrogate - OpacityHide", true),
        ("Figure 9b: UtilitySurrogate - UtilityHide", false),
    ] {
        println!("{title}");
        println!("(columns = connectivity steps, labelled by the first series' achieved connected pairs)\n");
        let rows: Vec<Vec<String>> = fractions
            .iter()
            .enumerate()
            .map(|(fi, &fraction)| {
                let mut row = vec![format!("{:.0}%", fraction * 100.0)];
                for step in 0..10 {
                    let cell = &cells[fi * 10 + step];
                    let delta = if use_opacity {
                        cell.opacity_delta()
                    } else {
                        cell.utility_delta()
                    };
                    row.push(d3(delta));
                }
                row
            })
            .collect();
        println!("{}", render_table(&header_refs, &rows));
    }
    println!("Expected shape (§6.3): all values positive; the opacity advantage grows");
    println!("with the protected fraction; the utility advantage shrinks as more of");
    println!("the graph is protected.");
}

/// Fig. 10: time to produce a graph and transform it into a protected
/// account.
fn print_fig10() {
    let config = fig10::Fig10Config::default();
    let result = fig10::run(config);
    println!("Figure 10: time to produce and protect a provenance graph");
    println!(
        "(workload: {} node records, {} edge records, {} byte snapshot; median of {} runs)\n",
        result.nodes, result.edges, result.snapshot_bytes, config.iterations
    );
    let mut rows = vec![
        vec!["total (embedded)".into(), format!("{:.3}", result.total_ms)],
        vec![
            "DB access (embedded snapshot)".into(),
            format!("{:.3}", result.db_access_ms),
        ],
    ];
    if let Some(simulated) = result.db_access_simulated_ms {
        rows.push(vec![
            "DB access (simulated DBMS round-trips)".into(),
            format!("{:.3}", simulated),
        ]);
    }
    rows.extend([
        vec![
            "build graph".into(),
            format!("{:.3}", result.build_graph_ms),
        ],
        vec![
            "protect via hide".into(),
            format!("{:.3}", result.protect_hide_ms),
        ],
        vec![
            "protect via surrogate".into(),
            format!("{:.3}", result.protect_surrogate_ms),
        ],
    ]);
    let table = render_table(&["activity", "time (ms)"], &rows);
    println!("{table}");
    println!("Expected shape (§6.4): hiding is at most as expensive as surrogating,");
    println!("and against DBMS-backed storage (the paper's PLUS setup, simulated row)");
    println!("protection is subsumed by graph access and construction. Our embedded");
    println!("snapshot store is ~1000x faster than a 2008 DBMS, hence both rows.");
}
