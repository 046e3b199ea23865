//! An administrator's release audit (paper §4.2): before publishing a
//! protected account, rank the protected edges by inference risk, compare
//! protection strategies — including the redundancy-filter ablation of
//! the surrogate algorithm — and decide whether the release meets the
//! application's opacity bar.
//!
//! Run with: `cargo run --example risk_audit`

use std::sync::Arc;

use surrogate_parenthood::graphgen::{social, SocialConfig};
use surrogate_parenthood::plus_store::{ingest, AccountService, IngestKinds};
use surrogate_parenthood::prelude::*;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // A social network with three sensitive affiliations.
    let net = social::generate(SocialConfig {
        people: 24,
        ties_per_person: 2,
        affiliations: 3,
        members_per_affiliation: 4,
        // Two people per affiliation are related to the network only
        // through it — the paper's c-and-g-through-the-gang situation.
        lone_members_per_affiliation: 2,
        seed: 12,
    });
    let store = ingest(
        &net.graph,
        &net.lattice,
        &net.markings,
        &net.catalog,
        IngestKinds::default(),
    )?;
    let service = AccountService::new(Arc::new(store));
    let snapshot = service.snapshot();
    let auditor = Consumer::public(&snapshot.lattice);
    let model = OpacityModel::default();
    let surrogate = service.get_account(&auditor, &Strategy::Surrogate)?;
    let hide = service.get_account(&auditor, &Strategy::HideEdges)?;
    // The ablation is not a served strategy: it keeps every permitted
    // pair as an explicit surrogate edge, generated here straight from
    // the snapshot's protection context.
    let unfiltered = generate_with_options(
        &snapshot.context(),
        &auditor.frontier(&snapshot.lattice),
        GenerateOptions {
            redundancy_filter: false,
        },
    )?;

    println!("== Release audit: public account of the investigation network ==\n");
    for (name, account) in [
        ("surrogate", &*surrogate),
        ("hide", &*hide),
        ("unfiltered", &unfiltered),
    ] {
        let avg = average_protected_opacity(&net.graph, account, model);
        let min = min_protected_opacity(&net.graph, account, model);
        println!(
            "{name:>10}: path utility {:.3} | avg opacity {} | worst-case opacity {}",
            path_utility(&net.graph, account),
            avg.map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".into()),
            min.map(|v| format!("{v:.3}")).unwrap_or_else(|| "-".into()),
        );
    }

    // Drill into the surrogate account: which hidden ties are most at risk?
    let account = surrogate;
    let report = risk_report(&net.graph, &account, model);
    println!("\nmost inferable protected ties (lowest opacity first):");
    for entry in report.iter().take(5) {
        let (u, v) = entry.edge;
        println!(
            "  {:.3}  {} -> {}",
            entry.opacity,
            net.graph.node(u).label,
            net.graph.node(v).label,
        );
    }

    // Policy gate: everything below 0.5 opacity needs another look.
    let threshold = 0.5;
    let risky = edges_at_risk(&net.graph, &account, model, threshold);
    println!(
        "\n{} of {} protected ties fall below the {threshold} opacity bar",
        risky.len(),
        report.len(),
    );
    if risky.is_empty() {
        println!("release approved: no tie is easily inferable.");
    } else {
        println!("re-protect these before release (better surrogates or wider spans):");
        for entry in &risky {
            let (u, v) = entry.edge;
            println!(
                "  {:.3}  {} -> {}",
                entry.opacity,
                net.graph.node(u).label,
                net.graph.node(v).label,
            );
        }
    }
    Ok(())
}
