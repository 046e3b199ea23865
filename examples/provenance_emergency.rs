//! The Fig. 11 / Appendix A provenance scenario: the provenance of an
//! emergency treatment plan, queried by consumers with different
//! clearances through one shared `AccountService`.
//!
//! Run with: `cargo run --example provenance_emergency`

use std::sync::Arc;

use surrogate_parenthood::graphgen::Figure11;
use surrogate_parenthood::plus_store::{
    AccountService, Direction, EdgeKind, NodeKind, PolicyStatement, QueryRequest, RecordId, Store,
};
use surrogate_parenthood::prelude::*;
use surrogate_parenthood::surrogate_core::graph::NodeId;

fn main() -> Result<()> {
    // Build the Fig. 11 provenance graph, then persist it through the
    // store as a deployment would.
    let fig = Figure11::new();
    let store = Arc::new(
        Store::new(
            &[
                "Public",
                "Emergency Responder",
                "Cleared Emergency Responder",
                "Medical Provider",
                "National Security",
            ],
            &[(1, 0), (2, 1), (3, 0), (4, 0)],
        )
        .expect("figure 11 lattice is valid"),
    );

    for n in fig.graph.node_ids() {
        let node = fig.graph.node(n);
        let lowest = store
            .predicate(fig.lattice.name(node.lowest))
            .expect("same names");
        let kind = if node.label.contains("Record") || node.label.contains("Data") {
            NodeKind::Data
        } else {
            NodeKind::Process
        };
        store.append_node(node.label.clone(), kind, node.features.clone(), lowest);
    }
    for (from, to) in fig.graph.edges() {
        store
            .append_edge(RecordId(from.0), RecordId(to.0), EdgeKind::InputTo)
            .expect("figure edges are unique");
    }
    // Replay the figure's protection policy.
    let er = store.predicate("Emergency Responder").expect("declared");
    let planning = fig.graph.find_by_label("Local Action Planning").unwrap();
    let supply = fig.graph.find_by_label("Supply Analysis").unwrap();
    let stockpile = fig
        .graph
        .find_by_label("Emergency Supplies Stockpile")
        .unwrap();
    for (node, marking) in [
        (planning, Marking::Surrogate),
        (supply, Marking::Hide),
        (stockpile, Marking::Hide),
    ] {
        store
            .apply_policy(PolicyStatement::MarkNode {
                node: RecordId(node.0),
                predicate: Some(er),
                marking,
            })
            .expect("node exists");
    }
    let def = &fig.catalog.for_node(NodeId(planning.0))[0];
    store
        .apply_policy(PolicyStatement::AddSurrogate {
            node: RecordId(planning.0),
            label: def.label.clone(),
            features: def.features.clone(),
            lowest: er,
            info_score: def.info_score,
        })
        .expect("node exists");

    // One service, shared by every consumer: accounts are generated once
    // per (predicate, strategy) in each snapshot and cached there.
    let service = AccountService::new(store.clone());
    let lattice = service.snapshot().lattice.clone();
    let plan = RecordId(
        fig.graph
            .find_by_label("Emergency Treatment Plan")
            .unwrap()
            .0,
    );

    // An Emergency Responder asks: where did the treatment plan come from?
    println!("== Emergency Responder's provenance view of the treatment plan ==\n");
    let responder = Consumer::new("responder", &lattice, &[er]);
    let upstream = QueryRequest::new(plan, Direction::Backward, u32::MAX, Strategy::Surrogate);
    let response = service
        .query(&responder, &upstream.clone().with_predicate(er))
        .expect("authorized");
    for row in response.rows {
        println!(
            "  depth {} | {}{}",
            row.depth,
            row.label,
            if row.surrogate { "  [surrogate]" } else { "" }
        );
    }
    println!();
    println!("Prior systems gave this user nothing upstream of the plan (Appendix A);");
    println!("with surrogates the epidemiological chain stays visible while the");
    println!("CER-only supply chain is absent entirely.\n");

    // A Cleared Emergency Responder sees the full planning chain, through
    // the same service (and the same cached materialization).
    println!("== Cleared Emergency Responder's view ==\n");
    let cer = lattice
        .by_name("Cleared Emergency Responder")
        .expect("declared");
    let cleared = Consumer::new("cleared", &lattice, &[cer]);
    let response = service
        .query(&cleared, &upstream.with_predicate(cer))
        .expect("authorized");
    for row in response.rows {
        println!(
            "  depth {} | {}{}",
            row.depth,
            row.label,
            if row.surrogate { "  [surrogate]" } else { "" }
        );
    }
    println!();
    println!(
        "service epoch {}: {} account(s) cached across both consumers",
        service.epoch(),
        service.cached_accounts()
    );
    Ok(())
}
