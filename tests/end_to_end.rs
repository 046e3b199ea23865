//! End-to-end flows across all crates: generate a workload, persist it in
//! the store, reload it, stand the `AccountService` up in front of it,
//! and answer consumers' protected lineage queries — the full deployment
//! pipeline of the paper's Fig. 10.

use std::sync::Arc;

use surrogate_parenthood::graphgen::{workflow, WorkflowConfig};
use surrogate_parenthood::plus_store::{
    ingest, AccountService, Direction, EdgeKind, IngestKinds, NodeKind, PolicyStatement,
    QueryRequest, RecordId, Store,
};
use surrogate_parenthood::prelude::*;
use surrogate_parenthood::surrogate_core::graph::NodeId;

/// Imports a generated workflow into a store, policy included.
fn store_from_workflow(wf: &workflow::Workflow) -> Store {
    ingest(
        &wf.graph,
        &wf.lattice,
        &wf.markings,
        &wf.catalog,
        IngestKinds::default(),
    )
    .expect("workflow setups are representable")
}

#[test]
fn persist_reload_protect_query() {
    let wf = workflow::generate(WorkflowConfig {
        stages: 3,
        width: 4,
        max_fan_in: 2,
        sensitive_fraction: 0.3,
        seed: 77,
    });
    let store = store_from_workflow(&wf);

    // Persist and reload through the snapshot codec.
    let path = std::env::temp_dir().join(format!("sp-e2e-{}.snapshot", std::process::id()));
    store.save(&path).unwrap();
    let reloaded = Store::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.node_count(), store.node_count());

    // Serve the reloaded store and query lineage of a workflow output
    // as a public consumer.
    let service = AccountService::new(Arc::new(reloaded));
    let snapshot = service.snapshot();
    let public = snapshot.lattice.by_name("Public").unwrap();
    let consumer = Consumer::public(&snapshot.lattice);
    let output = RecordId(wf.outputs[0].0);
    let request = QueryRequest::new(output, Direction::Backward, u32::MAX, Strategy::Surrogate)
        .with_predicate(public);

    match service.query(&consumer, &request) {
        Ok(response) => {
            let rows = response.rows;
            // Either the root is visible and lineage flows, or the root
            // itself was sensitive (then rows is empty).
            let root_sensitive = wf.sensitive.contains(&wf.outputs[0]);
            if !root_sensitive {
                assert!(!rows.is_empty(), "visible output must have provenance");
            }
            for row in &rows {
                // Labels of surrogate rows are the registered surrogates.
                if row.surrogate {
                    assert!(row.label.starts_with("redacted"), "{}", row.label);
                }
            }
        }
        Err(e) => panic!("public consumer must be authorized: {e}"),
    }
}

#[test]
fn restricted_consumer_sees_more_than_public() {
    let wf = workflow::generate(WorkflowConfig {
        stages: 4,
        width: 4,
        max_fan_in: 3,
        sensitive_fraction: 0.4,
        seed: 3,
    });
    assert!(!wf.sensitive.is_empty(), "seed must yield sensitive nodes");
    let store = store_from_workflow(&wf);

    let service = AccountService::new(Arc::new(store));
    let lattice = service.snapshot().lattice.clone();
    let public = lattice.by_name("Public").unwrap();
    let restricted = lattice.by_name("Restricted").unwrap();
    let insider = Consumer::new("insider", &lattice, &[restricted]);

    let public_account = service
        .get_account_for(&Consumer::public(&lattice), public, &Strategy::Surrogate)
        .unwrap();
    let insider_account = service
        .get_account_for(&insider, restricted, &Strategy::Surrogate)
        .unwrap();

    assert_eq!(
        public_account.surrogate_node_count(),
        wf.sensitive.len(),
        "public consumer sees surrogates"
    );
    assert_eq!(
        insider_account.surrogate_node_count(),
        0,
        "insider sees originals"
    );
    assert!(
        insider_account.graph().edge_count()
            >= public_account.graph().edge_count() - public_account.surrogate_edge_count(),
        "insider's view is at least as connected in original edges"
    );
}

#[test]
fn session_rejects_predicates_above_credentials() {
    let wf = workflow::generate(WorkflowConfig::default());
    let store = store_from_workflow(&wf);
    let service = AccountService::new(Arc::new(store));
    let lattice = service.snapshot().lattice.clone();
    let restricted = lattice.by_name("Restricted").unwrap();
    assert!(service
        .get_account_for(
            &Consumer::public(&lattice),
            restricted,
            &Strategy::Surrogate
        )
        .is_err());
}

#[test]
fn measures_agree_across_the_facade() {
    // The same computation through the facade and through surrogate-core
    // directly must agree (no duplicated logic drifting apart).
    let wf = workflow::generate(WorkflowConfig {
        stages: 2,
        width: 3,
        max_fan_in: 2,
        sensitive_fraction: 0.5,
        seed: 5,
    });
    let ctx = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog);
    let account = generate_for_set(&ctx, &[wf.public]).unwrap();
    let via_prelude = path_utility(&wf.graph, &account);
    let via_core =
        surrogate_parenthood::surrogate_core::measures::path_utility(&wf.graph, &account);
    assert_eq!(via_prelude, via_core);
}

#[test]
fn hide_strategy_breaks_paths_surrogates_restore_them() {
    // The paper's core pitch, executed through the whole stack: a sensitive
    // middle node breaks lineage under naive hiding; surrogates restore it.
    let store = Store::new(&["Public", "High"], &[(1, 0)]).unwrap();
    let public = store.predicate("Public").unwrap();
    let high = store.predicate("High").unwrap();
    let src = store.append_node("source", NodeKind::Data, Features::new(), public);
    let mid = store.append_node("secret process", NodeKind::Process, Features::new(), high);
    let out = store.append_node("result", NodeKind::Data, Features::new(), public);
    store.append_edge(src, mid, EdgeKind::InputTo).unwrap();
    store.append_edge(mid, out, EdgeKind::GeneratedBy).unwrap();
    store
        .apply_policy(PolicyStatement::MarkNode {
            node: mid,
            predicate: Some(public),
            marking: Marking::Surrogate,
        })
        .unwrap();

    let m = store.materialize();
    let naive = m.context().protect(public, Strategy::HideNodes).unwrap();
    let surrogate = m.context().protect(public, Strategy::Surrogate).unwrap();

    let src2 = naive.account_node(NodeId(src.0)).unwrap();
    let out2 = naive.account_node(NodeId(out.0)).unwrap();
    assert!(
        !reaches(naive.graph(), src2, out2),
        "naive hiding breaks lineage"
    );

    let src2 = surrogate.account_node(NodeId(src.0)).unwrap();
    let out2 = surrogate.account_node(NodeId(out.0)).unwrap();
    assert!(
        reaches(surrogate.graph(), src2, out2),
        "surrogate edge restores lineage"
    );
}
