//! Equivalence oracle for the CSR protection rewrite: on random
//! `graphgen` workflows, the dense CSR path in `surrogate_core::account`
//! must be indistinguishable from the retained hash-based reference
//! implementation — same node layer, same edge set (with the same
//! surrogate classification), the same lineage rows for every natural
//! query root, and byte-identical sealed wire frames for the responses
//! built from those rows. An index extended batch by batch with its
//! graph must equal the index built from the whole graph.

use graphgen::workflow::{generate as generate_workflow, WorkflowConfig};
use plus_store::codec::seal_frame;
use plus_store::service::lineage_rows;
use plus_store::wire::{encode_response, Response};
use plus_store::{Direction, ProtectedLineageRow, QueryResponse, RecordId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surrogate_core::account::{self, GenerateOptions, ProtectedAccount, ProtectionContext};
use surrogate_core::graph::{Csr, Graph, NodeId};

/// Account edges as a sorted, comparable set: `(from, to, is_surrogate)`.
fn edge_set(account: &ProtectedAccount) -> Vec<(u32, u32, bool)> {
    let mut edges: Vec<(u32, u32, bool)> = account
        .graph()
        .edges()
        .map(|e| (e.0 .0, e.1 .0, account.is_surrogate_edge(e)))
        .collect();
    edges.sort_unstable();
    edges
}

/// The sealed wire frame a server would send for `rows`.
fn sealed(root: RecordId, rows: Vec<ProtectedLineageRow>) -> Vec<u8> {
    let response = Response::Query(QueryResponse {
        epoch: 1,
        root,
        rows,
        shard_epochs: vec![],
    });
    seal_frame(&encode_response(&response).expect("lineage responses encode"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_protection_matches_the_reference_path(
        stages in 1usize..4,
        width in 1usize..5,
        max_fan_in in 1usize..4,
        sensitive_tenths in 0u32..7,
        seed in any::<u64>(),
        redundancy_filter in any::<bool>(),
    ) {
        let wf = generate_workflow(WorkflowConfig {
            stages,
            width,
            max_fan_in,
            sensitive_fraction: f64::from(sensitive_tenths) / 10.0,
            seed,
        });
        let options = GenerateOptions { redundancy_filter };

        let ctx = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog);
        let reference =
            account::reference::generate_with_options(&ctx, &[wf.public], options).unwrap();

        let csr = Csr::build(&wf.graph);
        let ctx = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog)
            .with_csr(&csr);
        let dense = account::generate_with_options(&ctx, &[wf.public], options).unwrap();

        // Node layer: identical ids, labels, and original correspondence.
        prop_assert_eq!(dense.graph().node_count(), reference.graph().node_count());
        for n in reference.graph().node_ids() {
            prop_assert_eq!(&dense.graph().node(n).label, &reference.graph().node(n).label);
            prop_assert_eq!(dense.original_node(n), reference.original_node(n));
        }

        // Edge layer: the same set, classified the same way.
        prop_assert_eq!(edge_set(&dense), edge_set(&reference));

        // Lineage rows and wire bytes: every workflow output answers the
        // same unbounded upstream query, down to the sealed frame.
        for &root in &wf.outputs {
            let root = RecordId(root.0);
            let ref_rows = lineage_rows(&reference, root, Direction::Backward, u32::MAX);
            let dense_rows = lineage_rows(&dense, root, Direction::Backward, u32::MAX);
            prop_assert_eq!(&dense_rows, &ref_rows);
            prop_assert_eq!(sealed(root, dense_rows), sealed(root, ref_rows));
        }
    }

    /// Catches, in `Csr::extend`: offsets left unshifted after a touched
    /// node; a node's new slots placed at the start of its range instead
    /// of the end; a batch's edges merged in edge-list order instead of by
    /// node. A batch may be empty, bring nodes only, or bring edges out
    /// of and into nodes earlier batches held.
    #[test]
    fn extended_index_equals_build(
        stages in 1usize..4,
        width in 1usize..5,
        max_fan_in in 1usize..4,
        seed in any::<u64>(),
        batches in 1usize..5,
    ) {
        let wf = generate_workflow(WorkflowConfig {
            stages,
            width,
            max_fan_in,
            sensitive_fraction: 0.0,
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc5a);
        // Batch 0 is the base the index is built from; every later batch
        // is appended. A node lands in the batch its cut says, an edge in
        // that of its later endpoint or, now and then, a later one.
        let nodes = wf.graph.node_count();
        let mut cuts: Vec<usize> = (0..batches).map(|_| rng.gen_range(0..=nodes)).collect();
        cuts.sort_unstable();
        let batch_of = |n: NodeId| cuts.partition_point(|&cut| cut <= n.index());
        let mut edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); batches + 1];
        for (from, to) in wf.graph.edges() {
            let ready = batch_of(from).max(batch_of(to));
            let batch = if rng.gen_bool(0.3) {
                rng.gen_range(ready..=batches)
            } else {
                ready
            };
            let list = &mut edges[batch];
            list.insert(rng.gen_range(0..=list.len()), (from, to));
        }

        let mut graph = Graph::new();
        let mut index = None::<Csr>;
        for (batch, edges) in edges.into_iter().enumerate() {
            let upto = cuts.get(batch).copied().unwrap_or(nodes);
            for n in graph.node_count()..upto {
                graph.add_shared_node(wf.graph.shared_node(NodeId(n as u32)).clone());
            }
            for (from, to) in edges {
                graph.add_edge(from, to).unwrap();
            }
            let index = index.get_or_insert_with(|| Csr::build(&graph));
            index.extend(&graph);
            prop_assert_eq!(&*index, &Csr::build(&graph), "after batch {}", batch);
        }
    }
}
