//! Criterion benches for protected-account generation — the hot path
//! behind Fig. 10's "protect via hide / protect via surrogate" bars —
//! swept over graph size and protection fraction.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use graphgen::workflow::{self, WorkflowConfig};
use graphgen::{synthetic, EdgeProtection, SyntheticConfig};
use surrogate_core::account::{
    generate_for_set, generate_hide_for_set, generate_with_options, GenerateOptions,
    ProtectionContext, Strategy,
};
use surrogate_core::graph::{Csr, NodeId};
use surrogate_core::surrogate::SurrogateCatalog;

fn bench_protect(c: &mut Criterion) {
    let mut group = c.benchmark_group("protect");
    for &nodes in &[50usize, 200, 500] {
        let config = SyntheticConfig {
            nodes,
            target_connected_pairs: nodes as f64 / 4.0,
            protect_fraction: 0.3,
            seed: 1,
        };
        let data = synthetic::generate(config);
        let catalog = SurrogateCatalog::new();
        let public = data.lattice.public();
        let sur_markings = data.markings(EdgeProtection::Surrogate);
        let hide_markings = data.markings(EdgeProtection::Hide);

        group.bench_with_input(BenchmarkId::new("surrogate", nodes), &nodes, |b, _| {
            let ctx = ProtectionContext::new(&data.graph, &data.lattice, &sur_markings, &catalog);
            b.iter(|| generate_for_set(&ctx, &[public]).expect("generates"));
        });
        group.bench_with_input(BenchmarkId::new("hide", nodes), &nodes, |b, _| {
            let ctx = ProtectionContext::new(&data.graph, &data.lattice, &hide_markings, &catalog);
            b.iter(|| generate_hide_for_set(&ctx, &[public]).expect("generates"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("protect/fraction");
    for &fraction in &[0.1f64, 0.5, 0.9] {
        let config = SyntheticConfig {
            nodes: 200,
            target_connected_pairs: 50.0,
            protect_fraction: fraction,
            seed: 2,
        };
        let data = synthetic::generate(config);
        let catalog = SurrogateCatalog::new();
        let public = data.lattice.public();
        let markings = data.markings(EdgeProtection::Surrogate);
        group.bench_with_input(
            BenchmarkId::new("surrogate", format!("{:.0}%", fraction * 100.0)),
            &fraction,
            |b, _| {
                let ctx = ProtectionContext::new(&data.graph, &data.lattice, &markings, &catalog);
                b.iter(|| generate_for_set(&ctx, &[public]).expect("generates"));
            },
        );
    }
    group.finish();

    // Workflows at the served sizes (1 025 and 4 860 nodes): with 15 % of
    // the nodes sensitive a walk stops at the first node that can record
    // pairs itself, with 80 % almost nothing stops it (docs/DESIGN.md
    // §3.1 item 7) — the record covers both.
    let mut group = c.benchmark_group("protect/workflow");
    for (stages, width, sensitive_fraction) in [(20, 25, 0.15), (40, 60, 0.15), (40, 60, 0.8)] {
        let wf = workflow::generate(WorkflowConfig {
            stages,
            width,
            max_fan_in: 3,
            sensitive_fraction,
            seed: 4,
        });
        let csr = Csr::build(&wf.graph);
        let ctx = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog)
            .with_csr(&csr);
        let name = format!(
            "{}n/{:.0}%",
            wf.graph.node_count(),
            sensitive_fraction * 100.0
        );
        group.bench_function(BenchmarkId::new("surrogate", name), |b| {
            b.iter(|| generate_for_set(&ctx, &[wf.public]).expect("generates"));
        });
    }
    group.finish();

    // The same account after a one-node, one-edge append into the middle
    // of the workflow, extended from the account before it (what a fresh
    // read after a `churn` write pays) instead of generated: compare
    // with `protect/workflow` at the same size. Each timed extension
    // starts from a clone with no spare capacity, so it also regrows the
    // account's per-node lists once, which a chain of extensions
    // amortizes.
    let mut group = c.benchmark_group("protect/extend");
    for (stages, width) in [(20, 25), (40, 60)] {
        let mut wf = workflow::generate(WorkflowConfig {
            stages,
            width,
            max_fan_in: 3,
            sensitive_fraction: 0.15,
            seed: 4,
        });
        let name = format!("{}n", wf.graph.node_count());
        let prev = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog)
            .protect(wf.public, Strategy::Surrogate)
            .expect("generates");
        let parent = NodeId(wf.graph.node_count() as u32 / 2);
        let appended = wf.graph.add_node("appended", wf.public);
        wf.graph.add_edge(parent, appended).expect("a new edge");
        let csr = Csr::build(&wf.graph);
        let ctx = ProtectionContext::new(&wf.graph, &wf.lattice, &wf.markings, &wf.catalog)
            .with_csr(&csr);
        group.bench_function(BenchmarkId::new("surrogate", name), |b| {
            b.iter_batched(
                || prev.clone(),
                |prev| ctx.extend_account(prev).expect("extends"),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    // Ablation: the "no shorter HW-permitted path" redundancy filter
    // (DESIGN.md §3.1 item 3, step 2). Disabling it skips the pair
    // decomposition at the cost of many redundant surrogate edges.
    let mut group = c.benchmark_group("protect/ablation");
    let config = SyntheticConfig {
        nodes: 200,
        target_connected_pairs: 50.0,
        protect_fraction: 0.5,
        seed: 3,
    };
    let data = synthetic::generate(config);
    let catalog = SurrogateCatalog::new();
    let public = data.lattice.public();
    let markings = data.markings(EdgeProtection::Surrogate);
    let ctx = ProtectionContext::new(&data.graph, &data.lattice, &markings, &catalog);
    for (name, options) in [
        (
            "redundancy_filter_on",
            GenerateOptions {
                redundancy_filter: true,
            },
        ),
        (
            "redundancy_filter_off",
            GenerateOptions {
                redundancy_filter: false,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| generate_with_options(&ctx, &[public], options).expect("generates"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protect);
criterion_main!(benches);
