//! Property-based tests of the paper's guarantees over randomized graphs,
//! lattices, markings, and surrogate catalogs.
//!
//! Rather than composing complex proptest strategies, each case derives a
//! full scenario deterministically from `(node_count, seed)` with a seeded
//! RNG — shrinking then shrinks the scenario's size and seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use surrogate_core::account::{
    self, generate_for_set, generate_hide_for_set, generate_naive_node_hide_for_set,
    generate_with_options, Correspondence, GenerateOptions, ProtectedAccount, ProtectionContext,
    Strategy,
};
use surrogate_core::feature::Features;
use surrogate_core::graph::NodeId;
use surrogate_core::graph::{Csr, Graph};
use surrogate_core::hw::{high_water_set, is_high_water_set};
use surrogate_core::marking::{Marking, MarkingStore};
use surrogate_core::measures::{
    edge_opacity, node_utility, path_utility, OpacityEvaluator, OpacityModel,
};
use surrogate_core::privilege::{PrivilegeId, PrivilegeLattice};
use surrogate_core::query::{traverse, Direction};
use surrogate_core::surrogate::{SurrogateCatalog, SurrogateDef};
use surrogate_core::validate::{check_all, check_soundness};

/// A complete randomized protection scenario.
struct Scenario {
    graph: Graph,
    lattice: PrivilegeLattice,
    markings: MarkingStore,
    catalog: SurrogateCatalog,
    predicate: PrivilegeId,
}

impl Scenario {
    fn ctx(&self) -> ProtectionContext<'_> {
        ProtectionContext::new(&self.graph, &self.lattice, &self.markings, &self.catalog)
    }
}

/// `Public ⊑ L1 ⊑ L2`, or `Public ⊑ {L1, L2}` incomparable, with the
/// levels in that order.
fn random_lattice(rng: &mut StdRng) -> (PrivilegeLattice, [PrivilegeId; 3]) {
    let mut builder = PrivilegeLattice::builder();
    let public = builder.add("Public").unwrap();
    let l1 = builder.add("L1").unwrap();
    let l2 = builder.add("L2").unwrap();
    builder.declare_dominates(l1, public);
    if rng.gen_bool(0.5) {
        builder.declare_dominates(l2, l1);
    } else {
        builder.declare_dominates(l2, public);
    }
    (builder.finish().unwrap(), [public, l1, l2])
}

fn build_scenario(nodes: usize, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);

    let (lattice, levels) = random_lattice(&mut rng);
    let public = levels[0];

    let mut graph = Graph::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let lowest = levels[rng.gen_range(0..3usize)];
            graph.add_node_with_features(
                format!("n{i}"),
                Features::new().with("i", i as i64),
                lowest,
            )
        })
        .collect();
    for &a in &ids {
        for &b in &ids {
            if a != b && rng.gen_bool(0.25) {
                let _ = graph.add_edge(a, b);
            }
        }
    }

    // Random incidence markings for a random subset of (incidence, level).
    let mut markings = MarkingStore::new();
    let edges: Vec<_> = graph.edges().collect();
    for &edge in &edges {
        for node in [edge.0, edge.1] {
            if rng.gen_bool(0.3) {
                let marking = match rng.gen_range(0..3) {
                    0 => Marking::Visible,
                    1 => Marking::Hide,
                    _ => Marking::Surrogate,
                };
                let level = levels[rng.gen_range(0..3usize)];
                markings.set(node, edge, level, marking);
            }
        }
    }
    // Occasionally mark a whole node's incidences.
    for &n in &ids {
        if rng.gen_bool(0.15) {
            let marking = if rng.gen_bool(0.5) {
                Marking::Surrogate
            } else {
                Marking::Hide
            };
            markings.set_node(n, levels[rng.gen_range(0..3usize)], marking);
        }
    }

    // Surrogates: only for non-public nodes; a Public surrogate can never
    // dominate a non-public lowest, so these are always admissible.
    let mut catalog = SurrogateCatalog::new();
    for &n in &ids {
        if graph.node(n).lowest != public && rng.gen_bool(0.5) {
            catalog.add(
                n,
                SurrogateDef {
                    label: format!("{}'", graph.node(n).label),
                    features: Features::new(),
                    lowest: public,
                    info_score: rng.gen_range(0..=10) as f64 / 10.0,
                },
            );
        }
    }

    let predicate = levels[rng.gen_range(0..3usize)];
    Scenario {
        graph,
        lattice,
        markings,
        catalog,
        predicate,
    }
}

/// A sparse scenario of the shape that makes the bounded generator's
/// walks hard: out-degree 1–2.5, edges between nearby ids so chains of
/// protected nodes run deep, a DAG or (when `cyclic`) with back edges,
/// 15–60 % of the nodes non-public, and markings mostly set per node — so
/// public nodes that can record pairs alternate with long pass-through
/// runs, shortest walks of different lengths run in parallel, and a
/// sprinkle of per-incidence markings forbids pairs by Def. 8 cond. 2.
fn build_sparse_scenario(nodes: usize, cyclic: bool, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);

    let (lattice, levels) = random_lattice(&mut rng);
    let public = levels[0];

    let non_public = rng.gen_range(15..=60) as f64 / 100.0;
    let mut graph = Graph::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let lowest = if rng.gen_bool(non_public) {
                levels[rng.gen_range(1..3usize)]
            } else {
                public
            };
            graph.add_node_with_features(format!("n{i}"), Features::new(), lowest)
        })
        .collect();

    let out_degree = rng.gen_range(10..=25) as f64 / 10.0;
    for i in 0..nodes {
        let fan_out = out_degree as usize + usize::from(rng.gen_bool(out_degree.fract()));
        for _ in 0..fan_out {
            let hop = rng.gen_range(1..=4usize);
            let j = if cyclic && rng.gen_bool(0.3) {
                i.checked_sub(hop)
            } else {
                Some(i + hop).filter(|&j| j < nodes)
            };
            if let Some(j) = j {
                let _ = graph.add_edge(ids[i], ids[j]); // duplicates are fine to skip
            }
        }
    }

    let mut markings = MarkingStore::new();
    let mut catalog = SurrogateCatalog::new();
    for &n in &ids {
        if graph.node(n).lowest == public {
            // Pass-through: a public node whose role is protected.
            if rng.gen_bool(0.1) {
                markings.set_node_all_predicates(n, Marking::Surrogate);
            }
            continue;
        }
        match rng.gen_range(0..10) {
            0 => {} // incidences stay Visible: absent nodes pass through
            1 => markings.set_node(n, levels[rng.gen_range(0..3usize)], Marking::Hide),
            2 | 3 => markings.set_node(n, levels[rng.gen_range(0..3usize)], Marking::Surrogate),
            _ => markings.set_node_all_predicates(n, Marking::Surrogate),
        }
        if rng.gen_bool(0.5) {
            catalog.add(
                n,
                SurrogateDef {
                    label: format!("{}'", graph.node(n).label),
                    features: Features::new(),
                    lowest: public,
                    info_score: 0.5,
                },
            );
        }
    }
    let edges: Vec<_> = graph.edges().collect();
    for &edge in &edges {
        for node in [edge.0, edge.1] {
            if rng.gen_bool(0.12) {
                let marking = match rng.gen_range(0..4) {
                    0 => Marking::Visible,
                    1 => Marking::Hide,
                    _ => Marking::Surrogate,
                };
                markings.set_all_predicates(node, edge, marking);
            }
        }
    }

    Scenario {
        graph,
        lattice,
        markings,
        catalog,
        predicate: public,
    }
}

/// `generate_with_options` against `reference::generate_with_options`,
/// for each single predicate, the `{L1, L2}` set and both filter
/// settings: the same edges in the same order, classified the same way,
/// and an account `validate` accepts.
fn assert_matches_reference(scenario: &Scenario) -> Result<(), TestCaseError> {
    let ctx = scenario.ctx();
    let [public, l1, l2] = ["Public", "L1", "L2"].map(|n| scenario.lattice.by_name(n).unwrap());
    for preds in [vec![public], vec![l1], vec![l2], vec![l1, l2]] {
        for redundancy_filter in [true, false] {
            let options = GenerateOptions { redundancy_filter };
            let bounded = generate_with_options(&ctx, &preds, options).unwrap();
            let reference =
                account::reference::generate_with_options(&ctx, &preds, options).unwrap();
            let got: Vec<_> = bounded.graph().edges().collect();
            let want: Vec<_> = reference.graph().edges().collect();
            prop_assert_eq!(&got, &want, "{:?}, filter {}", preds, redundancy_filter);
            for &e in &got {
                prop_assert_eq!(bounded.is_surrogate_edge(e), reference.is_surrogate_edge(e));
            }
            let violations = check_all(&ctx, &bounded);
            prop_assert!(violations.is_empty(), "{preds:?}: {violations:?}");
        }
    }
    Ok(())
}

/// Every field an account exposes, in order: edges and their positions,
/// each adjacency list, payloads (an original's shared with `original`),
/// both directions of the node correspondence and the surrogate
/// classification.
fn assert_same_account(
    got: &ProtectedAccount,
    want: &ProtectedAccount,
    original: &Graph,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.high_water(), want.high_water());
    prop_assert_eq!(got.strategy(), want.strategy());
    let (g, w) = (got.graph(), want.graph());
    prop_assert_eq!(g.node_count(), w.node_count());
    let edges: Vec<_> = w.edges().collect();
    prop_assert_eq!(&g.edges().collect::<Vec<_>>(), &edges);
    for (i, &e) in edges.iter().enumerate() {
        prop_assert_eq!(g.edge_index(e), Some(i));
        prop_assert_eq!(
            got.is_surrogate_edge(e),
            want.is_surrogate_edge(e),
            "{:?}",
            e
        );
    }
    prop_assert_eq!(got.surrogate_edge_count(), want.surrogate_edge_count());
    for n in w.node_ids() {
        prop_assert_eq!(g.out_neighbors(n), w.out_neighbors(n), "out of {}", n);
        prop_assert_eq!(g.in_neighbors(n), w.in_neighbors(n), "in of {}", n);
        prop_assert_eq!(g.node(n), w.node(n));
        prop_assert_eq!(got.original_node(n), want.original_node(n));
        prop_assert_eq!(got.correspondence(n), want.correspondence(n));
        if *got.correspondence(n) == Correspondence::Original {
            let shared = original.shared_node(got.original_node(n));
            prop_assert!(Arc::ptr_eq(g.shared_node(n), shared), "payload of {}", n);
        }
    }
    for n in original.node_ids() {
        prop_assert_eq!(got.account_node(n), want.account_node(n));
    }
    Ok(())
}

fn random_marking(rng: &mut StdRng) -> Marking {
    [Marking::Visible, Marking::Hide, Marking::Surrogate][rng.gen_range(0..3usize)]
}

fn random_node(scenario: &Scenario, rng: &mut StdRng) -> NodeId {
    NodeId(rng.gen_range(0..scenario.graph.node_count() as u32))
}

/// Appends a node at a random level. A sensitive one may be given a
/// surrogate and a marking in the same write.
fn append_node(scenario: &mut Scenario, levels: [PrivilegeId; 3], rng: &mut StdRng) -> NodeId {
    let lowest = levels[rng.gen_range(0..3usize)];
    let n = scenario.graph.node_count();
    let id = scenario.graph.add_node(format!("m{n}"), lowest);
    if lowest != levels[0] {
        if rng.gen_bool(0.5) {
            add_surrogate(scenario, id, levels[0]);
        }
        if rng.gen_bool(0.5) {
            let level = levels[rng.gen_range(0..3usize)];
            scenario.markings.set_node(id, level, random_marking(rng));
        }
    }
    id
}

/// A Public surrogate for `n`, scored like the ones it has, so the
/// catalog stays valid.
fn add_surrogate(scenario: &mut Scenario, n: NodeId, public: PrivilegeId) {
    let info_score = scenario
        .catalog
        .for_node(n)
        .first()
        .map_or(0.5, |def| def.info_score);
    scenario.catalog.add(
        n,
        SurrogateDef {
            label: format!("{n}'"),
            features: Features::new(),
            lowest: public,
            info_score,
        },
    );
}

/// Adds `from → to`, sometimes marking the head's incidence.
fn append_edge(
    scenario: &mut Scenario,
    (from, to): (NodeId, NodeId),
    levels: [PrivilegeId; 3],
    rng: &mut StdRng,
) {
    if scenario.graph.add_edge(from, to).is_ok() && rng.gen_bool(0.3) {
        let level = levels[rng.gen_range(0..3usize)];
        let marking = random_marking(rng);
        scenario.markings.set(to, (from, to), level, marking);
    }
}

/// A marking or a surrogate about `n`.
fn statement(scenario: &mut Scenario, n: NodeId, levels: [PrivilegeId; 3], rng: &mut StdRng) {
    let level = levels[rng.gen_range(0..3usize)];
    let incident: Vec<_> = (scenario.graph.out_neighbors(n).iter().map(|&t| (n, t)))
        .chain(scenario.graph.in_neighbors(n).iter().map(|&s| (s, n)))
        .collect();
    match rng.gen_range(0..4) {
        0 => scenario.markings.set_node(n, level, random_marking(rng)),
        1 => scenario
            .markings
            .set_node_all_predicates(n, random_marking(rng)),
        2 if !incident.is_empty() => {
            let edge = incident[rng.gen_range(0..incident.len())];
            scenario.markings.set(n, edge, level, random_marking(rng));
        }
        _ if scenario.graph.node(n).lowest != levels[0] => add_surrogate(scenario, n, levels[0]),
        _ => scenario
            .markings
            .set_node_all_predicates(n, random_marking(rng)),
    }
}

/// One write of the kinds a store takes, mostly appends into new nodes:
/// sinks with one to three in-edges, chains and cycles of new nodes
/// hanging off an existing one, statements about recent nodes; and now
/// and then an edge between existing nodes or a statement about any
/// node. Returns the nodes it names as an edge head or as the subject
/// of a statement: an account reflecting `n0` nodes may be extended
/// past it iff none is below `n0`.
fn random_write(scenario: &mut Scenario, rng: &mut StdRng) -> Vec<NodeId> {
    let levels = ["Public", "L1", "L2"].map(|n| scenario.lattice.by_name(n).unwrap());
    match rng.gen_range(0..10) {
        0..=2 => {
            let x = append_node(scenario, levels, rng);
            for _ in 0..rng.gen_range(1..=3) {
                let from = random_node(scenario, rng);
                if from != x {
                    append_edge(scenario, (from, x), levels, rng);
                }
            }
            vec![x]
        }
        3 | 4 => {
            let from = random_node(scenario, rng);
            let new: Vec<NodeId> = (0..rng.gen_range(1..=3))
                .map(|_| append_node(scenario, levels, rng))
                .collect();
            append_edge(scenario, (from, new[0]), levels, rng);
            for pair in new.windows(2) {
                append_edge(scenario, (pair[0], pair[1]), levels, rng);
            }
            if new.len() > 1 && rng.gen_bool(0.5) {
                append_edge(scenario, (new[new.len() - 1], new[0]), levels, rng);
            }
            new
        }
        5 => vec![append_node(scenario, levels, rng)],
        6 | 7 => {
            let n = scenario.graph.node_count();
            let recent = NodeId((n - 1 - rng.gen_range(0..n.min(3))) as u32);
            statement(scenario, recent, levels, rng);
            vec![recent]
        }
        8 => {
            let (from, to) = (random_node(scenario, rng), random_node(scenario, rng));
            if scenario.graph.add_edge(from, to).is_ok() {
                vec![to]
            } else {
                vec![]
            }
        }
        _ => {
            let any = random_node(scenario, rng);
            statement(scenario, any, levels, rng);
            vec![any]
        }
    }
}

/// Extends an account of every key across random writes, reading 70 %
/// of the epochs so one extension can span several, and holds every
/// extension to a generation at the same state — and, for
/// `Strategy::Surrogate`, to the reference — in every field. A write
/// outside the class must make the extension refuse.
fn assert_extensions_equal_generation(
    mut scenario: Scenario,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0e47_e4d5);
    let [public, l1, l2] = ["Public", "L1", "L2"].map(|n| scenario.lattice.by_name(n).unwrap());
    let keys: Vec<(Vec<PrivilegeId>, Strategy)> = [vec![public], vec![l1], vec![l2], vec![l1, l2]]
        .into_iter()
        .flat_map(|preds| Strategy::ALL.iter().map(move |&s| (preds.clone(), s)))
        .collect();
    // Per key: the account, the nodes it reflects, and whether a write
    // since names one of them.
    let mut accounts: Vec<(ProtectedAccount, usize, bool)> = keys
        .iter()
        .map(|(preds, strategy)| {
            let account = scenario.ctx().protect_set(preds, *strategy).unwrap();
            (account, scenario.graph.node_count(), false)
        })
        .collect();
    for _ in 0..12 {
        let named = random_write(&mut scenario, &mut rng);
        for (_, n0, stale) in &mut accounts {
            *stale |= named.iter().any(|v| v.index() < *n0);
        }
        let csr = Csr::build(&scenario.graph);
        let ctx = if rng.gen_bool(0.5) {
            scenario.ctx().with_csr(&csr)
        } else {
            scenario.ctx()
        };
        for ((preds, strategy), (account, n0, stale)) in keys.iter().zip(&mut accounts) {
            if rng.gen_bool(0.3) {
                continue;
            }
            let want = ctx.protect_set(preds, *strategy).unwrap();
            // The next extension starts from this one, as a service's does.
            let next = match ctx.extend_account(account.clone()) {
                Some(got) => {
                    prop_assert!(
                        !*stale,
                        "{:?} {:?}: extended across an old node",
                        preds,
                        strategy
                    );
                    assert_same_account(&got, &want, &scenario.graph)?;
                    if *strategy == Strategy::Surrogate {
                        let spec = account::reference::generate_for_set(&ctx, preds).unwrap();
                        assert_same_account(&got, &spec, &scenario.graph)?;
                    }
                    got
                }
                None => {
                    prop_assert!(*stale, "{:?} {:?}: refused an append", preds, strategy);
                    want
                }
            };
            (*account, *n0, *stale) = (next, scenario.graph.node_count(), false);
        }
    }
    Ok(())
}

/// Reference BFS: collects `(node, depth)` into `Vec`s the naive way —
/// no `BitSet`, no borrowed iterators — as an oracle for the
/// allocation-free `Traversal::iter()` / `nodes()` accessors.
fn naive_traverse(
    graph: &Graph,
    start: NodeId,
    direction: Direction,
    max_depth: u32,
) -> Vec<(NodeId, u32)> {
    let mut seen: std::collections::HashSet<NodeId> = [start].into_iter().collect();
    let mut visited = Vec::new();
    let mut frontier = vec![start];
    let mut depth = 0u32;
    while !frontier.is_empty() && depth < max_depth {
        depth += 1;
        let mut next = Vec::new();
        for n in frontier {
            let mut neighbors: Vec<NodeId> = Vec::new();
            if matches!(direction, Direction::Forward | Direction::Both) {
                neighbors.extend(graph.out_neighbors(n).iter().copied());
            }
            if matches!(direction, Direction::Backward | Direction::Both) {
                neighbors.extend(graph.in_neighbors(n).iter().copied());
            }
            for m in neighbors {
                if seen.insert(m) {
                    visited.push((m, depth));
                    next.push(m);
                }
            }
        }
        frontier = next;
    }
    visited
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Catches, in `ProtectionContext::extend_account`: a column search
    /// pruned early, a witness test that skips new intermediates, cond. 2
    /// unchecked on the new pair's direct edge, a shown edge appended
    /// after the surrogate block, surrogate edges appended unsorted, a
    /// stale flag byte, and a refusal test that ignores the policy
    /// written since. Dense cyclic and sparse deep graphs, every key.
    #[test]
    fn extended_account_equals_generation(
        nodes in 1usize..12,
        sparse_nodes in 2usize..48,
        cyclic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        assert_extensions_equal_generation(build_scenario(nodes, seed), seed)?;
        assert_extensions_equal_generation(build_sparse_scenario(sparse_nodes, cyclic, seed), seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1 / Defs. 5 & 9: generated surrogate accounts satisfy
    /// soundness, maximal node visibility, dominant surrogacy, and maximal
    /// connectivity on arbitrary scenarios.
    #[test]
    fn surrogate_accounts_satisfy_all_invariants(nodes in 1usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let account = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        let violations = check_all(&ctx, &account);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// The relay-bounded generator is bit-identical to the executable
    /// spec where its three invariants are not vacuous (docs/DESIGN.md
    /// §3.1 item 7): on the dense cyclic scenarios with per-incidence
    /// markings and cond.-2-forbidden pairs, and on sparse deep ones.
    #[test]
    fn bounded_generator_matches_reference(
        nodes in 1usize..12,
        sparse_nodes in 2usize..65,
        cyclic in any::<bool>(),
        seed in any::<u64>(),
    ) {
        assert_matches_reference(&build_scenario(nodes, seed))?;
        assert_matches_reference(&build_sparse_scenario(sparse_nodes, cyclic, seed))?;
    }

    /// Both baselines remain sound (Def. 5) even though they give up the
    /// informativeness properties.
    #[test]
    fn baselines_are_sound(nodes in 1usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        for strategy in [Strategy::HideEdges, Strategy::HideNodes] {
            let account = ctx.protect(scenario.predicate, strategy).unwrap();
            let violations = check_soundness(&ctx, &account);
            prop_assert!(violations.is_empty(), "{strategy:?}: {violations:?}");
        }
    }

    /// The §6.3 headline as a theorem: with the same markings, the
    /// surrogate account's graph is an edge-superset of the hide account's,
    /// so under the default (raw) opacity model every original edge is at
    /// least as opaque, and path utility is at least as high.
    #[test]
    fn surrogating_dominates_hiding(nodes in 2usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let sur = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        let hide = generate_hide_for_set(&ctx, &[scenario.predicate]).unwrap();

        // Edge-superset relation.
        for (u2, v2) in hide.graph().edges() {
            let u = hide.original_node(u2);
            let v = hide.original_node(v2);
            let su = sur.account_node(u).expect("same node layer");
            let sv = sur.account_node(v).expect("same node layer");
            prop_assert!(sur.graph().has_edge(su, sv), "lost edge {u:?}->{v:?}");
        }

        // Measure dominance.
        prop_assert!(
            path_utility(&scenario.graph, &sur)
                >= path_utility(&scenario.graph, &hide) - 1e-12
        );
        prop_assert!(
            (node_utility(&scenario.graph, &sur)
                - node_utility(&scenario.graph, &hide)).abs() < 1e-12,
            "identical node layers must score identically"
        );
        let sur_eval = OpacityEvaluator::new(&sur, OpacityModel::directional());
        let hide_eval = OpacityEvaluator::new(&hide, OpacityModel::directional());
        for e in scenario.graph.edges() {
            prop_assert!(
                sur_eval.edge_opacity(e) >= hide_eval.edge_opacity(e) - 1e-12,
                "edge {e:?}"
            );
        }
    }

    /// Opacity stays in [0, 1] with the correct extremes for every model
    /// variant and strategy.
    #[test]
    fn opacity_is_bounded_with_correct_extremes(nodes in 1usize..10, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        for strategy in [Strategy::Surrogate, Strategy::HideEdges, Strategy::HideNodes] {
            let account = ctx.protect(scenario.predicate, strategy).unwrap();
            for model in [
                OpacityModel::directional(),
                OpacityModel::directional_normalized(),
                OpacityModel::figure5_literal(),
                OpacityModel::fp_product(),
            ] {
                for e in scenario.graph.edges() {
                    let op = edge_opacity(&account, model, e);
                    prop_assert!((0.0..=1.0).contains(&op), "{op}");
                    if account.original_edge_present(e) {
                        prop_assert_eq!(op, 0.0);
                    }
                    if account.account_node(e.0).is_none()
                        || account.account_node(e.1).is_none()
                    {
                        prop_assert_eq!(op, 1.0);
                    }
                }
            }
        }
    }

    /// Utilities are bounded and exact at the no-protection extreme.
    #[test]
    fn utilities_are_bounded(nodes in 1usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        for strategy in [Strategy::Surrogate, Strategy::HideEdges, Strategy::HideNodes] {
            let account = ctx.protect(scenario.predicate, strategy).unwrap();
            let pu = path_utility(&scenario.graph, &account);
            let nu = node_utility(&scenario.graph, &account);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&pu), "{pu}");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&nu), "{nu}");
        }
    }

    /// A consumer at the top of a chain lattice with no markings sees the
    /// graph unchanged (protection is the identity when nothing is
    /// sensitive for that predicate).
    #[test]
    fn top_consumer_sees_identity(nodes in 1usize..12, seed in any::<u64>()) {
        let mut scenario = build_scenario(nodes, seed);
        scenario.markings = MarkingStore::new();
        // Predicate that dominates everything, if the lattice is a chain.
        let l2 = scenario.lattice.by_name("L2").unwrap();
        let l1 = scenario.lattice.by_name("L1").unwrap();
        prop_assume!(scenario.lattice.dominates(l2, l1));
        let ctx = scenario.ctx();
        let account = generate_for_set(&ctx, &[l2]).unwrap();
        prop_assert_eq!(account.graph().node_count(), scenario.graph.node_count());
        prop_assert_eq!(account.graph().edge_count(), scenario.graph.edge_count());
        prop_assert_eq!(account.surrogate_node_count(), 0);
        prop_assert_eq!(account.surrogate_edge_count(), 0);
    }

    /// Generation is deterministic.
    #[test]
    fn generation_is_deterministic(nodes in 1usize..10, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let a = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        let b = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        prop_assert_eq!(a.graph().node_count(), b.graph().node_count());
        prop_assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        prop_assert_eq!(ea, eb);
    }

    /// Multi-predicate accounts (Def. 6 sets) satisfy every invariant too,
    /// and see at least as much as each member's singleton account.
    #[test]
    fn multi_predicate_accounts_satisfy_invariants(nodes in 1usize..10, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let l1 = scenario.lattice.by_name("L1").unwrap();
        let l2 = scenario.lattice.by_name("L2").unwrap();
        prop_assume!(scenario.lattice.incomparable(l1, l2));
        let set_account = surrogate_core::account::generate_for_set(&ctx, &[l1, l2]).unwrap();
        let violations = check_all(&ctx, &set_account);
        prop_assert!(violations.is_empty(), "{violations:?}");
        for p in [l1, l2] {
            let single = generate_for_set(&ctx, &[p]).unwrap();
            prop_assert!(
                set_account.graph().node_count() >= single.graph().node_count(),
                "{p:?}"
            );
        }
    }

    /// Theorem 1's utility maximality, against the strongest sound
    /// competitor: the account carrying an edge for *every* permitted pair
    /// (`redundancy_filter: false`) upper-bounds the path utility any sound
    /// account over the same node set can reach (utility is monotone in
    /// edges, and sound edges are exactly the permitted pairs). The
    /// filtered account must match it exactly.
    #[test]
    fn redundancy_filter_preserves_maximal_utility(nodes in 1usize..10, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let filtered = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        let maximal = generate_with_options(
            &ctx,
            &[scenario.predicate],
            GenerateOptions { redundancy_filter: false },
        )
        .unwrap();
        let got = path_utility(&scenario.graph, &filtered);
        let bound = path_utility(&scenario.graph, &maximal);
        prop_assert!((got - bound).abs() < 1e-12, "{got} vs bound {bound}");
    }

    /// Lemma 1's node-utility maximality as a direct oracle: the account's
    /// node utility equals the per-node best achievable — 1 for visible
    /// originals, the best visible surrogate's info-score otherwise, 0 when
    /// nothing can be shown — averaged over |N|.
    #[test]
    fn node_utility_is_per_node_optimal(nodes in 1usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let account = generate_for_set(&ctx, &[scenario.predicate]).unwrap();
        let expected: f64 = scenario
            .graph
            .node_ids()
            .map(|n| {
                if scenario
                    .lattice
                    .dominates(scenario.predicate, scenario.graph.node(n).lowest)
                {
                    1.0
                } else {
                    scenario
                        .catalog
                        .most_dominant_visible(&scenario.lattice, n, scenario.predicate)
                        .map(|def| def.info_score)
                        .unwrap_or(0.0)
                }
            })
            .sum::<f64>()
            / scenario.graph.node_count() as f64;
        let got = node_utility(&scenario.graph, &account);
        prop_assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    /// PR 2's allocation-free traversal accessors agree with a naive
    /// Vec-collecting BFS on arbitrary graphs: same `(node, depth)`
    /// sequence from `iter()`, same node sequence from `nodes()`, same
    /// length/emptiness, in every direction and at bounded and unbounded
    /// depths.
    #[test]
    fn traversal_iterators_agree_with_naive_bfs(nodes in 1usize..12, seed in any::<u64>(), root in any::<u16>()) {
        let scenario = build_scenario(nodes, seed);
        let start = NodeId(root as u32 % scenario.graph.node_count() as u32);
        for direction in [Direction::Forward, Direction::Backward, Direction::Both] {
            for max_depth in [0, 1, 2, u32::MAX] {
                let traversal = traverse(&scenario.graph, start, direction, max_depth);
                let expected = naive_traverse(&scenario.graph, start, direction, max_depth);
                let via_iter: Vec<(NodeId, u32)> = traversal.iter().collect();
                prop_assert_eq!(&via_iter, &expected, "iter() diverged ({direction:?}, depth {max_depth})");
                let via_nodes: Vec<NodeId> = traversal.nodes().collect();
                let expected_nodes: Vec<NodeId> = expected.iter().map(|&(n, _)| n).collect();
                prop_assert_eq!(&via_nodes, &expected_nodes, "nodes() diverged");
                let via_intoiter: Vec<(NodeId, u32)> = (&traversal).into_iter().collect();
                prop_assert_eq!(&via_intoiter, &expected, "IntoIterator diverged");
                prop_assert_eq!(traversal.len(), expected.len());
                prop_assert_eq!(traversal.is_empty(), expected.is_empty());
            }
        }
    }

    /// High-water sets satisfy Def. 6 on arbitrary graphs.
    #[test]
    fn high_water_sets_satisfy_def6(nodes in 0usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes.max(1), seed);
        let hw = high_water_set(&scenario.graph, &scenario.lattice);
        prop_assert!(is_high_water_set(&scenario.graph, &scenario.lattice, &hw));
    }

    /// The naïve baseline never contains surrogates and its node utility
    /// equals the visible fraction (§4.1's |N'|/|N| remark).
    #[test]
    fn naive_node_utility_is_visible_fraction(nodes in 1usize..12, seed in any::<u64>()) {
        let scenario = build_scenario(nodes, seed);
        let ctx = scenario.ctx();
        let account = generate_naive_node_hide_for_set(&ctx, &[scenario.predicate]).unwrap();
        prop_assert_eq!(account.surrogate_node_count(), 0);
        let expected =
            account.graph().node_count() as f64 / scenario.graph.node_count() as f64;
        let nu = node_utility(&scenario.graph, &account);
        prop_assert!((nu - expected).abs() < 1e-12, "{nu} vs {expected}");
    }
}
