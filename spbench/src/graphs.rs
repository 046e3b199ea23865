//! Inputs: the dataset (the served graph shapes, the same in every
//! run), the key universe the read workloads draw from, and the
//! independent random streams a run's seed drives.

use graphgen::workflow::{self, Workflow, WorkflowConfig};
use plus_store::codec;
use plus_store::wire::WriteOp;
use plus_store::{Direction, IngestKinds, QueryRequest, RecordId, Store, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `graphgen::workflow` shape: `width + 2 * stages * width` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub stages: usize,
    pub width: usize,
}

/// 300 nodes — the shape every `BENCH_PR*.json` record used.
pub const G300: Shape = Shape {
    stages: 12,
    width: 12,
};
/// 1 025 nodes.
pub const G1K: Shape = Shape {
    stages: 20,
    width: 25,
};
/// 4 860 nodes, about 7 200 edges and 1 400 policy statements. Nothing
/// larger serves traffic: one cold `protect` at twice this size takes
/// seconds.
pub const G5K: Shape = Shape {
    stages: 40,
    width: 60,
};
/// 88 nodes: with its edges and policy, the 200 writes a failover drill
/// preloads.
pub const G88: Shape = Shape {
    stages: 5,
    width: 8,
};

impl Shape {
    pub fn nodes(self) -> usize {
        self.width + 2 * self.stages * self.width
    }
}

/// An independent 64-bit stream seed for `(seed, stream)`: one SplitMix64
/// step over their mix, so neighbouring seeds do not share streams.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut state = seed;
    for byte in stream.bytes() {
        state = state.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(byte);
    }
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The random stream named `stream` of run `seed`.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, stream))
}

/// The seed of the dataset. The graphs a workload serves, and what
/// `ingest` loads, are the benchmark's dataset: the same in every run,
/// like a database benchmark's tables at one scale factor. `--seed`
/// drives the traffic: which keys are hot, the order of requests, where
/// appended edges attach and which appended nodes are `Restricted`.
/// The quality measures (`path_utility`, `opacity`) are the served
/// dataset's, so they are the same number at every seed and a change of
/// one percent in either is a change in the program, not in the draw.
/// (Drawn per seed, `path_utility` spread by up to 10 % from one
/// 300-node graph to the next, and the bound had to cover that.)
pub const DATASET_SEED: u64 = 1;

/// The dataset's random stream named `stream`.
pub fn dataset_rng(stream: &str) -> StdRng {
    rng(DATASET_SEED, stream)
}

/// Generates the dataset's workflow of `shape` with the parameters every
/// workload shares.
pub fn generate(shape: Shape) -> Workflow {
    workflow::generate(WorkflowConfig {
        stages: shape.stages,
        width: shape.width,
        max_fan_in: 3,
        sensitive_fraction: 0.15,
        seed: stream_seed(DATASET_SEED, "graph"),
    })
}

/// Imports a workflow into a fresh in-memory store.
pub fn ingest(wf: &Workflow) -> Result<Store, String> {
    plus_store::ingest(
        &wf.graph,
        &wf.lattice,
        &wf.markings,
        &wf.catalog,
        IngestKinds::default(),
    )
    .map_err(|e| format!("cannot ingest the generated workflow: {e}"))
}

/// The store's history as wire writes, in clock order for a store built
/// by `ingest` (nodes, then edges, then policy).
pub fn store_ops(store: &Store) -> Result<Vec<WriteOp>, String> {
    let data = codec::decode(&store.to_bytes()).map_err(|e| format!("snapshot decode: {e}"))?;
    let mut ops = Vec::with_capacity(data.nodes.len() + data.edges.len() + data.policy.len());
    ops.extend(data.nodes.into_iter().map(|node| WriteOp::AppendNode {
        label: node.label,
        kind: node.kind,
        features: node.features,
        lowest: node.lowest,
    }));
    ops.extend(data.edges.into_iter().map(|edge| WriteOp::AppendEdge {
        from: edge.from,
        to: edge.to,
        kind: edge.kind,
    }));
    ops.extend(data.policy.into_iter().map(WriteOp::ApplyPolicy));
    Ok(ops)
}

/// Applies one wire write to a store in this process.
pub fn apply_op(store: &Store, op: &WriteOp) -> Result<Option<RecordId>, String> {
    match op.clone() {
        WriteOp::AppendNode {
            label,
            kind,
            features,
            lowest,
        } => store
            .try_append_node(label, kind, features, lowest)
            .map(Some),
        WriteOp::AppendEdge { from, to, kind } => store.append_edge(from, to, kind).map(|()| None),
        WriteOp::ApplyPolicy(statement) => store.apply_policy(statement).map(|()| None),
    }
    .map_err(|e| e.to_string())
}

/// Depths a key may ask for.
pub const DEPTHS: u32 = 8;
/// Keys per root: 2 directions x 8 depths x 2 strategies.
pub const KEYS_PER_ROOT: u64 = 2 * DEPTHS as u64 * 2;

/// The `index`-th key of a consumer's universe over `nodes` roots:
/// root x direction x depth 1..=8 x strategy {Surrogate, HideEdges}.
pub fn key(index: u64) -> QueryRequest {
    let root = (index / KEYS_PER_ROOT) as u32;
    let rest = index % KEYS_PER_ROOT;
    let direction = if rest & 1 == 0 {
        Direction::Backward
    } else {
        Direction::Forward
    };
    let strategy = if (rest >> 1) & 1 == 0 {
        Strategy::Surrogate
    } else {
        Strategy::HideEdges
    };
    let depth = (rest >> 2) as u32 + 1;
    QueryRequest::new(RecordId(root), direction, depth, strategy)
}

/// `count` distinct keys drawn from the universe over `nodes` roots.
pub fn hot_set(rng: &mut StdRng, nodes: usize, count: usize) -> Vec<QueryRequest> {
    let universe = nodes as u64 * KEYS_PER_ROOT;
    assert!(count as u64 <= universe, "hot set larger than the universe");
    let mut chosen = std::collections::BTreeSet::new();
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let index = rng.gen_range(0..universe);
        if chosen.insert(index) {
            keys.push(key(index));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_stated_sizes() {
        assert_eq!(G300.nodes(), 300);
        assert_eq!(G1K.nodes(), 1_025);
        assert_eq!(G5K.nodes(), 4_860);
        assert_eq!(generate(G300).graph.node_count(), 300);
    }

    #[test]
    fn keys_cover_the_universe_without_repeats() {
        let all: std::collections::BTreeSet<String> = (0..3 * KEYS_PER_ROOT)
            .map(|i| format!("{:?}", key(i)))
            .collect();
        assert_eq!(all.len() as u64, 3 * KEYS_PER_ROOT);
        let last = key(3 * KEYS_PER_ROOT - 1);
        assert_eq!((last.root, last.max_depth), (RecordId(2), DEPTHS));
    }

    #[test]
    fn streams_differ_by_seed_and_by_name() {
        let mut a = rng(1, "keys");
        let mut b = rng(2, "keys");
        let mut c = rng(1, "load");
        let (x, y, z): (u64, u64, u64) = (a.gen(), b.gen(), c.gen());
        assert!(x != y && x != z);
        assert_eq!(rng(1, "keys").gen::<u64>(), x);
    }

    #[test]
    fn store_ops_rebuild_the_store() {
        let wf = generate(G300);
        let store = ingest(&wf).unwrap();
        let copy = Store::new(&["Public", "Restricted"], &[(1, 0)]).unwrap();
        for op in store_ops(&store).unwrap() {
            apply_op(&copy, &op).unwrap();
        }
        assert_eq!(copy.to_bytes(), store.to_bytes());
    }
}
