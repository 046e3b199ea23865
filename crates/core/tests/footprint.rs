//! Heap footprint of the graph model, counted by this test binary's own
//! global allocator: a graph's adjacency is a constant number of heap
//! blocks however many nodes it has, and a node's one-feature payload
//! is a few small blocks.
//!
//! The allocator keeps its counts per thread, so each test reads what
//! its own thread allocated, whatever the harness runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use surrogate_core::feature::Features;
use surrogate_core::graph::{Graph, Node, NodeId};
use surrogate_core::privilege::PrivilegeLattice;

/// [`System`], counting the blocks and bytes each thread holds.
struct Counting;

thread_local! {
    /// Blocks and bytes this thread allocated, less those it freed.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(blocks: isize, bytes: isize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down.
    let _ = LIVE.try_with(|live| {
        let (b, y) = live.get();
        live.set((b + blocks, y + bytes));
    });
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's. The counting only touches a thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(1, layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-1, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(0, new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(blocks, bytes)` this thread allocated and still holds while `f` runs,
/// with what `f` returns.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let (blocks, bytes) = LIVE.with(Cell::get);
    let value = f();
    let (after_blocks, after_bytes) = LIVE.with(Cell::get);
    (value, after_blocks - blocks, after_bytes - bytes)
}

/// A graph holds its nodes, edge list, edge index and two adjacency
/// arenas: a handful of blocks whatever the node count. A list per node
/// and direction would be about 20 000 here.
#[test]
fn a_chains_adjacency_is_a_constant_number_of_blocks() {
    const NODES: u32 = 10_000;
    const BLOCKS: isize = 16;
    let lowest = PrivilegeLattice::public_only().public();
    let payloads: Vec<Arc<Node>> = (0..NODES)
        .map(|i| {
            Arc::new(Node {
                label: format!("n{i}"),
                features: Features::new(),
                lowest,
            })
        })
        .collect();

    let (graph, blocks, _) = held_by(|| {
        let mut graph = Graph::new();
        for payload in &payloads {
            graph.add_shared_node(payload.clone());
        }
        for i in 1..NODES {
            graph.add_edge(NodeId(i - 1), NodeId(i)).unwrap();
        }
        graph
    });
    assert_eq!(graph.edge_count(), NODES as usize - 1);
    assert_eq!(graph.out_neighbors(NodeId(7)), [NodeId(8)]);
    assert_eq!(graph.in_neighbors(NodeId(7)), [NodeId(6)]);
    assert!(
        blocks <= BLOCKS,
        "a {NODES}-node chain holds {blocks} blocks"
    );

    // What a pinned epoch pays for its successor's copy, and what drop frees.
    let (copy, blocks, _) = held_by(|| graph.clone());
    assert!(blocks <= BLOCKS, "its clone holds {blocks} blocks");
    let ((), blocks, _) = held_by(|| drop(copy));
    assert!(
        blocks >= -BLOCKS,
        "dropping the clone freed {} blocks",
        -blocks
    );
}

/// A node's one feature sits in one exact entry, not in a map node sized
/// for eleven: label, key, value, the entry and the shared payload come
/// to under 200 bytes, where a `BTreeMap` leaf alone is over 600.
#[test]
fn a_one_feature_payload_is_a_few_small_blocks() {
    const BYTES: isize = 192;
    let lowest = PrivilegeLattice::public_only().public();
    let (node, blocks, bytes) = held_by(|| {
        Arc::new(Node {
            label: "n4242".into(),
            features: Features::new().with("kind", "data"),
            lowest,
        })
    });
    assert_eq!(node.features.len(), 1);
    assert!(bytes <= BYTES, "a one-feature payload holds {bytes} bytes");
    assert!(blocks <= 5, "a one-feature payload holds {blocks} blocks");
    // Bulk construction is as tight.
    let (features, _, bytes) = held_by(|| [("kind", "data")].into_iter().collect::<Features>());
    assert_eq!(features.len(), 1);
    assert!(
        bytes <= 64 + 16,
        "one collected feature holds {bytes} bytes"
    );
}
