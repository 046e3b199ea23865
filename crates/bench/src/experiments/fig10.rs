//! Fig. 10: wall-clock cost of producing a graph and transforming it into
//! a protected account — DB access, graph build, protect-via-hide,
//! protect-via-surrogate.
//!
//! The paper's point is relative: protection is ~10 ms against a far more
//! expensive storage/build pipeline, so "the cost for protecting a graph
//! … is easily subsumed in the cost of creation of the graph itself"
//! (§6.4). Absolute times on 2026 hardware differ from the 2008 testbed;
//! the shape is what this experiment reproduces.

use std::sync::Arc;
use std::time::Instant;

use graphgen::{workflow, WorkflowConfig};
use plus_store::{AccountService, EdgeKind, NodeKind, Store};
use surrogate_core::account::Strategy;
use surrogate_core::graph::NodeId;

/// Configuration for the performance pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Config {
    /// Workflow stages (process layers).
    pub stages: usize,
    /// Artifacts per layer.
    pub width: usize,
    /// Fraction of sensitive nodes.
    pub sensitive_fraction: f64,
    /// Timed iterations (median is reported).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated per-record DBMS round-trip, microseconds.
    ///
    /// The paper's PLUS prototype fetched provenance from a client–server
    /// DBMS, so "DB Access" dominated its pipeline; our embedded snapshot
    /// load is ~1000× cheaper, which would invert the figure's shape. When
    /// set, the simulated cost (records × round-trip) is reported *in
    /// addition to* the raw measured load so both views are visible
    /// (DESIGN.md substitution table).
    pub simulated_db_roundtrip_us: Option<f64>,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Self {
            stages: 25,
            width: 20,
            sensitive_fraction: 0.15,
            iterations: 5,
            seed: 17,
            // ~10k records/s: a generous rate for a 2008-era DBMS.
            simulated_db_roundtrip_us: Some(100.0),
        }
    }
}

/// Median milliseconds per pipeline stage.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Node records in the workload.
    pub nodes: usize,
    /// Edge records in the workload.
    pub edges: usize,
    /// Snapshot size on disk, bytes.
    pub snapshot_bytes: usize,
    /// Load + decode the snapshot ("DB Access", raw measurement).
    pub db_access_ms: f64,
    /// "DB Access" including the simulated per-record DBMS round-trips,
    /// when configured.
    pub db_access_simulated_ms: Option<f64>,
    /// Materialize records into the graph ("Build Graph").
    pub build_graph_ms: f64,
    /// Protect via hiding.
    pub protect_hide_ms: f64,
    /// Protect via surrogates.
    pub protect_surrogate_ms: f64,
    /// Whole pipeline ("total").
    pub total_ms: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Builds the workload store: a generated provenance workflow imported
/// with its protection policy via `plus_store::ingest`.
pub fn build_store(config: Fig10Config) -> Store {
    let wf = workflow::generate(WorkflowConfig {
        stages: config.stages,
        width: config.width,
        max_fan_in: 3,
        sensitive_fraction: config.sensitive_fraction,
        seed: config.seed,
    });
    let node_kind = |n: NodeId| {
        if wf.graph.node(n).label.starts_with("process") {
            NodeKind::Process
        } else {
            NodeKind::Data
        }
    };
    let edge_kind = |_| EdgeKind::InputTo;
    plus_store::ingest(
        &wf.graph,
        &wf.lattice,
        &wf.markings,
        &wf.catalog,
        plus_store::IngestKinds {
            node_kind: &node_kind,
            edge_kind: &edge_kind,
        },
    )
    .expect("workflow setups are representable")
}

/// Runs the timed pipeline.
pub fn run(config: Fig10Config) -> Fig10Result {
    let store = build_store(config);
    let path = std::env::temp_dir().join(format!(
        "surrogate-fig10-{}-{}.snapshot",
        std::process::id(),
        config.seed
    ));
    store.save(&path).expect("snapshot writes");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot exists").len() as usize;

    let mut db_access = Vec::new();
    let mut build = Vec::new();
    let mut hide = Vec::new();
    let mut surrogate = Vec::new();
    let mut total = Vec::new();

    for _ in 0..config.iterations.max(1) {
        let t_total = Instant::now();

        let t = Instant::now();
        let loaded = Store::load(&path).expect("snapshot loads");
        db_access.push(t.elapsed().as_secs_f64() * 1e3);

        // A fresh service per iteration keeps every stage cold, exactly
        // like the pre-service pipeline; production would reuse it and pay
        // these costs once per epoch.
        let service = AccountService::new(Arc::new(loaded));

        let t = Instant::now();
        let snapshot = service.snapshot();
        build.push(t.elapsed().as_secs_f64() * 1e3);

        let public = snapshot.lattice.by_name("Public").expect("declared");

        let t = Instant::now();
        let hide_account = service
            .protect(&[public], &Strategy::HideEdges)
            .expect("hide protection generates");
        hide.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let sur_account = service
            .protect(&[public], &Strategy::Surrogate)
            .expect("surrogate protection generates");
        surrogate.push(t.elapsed().as_secs_f64() * 1e3);

        total.push(t_total.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box((hide_account, sur_account));
    }
    std::fs::remove_file(&path).ok();

    let db_access_ms = median(db_access);
    let records = store.node_count() + store.edge_count() + store.policy_count();
    let db_access_simulated_ms = config
        .simulated_db_roundtrip_us
        .map(|us| db_access_ms + records as f64 * us / 1e3);

    Fig10Result {
        nodes: store.node_count(),
        edges: store.edge_count(),
        snapshot_bytes,
        db_access_ms,
        db_access_simulated_ms,
        build_graph_ms: median(build),
        protect_hide_ms: median(hide),
        protect_surrogate_ms: median(surrogate),
        total_ms: median(total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_produces_consistent_timings() {
        let result = run(Fig10Config {
            stages: 4,
            width: 4,
            sensitive_fraction: 0.2,
            iterations: 2,
            seed: 3,
            simulated_db_roundtrip_us: Some(50.0),
        });
        let simulated = result
            .db_access_simulated_ms
            .expect("simulation configured");
        assert!(simulated > result.db_access_ms);
        assert_eq!(result.nodes, 4 + 4 * 4 * 2);
        assert!(result.edges > 0);
        assert!(result.snapshot_bytes > 0);
        for ms in [
            result.db_access_ms,
            result.build_graph_ms,
            result.protect_hide_ms,
            result.protect_surrogate_ms,
            result.total_ms,
        ] {
            assert!(ms >= 0.0 && ms.is_finite());
        }
        // The total is a whole-pipeline timing, so it cannot be trivially
        // small relative to any single stage. (Medians are not additive, so
        // no exact sum relation holds across iterations.)
        assert!(result.total_ms > 0.0);
    }

    #[test]
    fn hide_is_not_slower_than_surrogate_on_real_workloads() {
        // §6.4: "Hiding takes less time since the overall size of the graph
        // is ultimately smaller." Allow slack for timer noise on a tiny
        // workload, but surrogate must not be an order faster.
        let result = run(Fig10Config::default());
        assert!(
            result.protect_surrogate_ms * 10.0 > result.protect_hide_ms,
            "surrogate {} vs hide {}",
            result.protect_surrogate_ms,
            result.protect_hide_ms
        );
    }
}
