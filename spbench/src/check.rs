//! Correctness checks. Each failed check is a failed operation.
//!
//! The oracle is a single in-memory [`Store`] built from the same seed,
//! given the same acked writes in clock order, protected by
//! `account::reference` (the executable spec) and traversed with
//! `lineage_rows`. It shares no state with the system under test.

use graphgen::workflow::Workflow;
use plus_store::service::lineage_rows;
use plus_store::wire::WriteOp;
use plus_store::{
    Materialized, ProtectedLineageRow, QueryRequest, QueryResponse, RecordId, Store, Strategy,
};
use surrogate_core::account::{reference, ProtectedAccount};
use surrogate_core::graph::NodeId;
use surrogate_core::measures::path_utility;
use surrogate_core::query::traverse;

use crate::graphs;

/// Which of the two consumers a connection claimed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Who {
    /// No claims: sees surrogates in place of `Restricted` nodes.
    Public,
    /// Claims `Restricted`, the top of the lattice: sees originals.
    Restricted,
}

impl Who {
    pub fn claims(self) -> &'static [&'static str] {
        match self {
            Who::Public => &[],
            Who::Restricted => &["Restricted"],
        }
    }
}

/// What the bench knows about every record it created: the original
/// label and whether the Public consumer may see it.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    labels: Vec<String>,
    sensitive: Vec<bool>,
}

impl Facts {
    pub fn of(wf: &Workflow) -> Facts {
        let mut facts = Facts::default();
        for n in wf.graph.node_ids() {
            facts.push(wf.graph.node(n).label.clone(), false);
        }
        for n in &wf.sensitive {
            facts.sensitive[n.index()] = true;
        }
        facts
    }

    /// Records the next appended node; ids are dense, so its id is the
    /// current length.
    pub fn push(&mut self, label: String, sensitive: bool) {
        self.labels.push(label);
        self.sensitive.push(sensitive);
    }

    /// Records the node that was assigned `id`. Two writers' ids
    /// interleave, so a gap may open before its owner fills it.
    pub fn record(&mut self, id: RecordId, label: String, sensitive: bool) {
        if self.labels.len() <= id.index() {
            self.labels.resize(id.index() + 1, String::new());
            self.sensitive.resize(id.index() + 1, false);
        }
        self.labels[id.index()] = label;
        self.sensitive[id.index()] = sensitive;
    }

    /// Takes over the nodes only `other` knows: the two logs of two
    /// writers to one store.
    pub fn absorb(&mut self, other: Facts) {
        for (index, (label, sensitive)) in other.labels.into_iter().zip(other.sensitive).enumerate()
        {
            if !label.is_empty() {
                self.record(RecordId(index as u32), label, sensitive);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// The first row of a Public answer that shows a sensitive node: the
/// node itself instead of a surrogate, or a surrogate still carrying the
/// original's label.
pub fn leaked_row(facts: &Facts, response: &QueryResponse) -> Option<String> {
    response.rows.iter().find_map(|row| {
        let id = row.record.index();
        if !facts.sensitive.get(id).copied().unwrap_or(false) {
            return None;
        }
        (!row.surrogate || row.label == facts.labels[id]).then(|| {
            format!(
                "root {} leaks sensitive record {} as {:?} (surrogate: {})",
                response.root.0, row.record.0, row.label, row.surrogate
            )
        })
    })
}

/// Why `got` is not the expected answer, if it is not. `ordered` is
/// false where only the row *set* is specified.
pub fn rows_differ(
    expected: &[ProtectedLineageRow],
    got: &[ProtectedLineageRow],
    ordered: bool,
) -> Option<String> {
    let key = |row: &ProtectedLineageRow| (row.record.0, row.depth);
    let (mut expected, mut got) = (expected.to_vec(), got.to_vec());
    if !ordered {
        expected.sort_by_key(key);
        got.sort_by_key(key);
    }
    if expected.len() != got.len() {
        return Some(format!(
            "{} rows where the oracle has {}",
            got.len(),
            expected.len()
        ));
    }
    expected
        .iter()
        .zip(&got)
        .position(|(e, g)| e != g)
        .map(|at| {
            format!(
                "row {at} is {:?} where the oracle has {:?}",
                got[at], expected[at]
            )
        })
}

/// A fresh read must answer at an epoch that covers the write's ack.
pub fn stale_epoch(ack_clock: u64, answered_at: u64) -> Option<String> {
    (answered_at < ack_clock).then(|| {
        format!("fresh read answered at epoch {answered_at}, before ack clock {ack_clock}")
    })
}

/// Watches the epoch vectors one connection is answered at: no slot may
/// ever go backwards.
#[derive(Debug, Clone, Default)]
pub struct VectorWatch {
    high: Vec<u64>,
    /// How many answers regressed some slot.
    pub regressions: u64,
}

impl VectorWatch {
    /// Folds one observed vector in; describes the regression if any.
    pub fn observe(&mut self, vector: &[u64]) -> Option<String> {
        if self.high.len() < vector.len() {
            self.high.resize(vector.len(), 0);
        }
        let regressed = vector
            .iter()
            .zip(&self.high)
            .position(|(seen, high)| seen < high);
        for (high, seen) in self.high.iter_mut().zip(vector) {
            *high = (*high).max(*seen);
        }
        regressed.map(|slot| {
            self.regressions += 1;
            format!(
                "epoch vector {vector:?} regressed slot {slot} below {:?}",
                self.high
            )
        })
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const NOTES: usize = 8;

    /// Counts `n` operations that were attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation (already counted as attempted).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < Self::NOTES {
            self.notes.push(why);
        }
    }

    /// Counts `n` operations that were attempted and all failed for
    /// one reason.
    pub fn fail_many(&mut self, n: u64, why: String) {
        if n > 0 {
            self.attempted += n;
            self.failed += n - 1;
            self.fail(why);
        }
    }

    /// Counts a failure when `verdict` describes one.
    pub fn check(&mut self, verdict: Option<String>) {
        if let Some(why) = verdict {
            self.fail(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < Self::NOTES {
                self.notes.push(note);
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The Public consumer's accounts at one oracle clock.
struct View {
    materialized: Materialized,
    surrogate: Option<ProtectedAccount>,
    hide_edges: Option<ProtectedAccount>,
}

/// The single-store oracle.
pub struct Oracle {
    store: Store,
    view: Option<View>,
    /// Whether the Public consumer's rows must come in the oracle's
    /// order. A gather folds its shards' feeds into a graph whose edge
    /// order is canonical, not arrival order, so there only the row set
    /// (with its depths) is specified.
    ordered: bool,
}

impl Oracle {
    /// An oracle over an independent import of `wf`.
    pub fn of(wf: &Workflow) -> Result<Oracle, String> {
        Ok(Oracle {
            store: graphs::ingest(wf)?,
            view: None,
            ordered: true,
        })
    }

    /// An oracle over an empty `Public ⊑ Restricted` store.
    pub fn empty() -> Oracle {
        Oracle {
            store: Store::new(&["Public", "Restricted"], &[(1, 0)])
                .expect("two-level lattice is valid"),
            view: None,
            ordered: true,
        }
    }

    /// An empty oracle for answers served from a gather's merged graph.
    pub fn for_gather() -> Oracle {
        Oracle {
            ordered: false,
            ..Oracle::empty()
        }
    }

    /// Applies one acked write; the caller compares the assigned id.
    pub fn apply(&mut self, op: &WriteOp) -> Result<Option<RecordId>, String> {
        self.view = None;
        graphs::apply_op(&self.store, op)
    }

    /// Applies one acked write; the store under test must have assigned
    /// the id the oracle assigns.
    pub fn apply_acked(
        &mut self,
        op: &WriteOp,
        id: Option<RecordId>,
        tally: &mut Tally,
    ) -> Result<(), String> {
        if self.apply(op)? != id {
            tally.fail(format!(
                "the store assigned {id:?} where the oracle disagrees"
            ));
        }
        Ok(())
    }

    /// The Public consumer's accounts at the current clock, built on
    /// first use after a write.
    fn view(&mut self) -> &mut View {
        let store = &self.store;
        self.view.get_or_insert_with(|| View {
            materialized: store.materialize(),
            surrogate: None,
            hide_edges: None,
        })
    }

    /// `measures::path_utility` of the reference `Surrogate` account at
    /// the current clock: what the served account must score.
    pub fn path_utility(&mut self) -> f64 {
        let view = self.view();
        let account = view
            .surrogate
            .get_or_insert_with(|| reference_account(&view.materialized));
        path_utility(&view.materialized.graph, account)
    }

    /// Verifies one answer given to `who` for `request` at the oracle's
    /// current clock. The Public consumer's rows must equal the
    /// reference account's row for row. The Restricted consumer sits at
    /// the top of the lattice, so its rows must be, as a set, the plain
    /// traversal of the unprotected graph with no surrogate among them.
    pub fn verify(
        &mut self,
        who: Who,
        request: &QueryRequest,
        answer: &QueryResponse,
    ) -> Option<String> {
        if answer.root != request.root {
            return Some(format!(
                "answer for root {} to a query for root {}",
                answer.root.0, request.root.0
            ));
        }
        let ordered = self.ordered && who == Who::Public;
        let view = self.view();
        let expected = match who {
            Who::Restricted => plain_rows(&view.materialized, request),
            Who::Public => {
                let m = &view.materialized;
                let account = match request.strategy {
                    Strategy::Surrogate => {
                        view.surrogate.get_or_insert_with(|| reference_account(m))
                    }
                    strategy => view.hide_edges.get_or_insert_with(|| {
                        m.context()
                            .protect_set(&[m.lattice.public()], strategy)
                            .expect("the generator accepts bench graphs")
                    }),
                };
                lineage_rows(account, request.root, request.direction, request.max_depth)
            }
        };
        rows_differ(&expected, &answer.rows, ordered).map(|why| {
            format!(
                "{who:?} {:?} depth {} from {}: {why}",
                request.direction, request.max_depth, request.root.0
            )
        })
    }
}

/// The Public consumer's `Surrogate` account by the executable spec.
fn reference_account(m: &Materialized) -> ProtectedAccount {
    reference::generate_for_set(&m.context(), &[m.lattice.public()])
        .expect("the reference generator accepts bench graphs")
}

/// The traversal of the unprotected graph, as lineage rows.
fn plain_rows(m: &Materialized, request: &QueryRequest) -> Vec<ProtectedLineageRow> {
    let root = NodeId(request.root.0);
    if !m.graph.contains_node(root) {
        return Vec::new();
    }
    traverse(&m.graph, root, request.direction, request.max_depth)
        .iter()
        .map(|(n, depth)| ProtectedLineageRow {
            record: RecordId(n.0),
            label: m.graph.node(n).label.clone(),
            depth,
            surrogate: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{generate, G300};
    use plus_store::{AccountService, Direction, EdgeKind, NodeKind, PolicyStatement};
    use std::sync::Arc;
    use surrogate_core::credential::Consumer;
    use surrogate_core::feature::Features;
    use surrogate_core::privilege::PrivilegeId;

    /// A three-node chain `a -> secret -> c` whose middle node only the
    /// Restricted consumer may see, with a registered surrogate: the
    /// Public answer for `c`'s ancestry holds one surrogate row.
    fn fixture() -> (Facts, Oracle, QueryRequest, QueryResponse) {
        let mut oracle = Oracle::empty();
        let mut facts = Facts::default();
        let store = Store::new(&["Public", "Restricted"], &[(1, 0)]).unwrap();
        let (public, restricted) = (PrivilegeId(0), PrivilegeId(1));
        let node = |label: &str, lowest| WriteOp::AppendNode {
            label: label.to_string(),
            kind: NodeKind::Data,
            features: Features::new(),
            lowest,
        };
        let edge = |from, to| WriteOp::AppendEdge {
            from: RecordId(from),
            to: RecordId(to),
            kind: EdgeKind::InputTo,
        };
        let ops = [
            node("a", public),
            node("secret", restricted),
            node("c", public),
            edge(0, 1),
            edge(1, 2),
            WriteOp::ApplyPolicy(PolicyStatement::AddSurrogate {
                node: RecordId(1),
                label: "redacted".to_string(),
                features: Features::new(),
                lowest: public,
                info_score: 0.1,
            }),
        ];
        for op in &ops {
            graphs::apply_op(&store, op).unwrap();
            oracle.apply(op).unwrap();
        }
        for (label, sensitive) in [("a", false), ("secret", true), ("c", false)] {
            facts.push(label.to_string(), sensitive);
        }
        let service = AccountService::new(Arc::new(store));
        let consumer = Consumer::public(&service.snapshot().lattice);
        let request = QueryRequest::new(RecordId(2), Direction::Backward, 4, Strategy::Surrogate);
        let answer = service.query(&consumer, &request).unwrap();
        assert!(
            answer.rows[0].surrogate && answer.rows.len() == 2,
            "{answer:?}"
        );
        (facts, oracle, request, answer)
    }

    #[test]
    fn a_true_answer_passes_every_check() {
        let (facts, mut oracle, request, answer) = fixture();
        let mut tally = Tally::default();
        tally.attempt(1);
        tally.check(leaked_row(&facts, &answer));
        tally.check(oracle.verify(Who::Public, &request, &answer));
        tally.check(stale_epoch(answer.epoch, answer.epoch));
        assert_eq!((tally.failed, tally.failed_share()), (0, 0.0));
    }

    #[test]
    fn a_mutated_row_is_rejected() {
        let (_, mut oracle, request, mut answer) = fixture();
        answer.rows[0].depth += 1;
        let mut tally = Tally::default();
        tally.attempt(1);
        tally.check(oracle.verify(Who::Public, &request, &answer));
        assert_eq!(tally.failed_share(), 1.0, "{:?}", tally.notes);

        let (_, mut oracle, request, mut answer) = fixture();
        answer.rows.pop();
        assert!(oracle.verify(Who::Public, &request, &answer).is_some());
    }

    #[test]
    fn a_leaked_sensitive_label_is_rejected() {
        let (facts, _, _, answer) = fixture();
        let at = answer.rows.iter().position(|row| row.surrogate).unwrap();
        // The original shown in place of its surrogate...
        let mut shown = answer.clone();
        shown.rows[at].surrogate = false;
        // ...and a surrogate that kept the original's label.
        let mut labelled = answer.clone();
        labelled.rows[at].label = facts.labels[answer.rows[at].record.index()].clone();
        for leaked in [shown, labelled] {
            let mut tally = Tally::default();
            tally.attempt(1);
            tally.check(leaked_row(&facts, &leaked));
            assert_eq!(tally.failed_share(), 1.0);
        }
        assert!(leaked_row(&facts, &answer).is_none());
    }

    #[test]
    fn a_stale_fresh_read_is_rejected() {
        let mut tally = Tally::default();
        tally.attempt(2);
        tally.check(stale_epoch(41, 40));
        tally.check(stale_epoch(41, 41));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_share(), 0.5);
    }

    #[test]
    fn a_regressed_epoch_vector_is_rejected() {
        let mut watch = VectorWatch::default();
        let mut tally = Tally::default();
        for vector in [[3, 5], [4, 5], [4, 4], [5, 5]] {
            tally.attempt(1);
            tally.check(watch.observe(&vector));
        }
        assert_eq!((tally.failed, watch.regressions), (1, 1));
        assert!(tally.failed_share() > 0.0);
    }

    #[test]
    fn the_restricted_consumer_is_checked_against_the_plain_graph() {
        let wf = generate(G300);
        let service = AccountService::new(Arc::new(graphs::ingest(&wf).unwrap()));
        let consumer = Consumer::new("top", &wf.lattice, &[wf.restricted]);
        let request = QueryRequest::new(
            RecordId(wf.outputs[0].0),
            Direction::Backward,
            6,
            Strategy::HideEdges,
        );
        let mut answer = service.query(&consumer, &request).unwrap();
        let mut oracle = Oracle::of(&wf).unwrap();
        assert_eq!(oracle.verify(Who::Restricted, &request, &answer), None);
        answer.rows[0].surrogate = true;
        assert!(oracle.verify(Who::Restricted, &request, &answer).is_some());
    }
}
