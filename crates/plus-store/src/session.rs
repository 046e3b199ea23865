//! Consumer sessions: a thin, credential-pinning view over an
//! [`AccountService`].
//!
//! A session binds one [`Consumer`] to a shared service, so call sites
//! answering that consumer's queries do not have to thread credentials
//! through every call. All caching, epoch tracking, and invalidation
//! happen in the service — a session holds no state of its own beyond the
//! consumer, so it is cheap to create per connection and can be dropped
//! freely.
//!
//! ```
//! # use plus_store::{AccountService, Session, Store};
//! # use std::sync::Arc;
//! # use surrogate_core::credential::Consumer;
//! # let store = Arc::new(Store::public_only());
//! let service = Arc::new(AccountService::new(store));
//! let consumer = Consumer::public(&service.snapshot().lattice);
//! let session = Session::open(service, consumer);
//! ```
//!
//! Concurrent sessions share the service's one account cache and observe
//! policy mutations through its epoch.

use std::sync::Arc;

use surrogate_core::account::{ProtectedAccount, Strategy};
use surrogate_core::credential::Consumer;
use surrogate_core::graph::NodeId;
use surrogate_core::privilege::PrivilegeId;
use surrogate_core::query::Direction;

use crate::error::Result;
use crate::record::RecordId;
use crate::service::{AccountService, QueryRequest, Snapshot};

pub use crate::service::ProtectedLineageRow;

/// A consumer session over a shared [`AccountService`].
pub struct Session {
    service: Arc<AccountService>,
    consumer: Consumer,
}

impl Session {
    /// Opens a session for `consumer` against a shared service.
    pub fn open(service: Arc<AccountService>, consumer: Consumer) -> Self {
        Self { service, consumer }
    }

    /// The service this session queries through.
    pub fn service(&self) -> &Arc<AccountService> {
        &self.service
    }

    /// The consumer this session authenticates.
    pub fn consumer(&self) -> &Consumer {
        &self.consumer
    }

    /// The service's current epoch-stamped materialization (dereferences
    /// to [`Materialized`](crate::store::Materialized)).
    pub fn materialized(&self) -> Arc<Snapshot> {
        self.service.snapshot()
    }

    /// The strongest predicates the consumer can request accounts for.
    pub fn frontier(&self) -> Vec<PrivilegeId> {
        self.consumer.frontier(&self.service.snapshot().lattice)
    }

    /// The protected account for `predicate` at the current epoch, served
    /// from the shared cache. Fails if the consumer does not satisfy the
    /// predicate — an account's high-water set must be dominated by the
    /// consumer's credentials (§3.1).
    pub fn account(
        &self,
        predicate: PrivilegeId,
        strategy: Strategy,
    ) -> Result<Arc<ProtectedAccount>> {
        self.service
            .get_account_for(&self.consumer, predicate, &strategy)
    }

    /// The account for the consumer's *entire* credential frontier — the
    /// multi-predicate high-water account (Def. 6) a consumer holding
    /// several incomparable grants is entitled to.
    pub fn frontier_account(&self, strategy: Strategy) -> Result<Arc<ProtectedAccount>> {
        self.service.get_account(&self.consumer, &strategy)
    }

    /// Protected upstream lineage of `root` for `predicate`: the answer a
    /// consumer actually receives, traversing the protected account rather
    /// than the raw graph. Empty when the root is invisible to the
    /// consumer.
    pub fn upstream(
        &self,
        predicate: PrivilegeId,
        root: RecordId,
        max_depth: u32,
    ) -> Result<Vec<ProtectedLineageRow>> {
        self.lineage(predicate, root, max_depth, Direction::Backward)
    }

    /// Protected downstream lineage of `root` for `predicate`.
    pub fn downstream(
        &self,
        predicate: PrivilegeId,
        root: RecordId,
        max_depth: u32,
    ) -> Result<Vec<ProtectedLineageRow>> {
        self.lineage(predicate, root, max_depth, Direction::Forward)
    }

    /// The paper's motivating question (§1): through this consumer's
    /// protected account, is `a` related to `b` — i.e. does a directed
    /// path connect their visible representatives? `false` when either
    /// record is invisible to the consumer.
    pub fn related(&self, predicate: PrivilegeId, a: RecordId, b: RecordId) -> Result<bool> {
        let account = self.account(predicate, Strategy::Surrogate)?;
        let (Some(a2), Some(b2)) = (
            account.account_node(NodeId(a.0)),
            account.account_node(NodeId(b.0)),
        ) else {
            return Ok(false);
        };
        Ok(surrogate_core::query::reaches(account.graph(), a2, b2))
    }

    fn lineage(
        &self,
        predicate: PrivilegeId,
        root: RecordId,
        max_depth: u32,
        direction: Direction,
    ) -> Result<Vec<ProtectedLineageRow>> {
        let request = QueryRequest::new(root, direction, max_depth, Strategy::Surrogate)
            .with_predicate(predicate);
        Ok(self.service.query(&self.consumer, &request)?.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::record::{EdgeKind, NodeKind, PolicyStatement};
    use crate::store::Store;
    use surrogate_core::feature::Features;

    /// source(High, with a Public surrogate) → mid(Public) → sink(Public).
    fn setup() -> (Arc<Store>, Vec<RecordId>) {
        let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)]).unwrap());
        let public = store.predicate("Public").unwrap();
        let high = store.predicate("High").unwrap();
        let source = store.append_node("secret source", NodeKind::Agent, Features::new(), high);
        let mid = store.append_node("analysis", NodeKind::Process, Features::new(), public);
        let sink = store.append_node("report", NodeKind::Data, Features::new(), public);
        store.append_edge(source, mid, EdgeKind::InputTo).unwrap();
        store.append_edge(mid, sink, EdgeKind::GeneratedBy).unwrap();
        store
            .apply_policy(PolicyStatement::AddSurrogate {
                node: source,
                label: "a trusted source".into(),
                features: Features::new(),
                lowest: public,
                info_score: 0.3,
            })
            .unwrap();
        (store, vec![source, mid, sink])
    }

    fn open_public(store: &Arc<Store>) -> Session {
        let service = Arc::new(AccountService::new(store.clone()));
        let consumer = Consumer::public(&service.snapshot().lattice);
        Session::open(service, consumer)
    }

    #[test]
    fn public_consumer_sees_surrogate_lineage() {
        let (store, ids) = setup();
        let public = store.predicate("Public").unwrap();
        let session = open_public(&store);
        let up = session.upstream(public, ids[2], u32::MAX).unwrap();
        assert_eq!(up.len(), 2);
        assert_eq!(up[0].label, "analysis");
        assert!(!up[0].surrogate);
        assert_eq!(up[1].label, "a trusted source");
        assert!(up[1].surrogate);
    }

    #[test]
    fn high_consumer_sees_originals() {
        let (store, ids) = setup();
        let high = store.predicate("High").unwrap();
        let service = Arc::new(AccountService::new(store.clone()));
        let consumer = Consumer::new("agent", &service.snapshot().lattice, &[high]);
        let session = Session::open(service, consumer);
        let up = session.upstream(high, ids[2], u32::MAX).unwrap();
        assert_eq!(up.len(), 2);
        assert_eq!(up[1].label, "secret source");
        assert!(!up[1].surrogate);
    }

    #[test]
    fn unauthorized_predicate_is_rejected() {
        let (store, _) = setup();
        let high = store.predicate("High").unwrap();
        let session = open_public(&store);
        assert!(matches!(
            session.account(high, Strategy::Surrogate),
            Err(StoreError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn sessions_share_the_service_cache() {
        let (store, _) = setup();
        let public = store.predicate("Public").unwrap();
        let service = Arc::new(AccountService::new(store));
        let lattice = service.snapshot().lattice.clone();
        let first = Session::open(service.clone(), Consumer::public(&lattice));
        let second = Session::open(service.clone(), Consumer::new("other", &lattice, &[public]));
        let a = first.account(public, Strategy::Surrogate).unwrap();
        drop(first);
        // A different session (even after the first is gone) gets the same
        // cached account object from the shared service.
        let b = second.account(public, Strategy::Surrogate).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same cached account object");
        assert_eq!(service.cached_accounts(), 1);
    }

    #[test]
    fn sessions_observe_policy_mutations() {
        let (store, ids) = setup();
        let public = store.predicate("Public").unwrap();
        let session = open_public(&store);
        let before = session.upstream(public, ids[2], u32::MAX).unwrap();
        assert_eq!(before[1].label, "a trusted source");
        // The provider hides the source from the public entirely.
        store
            .apply_policy(PolicyStatement::MarkNode {
                node: ids[0],
                predicate: Some(public),
                marking: surrogate_core::marking::Marking::Hide,
            })
            .unwrap();
        let after = session.upstream(public, ids[2], u32::MAX).unwrap();
        assert_eq!(after.len(), 1, "epoch bump invalidated the account");
        assert_eq!(after[0].label, "analysis");
    }

    #[test]
    fn invisible_root_yields_empty_answer() {
        let store = Arc::new(Store::new(&["Public", "High"], &[(1, 0)]).unwrap());
        let public = store.predicate("Public").unwrap();
        let high = store.predicate("High").unwrap();
        let source = store.append_node("secret source", NodeKind::Agent, Features::new(), high);
        let session = open_public(&store);
        let rows = session.downstream(public, source, u32::MAX).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn related_answers_through_the_protected_account() {
        let (store, ids) = setup();
        let public = store.predicate("Public").unwrap();
        let session = open_public(&store);
        // source → mid → sink all connect through the surrogate.
        assert!(session.related(public, ids[0], ids[2]).unwrap());
        assert!(session.related(public, ids[1], ids[2]).unwrap());
        assert!(
            !session.related(public, ids[2], ids[0]).unwrap(),
            "directed"
        );
    }

    #[test]
    fn frontier_account_unions_incomparable_grants() {
        // Lattice: Public below incomparable A and B; one node per level.
        let store = Arc::new(Store::new(&["Public", "A", "B"], &[(1, 0), (2, 0)]).unwrap());
        let a = store.predicate("A").unwrap();
        let b = store.predicate("B").unwrap();
        let public = store.predicate("Public").unwrap();
        let na = store.append_node("na", NodeKind::Data, Features::new(), a);
        let nb = store.append_node("nb", NodeKind::Data, Features::new(), b);
        let np = store.append_node("np", NodeKind::Data, Features::new(), public);
        store.append_edge(na, np, EdgeKind::Related).unwrap();
        store.append_edge(np, nb, EdgeKind::Related).unwrap();

        let service = Arc::new(AccountService::new(store));
        let consumer = Consumer::new("dual", &service.snapshot().lattice, &[a, b]);
        let session = Session::open(service, consumer);
        let account = session.frontier_account(Strategy::Surrogate).unwrap();
        assert_eq!(account.high_water().len(), 2);
        assert_eq!(account.graph().node_count(), 3, "both branches visible");
        // Cached per strategy in the shared service.
        let again = session.frontier_account(Strategy::Surrogate).unwrap();
        assert!(Arc::ptr_eq(&account, &again));
    }

    #[test]
    fn frontier_reflects_consumer() {
        let (store, _) = setup();
        let high = store.predicate("High").unwrap();
        let service = Arc::new(AccountService::new(store));
        let consumer = Consumer::new("agent", &service.snapshot().lattice, &[high]);
        let session = Session::open(service, consumer);
        assert_eq!(session.frontier(), vec![high]);
        assert_eq!(session.consumer().name(), "agent");
    }
}
