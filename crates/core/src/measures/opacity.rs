//! The Opacity Measure (paper §4.2, Figs. 4–5).
//!
//! Opacity quantifies the difficulty an advanced attacker faces when
//! inferring a hidden original edge `e = (n1 → n2)` from the protected
//! account alone:
//!
//! * `Op(e) = 0` when the corresponding edge is present in `G'`;
//! * `Op(e) = 1` when either endpoint has no corresponding node;
//! * otherwise `Op(e) = 1 − L`, where `L` combines, per endpoint, a *focus
//!   probability* `FP` (how likely the attacker is to scrutinize that
//!   node — e.g. a "loner" with ≤1 connection) with a normalized *inference
//!   likelihood* `IE / Σ_m IE` (how likely the specific partner is among
//!   all candidates).
//!
//! The PDF extraction of Fig. 4 garbles `L`'s exact form, so the model is
//! parameterized ([`OpacityModel`]) and calibrated against Table 1
//! (DESIGN.md §3.1 item 2). The default uses **directional** inference
//! keying — an attacker focused on `u` is likelier to infer `u→v` when `v`
//! has no incoming edge, and symmetrically for out-edges — with the two
//! endpoint terms averaged and **raw** (unnormalized) inference
//! likelihoods. This reproduces Table 1's ordering exactly
//! (0 < (c) < (d) < 1): adding the surrogate edge `c→g` *raises* the
//! opacity of `f→g` because `g`'s ancestry is explained away. With raw
//! likelihoods the §6.3 headline is a theorem: a surrogate account's graph
//! is an edge-superset of the corresponding hide account's, so opacity
//! under surrogating is at least that under hiding, edge by edge. The
//! candidate-normalized variant
//! ([`OpacityModel::directional_normalized`]) matches Table 1's absolute
//! values best and is reported alongside.

use crate::account::ProtectedAccount;
use crate::graph::{Edge, Graph};

/// A two-level step function, as in the paper's Fig. 5 constants
/// (`0.8 if attribute ≤ threshold, else 0.2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepFn {
    /// Attribute values at or below this score `at_or_below`.
    pub threshold: usize,
    /// Probability mass for suspicious (small-attribute) nodes.
    pub at_or_below: f64,
    /// Probability mass for unsuspicious nodes.
    pub above: f64,
}

impl StepFn {
    /// Evaluates the step.
    #[inline]
    pub fn eval(&self, attribute: usize) -> f64 {
        if attribute <= self.threshold {
            self.at_or_below
        } else {
            self.above
        }
    }
}

/// Which account-graph attribute the inference likelihood `IE` keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceKeying {
    /// Forward term keys on the candidate's **in-degree**, backward term on
    /// the candidate's **out-degree**: a node with unexplained ancestry or
    /// progeny attracts edge inference. Default; see module docs.
    Directional,
    /// Both terms key on the candidate's total degree (the literal reading
    /// of Fig. 5's "degree ≤ 1").
    TargetDegree,
    /// Both terms key on the candidate's undirected connected-node count.
    TargetConnected,
}

/// How the two endpoint terms `t1 = FP(n1')·q1` and `t2 = FP(n2')·q2`
/// combine into `L` (the OCR of Fig. 4 loses the operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// `L = (t1 + t2) / 2`. Default: closest fit to Table 1.
    Mean,
    /// `L = t1 + t2`.
    Sum,
    /// `L = FP(n1')·FP(n2')·(q1 + q2)`.
    FpProduct,
    /// `L = t1 · t2`.
    Product,
}

/// Parameterized opacity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpacityModel {
    /// Focus probability over a node's undirected connected-node count
    /// (Fig. 5: 0.8 for "loners" with 0–1 connected nodes, else 0.2).
    pub focus: StepFn,
    /// Inference likelihood step over the keyed attribute.
    pub infer: StepFn,
    /// Attribute selection for `IE`.
    pub keying: InferenceKeying,
    /// Combination of the endpoint terms.
    pub combiner: Combiner,
    /// Whether `IE` is normalized over all candidate partners
    /// (`IE / Σ_m IE`, the literal Fig. 4 reading) or used raw.
    ///
    /// Normalization dilutes the inference mass by the candidate count, so
    /// on the paper's 200-node synthetic graphs every opacity approaches 1
    /// and strategy differences vanish; the raw form is scale-free and
    /// makes "surrogating never lowers opacity" provable (the surrogate
    /// account's graph is a strict edge-superset of the hide account's, so
    /// every focus/inference factor weakly decreases). The default is raw;
    /// the normalized variant reproduces Table 1's absolute values best.
    pub normalized: bool,
}

impl Default for OpacityModel {
    fn default() -> Self {
        Self::directional()
    }
}

impl OpacityModel {
    /// The default model: directional keying with threshold 0 (a node with
    /// *no* in-edges invites in-edge inference), Fig. 5's 0.8/0.2 masses,
    /// endpoint terms averaged, raw (unnormalized) inference likelihoods.
    pub fn directional() -> Self {
        Self {
            focus: StepFn {
                threshold: 1,
                at_or_below: 0.8,
                above: 0.2,
            },
            infer: StepFn {
                threshold: 0,
                at_or_below: 0.8,
                above: 0.2,
            },
            keying: InferenceKeying::Directional,
            combiner: Combiner::Mean,
            normalized: false,
        }
    }

    /// [`directional`](Self::directional) with candidate-normalized `IE` —
    /// the literal Fig. 4 denominator. Closest fit to Table 1's absolute
    /// opacity values (≈ .85/.93 vs the paper's .882/.948).
    pub fn directional_normalized() -> Self {
        Self {
            normalized: true,
            ..Self::directional()
        }
    }

    /// The literal Fig. 5 reading: `IE = 0.8 if degree ≤ 1 else 0.2` on the
    /// candidate's total degree, normalized, endpoint terms summed.
    pub fn figure5_literal() -> Self {
        Self {
            focus: StepFn {
                threshold: 1,
                at_or_below: 0.8,
                above: 0.2,
            },
            infer: StepFn {
                threshold: 1,
                at_or_below: 0.8,
                above: 0.2,
            },
            keying: InferenceKeying::TargetDegree,
            combiner: Combiner::Sum,
            normalized: true,
        }
    }

    /// Normalized directional terms combined as `FP·FP·(q1+q2)`; reported
    /// alongside the other variants by `repro table1`.
    pub fn fp_product() -> Self {
        Self {
            combiner: Combiner::FpProduct,
            ..Self::directional_normalized()
        }
    }
}

/// Precomputed account statistics for evaluating many edges cheaply.
///
/// Per-edge evaluation is `O(1)`: the `Σ_m IE` denominators are maintained
/// as totals minus the focus node's own contribution.
pub struct OpacityEvaluator<'a> {
    account: &'a ProtectedAccount,
    model: OpacityModel,
    connected: Vec<usize>,
    ie_fwd: Vec<f64>,
    ie_bwd: Vec<f64>,
    total_fwd: f64,
    total_bwd: f64,
}

impl<'a> OpacityEvaluator<'a> {
    /// Prepares an evaluator for the given account and model.
    pub fn new(account: &'a ProtectedAccount, model: OpacityModel) -> Self {
        let g = account.graph();
        let connected = g.connected_counts();
        let attr_fwd = |i: usize| match model.keying {
            InferenceKeying::Directional => g.in_degree(crate::graph::NodeId(i as u32)),
            InferenceKeying::TargetDegree => g.degree(crate::graph::NodeId(i as u32)),
            InferenceKeying::TargetConnected => connected[i],
        };
        let attr_bwd = |i: usize| match model.keying {
            InferenceKeying::Directional => g.out_degree(crate::graph::NodeId(i as u32)),
            InferenceKeying::TargetDegree => g.degree(crate::graph::NodeId(i as u32)),
            InferenceKeying::TargetConnected => connected[i],
        };
        let ie_fwd: Vec<f64> = (0..g.node_count())
            .map(|i| model.infer.eval(attr_fwd(i)))
            .collect();
        let ie_bwd: Vec<f64> = (0..g.node_count())
            .map(|i| model.infer.eval(attr_bwd(i)))
            .collect();
        let total_fwd = ie_fwd.iter().sum();
        let total_bwd = ie_bwd.iter().sum();
        Self {
            account,
            model,
            connected,
            ie_fwd,
            ie_bwd,
            total_fwd,
            total_bwd,
        }
    }

    /// Opacity of original edge `(n1 → n2)` per Fig. 4.
    pub fn edge_opacity(&self, edge: Edge) -> f64 {
        if self.account.original_edge_present(edge) {
            return 0.0;
        }
        let (u, v) = (
            self.account.account_node(edge.0),
            self.account.account_node(edge.1),
        );
        let (Some(u), Some(v)) = (u, v) else {
            return 1.0;
        };

        // Focus probabilities from connected-node counts (Fig. 5).
        let fp_u = self.model.focus.eval(self.connected[u.index()]);
        let fp_v = self.model.focus.eval(self.connected[v.index()]);

        // Inference likelihood of the specific partner — raw, or (when the
        // model normalizes) its mass among all candidates the focused node
        // could be paired with.
        let (q_fwd, q_bwd) = if self.model.normalized {
            let denom_fwd = self.total_fwd - self.ie_fwd[u.index()];
            let q_fwd = if denom_fwd > 0.0 {
                self.ie_fwd[v.index()] / denom_fwd
            } else {
                0.0
            };
            let denom_bwd = self.total_bwd - self.ie_bwd[v.index()];
            let q_bwd = if denom_bwd > 0.0 {
                self.ie_bwd[u.index()] / denom_bwd
            } else {
                0.0
            };
            (q_fwd, q_bwd)
        } else {
            (self.ie_fwd[v.index()], self.ie_bwd[u.index()])
        };

        let t1 = fp_u * q_fwd;
        let t2 = fp_v * q_bwd;
        let likelihood = match self.model.combiner {
            Combiner::Mean => (t1 + t2) / 2.0,
            Combiner::Sum => t1 + t2,
            Combiner::FpProduct => fp_u * fp_v * (q_fwd + q_bwd),
            Combiner::Product => t1 * t2,
        };
        (1.0 - likelihood).clamp(0.0, 1.0)
    }
}

/// Opacity of a single original edge (convenience wrapper; for many edges
/// build an [`OpacityEvaluator`] once).
pub fn edge_opacity(account: &ProtectedAccount, model: OpacityModel, edge: Edge) -> f64 {
    OpacityEvaluator::new(account, model).edge_opacity(edge)
}

/// Average opacity over the *protected* edges of `G` — those with no
/// corresponding account edge. `None` when nothing is protected.
///
/// §4.2: "the average opacity over the entire graph can be used to evaluate
/// tradeoffs"; restricting to protected edges keeps the hide-vs-surrogate
/// comparison meaningful (shown edges score a constant 0 for both).
pub fn average_protected_opacity(
    original: &Graph,
    account: &ProtectedAccount,
    model: OpacityModel,
) -> Option<f64> {
    let evaluator = OpacityEvaluator::new(account, model);
    let mut sum = 0.0;
    let mut count = 0usize;
    for e in account.protected_edges(original) {
        sum += evaluator.edge_opacity(e);
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Minimum opacity over protected edges — the administrator's worst-case
/// inference risk (§4.2's per-node risk assessment). `None` when nothing is
/// protected.
pub fn min_protected_opacity(
    original: &Graph,
    account: &ProtectedAccount,
    model: OpacityModel,
) -> Option<f64> {
    let evaluator = OpacityEvaluator::new(account, model);
    account
        .protected_edges(original)
        .map(|e| evaluator.edge_opacity(e))
        .min_by(|a, b| a.partial_cmp(b).expect("opacities are finite"))
}

/// One protected edge's inference-risk entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskEntry {
    /// The protected original edge.
    pub edge: Edge,
    /// Its opacity under the report's model.
    pub opacity: f64,
}

/// The administrator's risk report (§4.2: "opacity allows an administrator
/// to look at specific nodes and incident edges that are of high security
/// concern and to evaluate the risk of inference"): every protected edge of
/// `G`, most inferable (lowest opacity) first, ties broken by edge id for
/// determinism.
pub fn risk_report(
    original: &Graph,
    account: &ProtectedAccount,
    model: OpacityModel,
) -> Vec<RiskEntry> {
    let evaluator = OpacityEvaluator::new(account, model);
    let mut entries: Vec<RiskEntry> = account
        .protected_edges(original)
        .map(|edge| RiskEntry {
            edge,
            opacity: evaluator.edge_opacity(edge),
        })
        .collect();
    entries.sort_by(|a, b| {
        a.opacity
            .partial_cmp(&b.opacity)
            .expect("opacities are finite")
            .then(a.edge.cmp(&b.edge))
    });
    entries
}

/// The protected edges whose opacity falls below `threshold` — the ones an
/// administrator should re-protect (e.g. by registering better surrogates
/// or widening the surrogate-edge span) before release.
pub fn edges_at_risk(
    original: &Graph,
    account: &ProtectedAccount,
    model: OpacityModel,
    threshold: f64,
) -> Vec<RiskEntry> {
    risk_report(original, account, model)
        .into_iter()
        .take_while(|entry| entry.opacity < threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{generate_for_set, generate_hide_for_set, ProtectionContext};
    use crate::graph::Graph;
    use crate::marking::{Marking, MarkingStore};
    use crate::privilege::PrivilegeLattice;
    use crate::surrogate::SurrogateCatalog;

    fn step(threshold: usize) -> StepFn {
        StepFn {
            threshold,
            at_or_below: 0.8,
            above: 0.2,
        }
    }

    #[test]
    fn step_function_evaluates() {
        let s = step(1);
        assert_eq!(s.eval(0), 0.8);
        assert_eq!(s.eval(1), 0.8);
        assert_eq!(s.eval(2), 0.2);
    }

    /// Chain a→b→c→d, protect (a,b) by hiding vs surrogating; compare the
    /// opacity of the protected edge.
    fn chain_accounts() -> (Graph, ProtectedAccount, ProtectedAccount) {
        let lattice = PrivilegeLattice::public_only();
        let public = lattice.public();
        let mut g = Graph::new();
        let a = g.add_node("a", public);
        let b = g.add_node("b", public);
        let c = g.add_node("c", public);
        let d = g.add_node("d", public);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, d).unwrap();

        let mut sur = MarkingStore::new();
        sur.set(b, (a, b), public, Marking::Surrogate);
        let mut hide = MarkingStore::new();
        hide.set(b, (a, b), public, Marking::Hide);
        let catalog = SurrogateCatalog::new();

        let g2 = g.clone();
        let account_sur = {
            let ctx = ProtectionContext::new(&g2, &lattice, &sur, &catalog);
            generate_for_set(&ctx, &[public]).unwrap()
        };
        let account_hide = {
            let ctx = ProtectionContext::new(&g2, &lattice, &hide, &catalog);
            generate_hide_for_set(&ctx, &[public]).unwrap()
        };
        (g, account_sur, account_hide)
    }

    #[test]
    fn present_edge_scores_zero() {
        let (g, account, _) = chain_accounts();
        let eval = OpacityEvaluator::new(&account, OpacityModel::default());
        let b = g.find_by_label("b").unwrap();
        let c = g.find_by_label("c").unwrap();
        assert_eq!(eval.edge_opacity((b, c)), 0.0);
    }

    #[test]
    fn missing_endpoint_scores_one() {
        let (lattice, preds) = PrivilegeLattice::flat(&["High"]).unwrap();
        let mut g = Graph::new();
        let a = g.add_node("a", lattice.public());
        let b = g.add_node("b", preds[0]); // hidden for Public, no surrogate
        g.add_edge(a, b).unwrap();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&g, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[lattice.public()]).unwrap();
        assert_eq!(edge_opacity(&account, OpacityModel::default(), (a, b)), 1.0);
    }

    #[test]
    fn surrogating_beats_hiding_on_a_chain() {
        // §6.2's headline: the surrogate edge reconnects `a`, lowering the
        // attacker's focus on it, so opacity of the hidden edge rises.
        let (g, sur, hide) = chain_accounts();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        for model in [
            OpacityModel::directional(),
            OpacityModel::directional_normalized(),
            OpacityModel::figure5_literal(),
            OpacityModel::fp_product(),
        ] {
            let op_sur = edge_opacity(&sur, model, (a, b));
            let op_hide = edge_opacity(&hide, model, (a, b));
            assert!(
                op_sur > op_hide,
                "{model:?}: surrogate {op_sur} ≤ hide {op_hide}"
            );
        }
    }

    #[test]
    fn opacity_is_bounded() {
        let (g, sur, hide) = chain_accounts();
        for account in [&sur, &hide] {
            let eval = OpacityEvaluator::new(account, OpacityModel::default());
            for e in g.edges() {
                let op = eval.edge_opacity(e);
                assert!((0.0..=1.0).contains(&op), "opacity {op} out of bounds");
            }
        }
    }

    #[test]
    fn average_and_min_over_protected_edges() {
        let (g, sur, _) = chain_accounts();
        let avg = average_protected_opacity(&g, &sur, OpacityModel::default()).unwrap();
        let min = min_protected_opacity(&g, &sur, OpacityModel::default()).unwrap();
        assert!(min <= avg);
        assert!((0.0..=1.0).contains(&avg));
    }

    #[test]
    fn fully_visible_account_has_no_protected_edges() {
        let lattice = PrivilegeLattice::public_only();
        let mut g = Graph::new();
        let a = g.add_node("a", lattice.public());
        let b = g.add_node("b", lattice.public());
        g.add_edge(a, b).unwrap();
        let markings = MarkingStore::new();
        let catalog = SurrogateCatalog::new();
        let ctx = ProtectionContext::new(&g, &lattice, &markings, &catalog);
        let account = generate_for_set(&ctx, &[lattice.public()]).unwrap();
        assert_eq!(
            average_protected_opacity(&g, &account, OpacityModel::default()),
            None
        );
        assert_eq!(
            min_protected_opacity(&g, &account, OpacityModel::default()),
            None
        );
    }

    #[test]
    fn risk_report_sorts_most_inferable_first() {
        let (g, sur, _) = chain_accounts();
        let report = risk_report(&g, &sur, OpacityModel::default());
        assert_eq!(report.len(), 1, "only the protected edge is listed");
        assert!(report.windows(2).all(|w| w[0].opacity <= w[1].opacity));
        let min = min_protected_opacity(&g, &sur, OpacityModel::default()).unwrap();
        assert_eq!(report[0].opacity, min);
    }

    #[test]
    fn edges_at_risk_filters_by_threshold() {
        let (g, _, hide) = chain_accounts();
        let all = risk_report(&g, &hide, OpacityModel::default());
        let worst = all[0].opacity;
        let risky = edges_at_risk(&g, &hide, OpacityModel::default(), worst + 1e-9);
        assert!(!risky.is_empty());
        assert!(risky.iter().all(|e| e.opacity < worst + 1e-9));
        let none = edges_at_risk(&g, &hide, OpacityModel::default(), 0.0);
        assert!(none.is_empty());
    }

    #[test]
    fn risk_report_is_deterministic() {
        let (g, sur, _) = chain_accounts();
        let a = risk_report(&g, &sur, OpacityModel::default());
        let b = risk_report(&g, &sur, OpacityModel::default());
        assert_eq!(a, b);
    }

    #[test]
    fn combiners_order_consistently() {
        // Product ≤ Mean ≤ Sum for terms in [0,1], so opacity orders the
        // other way.
        let (g, sur, _) = chain_accounts();
        let a = g.find_by_label("a").unwrap();
        let b = g.find_by_label("b").unwrap();
        let op = |combiner| {
            edge_opacity(
                &sur,
                OpacityModel {
                    combiner,
                    ..OpacityModel::directional()
                },
                (a, b),
            )
        };
        assert!(op(Combiner::Sum) <= op(Combiner::Mean));
        assert!(op(Combiner::Mean) <= op(Combiner::Product));
    }
}
