//! Run-time admission control (the paper's Section 6 application).
//!
//! "Since the approach is fast, it is feasible to employ this technique for
//! run-time admission control. … The application, for example, can be
//! admitted only if its expected throughput is above the desired
//! throughput."
//!
//! [`AdmissionController`] keeps one [`Composite`] per processing node.
//! Admitting an application *composes* its actors onto their nodes in
//! `O(actors)` (Equations 6/7), and each actor's contention is read back
//! with the inverse operators (Equations 8/9) — the paper's complexity
//! argument for the composability approach (`O(n)` incremental vs `O(n²)`
//! recompute). What an admission does re-analyse is the period of every
//! application whose contract the candidate could break: the candidate
//! itself plus each resident that carries a required throughput, one
//! state-space analysis each. Residents without a contract cannot cause a
//! rejection, so they are not re-analysed; ask
//! [`AdmissionController::predicted_period`] for any of them.
//!
//! # Examples
//!
//! ```
//! use contention::AdmissionController;
//! use platform::{Application, Mapping, NodeId};
//! use sdf::{figure2_graphs, Rational};
//!
//! let (a, b) = figure2_graphs();
//! let mut ctrl = AdmissionController::new();
//!
//! // Admit A unconditionally, then B only if every resident application
//! // keeps a throughput of at least 1/400.
//! let id_a = ctrl.admit(
//!     Application::new("A", a)?,
//!     &[NodeId(0), NodeId(1), NodeId(2)],
//!     None,
//! )?.admitted_id().expect("first application always fits");
//!
//! let outcome = ctrl.admit(
//!     Application::new("B", b)?,
//!     &[NodeId(0), NodeId(1), NodeId(2)],
//!     Some(Rational::new(1, 400)),
//! )?;
//! assert!(outcome.admitted_id().is_some()); // predicted period ≈ 358.3 < 400
//!
//! ctrl.remove(id_a)?;
//! assert_eq!(ctrl.resident_count(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Rejections versus errors
//!
//! [`AdmissionController::admit`] draws a hard line between the two:
//! *admission decisions* — including a candidate that violates **its own**
//! requirement, or one whose requirement exceeds even its isolation
//! throughput — come back as `Ok(AdmissionOutcome::Rejected { .. })` with
//! the violated contracts listed; `Err(ContentionError)` is reserved for
//! *analysis failures* (malformed loads, saturated inverses, period
//! divergence) where no admission decision could be computed at all.
//!
//! # Concurrency
//!
//! The controller itself is single-threaded state (`&mut self` on
//! [`admit`](AdmissionController::admit) /
//! [`remove`](AdmissionController::remove)); it is `Send + Sync` and
//! `Clone`, so concurrent front-ends wrap it in their own locking and take
//! cheap snapshots for read-only analysis. The `runtime` crate's
//! `ResourceManager` does exactly that: sharded controllers behind mutexes
//! with ticket-based, non-blocking admit/release (a full shard refuses at
//! once) — the "run-time manager" deployment the paper's conclusions
//! sketch.

use crate::compose::Composite;
use crate::load::ActorLoad;
use crate::ContentionError;
use platform::{AppId, Application, NodeId};
use sdf::Rational;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A throughput violation that caused a rejection.
///
/// Serializable so rejections can cross process boundaries intact (the
/// `runtime::remote` wire protocol ships the full violation list, not just
/// a count).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The application whose requirement would be violated (`None`
    /// identifies the candidate application itself).
    pub app: Option<AppId>,
    /// Required minimum throughput.
    pub required: Rational,
    /// Throughput predicted if the candidate were admitted.
    pub predicted: Rational,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.app {
            Some(a) => write!(
                f,
                "{a}: predicted throughput {} < required {}",
                self.predicted, self.required
            ),
            None => write!(
                f,
                "candidate: predicted throughput {} < required {}",
                self.predicted, self.required
            ),
        }
    }
}

/// Outcome of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The application was admitted under the returned id; the map holds the
    /// predicted period of the new application and of every resident that
    /// carries a required throughput — exactly the periods the decision
    /// checked.
    Admitted {
        /// Id assigned to the admitted application.
        id: AppId,
        /// Predicted period of the candidate and of each contract holder.
        /// Residents without a contract are absent: use
        /// [`AdmissionController::predicted_period`] for them.
        predicted_periods: BTreeMap<AppId, Rational>,
    },
    /// The application was rejected; the controller state is unchanged.
    Rejected {
        /// Every violated throughput requirement.
        violations: Vec<Violation>,
    },
}

impl fmt::Display for AdmissionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => {
                write!(f, "admitted as {id}")?;
                if let Some(period) = predicted_periods.get(id) {
                    write!(f, " (predicted period {period})")?;
                }
                Ok(())
            }
            AdmissionOutcome::Rejected { violations } => {
                write!(f, "rejected: ")?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl AdmissionOutcome {
    /// The assigned id, if admitted.
    pub fn admitted_id(&self) -> Option<AppId> {
        match self {
            AdmissionOutcome::Admitted { id, .. } => Some(*id),
            AdmissionOutcome::Rejected { .. } => None,
        }
    }
}

#[derive(Clone)]
struct Resident {
    app: Application,
    assignment: Vec<NodeId>,
    loads: Vec<ActorLoad>,
    required_throughput: Option<Rational>,
}

impl fmt::Debug for Resident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resident")
            .field("app", &self.app.name())
            .field("assignment", &self.assignment)
            .finish_non_exhaustive()
    }
}

/// Incremental admission controller over the composability algebra.
///
/// The fast path extracts every actor's "others" from the per-node
/// [`Composite`] with the inverse operators (`O(1)` per actor). When a
/// co-resident load saturates its node (`P = 1` — Equation 8's excluded
/// case) the controller falls back to re-folding the node's member list
/// without the actor (`O(n)`), exactly like the estimator does.
///
/// The controller is `Clone`: a clone is an independent snapshot of the
/// whole resident mix (cheap — composites are `Copy`, member lists are
/// small), which concurrent front-ends use for lock-free read-only
/// analysis. See the [module documentation](self) for an end-to-end
/// example and the rejection-versus-error contract.
#[derive(Debug, Default, Clone)]
pub struct AdmissionController {
    nodes: BTreeMap<NodeId, Composite>,
    /// Per-node member loads, for the saturated-inverse fallback.
    members: BTreeMap<NodeId, Vec<(AppId, ActorLoad)>>,
    residents: BTreeMap<AppId, Resident>,
    next_id: usize,
    analysis: sdf::AnalysisOptions,
}

impl AdmissionController {
    /// Creates an empty controller.
    pub fn new() -> AdmissionController {
        AdmissionController {
            nodes: BTreeMap::new(),
            members: BTreeMap::new(),
            residents: BTreeMap::new(),
            next_id: 0,
            analysis: sdf::AnalysisOptions::default(),
        }
    }

    /// Number of currently resident applications.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// Ids of the resident applications.
    pub fn resident_ids(&self) -> impl Iterator<Item = AppId> + '_ {
        self.residents.keys().copied()
    }

    /// The composite load currently on `node`.
    pub fn node_load(&self, node: NodeId) -> Composite {
        self.nodes.get(&node).copied().unwrap_or_default()
    }

    /// Attempts to admit `app`, mapping actor `i` onto `assignment[i]`.
    ///
    /// The candidate (with optional `required_throughput`) is admitted iff
    /// the predicted throughput of *every* resident application with a
    /// requirement — and of the candidate itself — stays at or above its
    /// requirement. On rejection the controller is left untouched.
    ///
    /// A candidate that cannot satisfy its own requirement — even one whose
    /// requirement exceeds its *isolation* throughput, which no admission
    /// decision could ever meet — is **rejected** (`Ok(Rejected)` with the
    /// candidate violation, `app: None`), never an error: an unsatisfiable
    /// contract is an admission decision, not an analysis failure.
    ///
    /// # Errors
    ///
    /// * panics are never used for admission decisions; hard failures
    ///   (period analysis divergence, saturated inverse) surface as
    ///   [`ContentionError`].
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the actor count of `app`.
    pub fn admit(
        &mut self,
        app: Application,
        assignment: &[NodeId],
        required_throughput: Option<Rational>,
    ) -> Result<AdmissionOutcome, ContentionError> {
        assert_eq!(
            assignment.len(),
            app.graph().actor_count(),
            "one node per actor required"
        );

        // Fast reject: a requirement above the candidate's isolation
        // throughput is unsatisfiable under any mix — report the decision
        // without composing anything.
        if let Some(required) = required_throughput {
            let isolation = app.isolation_period().recip();
            if isolation < required {
                return Ok(AdmissionOutcome::Rejected {
                    violations: vec![Violation {
                        app: None,
                        required,
                        predicted: isolation,
                    }],
                });
            }
        }

        // Candidate loads at its isolation period (the paper's single-pass
        // probabilities).
        let per = app.isolation_period();
        let mut loads = Vec::with_capacity(assignment.len());
        for actor in app.graph().actor_ids() {
            let tau = app.graph().execution_time(actor);
            let q = app.repetition_vector().get(actor);
            // Same quantisation as the estimator: bounds denominator growth
            // across arbitrarily many compose/decompose cycles.
            loads.push(
                ActorLoad::from_constant_time(tau, q, per)?
                    .quantized(crate::estimator::PROBABILITY_GRID)?,
            );
        }

        // Tentatively compose onto the nodes (cheap, and trivially
        // reversible because we keep the old composites).
        let candidate_id = AppId(self.next_id);
        let mut new_nodes = self.nodes.clone();
        let mut new_members = self.members.clone();
        for (node, load) in assignment.iter().zip(&loads) {
            let entry = new_nodes.entry(*node).or_default();
            *entry = entry.compose(Composite::from_actor(*load));
            new_members
                .entry(*node)
                .or_default()
                .push((candidate_id, *load));
        }

        // Re-predict every contract holder, then the candidate: only their
        // requirements can be violated. Residents without a contract are
        // not analysed (`predicted_period` answers for them on demand).
        let predict =
            |owner: AppId, app: &Application, assignment: &[NodeId], loads: &[ActorLoad]| {
                predict_period(
                    app,
                    owner,
                    assignment,
                    loads,
                    &new_nodes,
                    &new_members,
                    self.analysis,
                )
            };
        let mut predicted: BTreeMap<AppId, Rational> = BTreeMap::new();
        let mut violations = Vec::new();
        for (&id, resident) in &self.residents {
            let Some(required) = resident.required_throughput else {
                continue;
            };
            let period = predict(id, &resident.app, &resident.assignment, &resident.loads)?;
            violations.extend(violation(Some(id), period, required));
            predicted.insert(id, period);
        }
        let period = predict(candidate_id, &app, assignment, &loads)?;
        violations
            .extend(required_throughput.and_then(|required| violation(None, period, required)));
        predicted.insert(candidate_id, period);

        if !violations.is_empty() {
            return Ok(AdmissionOutcome::Rejected { violations });
        }

        // Commit.
        self.nodes = new_nodes;
        self.members = new_members;
        self.next_id += 1;
        self.residents.insert(
            candidate_id,
            Resident {
                app,
                assignment: assignment.to_vec(),
                loads,
                required_throughput,
            },
        );
        Ok(AdmissionOutcome::Admitted {
            id: candidate_id,
            predicted_periods: predicted,
        })
    }

    /// Removes a resident application, re-folding each touched node's
    /// composite from its exact member list (`O(members per node)`).
    ///
    /// The paper's `O(1)` inverse operators (Equation 8) remain the *read*
    /// path — see period prediction — but they are **not** used to mutate
    /// controller state: [`Composite::compose`] snaps to a lattice, which
    /// makes `decompose` an approximate inverse, and the per-cycle residue
    /// used to accumulate monotonically across admit/release cycles until
    /// blocking probabilities crossed 1 and period prediction failed on a
    /// long-running controller (after a few hundred cycles). Re-folding
    /// keeps the error of a node's composite bounded by one fold, however
    /// long the controller runs; an emptied node is exactly empty.
    ///
    /// # Errors
    ///
    /// * [`ContentionError::UnknownApplication`] if `id` is not resident.
    pub fn remove(&mut self, id: AppId) -> Result<(), ContentionError> {
        let resident = self
            .residents
            .get(&id)
            .ok_or(ContentionError::UnknownApplication(id))?;
        for (node, load) in resident.assignment.iter().zip(&resident.loads) {
            let list = self.members.entry(*node).or_default();
            if let Some(pos) = list.iter().position(|(a, l)| *a == id && l == load) {
                list.remove(pos);
            }
            let refolded = Composite::from_actors(list.iter().map(|(_, l)| *l));
            self.nodes.insert(*node, refolded);
        }
        self.residents.remove(&id);
        Ok(())
    }

    /// Predicted period of a resident application under the current mix.
    ///
    /// # Errors
    ///
    /// * [`ContentionError::UnknownApplication`] if `id` is not resident.
    pub fn predicted_period(&self, id: AppId) -> Result<Rational, ContentionError> {
        let resident = self
            .residents
            .get(&id)
            .ok_or(ContentionError::UnknownApplication(id))?;
        predict_period(
            &resident.app,
            id,
            &resident.assignment,
            &resident.loads,
            &self.nodes,
            &self.members,
            self.analysis,
        )
    }
}

/// The violation of `required` by an application predicted to run at
/// `period`, if its throughput falls short.
fn violation(app: Option<AppId>, period: Rational, required: Rational) -> Option<Violation> {
    let predicted = period.recip();
    (predicted < required).then_some(Violation {
        app,
        required,
        predicted,
    })
}

/// Period of `app` when its actors see `nodes` (which *includes* their own
/// contribution — removed via the inverse per actor, or by re-folding the
/// node's member list when a saturating load blocks the inverse).
fn predict_period(
    app: &Application,
    owner: AppId,
    assignment: &[NodeId],
    loads: &[ActorLoad],
    nodes: &BTreeMap<NodeId, Composite>,
    members: &BTreeMap<NodeId, Vec<(AppId, ActorLoad)>>,
    analysis: sdf::AnalysisOptions,
) -> Result<Rational, ContentionError> {
    let mut times = Vec::with_capacity(assignment.len());
    for (actor, (node, load)) in app.graph().actor_ids().zip(assignment.iter().zip(loads)) {
        let all = nodes.get(node).copied().unwrap_or_default();
        let others = match all.decompose(Composite::from_actor(*load)) {
            Ok(rest) => rest,
            Err(ContentionError::SaturatedInverse) => {
                // O(n) fallback: fold everything on the node except one
                // occurrence of this very load.
                let list = members.get(node).map(Vec::as_slice).unwrap_or(&[]);
                let skip = list.iter().position(|(a, l)| *a == owner && l == load);
                Composite::from_actors(
                    list.iter()
                        .enumerate()
                        .filter(|(i, _)| Some(*i) != skip)
                        .map(|(_, (_, l))| *l),
                )
            }
            Err(e) => return Err(e),
        };
        let twait = others
            .expected_waiting()
            .quantize(crate::estimator::WAITING_TIME_GRID);
        times.push(app.graph().execution_time(actor) + twait);
    }
    app.period_with_times(&times, analysis)
        .map_err(ContentionError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf::figure2_graphs;

    fn apps() -> (Application, Application) {
        let (a, b) = figure2_graphs();
        (
            Application::new("A", a).unwrap(),
            Application::new("B", b).unwrap(),
        )
    }

    const N3: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    #[test]
    fn admit_predicts_paper_period() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        // A holds a contract, so B's admission re-predicts both.
        let o1 = ctrl.admit(a, &N3, Some(Rational::new(1, 400))).unwrap();
        assert!(o1.admitted_id().is_some());
        let o2 = ctrl.admit(b, &N3, None).unwrap();
        let AdmissionOutcome::Admitted {
            predicted_periods, ..
        } = o2
        else {
            panic!("B must be admitted");
        };
        assert_eq!(predicted_periods.len(), 2);
        // Composability == exact for one other actor per node: 1075/3.
        for p in predicted_periods.values() {
            assert_eq!(*p, Rational::new(1075, 3));
        }
    }

    #[test]
    fn admit_release_cycles_do_not_drift() {
        // Regression: remove() used to mutate node composites with the
        // lattice-quantized decompose inverse, whose per-cycle residue
        // accumulated until blocking probabilities crossed 1 and period
        // prediction died after a few hundred admit/release cycles. A
        // long-running controller must stay exact through arbitrarily many
        // cycles: every emptied node returns to the identity, and the
        // predicted periods never change.
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let mut reference_periods = None;
        for cycle in 0..600 {
            // A's contract makes B's admission re-predict A too.
            let ida = ctrl
                .admit(a.clone(), &N3, Some(Rational::new(1, 400)))
                .unwrap();
            let out_b = ctrl.admit(b.clone(), &N3, None).unwrap();
            let AdmissionOutcome::Admitted {
                id: idb,
                predicted_periods,
            } = out_b
            else {
                panic!("cycle {cycle}: B must be admitted into an empty mix");
            };
            let periods: Vec<Rational> = predicted_periods.values().copied().collect();
            assert_eq!(periods.len(), 2, "cycle {cycle}");
            match &reference_periods {
                None => reference_periods = Some(periods),
                Some(reference) => {
                    assert_eq!(&periods, reference, "cycle {cycle}: predictions drifted");
                }
            }
            ctrl.remove(ida.admitted_id().unwrap()).unwrap();
            ctrl.remove(idb).unwrap();
            for node in N3 {
                assert!(
                    ctrl.node_load(node).is_identity(),
                    "cycle {cycle}: emptied node {node} kept residue {:?}",
                    ctrl.node_load(node)
                );
            }
        }
    }

    #[test]
    fn rejection_preserves_state() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, Some(Rational::new(1, 300))).unwrap();
        // A demands its full isolation throughput; adding B would break it.
        let out = ctrl.admit(b, &N3, None).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("B must be rejected");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].app, Some(AppId(0)));
        assert_eq!(ctrl.resident_count(), 1);
        // Node composites untouched by the rejected attempt.
        let p = ctrl.predicted_period(AppId(0)).unwrap();
        assert_eq!(p, Rational::integer(300));
    }

    #[test]
    fn candidate_own_requirement_checked() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, None).unwrap();
        let out = ctrl.admit(b, &N3, Some(Rational::new(1, 300))).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("candidate must be rejected by its own requirement");
        };
        assert_eq!(violations[0].app, None);
        assert!(violations[0].to_string().contains("candidate"));
    }

    #[test]
    fn remove_restores_isolation() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let ida = ctrl.admit(a, &N3, None).unwrap().admitted_id().unwrap();
        let idb = ctrl.admit(b, &N3, None).unwrap().admitted_id().unwrap();
        assert_eq!(ctrl.predicted_period(ida).unwrap(), Rational::new(1075, 3));
        ctrl.remove(idb).unwrap();
        // With B gone, A's predicted period returns to isolation exactly
        // (the inverse is an exact round-trip).
        assert_eq!(ctrl.predicted_period(ida).unwrap(), Rational::integer(300));
        assert_eq!(ctrl.resident_ids().collect::<Vec<_>>(), vec![ida]);
    }

    #[test]
    fn remove_unknown_app() {
        let mut ctrl = AdmissionController::new();
        assert_eq!(
            ctrl.remove(AppId(3)).unwrap_err(),
            ContentionError::UnknownApplication(AppId(3))
        );
        assert_eq!(
            ctrl.predicted_period(AppId(3)).unwrap_err(),
            ContentionError::UnknownApplication(AppId(3))
        );
    }

    #[test]
    fn node_load_accumulates() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        assert!(ctrl.node_load(NodeId(0)).is_identity());
        ctrl.admit(a, &N3, None).unwrap();
        let after_a = ctrl.node_load(NodeId(0)).probability();
        assert_eq!(after_a, Rational::new(1, 3));
        ctrl.admit(b, &N3, None).unwrap();
        // P = 1/3 ⊕ 1/3 = 5/9.
        assert_eq!(ctrl.node_load(NodeId(0)).probability(), Rational::new(5, 9));
    }

    #[test]
    fn unsatisfiable_requirement_rejected_not_error() {
        let (a, _) = apps();
        let iso = a.isolation_period(); // 300
        let mut ctrl = AdmissionController::new();
        // Demands more throughput than the candidate achieves in isolation:
        // an admission decision (rejection), not an analysis error.
        let impossible = iso.recip() * Rational::new(3, 2);
        let out = ctrl.admit(a, &N3, Some(impossible)).unwrap();
        let AdmissionOutcome::Rejected { violations } = out else {
            panic!("unsatisfiable requirement must reject");
        };
        assert_eq!(violations[0].app, None);
        assert_eq!(violations[0].predicted, iso.recip());
        assert_eq!(ctrl.resident_count(), 0);
    }

    #[test]
    fn outcome_display() {
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        let o1 = ctrl.admit(a, &N3, Some(Rational::new(1, 300))).unwrap();
        assert!(o1.to_string().starts_with("admitted as app#0"));
        assert!(o1.to_string().contains("predicted period 300"));
        let o2 = ctrl.admit(b, &N3, None).unwrap();
        let text = o2.to_string();
        assert!(text.starts_with("rejected: "), "{text}");
        assert!(text.contains("app#0"), "{text}");
    }

    #[test]
    fn controller_is_send_sync_and_clonable() {
        fn check<T: Send + Sync + Clone>() {}
        check::<AdmissionController>();

        // A clone is an independent snapshot.
        let (a, b) = apps();
        let mut ctrl = AdmissionController::new();
        ctrl.admit(a, &N3, None).unwrap();
        let snapshot = ctrl.clone();
        ctrl.admit(b, &N3, None).unwrap();
        assert_eq!(snapshot.resident_count(), 1);
        assert_eq!(ctrl.resident_count(), 2);
        assert_eq!(
            snapshot.predicted_period(AppId(0)).unwrap(),
            Rational::integer(300)
        );
    }

    #[test]
    #[should_panic(expected = "one node per actor")]
    fn wrong_assignment_length_panics() {
        let (a, _) = apps();
        AdmissionController::new()
            .admit(a, &[NodeId(0)], None)
            .unwrap();
    }
}
