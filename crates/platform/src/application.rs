//! Applications: named SDF graphs with pre-computed analysis metadata.

use sdf::{
    analyze_period, analyze_validated_period, AnalysisOptions, Rational, RepetitionVector,
    SdfError, SdfGraph,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an application within a [`crate::SystemSpec`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AppId(pub usize);

impl AppId {
    /// Dense index of this application.
    pub const fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

impl From<usize> for AppId {
    fn from(i: usize) -> Self {
        AppId(i)
    }
}

/// An application: an SDF graph plus the analysis results every consumer
/// needs (repetition vector and isolation period).
///
/// Constructing an `Application` validates the graph (consistent, strongly
/// connected, live) and computes its period in isolation — `Per(A)` of the
/// paper's Definition 3 — once, so downstream analyses never repeat the
/// state-space exploration for the unloaded graph.
///
/// # Examples
///
/// ```
/// use platform::Application;
/// use sdf::{figure2_graphs, Rational};
///
/// let (graph_a, _) = figure2_graphs();
/// let app = Application::new("A", graph_a)?;
/// assert_eq!(app.isolation_period(), Rational::integer(300));
/// assert_eq!(app.repetition_vector().as_slice(), &[1, 2, 1]);
/// # Ok::<(), platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    graph: SdfGraph,
    repetition: RepetitionVector,
    isolation_period: Rational,
}

impl Application {
    /// Wraps and validates `graph` under the given display name.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SdfError`] (wrapped in
    /// [`crate::PlatformError::Graph`]) if the graph is inconsistent, not
    /// strongly connected, deadlocked, or its period analysis diverges.
    pub fn new(
        name: impl Into<String>,
        graph: SdfGraph,
    ) -> Result<Application, crate::PlatformError> {
        let analysis = analyze_period(&graph).map_err(crate::PlatformError::Graph)?;
        Ok(Application {
            name: name.into(),
            graph,
            repetition: analysis.repetition_vector,
            isolation_period: analysis.period,
        })
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying SDF graph.
    pub fn graph(&self) -> &SdfGraph {
        &self.graph
    }

    /// The repetition vector `q`.
    pub fn repetition_vector(&self) -> &RepetitionVector {
        &self.repetition
    }

    /// Period achieved when the application runs alone on the platform
    /// (`Per(A)`, Definition 3).
    pub fn isolation_period(&self) -> Rational {
        self.isolation_period
    }

    /// Throughput in isolation (`1 / Per(A)`).
    pub fn isolation_throughput(&self) -> Rational {
        self.isolation_period.recip()
    }

    /// Re-analyzes the application with replaced execution times (the
    /// contention model's response-time inflation) and returns the
    /// resulting period.
    ///
    /// The graph's consistency and strong connectivity were checked by
    /// [`Application::new`] and do not depend on execution times, so this
    /// runs only the state-space exploration
    /// ([`sdf::analyze_validated_period`]) — no inflated graph is built.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures as [`SdfError`]: a non-positive time,
    /// deadlock, an exhausted step budget, or times that overflow the
    /// analysis' integer ticks ([`SdfError::TickOverflow`]).
    ///
    /// # Panics
    ///
    /// Panics if `times` does not hold one time per actor.
    pub fn period_with_times(
        &self,
        times: &[Rational],
        options: AnalysisOptions,
    ) -> Result<Rational, SdfError> {
        analyze_validated_period(&self.graph, &self.repetition, times, options)
            .map(|analysis| analysis.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdf::figure2_graphs;

    #[test]
    fn validates_and_precomputes() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        assert_eq!(app.name(), "A");
        assert_eq!(app.isolation_period(), Rational::integer(300));
        assert_eq!(app.isolation_throughput(), Rational::new(1, 300));
        assert_eq!(app.repetition_vector().total_firings(), 4);
    }

    #[test]
    fn rejects_invalid_graph() {
        let mut b = sdf::SdfGraphBuilder::new("dead");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        assert!(Application::new("dead", b.build().unwrap()).is_err());
    }

    #[test]
    fn period_with_times() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        let p = app
            .period_with_times(
                &[
                    Rational::integer(100) + Rational::new(25, 3),
                    Rational::integer(50) + Rational::new(50, 3),
                    Rational::integer(100) + Rational::new(50, 3),
                ],
                AnalysisOptions::default(),
            )
            .unwrap();
        assert_eq!(p, Rational::new(1075, 3));
    }

    #[test]
    fn period_with_times_reports_tick_overflow() {
        let (a, _) = figure2_graphs();
        let app = Application::new("A", a).unwrap();
        // Pairwise coprime denominators whose lcm exceeds 64 bits.
        let d = 1i128 << 22;
        let times = [d - 3, d - 1, d + 1].map(|d| Rational::new(100 * d + 1, d));
        assert_eq!(
            app.period_with_times(&times, AnalysisOptions::default()),
            Err(SdfError::TickOverflow)
        );
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(4).to_string(), "app#4");
        assert_eq!(AppId::from(2).index(), 2);
    }
}
