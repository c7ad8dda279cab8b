//! Self-timed execution and exact period (throughput) analysis.
//!
//! For a consistent, strongly connected, live SDF graph with constant actor
//! execution times, *self-timed* execution (every actor fires as soon as its
//! input tokens are available) enters a periodic regime after a finite
//! transient (Ghamarian et al., ACSD 2006). This module executes the
//! operational semantics on exact integer ticks — one tick is `1 / lcm` of
//! the execution-time denominators, so every [`Rational`] time maps to an
//! integer — detects the first recurrent state, and derives the exact
//! average period per graph iteration — the quantity the paper calls
//! `Per(A)` (Definition 3).
//!
//! The execution semantics match the paper's platform model:
//! * tokens are consumed atomically when a firing starts and produced
//!   atomically when it completes;
//! * auto-concurrency is *not* restricted here — restrict it explicitly with
//!   a one-token self-loop per actor (as [`crate::figure2_graphs`] and the
//!   generator do) to model an actor occupying a processor.
//!
//! # Examples
//!
//! ```
//! use sdf::{analyze_period, figure2_graphs, Rational};
//!
//! let (a, _) = figure2_graphs();
//! let analysis = analyze_period(&a)?;
//! assert_eq!(analysis.period, Rational::integer(300));
//! assert_eq!(analysis.throughput(), Rational::new(1, 300));
//! # Ok::<(), sdf::SdfError>(())
//! ```

use crate::graph::{ActorId, SdfError, SdfGraph};
use crate::rational::{gcd, Rational};
use crate::repetition::{repetition_vector, RepetitionVector};
use crate::topology::is_strongly_connected;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Options controlling the state-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisOptions {
    /// Maximum number of discrete execution steps (time advances) before the
    /// exploration gives up with [`SdfError::BudgetExhausted`].
    pub max_steps: u64,
    /// If `true` (default), require the graph to be strongly connected —
    /// non-strongly-connected graphs can have an unbounded state space.
    pub require_strongly_connected: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            max_steps: 1_000_000,
            require_strongly_connected: true,
        }
    }
}

/// Result of a period analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodAnalysis {
    /// Exact average time per graph iteration in the periodic regime.
    pub period: Rational,
    /// Time at which the recurrent state was first visited.
    pub transient_end: Rational,
    /// Length (in time) of one period of the recurrent cycle. This spans
    /// `iterations_per_cycle` graph iterations.
    pub cycle_length: Rational,
    /// Graph iterations completed in one recurrent cycle.
    pub iterations_per_cycle: u64,
    /// Discrete steps executed during exploration.
    pub steps: u64,
    /// The repetition vector used for iteration counting.
    pub repetition_vector: RepetitionVector,
    /// Maximum token count observed on each channel during the explored
    /// execution (transient + one full recurrent cycle) — the buffer
    /// capacity each channel needs under maximal-throughput self-timed
    /// scheduling (cf. Stuijk et al., DAC 2006 \[16\]).
    pub max_channel_occupancy: Vec<u64>,
}

impl PeriodAnalysis {
    /// Throughput = 1 / period (iterations per time unit).
    pub fn throughput(&self) -> Rational {
        self.period.recip()
    }
}

/// Self-timed execution on integer ticks of `1 / scale` time units, where
/// `scale` is the lcm of the execution-time denominators: every time the
/// execution meets is then an exact integer.
struct Execution<'g> {
    graph: &'g SdfGraph,
    /// Execution time of each actor, in ticks.
    ticks: Vec<u64>,
    /// Token count per channel.
    tokens: Vec<u64>,
    /// Sorted remaining ticks of the active firings of each actor.
    active: Vec<Vec<u64>>,
}

impl<'g> Execution<'g> {
    fn new(graph: &'g SdfGraph, ticks: Vec<u64>) -> Self {
        Execution {
            graph,
            ticks,
            tokens: graph.channels().map(|(_, c)| c.initial_tokens()).collect(),
            active: vec![Vec::new(); graph.actor_count()],
        }
    }

    fn actor_enabled(&self, a: ActorId) -> bool {
        self.graph
            .incoming(a)
            .iter()
            .all(|&cid| self.tokens[cid.index()] >= self.graph.channel(cid).consumption())
    }

    /// Starts every enabled firing. Starting a firing only consumes
    /// tokens, so it never enables another actor: one pass reaches the
    /// fixpoint.
    fn start_enabled(&mut self) {
        for a in self.graph.actor_ids() {
            while self.actor_enabled(a) {
                for &cid in self.graph.incoming(a) {
                    self.tokens[cid.index()] -= self.graph.channel(cid).consumption();
                }
                let rem = self.ticks[a.0];
                let list = &mut self.active[a.0];
                let pos = list.partition_point(|&r| r <= rem);
                list.insert(pos, rem);
            }
        }
    }

    /// Smallest remaining time among active firings, if any.
    fn next_completion(&self) -> Option<u64> {
        self.active.iter().filter_map(|l| l.first().copied()).min()
    }

    /// Advances time by `dt`, completing the firings that reach zero;
    /// returns how many firings of actor 0 completed.
    fn advance(&mut self, dt: u64) -> u64 {
        let mut reference_done = 0;
        for (i, list) in self.active.iter_mut().enumerate() {
            for r in list.iter_mut() {
                *r -= dt;
            }
            let done = list.partition_point(|&r| r == 0);
            if done > 0 {
                list.drain(0..done);
                if i == 0 {
                    reference_done = done as u64;
                }
                for &cid in self.graph.outgoing(ActorId(i)) {
                    self.tokens[cid.index()] += self.graph.channel(cid).production() * done as u64;
                }
            }
        }
        reference_done
    }

    /// Writes the state into `key`: token counts, then each actor's number
    /// of active firings and their remaining ticks.
    fn encode(&self, key: &mut Vec<u64>) {
        key.clear();
        key.extend_from_slice(&self.tokens);
        for list in &self.active {
            key.push(list.len() as u64);
            key.extend_from_slice(list);
        }
    }
}

/// FxHash-style hasher for the state keys: they are program-generated
/// `u64` words, so a multiply-rotate mix is enough and far cheaper than
/// SipHash.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            self.write_u64(word);
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `times` on a common integer tick: the lcm of their denominators (the
/// ticks per time unit) and each time in ticks.
///
/// # Errors
///
/// * [`SdfError::NonPositiveExecutionTime`] for a time `<= 0`.
/// * [`SdfError::TickOverflow`] if the lcm or a tick count exceeds `u64`.
fn to_ticks(times: &[Rational]) -> Result<(u64, Vec<u64>), SdfError> {
    let mut scale: i128 = 1;
    for (i, t) in times.iter().enumerate() {
        if !t.is_positive() {
            return Err(SdfError::NonPositiveExecutionTime(ActorId(i)));
        }
        scale = (scale / gcd(scale, t.denom()))
            .checked_mul(t.denom())
            .filter(|&s| s <= i128::from(u64::MAX))
            .ok_or(SdfError::TickOverflow)?;
    }
    let ticks = times
        .iter()
        .map(|t| {
            t.numer()
                .checked_mul(scale / t.denom())
                .and_then(|n| u64::try_from(n).ok())
                .ok_or(SdfError::TickOverflow)
        })
        .collect::<Result<_, _>>()?;
    Ok((scale as u64, ticks))
}

/// Computes the exact self-timed period of `graph` with default options.
///
/// # Errors
///
/// * [`SdfError::Inconsistent`] — no repetition vector exists.
/// * [`SdfError::NotStronglyConnected`] — unbounded executions are rejected.
/// * [`SdfError::Deadlocked`] — execution stops before completing an
///   iteration.
/// * [`SdfError::BudgetExhausted`] — the default step budget was exceeded.
/// * [`SdfError::TickOverflow`] — the execution times do not fit a common
///   64-bit integer tick.
///
/// # Examples
///
/// ```
/// use sdf::{analyze_period, figure2_graphs, Rational};
/// let (_, b) = figure2_graphs();
/// assert_eq!(analyze_period(&b)?.period, Rational::integer(300));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn analyze_period(graph: &SdfGraph) -> Result<PeriodAnalysis, SdfError> {
    analyze_period_with(graph, AnalysisOptions::default())
}

/// Computes the exact self-timed period with explicit [`AnalysisOptions`].
///
/// # Errors
///
/// See [`analyze_period`].
pub fn analyze_period_with(
    graph: &SdfGraph,
    options: AnalysisOptions,
) -> Result<PeriodAnalysis, SdfError> {
    let q = repetition_vector(graph)?;
    if options.require_strongly_connected && !is_strongly_connected(graph) {
        return Err(SdfError::NotStronglyConnected);
    }
    let times: Vec<Rational> = graph.actors().map(|(_, a)| a.execution_time()).collect();
    analyze_validated_period(graph, &q, &times, options)
}

/// Computes the exact self-timed period of `graph` with its execution times
/// replaced by `times`, skipping the structural checks of
/// [`analyze_period_with`].
///
/// This is the re-analysis path for a graph validated once and then
/// analysed under many execution times (the contention model's inflated
/// response times): `repetition` must be `repetition_vector(graph)`, and
/// the caller vouches for strong connectivity, so
/// `options.require_strongly_connected` is not consulted. Replacing
/// execution times changes neither.
///
/// # Errors
///
/// * [`SdfError::NonPositiveExecutionTime`] — a time is `<= 0`.
/// * [`SdfError::Deadlocked`], [`SdfError::BudgetExhausted`],
///   [`SdfError::TickOverflow`] — as for [`analyze_period`].
///
/// # Panics
///
/// Panics if `times.len() != graph.actor_count()`.
///
/// # Examples
///
/// ```
/// use sdf::{analyze_validated_period, figure2_graphs, repetition_vector};
/// use sdf::{AnalysisOptions, Rational};
///
/// let (a, _) = figure2_graphs();
/// let q = repetition_vector(&a)?;
/// let times = [Rational::integer(100), Rational::new(151, 3), Rational::integer(100)];
/// let analysis = analyze_validated_period(&a, &q, &times, AnalysisOptions::default())?;
/// assert_eq!(analysis.period, Rational::new(902, 3));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn analyze_validated_period(
    graph: &SdfGraph,
    repetition: &RepetitionVector,
    times: &[Rational],
    options: AnalysisOptions,
) -> Result<PeriodAnalysis, SdfError> {
    assert_eq!(
        times.len(),
        graph.actor_count(),
        "one execution time per actor required"
    );
    let (scale, ticks) = to_ticks(times)?;
    let mut state = Execution::new(graph, ticks);
    let mut reference_completions = 0u64;
    let mut now = 0u64;
    let mut steps = 0u64;
    let mut max_occupancy: Vec<u64> = state.tokens.clone();

    // Recurrence detection: state -> (time, completions of actor 0).
    let mut seen: HashMap<Box<[u64]>, (u64, u64), BuildHasherDefault<StateHasher>> =
        HashMap::default();
    let mut key = Vec::new();

    state.start_enabled();

    loop {
        if steps >= options.max_steps {
            return Err(SdfError::BudgetExhausted { steps });
        }
        steps += 1;

        state.encode(&mut key);
        if let Some(&(t0, c0)) = seen.get(key.as_slice()) {
            let cycle_ticks = now - t0;
            let dc = reference_completions - c0;
            if dc == 0 || cycle_ticks == 0 {
                // A recurrent state with no progress means deadlock
                // (should be caught below, but guard anyway).
                return Err(SdfError::Deadlocked);
            }
            let scale = i128::from(scale);
            let cycle_length = Rational::new(i128::from(cycle_ticks), scale);
            // dc completions of actor 0 = dc / q(0) iterations.
            let iterations = Rational::new(i128::from(dc), i128::from(repetition.get(ActorId(0))));
            let period = cycle_length
                .checked_mul(iterations.recip())
                .ok_or(SdfError::TickOverflow)?;
            return Ok(PeriodAnalysis {
                period,
                transient_end: Rational::new(i128::from(t0), scale),
                cycle_length,
                iterations_per_cycle: (iterations.numer() / iterations.denom()).max(0) as u64,
                steps,
                repetition_vector: repetition.clone(),
                max_channel_occupancy: max_occupancy,
            });
        }
        seen.insert(key.as_slice().into(), (now, reference_completions));

        let Some(dt) = state.next_completion() else {
            return Err(SdfError::Deadlocked);
        };
        now = now.checked_add(dt).ok_or(SdfError::TickOverflow)?;
        reference_completions += state.advance(dt);
        for (m, &t) in max_occupancy.iter_mut().zip(&state.tokens) {
            *m = (*m).max(t);
        }
        state.start_enabled();
        if state.next_completion().is_none() {
            // No active firing and nothing became enabled.
            return Err(SdfError::Deadlocked);
        }
    }
}

/// Convenience wrapper returning just the period.
///
/// # Errors
///
/// See [`analyze_period`].
///
/// # Examples
///
/// ```
/// use sdf::{figure2_graphs, period, Rational};
/// let (a, _) = figure2_graphs();
/// assert_eq!(period(&a)?, Rational::integer(300));
/// # Ok::<(), sdf::SdfError>(())
/// ```
pub fn period(graph: &SdfGraph) -> Result<Rational, SdfError> {
    Ok(analyze_period(graph)?.period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure2_graphs, SdfGraphBuilder};

    #[test]
    fn figure2_periods_are_300() {
        let (a, b) = figure2_graphs();
        assert_eq!(period(&a).unwrap(), Rational::integer(300));
        assert_eq!(period(&b).unwrap(), Rational::integer(300));
    }

    #[test]
    fn figure3_response_time_period() {
        // Paper: with response times [117, 67, 108] / [67, 117, 108] the
        // estimated period of both graphs is 359.
        let (a, b) = figure2_graphs();
        // twait per actor from the paper: a0 += 25/3, a1 += 50/3, a2 += 50/3.
        // Per = τ(a0)' + 2τ(a1)' + τ(a2)' = (100+25/3) + 2(50+50/3) + (100+50/3).
        let p = period(&a.with_execution_times(&[
            Rational::integer(100) + Rational::new(25, 3),
            Rational::integer(50) + Rational::new(50, 3),
            Rational::integer(100) + Rational::new(50, 3),
        ]))
        .unwrap();
        assert_eq!(p, Rational::new(1075, 3)); // ≈ 358.33, paper rounds to 359
        let p_b = period(&b.with_execution_times(&[
            Rational::integer(50) + Rational::new(50, 3),
            Rational::integer(100) + Rational::new(25, 3),
            Rational::integer(100) + Rational::new(50, 3),
        ]))
        .unwrap();
        assert_eq!(p_b, Rational::new(1075, 3));
    }

    #[test]
    fn two_actor_pipeline_overlap() {
        // x -(1,1)-> y, y -(1,1) 2 tokens-> x: two tokens allow pipelining;
        // period limited by the slower actor.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 2).unwrap();
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(7));
    }

    #[test]
    fn single_token_cycle_serialises() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 3);
        let y = b.actor("y", 7);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(10));
    }

    #[test]
    fn deadlock_detected() {
        // Cycle with no initial tokens can never start.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 0).unwrap();
        assert_eq!(
            analyze_period(&b.build().unwrap()).unwrap_err(),
            SdfError::Deadlocked
        );
    }

    #[test]
    fn not_strongly_connected_rejected() {
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        b.channel(x, y, 1, 1, 0).unwrap();
        assert_eq!(
            analyze_period(&b.build().unwrap()).unwrap_err(),
            SdfError::NotStronglyConnected
        );
    }

    #[test]
    fn budget_exhausted_reported() {
        let (a, _) = figure2_graphs();
        let err = analyze_period_with(
            &a,
            AnalysisOptions {
                max_steps: 2,
                require_strongly_connected: true,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SdfError::BudgetExhausted { .. }));
    }

    #[test]
    fn rational_execution_times_supported() {
        // Same pipeline as above but with τ(y) = 50/3: period = τ(x)+τ(y).
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor_rational("x", Rational::integer(3));
        let y = b.actor_rational("y", Rational::new(50, 3));
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::new(59, 3));
    }

    /// Serial three-actor cycle `x -> y -> z -> x` with one token.
    fn serial_cycle(times: [Rational; 3]) -> SdfGraph {
        let mut b = SdfGraphBuilder::new("g");
        let [x, y, z] = times.map(|t| b.actor_rational("a", t));
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, z, 1, 1, 0).unwrap();
        b.channel(z, x, 1, 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn tick_overflow_is_a_typed_error() {
        // Pairwise coprime denominators near 2²²: their lcm is about 2⁶⁶.
        let d = 1i128 << 22;
        let coprime = serial_cycle([d - 3, d - 1, d + 1].map(|d| Rational::new(10 * d + 1, d)));
        assert_eq!(analyze_period(&coprime), Err(SdfError::TickOverflow));
        // One time too large for a 64-bit tick count.
        let huge = Rational::integer(1 << 70);
        let wide = serial_cycle([huge, Rational::ONE, Rational::ONE]);
        assert_eq!(analyze_period(&wide), Err(SdfError::TickOverflow));
        // Every time fits, but one iteration outlasts the 64-bit clock.
        let long = Rational::integer(1 << 63);
        let slow = serial_cycle([long, long, Rational::ONE]);
        assert_eq!(analyze_period(&slow), Err(SdfError::TickOverflow));
        // Large but representable: the lcm of two of those denominators.
        let two = serial_cycle([
            Rational::new(10 * (d - 3) + 1, d - 3),
            Rational::new(10 * (d - 1) + 1, d - 1),
            Rational::integer(10),
        ]);
        assert_eq!(
            period(&two).unwrap(),
            Rational::new(10 * (d - 3) + 1, d - 3)
                + Rational::new(10 * (d - 1) + 1, d - 1)
                + Rational::integer(10)
        );
    }

    #[test]
    fn validated_period_matches_inflated_graph() {
        let (a, _) = figure2_graphs();
        let q = crate::repetition_vector(&a).unwrap();
        let times = [
            Rational::integer(100) + Rational::new(25, 3),
            Rational::integer(50) + Rational::new(50, 3),
            Rational::integer(100) + Rational::new(50, 3),
        ];
        let options = AnalysisOptions::default();
        assert_eq!(
            analyze_validated_period(&a, &q, &times, options).unwrap(),
            analyze_period_with(&a.with_execution_times(&times), options).unwrap()
        );
        let mut zero = times;
        zero[1] = Rational::ZERO;
        assert_eq!(
            analyze_validated_period(&a, &q, &zero, options).unwrap_err(),
            SdfError::NonPositiveExecutionTime(ActorId(1))
        );
    }

    #[test]
    fn multirate_period_counts_all_firings() {
        // x fires twice per iteration (q = [2,1]): serial cycle with one
        // token: period = 2τ(x) + τ(y).
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 5);
        let y = b.actor("y", 9);
        b.channel(x, y, 1, 2, 0).unwrap();
        b.channel(y, x, 2, 1, 2).unwrap();
        b.self_loop(x, 1);
        b.self_loop(y, 1);
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::integer(19));
    }

    #[test]
    fn auto_concurrency_speeds_up_without_self_loop() {
        // With 3 tokens in the cycle and no self-loops, x can run three
        // concurrent firings: throughput is bounded by tokens/τ-cycle.
        let mut b = SdfGraphBuilder::new("g");
        let x = b.actor("x", 6);
        let y = b.actor("y", 2);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 3).unwrap();
        // cycle time = 8, 3 tokens => period = 8/3.
        assert_eq!(period(&b.build().unwrap()).unwrap(), Rational::new(8, 3));
    }

    #[test]
    fn analysis_metadata_consistent() {
        let (a, _) = figure2_graphs();
        let r = analyze_period(&a).unwrap();
        assert!(r.steps > 0);
        assert!(r.cycle_length.is_positive());
        assert_eq!(
            r.period * Rational::integer(r.iterations_per_cycle as i128),
            r.cycle_length
        );
        assert_eq!(r.throughput(), r.period.recip());
    }
}
