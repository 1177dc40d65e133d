//! The one solve path, and the types every engine shares.
//!
//! [`crate::LinearProgram::solve`] sends every program to the
//! float/exact hybrid ([`crate::hybrid`]): an `f64` revised simplex
//! proposes the optimal basis, one exact rational factorization
//! certifies it, and the exact revised simplex ([`crate::revised`])
//! solves from scratch whenever the certificate fails. Setting
//! `CQ_LP_ENGINE=exact` pins the exact revised simplex instead (read
//! fresh per solve, so tests and CI can toggle it in-process). The
//! engine that ran is recorded in [`SolveStats::solver`]. Both engines
//! are exact end to end, so they agree on status and — at optimality —
//! on the objective; see `docs/SOLVER.md` for the full contract.

use crate::problem::{LinearProgram, VarId};
use cq_arith::Rational;

/// Pivot-selection strategy, honored by both engines.
///
/// Bland's rule is the termination-safe choice (the paper's LPs are
/// highly degenerate). Dantzig's rule (most-negative reduced cost) often
/// pivots fewer times in practice; it is guarded against cycling by
/// switching to Bland after a degenerate stretch, and it is what
/// [`crate::LinearProgram::solve`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PivotRule {
    /// Smallest-index improving column; never cycles.
    #[default]
    Bland,
    /// Most-negative reduced cost, falling back to Bland after 64
    /// consecutive degenerate (zero-improvement) pivots.
    DantzigThenBland,
}

/// Outcome classification of a solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Solve outcome.
    pub status: LpStatus,
    /// Optimal objective value (meaningful only when `status == Optimal`).
    pub objective: Rational,
    /// Optimal variable assignment, indexed by [`VarId::index`]
    /// (meaningful only when `status == Optimal`).
    pub values: Vec<Rational>,
    /// Per-solve observability: which engine ran, pivot and
    /// refactorization counts, and the program's shape.
    pub stats: SolveStats,
}

impl LpSolution {
    /// Value of `var` in the optimal solution.
    pub fn value(&self, var: VarId) -> &Rational {
        &self.values[var.index()]
    }

    /// `true` when an optimum was found.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// Which engine actually solved a program (recorded in [`SolveStats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverKind {
    /// The exact sparse revised simplex of [`crate::revised`]
    /// (`CQ_LP_ENGINE=exact`).
    RevisedSparse,
    /// The float-first hybrid of [`crate::hybrid`]: an `f64` revised
    /// simplex proposes a basis, one exact factorization verifies it,
    /// and the exact engine backstops any failure. The default.
    #[default]
    HybridFloat,
}

impl SolverKind {
    /// Stable lowercase name (used by reports and benches).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::RevisedSparse => "revised_sparse",
            SolverKind::HybridFloat => "hybrid_float",
        }
    }

    /// The engine [`crate::LinearProgram::solve`] runs, given the
    /// `CQ_LP_ENGINE` value: `exact` pins the exact revised simplex;
    /// unset, `hybrid` or anything else keeps the hybrid. A pure
    /// function so the policy is unit-testable without mutating the
    /// process environment (concurrent `setenv`/`getenv` is undefined
    /// behavior on glibc, so tests must not call `set_var`).
    pub fn from_engine_env(env: Option<&str>) -> SolverKind {
        match env {
            Some("exact") => SolverKind::RevisedSparse,
            _ => SolverKind::HybridFloat,
        }
    }
}

/// Per-solve observability, carried on every [`LpSolution`]. All fields
/// are exact counts (no sampling); a cache-served solution keeps the
/// zeroed [`Default`] value since no solve happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveStats {
    /// Engine that produced the solution.
    pub solver: SolverKind,
    /// Exact basis changes performed across both phases (including the
    /// degenerate drive-out pivots after phase 1). 0 on a hybrid solve
    /// whose float basis verified: no exact pivoting happened.
    pub pivots: usize,
    /// Basis refactorizations of the exact engine (the eta file was
    /// folded back into a fresh LU).
    pub refactorizations: usize,
    /// Nonzero structural coefficients of the constraint matrix (as
    /// stated: duplicate mentions of one variable in a constraint count
    /// separately).
    pub nonzeros: usize,
    /// Constraint count of the program.
    pub rows: usize,
    /// Variable count of the program (structural only).
    pub cols: usize,
    /// Pivots performed by the hybrid engine's `f64` phase (0 for the
    /// exact engine). The exact-phase count stays in `pivots`, so the
    /// two phases are separately attributable.
    pub float_pivots: usize,
    /// `true` iff the hybrid engine's float-proposed basis passed exact
    /// verification — the solution came from one rational factorization
    /// instead of a full exact solve.
    pub float_verified: bool,
    /// 1 when the hybrid engine had to fall back to the exact revised
    /// simplex (verification failed, or the float phase gave up or
    /// claimed infeasible/unbounded — claims the hybrid never trusts).
    pub exact_fallbacks: usize,
}

/// Nonzero coefficient entries across all constraints (duplicate
/// mentions of one variable in a single constraint count separately).
pub(crate) fn constraint_nonzeros(lp: &LinearProgram) -> usize {
    lp.constraints()
        .iter()
        .map(|c| c.coeffs.iter().filter(|(_, v)| !v.is_zero()).count())
        .sum()
}

/// The body of [`crate::LinearProgram::solve`]: the engine chosen by
/// [`SolverKind::from_engine_env`] under Dantzig-then-Bland pricing,
/// plus the per-engine pivot histogram (the hybrid's float phase
/// additionally records `cq_lp_float_pivots` at its call site).
pub(crate) fn solve(lp: &LinearProgram) -> LpSolution {
    let rule = PivotRule::DantzigThenBland;
    let env = std::env::var("CQ_LP_ENGINE").ok();
    let (solution, histogram) = match SolverKind::from_engine_env(env.as_deref()) {
        SolverKind::RevisedSparse => (
            crate::revised::solve_revised(lp, rule),
            "cq_lp_sparse_pivots",
        ),
        SolverKind::HybridFloat => (
            crate::hybrid::solve_hybrid(lp, rule),
            "cq_lp_hybrid_exact_pivots",
        ),
    };
    cq_telemetry::Metrics::global()
        .histogram(histogram)
        .observe(solution.stats.pivots as u64);
    solution
}

#[cfg(test)]
mod tests {
    //! Fixture programs through [`LinearProgram::solve`]: tiny,
    //! degenerate and edge-case LPs that the one solve path must get
    //! exactly right (the engine-against-oracle differential lives in
    //! `tests/lp_differential.rs`).

    use super::*;
    use crate::problem::{LinearProgram, Relation};
    use proptest::prelude::*;

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    fn ri(p: i64) -> Rational {
        Rational::int(p)
    }

    #[test]
    fn engine_env_knob_policy() {
        assert_eq!(SolverKind::from_engine_env(None), SolverKind::HybridFloat);
        assert_eq!(
            SolverKind::from_engine_env(Some("hybrid")),
            SolverKind::HybridFloat
        );
        assert_eq!(
            SolverKind::from_engine_env(Some("exact")),
            SolverKind::RevisedSparse
        );
        // Unknown values keep the default rather than erroring.
        assert_eq!(
            SolverKind::from_engine_env(Some("bogus")),
            SolverKind::HybridFloat
        );
    }

    #[test]
    fn solve_records_the_engine_it_ran() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        let s = lp.solve();
        // Env-aware so the suite also passes under a CQ_LP_ENGINE run.
        let expected = SolverKind::from_engine_env(std::env::var("CQ_LP_ENGINE").ok().as_deref());
        assert_eq!(s.stats.solver, expected);
        assert_eq!((s.stats.rows, s.stats.cols, s.stats.nonzeros), (1, 1, 1));
        if expected == SolverKind::HybridFloat {
            assert!(s.stats.float_verified, "{:?}", s.stats);
        }
    }

    #[test]
    fn basic_max() {
        // max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18  -> 36 at (2,6)
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(36));
        assert_eq!(s.value(x), &ri(2));
        assert_eq!(s.value(y), &ri(6));
    }

    #[test]
    fn basic_min_with_ge() {
        // min 2x + 3y st x + y >= 4; x >= 1: candidates (4,0) -> 8 and
        // (1,3) -> 11, so 8.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(2));
        lp.set_objective_coeff(y, ri(3));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Ge, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(8));
        assert_eq!(s.value(x), &ri(4));
    }

    #[test]
    fn equality_constraints() {
        // max x + y st x + 2y = 4; x <= 2 -> x=2, y=1, obj=3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(2));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
        assert_eq!(s.value(x), &ri(2));
        assert_eq!(s.value(y), &ri(1));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(2));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(1));
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_canonicalized() {
        // x - y <= -1 (i.e. y >= x + 1), max x st x <= 3, y <= 4 -> x=3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(-1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(3));
        lp.add_constraint(vec![(y, ri(1))], Relation::Le, ri(4));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
        assert!(s.value(y) >= &ri(4));
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // The triangle-query LP (Example 3.3): max x+y+z with pairwise sums <= 1.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        for v in [x, y, z] {
            lp.set_objective_coeff(v, ri(1));
        }
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (z, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(y, ri(1)), (z, ri(1))], Relation::Le, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, r(3, 2));
        assert_eq!(s.value(x), &r(1, 2));
    }

    #[test]
    fn degenerate_beale_terminates() {
        // Beale's classic cycling example; the Bland fallback of the
        // Dantzig pricing must terminate.
        // min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
        // st x1 + 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 = 0
        //    x2 + 1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 = 0
        //    x3 + x6 = 1
        // optimum -1/20
        let mut lp = LinearProgram::minimize();
        let x1 = lp.add_var("x1");
        let x2 = lp.add_var("x2");
        let x3 = lp.add_var("x3");
        let x4 = lp.add_var("x4");
        let x5 = lp.add_var("x5");
        let x6 = lp.add_var("x6");
        let x7 = lp.add_var("x7");
        lp.set_objective_coeff(x4, r(-3, 4));
        lp.set_objective_coeff(x5, ri(150));
        lp.set_objective_coeff(x6, r(-1, 50));
        lp.set_objective_coeff(x7, ri(6));
        lp.add_constraint(
            vec![
                (x1, ri(1)),
                (x4, r(1, 4)),
                (x5, ri(-60)),
                (x6, r(-1, 25)),
                (x7, ri(9)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(
            vec![
                (x2, ri(1)),
                (x4, r(1, 2)),
                (x5, ri(-90)),
                (x6, r(-1, 50)),
                (x7, ri(3)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(vec![(x3, ri(1)), (x6, ri(1))], Relation::Eq, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, r(-1, 20));
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; max x -> 2
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(2));
    }

    #[test]
    fn zero_variable_lp() {
        let lp = LinearProgram::maximize();
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(0));
    }

    #[test]
    fn duplicate_coeffs_are_summed() {
        // max x st x/2 + x/2 <= 3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, r(1, 2)), (x, r(1, 2))], Relation::Le, ri(3));
        let s = lp.solve();
        assert_eq!(s.objective, ri(3));
    }

    #[test]
    fn strong_duality_on_canonical_program() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let p = lp.solve();
        let d = lp.dual().solve();
        assert_eq!(p.status, LpStatus::Optimal);
        assert_eq!(d.status, LpStatus::Optimal);
        assert_eq!(p.objective, d.objective);
    }

    /// An equality constraint behaves exactly like the pair of
    /// inequalities it abbreviates.
    fn with_eq_vs_pair(eq: bool) -> LpSolution {
        // max x + y st x + 2y (= or <=/>=) 6; x <= 4
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        if eq {
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(6));
        } else {
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Le, ri(6));
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Ge, ri(6));
        }
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.solve()
    }

    #[test]
    fn equality_equals_inequality_pair() {
        let a = with_eq_vs_pair(true);
        let b = with_eq_vs_pair(false);
        assert_eq!(a.status, LpStatus::Optimal);
        assert_eq!(a.objective, b.objective);
    }

    /// Random small canonical-form LPs: verify feasibility of the reported
    /// solution and strong duality whenever both sides are optimal.
    fn arb_canonical_lp() -> impl Strategy<Value = LinearProgram> {
        (1usize..4, 1usize..5).prop_flat_map(|(nv, nc)| {
            let coeff = -3i64..4;
            let obj = proptest::collection::vec(0i64..4, nv);
            let rows =
                proptest::collection::vec((proptest::collection::vec(coeff, nv), 0i64..6), nc);
            (obj, rows).prop_map(move |(obj, rows)| {
                let mut lp = LinearProgram::maximize();
                let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
                for (i, &c) in obj.iter().enumerate() {
                    lp.set_objective_coeff(vars[i], ri(c));
                }
                for (coeffs, rhs) in rows {
                    let sparse: Vec<_> = coeffs
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| (vars[i], ri(c)))
                        .collect();
                    lp.add_constraint(sparse, Relation::Le, ri(rhs));
                }
                lp
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn solution_is_feasible_and_duality_holds(lp in arb_canonical_lp()) {
            let s = lp.solve();
            // x = 0 is always feasible here (rhs >= 0), so never infeasible.
            prop_assert!(s.status != LpStatus::Infeasible);
            if s.status == LpStatus::Optimal {
                // check feasibility exactly
                for c in lp.constraints() {
                    let mut lhs = Rational::zero();
                    for (v, co) in &c.coeffs {
                        lhs += &(co * &s.values[v.index()]);
                    }
                    prop_assert!(lhs <= c.rhs);
                }
                for v in &s.values {
                    prop_assert!(!v.is_negative());
                }
                // strong duality
                let d = lp.dual().solve();
                prop_assert_eq!(d.status, LpStatus::Optimal);
                prop_assert_eq!(d.objective, s.objective);
            } else {
                // unbounded primal => infeasible dual
                let d = lp.dual().solve();
                prop_assert_eq!(d.status, LpStatus::Infeasible);
            }
        }
    }
}
