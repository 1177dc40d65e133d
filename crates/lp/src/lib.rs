//! Exact linear programming over rationals for `cqbounds`.
//!
//! Every quantitative bound in the paper is the optimum of a linear program:
//! the color number (Proposition 3.6), the fractional edge cover number
//! (Definition 3.5), the entropy upper bound (Proposition 6.9), and the
//! entropy characterization of the color number (Proposition 6.10). All are
//! solved here over [`cq_arith::Rational`], so optima like `3/2` are exact
//! values, not floating-point approximations.
//!
//! Variables are nonnegative (all of the paper's LPs are over nonnegative
//! quantities: color weights, cover weights, entropies). Constraints may be
//! `<=`, `>=`, or `=`; both maximization and minimization are supported.
//!
//! [`LinearProgram::solve`] is the one solve path. It runs the
//! **float/exact hybrid** ([`hybrid`]): an `f64` run of the revised
//! simplex proposes the optimal basis, one exact rational factorization
//! certifies it, and when the certificate fails the **exact sparse
//! revised simplex** ([`revised`]) solves the program from scratch. That
//! engine keeps an LU-factorized basis with eta updates and periodic
//! refactorization over a CSC constraint matrix ([`sparse`]), and guards
//! Dantzig pricing with Bland's rule so degenerate programs cannot
//! cycle. `CQ_LP_ENGINE=exact` pins the exact engine for every solve.
//! Either way the status and optimal objective are exact, and each
//! solution carries [`SolveStats`] saying which engine ran and how hard
//! it worked. The full contract is documented in `docs/SOLVER.md`.

pub(crate) mod float;
pub mod hybrid;
pub mod problem;
pub mod revised;
pub mod solver;
pub mod sparse;

pub use hybrid::solve_hybrid;
pub use problem::{Constraint, LinearProgram, Objective, Relation, VarId};
pub use revised::solve_revised;
pub use solver::{LpSolution, LpStatus, PivotRule, SolveStats, SolverKind};
pub use sparse::SparseMatrix;
