//! The dense two-phase tableau: the LP differential's independent
//! oracle.
//!
//! Production solves run through the float/exact hybrid (with the
//! exact revised simplex as its fallback and as the `CQ_LP_ENGINE=exact`
//! pin), and both of those share one canonicalization and one
//! factorization core. A differential that compared only them would be
//! hybrid against its own fallback. This tableau shares none of that
//! code: it carries the full `m × (n + slacks + artificials)` matrix
//! over [`Rational`] and updates every row per pivot, so it is slow on
//! anything large but independent of the engines it checks.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution (or prove infeasibility); phase 2 optimizes the
//! user objective. Under [`PivotRule::Bland`] (smallest-index entering
//! and leaving variables) it terminates even on the degenerate
//! tableaus the paper's combinatorial LPs produce routinely.

use cqbounds::arith::Rational;
use cqbounds::lp::{LinearProgram, LpStatus, Objective, PivotRule, Relation};

/// What the oracle reports: status, optimum and one optimal point
/// (`objective` and `values` are meaningful only when `status` is
/// [`LpStatus::Optimal`]).
pub struct OracleSolution {
    pub status: LpStatus,
    pub objective: Rational,
    pub values: Vec<Rational>,
}

struct Tableau {
    /// `rows x cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<Rational>>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Number of columns excluding the RHS.
    cols: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> &Rational {
        &self.a[row][self.cols]
    }

    /// Pivot on (row, col): scale the pivot row so the pivot entry becomes
    /// 1, then eliminate the column from all other rows and from `obj`.
    ///
    /// All updates are in place: the pivot row is moved out (not cloned)
    /// while the other rows borrow it, each elimination steals its column
    /// entry as the factor (the entry's final value is exactly 0, so
    /// nothing is lost), and zero entries of the pivot row are skipped —
    /// on the sparse tableaus the paper's LPs produce, most are zero.
    fn pivot(&mut self, row: usize, col: usize, objectives: &mut [Vec<Rational>]) {
        let inv = self.a[row][col].recip();
        for x in self.a[row].iter_mut() {
            if !x.is_zero() {
                *x *= &inv;
            }
        }
        let pivot_row = std::mem::take(&mut self.a[row]);
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r != row {
                eliminate_col(arow, col, &pivot_row);
            }
        }
        for obj in objectives.iter_mut() {
            eliminate_col(obj, col, &pivot_row);
        }
        self.a[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Runs simplex iterations on `obj` (a maximization reduced-cost row:
    /// entry `j` is the negated reduced cost, so a *negative* entry means
    /// improving). `allowed` masks columns that may enter the basis.
    /// Returns `false` if the problem is unbounded in the improving
    /// direction.
    fn optimize(
        &mut self,
        obj_idx: usize,
        objectives: &mut [Vec<Rational>],
        allowed: &[bool],
        rule: PivotRule,
    ) -> bool {
        let mut degenerate_streak = 0usize;
        loop {
            let use_bland = rule == PivotRule::Bland || degenerate_streak >= 64;
            let entering = if use_bland {
                // Bland: smallest-index improving column.
                (0..self.cols).find(|&j| allowed[j] && objectives[obj_idx][j].is_negative())
            } else {
                // Dantzig: most-negative reduced cost.
                (0..self.cols)
                    .filter(|&j| allowed[j] && objectives[obj_idx][j].is_negative())
                    .min_by(|&a, &b| objectives[obj_idx][a].cmp(&objectives[obj_idx][b]))
            };
            let Some(col) = entering else {
                return true; // optimal
            };
            // Ratio test, smallest index tie-break on basis variable.
            let mut best: Option<(usize, Rational)> = None;
            for r in 0..self.a.len() {
                if !self.a[r][col].is_positive() {
                    continue;
                }
                let ratio = self.rhs(r) / &self.a[r][col];
                match &best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
            let Some((row, ratio)) = best else {
                return false; // unbounded
            };
            if ratio.is_zero() {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(row, col, objectives);
        }
    }
}

/// Subtracts `target[col] · pivot_row` from `target` in place, zeroing
/// `target[col]`. The column entry is *moved* out as the factor rather
/// than cloned: its post-elimination value is `factor − factor·1 = 0`,
/// exactly what `mem::replace` leaves behind.
fn eliminate_col(target: &mut [Rational], col: usize, pivot_row: &[Rational]) {
    let factor = std::mem::replace(&mut target[col], Rational::zero());
    if factor.is_zero() {
        return;
    }
    for (j, p) in pivot_row.iter().enumerate() {
        if j != col && !p.is_zero() {
            target[j] -= &(&factor * p);
        }
    }
}

/// Solves `lp` with the dense tableau and the chosen pivot rule.
pub fn solve_with(lp: &LinearProgram, rule: PivotRule) -> OracleSolution {
    let n = lp.num_vars();
    let m = lp.num_constraints();

    // Canonicalize each row: dense coefficients with nonnegative RHS.
    // Count auxiliary columns first.
    let mut n_slack = 0; // one per Le / Ge row
    for c in lp.constraints() {
        if c.rel != Relation::Eq {
            n_slack += 1;
        }
    }
    let n_art = m; // at most one artificial per row (allocated lazily below)
    let cols = n + n_slack + n_art;

    let mut a = vec![vec![Rational::zero(); cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<Option<usize>> = vec![None; m];
    let mut slack_cursor = n;
    let mut art_cursor = n + n_slack;

    for (i, c) in lp.constraints().iter().enumerate() {
        let mut dense = vec![Rational::zero(); n];
        for (v, coeff) in &c.coeffs {
            dense[v.index()] += coeff;
        }
        let mut rhs = c.rhs.clone();
        let mut rel = c.rel;
        // Flip the row when the RHS is negative so b >= 0.
        if rhs.is_negative() {
            for d in dense.iter_mut() {
                *d = -&*d;
            }
            rhs = -rhs;
            rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        a[i][..n].clone_from_slice(&dense);
        a[i][cols] = rhs;
        match rel {
            Relation::Le => {
                // Slack enters the basis directly.
                a[i][slack_cursor] = Rational::one();
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                // Surplus (-1) plus an artificial basic variable.
                a[i][slack_cursor] = -Rational::one();
                slack_cursor += 1;
                a[i][art_cursor] = Rational::one();
                basis[i] = art_cursor;
                art_cols[i] = Some(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                a[i][art_cursor] = Rational::one();
                basis[i] = art_cursor;
                art_cols[i] = Some(art_cursor);
                art_cursor += 1;
            }
        }
    }
    let first_art = n + n_slack;
    let mut t = Tableau { a, basis, cols };

    // Phase-2 objective row: negated reduced costs for maximization.
    // For minimization we negate the objective and maximize.
    let mut phase2 = vec![Rational::zero(); cols + 1];
    for (j, c) in lp.objective_coeffs().iter().enumerate() {
        phase2[j] = match lp.objective() {
            Objective::Maximize => -c,
            Objective::Minimize => c.clone(),
        };
    }

    // Phase-1 objective: minimize the sum of artificials, expressed as a
    // maximization of their negated sum; start with reduced costs priced
    // out for the artificial basis (subtract each artificial row).
    let mut phase1 = vec![Rational::zero(); cols + 1];
    for (i, art) in art_cols.iter().enumerate() {
        if art.is_some() {
            for (p1, coeff) in phase1.iter_mut().zip(&t.a[i]) {
                *p1 = &*p1 - coeff;
            }
        }
    }
    for ac in art_cols.iter().flatten() {
        // keep the identity column priced at zero
        phase1[*ac] = Rational::zero();
    }

    let any_artificial = art_cols.iter().any(|c| c.is_some());
    let mut objectives = vec![phase1, phase2];

    if any_artificial {
        let allowed: Vec<bool> = (0..cols).map(|_| true).collect();
        let ok = t.optimize(0, &mut objectives, &allowed, rule);
        debug_assert!(ok, "phase 1 cannot be unbounded");
        // Phase-1 optimum is -(sum of artificials); feasible iff zero.
        if objectives[0][cols].is_negative() || objectives[0][cols].is_positive() {
            return OracleSolution {
                status: LpStatus::Infeasible,
                objective: Rational::zero(),
                values: vec![Rational::zero(); n],
            };
        }
        // Drive any artificial variables remaining in the basis at level 0
        // out, or mark their rows as redundant.
        for r in 0..m {
            if t.basis[r] >= first_art {
                // Find a non-artificial column with a nonzero entry.
                if let Some(col) = (0..first_art).find(|&j| !t.a[r][j].is_zero()) {
                    t.pivot(r, col, &mut objectives);
                }
                // Otherwise the row is all-zero over structurals: redundant;
                // the artificial stays basic at value 0, which is harmless
                // as long as it never leaves zero (it cannot: its row RHS
                // is 0 and it never enters the objective).
            }
        }
    }

    // Phase 2: artificial columns may no longer enter.
    let allowed: Vec<bool> = (0..cols).map(|j| j < first_art).collect();
    let ok = t.optimize(1, &mut objectives, &allowed, rule);
    if !ok {
        return OracleSolution {
            status: LpStatus::Unbounded,
            objective: Rational::zero(),
            values: vec![Rational::zero(); n],
        };
    }

    let mut values = vec![Rational::zero(); n];
    for r in 0..m {
        if t.basis[r] < n {
            values[t.basis[r]] = t.rhs(r).clone();
        }
    }
    let raw = objectives[1][cols].clone();
    let objective = match lp.objective() {
        Objective::Maximize => raw,
        Objective::Minimize => -raw,
    };
    OracleSolution {
        status: LpStatus::Optimal,
        objective,
        values,
    }
}
