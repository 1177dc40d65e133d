//! Sparse revised simplex with an LU-factorized basis.
//!
//! A dense tableau rewrites the whole `m × (n + slacks + artificials)`
//! matrix on every pivot. This engine implements the *revised* method
//! instead: the constraint matrix `A`
//! stays in its original sparse column form ([`SparseMatrix`]) and each
//! iteration reconstructs only what it needs from a factorization of the
//! current basis `B`:
//!
//! - **BTRAN** solves `Bᵀy = c_B` to get the dual vector, from which the
//!   reduced cost of column `j` is `d_j = c_j − y·A_j` — one sparse dot
//!   product per priced column.
//! - **FTRAN** solves `Bw = A_q` for the entering column, feeding the
//!   ratio test and the basic-solution update.
//!
//! The factorization is a sparse LU computed by Gaussian elimination
//! with Markowitz-style pivot selection (pick the column with fewest
//! active nonzeros, then the row with fewest, which keeps fill-in near
//! zero on the slack-dominated bases these LPs produce). Pivots do not
//! refactorize: each basis change appends an **eta matrix** (the
//! product-form update `B' = B·E`), and once [`REFACTOR_INTERVAL`] etas
//! accumulate the file is folded back into a fresh LU of the current
//! basis. All arithmetic is exact [`Rational`] — the factors are the
//! exact LU, not an approximation, so the engine agrees bit-for-bit on
//! status and objective with the independent dense-tableau oracle of
//! the differential test layer (`tests/lp_differential.rs`).
//!
//! Pricing honors both [`PivotRule`]s: Bland's rule never cycles;
//! Dantzig's rule (the practical default here) falls back to Bland
//! after a degenerate stretch, so termination is guaranteed either way.
//! This engine is the hybrid's exact fallback, the `CQ_LP_ENGINE=exact`
//! pin, and the state the hybrid canonicalizes into.

use crate::problem::{Constraint, LinearProgram, Objective, Relation};
use crate::solver::{constraint_nonzeros, LpSolution, LpStatus, PivotRule, SolveStats, SolverKind};
use crate::sparse::SparseMatrix;
use cq_arith::Rational;

/// Number of eta updates accumulated before the basis is refactorized.
/// Exact rationals make long eta files doubly costly — each FTRAN/BTRAN
/// replays every eta *and* the replayed entries carry ever-larger
/// numerators — so the interval is shorter than a floating-point code
/// would pick.
pub const REFACTOR_INTERVAL: usize = 32;

/// Consecutive degenerate (zero-step) pivots tolerated under Dantzig
/// pricing before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 64;

/// Solves `lp` with the sparse revised simplex. See [`LpStatus`].
pub fn solve_revised(lp: &LinearProgram, rule: PivotRule) -> LpSolution {
    Revised::new(lp).run(rule)
}

/// One step of the sparse LU: pivot position, the recorded eliminations
/// (`L`), and the pivot row's surviving entries (`U`).
struct LuStep {
    /// Pivot row (a constraint index).
    prow: usize,
    /// Pivot column (a basis position).
    pcol: usize,
    pivot: Rational,
    /// `(row, factor)`: during FTRAN's forward pass,
    /// `v[row] -= factor · v[prow]`.
    lower: Vec<(usize, Rational)>,
    /// `(col, value)` of the pivot row over columns pivoted later.
    urow: Vec<(usize, Rational)>,
}

/// Sparse LU factorization of a basis matrix (columns indexed by basis
/// position, rows by constraint index).
pub(crate) struct SparseLu {
    m: usize,
    steps: Vec<LuStep>,
}

impl SparseLu {
    /// Factorizes the `m × m` matrix whose column `p` is `cols(p)`
    /// (row-sorted nonzeros). Panics if the matrix is singular — a
    /// simplex basis never is, so a failure here is a bookkeeping bug.
    fn factorize(m: usize, cols: impl Fn(usize) -> Vec<(usize, Rational)>) -> SparseLu {
        SparseLu::try_factorize(m, cols).expect("singular basis")
    }

    /// Fallible [`SparseLu::factorize`]: `None` if the matrix is
    /// singular. The engine's own bases are never singular, but a
    /// *candidate* basis proposed by the float phase (see
    /// [`crate::hybrid`]) carries no such guarantee — float round-off
    /// can nominate an exactly dependent column set, and that must
    /// read as "verification failed", not a panic.
    pub(crate) fn try_factorize(
        m: usize,
        cols: impl Fn(usize) -> Vec<(usize, Rational)>,
    ) -> Option<SparseLu> {
        // Row-major working form; each row stays sorted by column.
        let mut rows: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); m];
        for j in 0..m {
            for (i, v) in cols(j) {
                rows[i].push((j, v));
            }
        }
        // Column → candidate rows (append-only; stale entries are
        // filtered by membership checks), plus exact nonzero counts.
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        for (i, row) in rows.iter().enumerate() {
            for (j, _) in row {
                col_rows[*j].push(i);
                col_count[*j] += 1;
            }
        }
        let mut row_count: Vec<usize> = rows.iter().map(Vec::len).collect();
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        // Active-column list, order-perturbed by swap_remove (only the
        // tie-break is affected; selection stays deterministic).
        let mut active: Vec<usize> = (0..m).collect();
        let mut steps = Vec::with_capacity(m);

        for _ in 0..m {
            // Markowitz-style selection: sparsest active column …
            let mut best: Option<(usize, usize)> = None; // (count, idx in active)
            for (idx, &j) in active.iter().enumerate() {
                let cc = col_count[j];
                if best.is_none_or(|(bc, _)| cc < bc) {
                    best = Some((cc, idx));
                    if cc <= 1 {
                        break;
                    }
                }
            }
            let (cc, active_idx) = best?;
            if cc == 0 {
                return None; // a column lost all its nonzeros: singular
            }
            let pj = active.swap_remove(active_idx);
            // … then its entry in the sparsest active row.
            let mut best_row: Option<(usize, usize)> = None; // (count, row)
            for &i in &col_rows[pj] {
                if row_done[i] || rows[i].binary_search_by_key(&pj, |e| e.0).is_err() {
                    continue;
                }
                let rc = row_count[i];
                if best_row.is_none_or(|(bc, bi)| rc < bc || (rc == bc && i < bi)) {
                    best_row = Some((rc, i));
                }
            }
            let (_, pi) = best_row?;

            row_done[pi] = true;
            col_done[pj] = true;
            let prow = std::mem::take(&mut rows[pi]);
            for (c, _) in &prow {
                col_count[*c] -= 1;
            }
            let ppos = prow
                .binary_search_by_key(&pj, |e| e.0)
                .expect("pivot entry present");
            let pivot = prow[ppos].1.clone();
            let urow: Vec<(usize, Rational)> = prow
                .iter()
                .filter(|(c, _)| *c != pj)
                .map(|(c, v)| (*c, v.clone()))
                .collect();

            // Eliminate the pivot column from every other active row.
            let mut targets: Vec<usize> = col_rows[pj]
                .iter()
                .copied()
                .filter(|&i| !row_done[i] && rows[i].binary_search_by_key(&pj, |e| e.0).is_ok())
                .collect();
            targets.sort_unstable();
            targets.dedup();
            let mut lower = Vec::with_capacity(targets.len());
            for i in targets {
                let pos = rows[i]
                    .binary_search_by_key(&pj, |e| e.0)
                    .expect("target contains pivot column");
                let factor = &rows[i][pos].1 / &pivot;
                // Merge: rows[i] − factor·prow, dropping the pj entry.
                let old = std::mem::take(&mut rows[i]);
                let mut merged = Vec::with_capacity(old.len() + urow.len());
                let (mut a, mut b) = (old.into_iter().peekable(), urow.iter().peekable());
                loop {
                    match (a.peek(), b.peek()) {
                        (Some((ca, _)), Some((cb, _))) if ca == cb => {
                            let (c, va) = a.next().expect("peeked");
                            let (_, vb) = b.next().expect("peeked");
                            let nv = &va - &(&factor * vb);
                            if nv.is_zero() {
                                col_count[c] -= 1; // exact cancellation
                            } else {
                                merged.push((c, nv));
                            }
                        }
                        (Some((ca, _)), Some((cb, _))) if ca < cb => {
                            let e = a.next().expect("peeked");
                            if e.0 == pj {
                                col_count[pj] -= 1;
                            } else {
                                merged.push(e);
                            }
                        }
                        (Some(_), Some(_)) | (None, Some(_)) => {
                            let (c, vb) = b.next().expect("peeked");
                            // Fill-in: a fresh nonzero in this row.
                            col_count[*c] += 1;
                            col_rows[*c].push(i);
                            merged.push((*c, -&(&factor * vb)));
                        }
                        (Some(_), None) => {
                            let e = a.next().expect("peeked");
                            if e.0 == pj {
                                col_count[pj] -= 1;
                            } else {
                                merged.push(e);
                            }
                        }
                        (None, None) => break,
                    }
                }
                row_count[i] = merged.len();
                rows[i] = merged;
                lower.push((i, factor));
            }
            debug_assert_eq!(col_count[pj], 0);
            steps.push(LuStep {
                prow: pi,
                pcol: pj,
                pivot,
                lower,
                urow,
            });
        }
        debug_assert!(col_done.iter().all(|&d| d) && row_done.iter().all(|&d| d));
        Some(SparseLu { m, steps })
    }

    /// Solves `B x = v`: `v` is indexed by constraint rows, the result by
    /// basis positions.
    pub(crate) fn ftran(&self, mut v: Vec<Rational>) -> Vec<Rational> {
        for step in &self.steps {
            if !v[step.prow].is_zero() {
                let pv = v[step.prow].clone();
                for (row, factor) in &step.lower {
                    v[*row] -= &(factor * &pv);
                }
            }
        }
        let mut x = vec![Rational::zero(); self.m];
        for step in self.steps.iter().rev() {
            let mut acc = std::mem::take(&mut v[step.prow]);
            for (c, val) in &step.urow {
                if !x[*c].is_zero() {
                    acc -= &(val * &x[*c]);
                }
            }
            if !acc.is_zero() {
                x[step.pcol] = &acc / &step.pivot;
            }
        }
        x
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by basis positions, the result
    /// by constraint rows.
    pub(crate) fn btran(&self, mut c: Vec<Rational>) -> Vec<Rational> {
        let mut z = vec![Rational::zero(); self.m];
        for step in &self.steps {
            if !c[step.pcol].is_zero() {
                let zv = &c[step.pcol] / &step.pivot;
                for (col, val) in &step.urow {
                    c[*col] -= &(val * &zv);
                }
                z[step.prow] = zv;
            }
        }
        for step in self.steps.iter().rev() {
            let mut acc = std::mem::take(&mut z[step.prow]);
            for (i, factor) in &step.lower {
                if !z[*i].is_zero() {
                    acc -= &(factor * &z[*i]);
                }
            }
            z[step.prow] = acc;
        }
        z
    }
}

/// Product-form update `B' = B·E`: `E` is the identity with basis
/// position `r`'s column replaced by the FTRANed entering column `w`.
struct Eta {
    r: usize,
    /// `w_r` (always nonzero: the pivot element).
    wr: Rational,
    /// Off-diagonal nonzeros `(i, w_i)`, `i ≠ r`.
    w: Vec<(usize, Rational)>,
}

impl Eta {
    fn from_dense(r: usize, w: &[Rational]) -> Eta {
        Eta {
            r,
            wr: w[r].clone(),
            w: w.iter()
                .enumerate()
                .filter(|(i, v)| *i != r && !v.is_zero())
                .map(|(i, v)| (i, v.clone()))
                .collect(),
        }
    }

    /// Solves `E z = v` in place.
    fn ftran(&self, v: &mut [Rational]) {
        if v[self.r].is_zero() {
            return;
        }
        let zr = &v[self.r] / &self.wr;
        for (i, w) in &self.w {
            v[*i] -= &(w * &zr);
        }
        v[self.r] = zr;
    }

    /// Solves `Eᵀ z = v` in place.
    fn btran(&self, v: &mut [Rational]) {
        let mut acc = std::mem::take(&mut v[self.r]);
        for (i, w) in &self.w {
            if !v[*i].is_zero() {
                acc -= &(w * &v[*i]);
            }
        }
        v[self.r] = &acc / &self.wr;
    }
}

/// The factorized basis: `B = B₀ · E₁ ⋯ E_k` with `B₀` held as LU.
struct Basis {
    lu: SparseLu,
    etas: Vec<Eta>,
}

impl Basis {
    fn ftran(&self, v: Vec<Rational>) -> Vec<Rational> {
        let mut x = self.lu.ftran(v);
        for eta in &self.etas {
            eta.ftran(&mut x);
        }
        x
    }

    fn btran(&self, mut c: Vec<Rational>) -> Vec<Rational> {
        for eta in self.etas.iter().rev() {
            eta.btran(&mut c);
        }
        self.lu.btran(c)
    }
}

/// The exact revised-simplex state. `pub(crate)` so the hybrid engine
/// ([`crate::hybrid`]) can build the canonicalized sparse form once,
/// hand it to the float phase ([`crate::float`]), verify the candidate
/// basis exactly against it, and only on failure consume it via
/// [`Revised::run`] — all without re-canonicalizing the program.
pub(crate) struct Revised<'a> {
    pub(crate) lp: &'a LinearProgram,
    pub(crate) m: usize,
    pub(crate) n: usize,
    /// Columns `< first_art` are structural + slack; the rest artificial.
    pub(crate) first_art: usize,
    pub(crate) cols: usize,
    pub(crate) a: SparseMatrix,
    pub(crate) b_rhs: Vec<Rational>,
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    x_b: Vec<Rational>,
    basis_factors: Basis,
    pub(crate) any_artificial: bool,
    pub(crate) stats: SolveStats,
}

/// Canonical orientation of one constraint row: `(negate, rel, rhs)`
/// with `rhs >= 0`, and — key to phase-1 avoidance — zero-RHS `>=`
/// rows rewritten to `<=` (`a·x >= 0` ⇔ `-a·x <= 0`, feasible with a
/// basic slack at level 0, no artificial). The paper's entropy LPs are
/// almost entirely such rows (every information inequality has RHS 0),
/// so this skips most — often all — of phase 1. After canonicalization
/// a `Le` row takes a slack, a `Ge` row a surplus plus an artificial,
/// an `Eq` row an artificial; both the column-count pass and the
/// matrix-construction pass below consume this one function, so they
/// cannot drift apart on a row's slack/artificial needs.
fn canonical_row(c: &Constraint) -> (bool, Relation, Rational) {
    let mut rhs = c.rhs.clone();
    let mut rel = c.rel;
    let mut negate = rhs.is_negative();
    if negate {
        rhs = -rhs;
        rel = match rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        };
    }
    if rel == Relation::Ge && rhs.is_zero() {
        negate = !negate;
        rel = Relation::Le;
    }
    (negate, rel, rhs)
}

impl<'a> Revised<'a> {
    pub(crate) fn new(lp: &'a LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let canonical: Vec<(bool, Relation, Rational)> =
            lp.constraints().iter().map(canonical_row).collect();
        let n_slack = canonical
            .iter()
            .filter(|(_, r, _)| *r != Relation::Eq)
            .count();
        let n_art = canonical
            .iter()
            .filter(|(_, r, _)| *r != Relation::Le)
            .count();
        let first_art = n + n_slack;
        let cols = first_art + n_art;

        let mut a = SparseMatrix::zero(m, cols);
        let mut b_rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_cursor = n;
        let mut art_cursor = first_art;
        let mut dense = vec![Rational::zero(); n];
        for (i, c) in lp.constraints().iter().enumerate() {
            for d in dense.iter_mut() {
                *d = Rational::zero();
            }
            for (v, coeff) in &c.coeffs {
                dense[v.index()] += coeff;
            }
            let (negate, rel, rhs) = canonical[i].clone();
            for (j, d) in dense.iter().enumerate() {
                if !d.is_zero() {
                    a.push(j, i, if negate { -d } else { d.clone() });
                }
            }
            match rel {
                Relation::Le => {
                    a.push(slack_cursor, i, Rational::one());
                    basis.push(slack_cursor);
                    slack_cursor += 1;
                }
                Relation::Ge => {
                    a.push(slack_cursor, i, -Rational::one());
                    slack_cursor += 1;
                    a.push(art_cursor, i, Rational::one());
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
                Relation::Eq => {
                    a.push(art_cursor, i, Rational::one());
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
            }
            b_rhs.push(rhs);
        }
        let mut in_basis = vec![false; cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        // The initial basis is all unit columns (slacks/artificials), so
        // the first factorization is trivially sparse.
        let lu = SparseLu::factorize(m, |p| a.col(basis[p]).to_vec());
        let stats = SolveStats {
            solver: SolverKind::RevisedSparse,
            nonzeros: constraint_nonzeros(lp),
            rows: m,
            cols: n,
            ..SolveStats::default()
        };
        Revised {
            lp,
            m,
            n,
            first_art,
            cols,
            a,
            x_b: b_rhs.clone(),
            b_rhs,
            basis,
            in_basis,
            basis_factors: Basis {
                lu,
                etas: Vec::new(),
            },
            any_artificial: art_cursor > first_art,
            stats,
        }
    }

    fn refactorize(&mut self) {
        self.basis_factors = Basis {
            lu: SparseLu::factorize(self.m, |p| self.a.col(self.basis[p]).to_vec()),
            etas: Vec::new(),
        };
        self.stats.refactorizations += 1;
    }

    /// Installs `q` at basis position `r` with step length `theta`,
    /// given the FTRANed entering column `w`.
    fn pivot(&mut self, r: usize, q: usize, theta: &Rational, w: &[Rational]) {
        if !theta.is_zero() {
            for (i, wi) in w.iter().enumerate() {
                if i != r && !wi.is_zero() {
                    self.x_b[i] -= &(wi * theta);
                }
            }
        }
        self.x_b[r] = theta.clone();
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.basis_factors.etas.push(Eta::from_dense(r, w));
        self.stats.pivots += 1;
        if self.basis_factors.etas.len() >= REFACTOR_INTERVAL {
            self.refactorize();
        }
    }

    /// Simplex iterations maximizing `costs·x` over columns `< limit`.
    /// Returns `false` when unbounded in the improving direction.
    fn optimize(&mut self, costs: &[Rational], limit: usize, rule: PivotRule) -> bool {
        let mut degenerate_streak = 0usize;
        loop {
            let c_b: Vec<Rational> = self.basis.iter().map(|&j| costs[j].clone()).collect();
            let y = self.basis_factors.btran(c_b);
            let use_bland = rule == PivotRule::Bland || degenerate_streak >= DEGENERATE_SWITCH;
            let mut entering: Option<(usize, Rational)> = None;
            for (j, cost) in costs.iter().enumerate().take(limit) {
                if self.in_basis[j] {
                    continue;
                }
                let d = cost - &self.a.dot_col(j, &y);
                if d.is_positive() {
                    if use_bland {
                        entering = Some((j, d));
                        break;
                    }
                    if entering.as_ref().is_none_or(|(_, bd)| d > *bd) {
                        entering = Some((j, d));
                    }
                }
            }
            let Some((q, _)) = entering else {
                return true; // optimal for this phase
            };
            let w = self.basis_factors.ftran(self.a.col_dense(q));
            // Ratio test; ties go to the smallest basis column index
            // (Bland-compatible).
            let mut best: Option<(usize, Rational)> = None;
            for (r, wr) in w.iter().enumerate() {
                if !wr.is_positive() {
                    continue;
                }
                let ratio = &self.x_b[r] / wr;
                let better = match &best {
                    None => true,
                    Some((br, bratio)) => {
                        ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
            let Some((r, theta)) = best else {
                return false; // unbounded
            };
            if theta.is_zero() {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(r, q, &theta, &w);
        }
    }

    /// After a feasible phase 1, exchanges every basic artificial (at
    /// value 0) for a non-artificial column when one is available; rows
    /// with no such column are redundant and keep their artificial
    /// pinned at 0 (it can never leave: its tableau row is zero over all
    /// enterable columns).
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.first_art {
                continue;
            }
            let mut e = vec![Rational::zero(); self.m];
            e[r] = Rational::one();
            let rho = self.basis_factors.btran(e);
            let q = (0..self.first_art)
                .find(|&j| !self.in_basis[j] && !self.a.dot_col(j, &rho).is_zero());
            if let Some(q) = q {
                let w = self.basis_factors.ftran(self.a.col_dense(q));
                debug_assert!(!w[r].is_zero() && self.x_b[r].is_zero());
                self.pivot(r, q, &Rational::zero(), &w);
            }
        }
    }

    /// Phase-2 costs in maximization sense, zero on slacks/artificials.
    /// Shared with the hybrid engine's verification and float phase so
    /// all three price against the identical vector.
    pub(crate) fn phase2_costs(&self) -> Vec<Rational> {
        let mut phase2 = vec![Rational::zero(); self.cols];
        for (j, c) in self.lp.objective_coeffs().iter().enumerate() {
            phase2[j] = match self.lp.objective() {
                Objective::Maximize => c.clone(),
                Objective::Minimize => -c,
            };
        }
        phase2
    }

    pub(crate) fn run(mut self, rule: PivotRule) -> LpSolution {
        let phase2 = self.phase2_costs();

        if self.any_artificial {
            // Phase 1 only has work to do when some artificial starts
            // positive; an all-zero artificial start (e.g. equalities
            // with RHS 0 — the entropy LPs' FD rows) is already at the
            // phase-1 optimum and goes straight to drive-out.
            let needs_phase1 =
                (0..self.m).any(|r| self.basis[r] >= self.first_art && !self.x_b[r].is_zero());
            if needs_phase1 {
                let mut phase1 = vec![Rational::zero(); self.cols];
                for cost in phase1.iter_mut().skip(self.first_art) {
                    *cost = -Rational::one();
                }
                let ok = self.optimize(&phase1, self.cols, rule);
                debug_assert!(ok, "phase 1 cannot be unbounded");
            }
            let infeasible =
                (0..self.m).any(|r| self.basis[r] >= self.first_art && !self.x_b[r].is_zero());
            if infeasible {
                return LpSolution {
                    status: LpStatus::Infeasible,
                    objective: Rational::zero(),
                    values: vec![Rational::zero(); self.n],
                    stats: self.stats,
                };
            }
            self.drive_out_artificials();
        }

        if !self.optimize(&phase2, self.first_art, rule) {
            return LpSolution {
                status: LpStatus::Unbounded,
                objective: Rational::zero(),
                values: vec![Rational::zero(); self.n],
                stats: self.stats,
            };
        }

        let mut values = vec![Rational::zero(); self.n];
        let mut raw = Rational::zero();
        for r in 0..self.m {
            if !self.x_b[r].is_zero() {
                raw += &(&phase2[self.basis[r]] * &self.x_b[r]);
                if self.basis[r] < self.n {
                    values[self.basis[r]] = self.x_b[r].clone();
                }
            }
        }
        let objective = match self.lp.objective() {
            Objective::Maximize => raw,
            Objective::Minimize => -raw,
        };
        // b_rhs kept only for debug invariants on the feasible solution.
        debug_assert_eq!(self.b_rhs.len(), self.m);
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    fn ri(p: i64) -> Rational {
        Rational::int(p)
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min 2x + 3y st x + y >= 4; x >= 1 -> 8 at (4, 0)
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(2));
        lp.set_objective_coeff(y, ri(3));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Ge, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(1));
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(8));

        // max x + y st x + 2y = 4; x <= 2 -> 3 at (2, 1)
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(2));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.objective, ri(3));
        assert_eq!(s.value(y), &ri(1));
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(2));
        assert_eq!(
            solve_revised(&lp, PivotRule::Bland).status,
            LpStatus::Infeasible
        );

        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(1));
        assert_eq!(
            solve_revised(&lp, PivotRule::DantzigThenBland).status,
            LpStatus::Unbounded
        );
    }

    #[test]
    fn negative_rhs_canonicalized() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(-1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(3));
        lp.add_constraint(vec![(y, ri(1))], Relation::Le, ri(4));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
    }

    #[test]
    fn fractional_optimum_is_exact() {
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
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.objective, r(3, 2));
    }

    #[test]
    fn beale_terminates_under_both_rules() {
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
        for rule in [PivotRule::Bland, PivotRule::DantzigThenBland] {
            let s = solve_revised(&lp, rule);
            assert_eq!(s.status, LpStatus::Optimal, "{rule:?}");
            assert_eq!(s.objective, r(-1, 20), "{rule:?}");
        }
    }

    #[test]
    fn redundant_equalities_leave_artificial_pinned() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(2));
    }

    #[test]
    fn degenerate_edge_cases() {
        // zero-variable program
        let lp = LinearProgram::maximize();
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(0));
        // duplicate coefficients are summed
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, r(1, 2)), (x, r(1, 2))], Relation::Le, ri(3));
        assert_eq!(solve_revised(&lp, PivotRule::Bland).objective, ri(3));
        // coefficients that cancel to zero leave the row empty
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (x, ri(-1))], Relation::Le, ri(0));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(5));
        assert_eq!(solve_revised(&lp, PivotRule::Bland).objective, ri(5));
    }

    #[test]
    fn refactorization_triggers_and_stays_exact() {
        // 3·REFACTOR_INTERVAL independent variables, one pivot each.
        let mut lp = LinearProgram::maximize();
        let nv = 3 * REFACTOR_INTERVAL;
        let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coeff(v, ri(1));
            lp.add_constraint(vec![(v, ri(1))], Relation::Le, ri(i as i64 % 7 + 1));
        }
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        let expected: i64 = (0..nv as i64).map(|i| i % 7 + 1).sum();
        assert_eq!(s.objective, ri(expected));
        assert!(s.stats.pivots >= nv);
        assert!(
            s.stats.refactorizations >= 2,
            "expected refactorizations, got {:?}",
            s.stats
        );
    }
}
