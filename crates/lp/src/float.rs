//! `f64` revised simplex — the hybrid engine's proposal phase.
//!
//! A floating-point port of [`crate::revised`]: same CSC constraint
//! matrix (converted once via [`Rational::to_f64`]), same sparse LU
//! with Markowitz pivoting, same product-form eta updates and refactor
//! interval, same two-phase layout and pivot rules. The differences are
//! exactly the ones float arithmetic forces:
//!
//! - comparisons carry tolerances (a reduced cost must clear
//!   [`REDCOST_TOL`] to enter; a ratio-test pivot must clear
//!   [`PIVOT_TOL`]; values inside [`DROP_TOL`] are treated as zero);
//! - LU pivot selection is *stability-aware*: within the sparsest
//!   active column, only entries within [`STABILITY_RATIO`] of the
//!   column's largest magnitude are eligible;
//! - the run is capped — after [`iteration_cap`] pivots it returns
//!   [`FloatOutcome::GaveUp`] instead of looping.
//!
//! Nothing here is trusted. The only output anyone consumes is the
//! candidate *basis* of a claimed optimum, which [`crate::hybrid`]
//! verifies with exact rational arithmetic; `Infeasible`, `Unbounded`
//! and `GaveUp` are mere hints that route to the exact engine. A wrong
//! answer from this module can cost time, never correctness.

use crate::revised::Revised;
use crate::solver::PivotRule;
use cq_arith::Rational;

/// Values with magnitude at or below this are treated as exact zeros
/// (dropped from LU rows, skipped in FTRAN/BTRAN, read as "not a
/// nonzero" in feasibility checks).
const DROP_TOL: f64 = 1e-11;

/// A reduced cost must exceed this to make a column enter. Loose on
/// purpose: a falsely "optimal" stop is caught by exact verification,
/// while chasing noise-level reduced costs can cycle forever.
const REDCOST_TOL: f64 = 1e-7;

/// Ratio-test rows need a pivot element above this.
const PIVOT_TOL: f64 = 1e-9;

/// LU pivot candidates must be within this factor of the column's
/// largest magnitude (partial threshold pivoting layered on Markowitz).
const STABILITY_RATIO: f64 = 0.05;

/// Eta updates between refactorizations. Floats replay etas cheaply, so
/// the file can run longer than the exact engine's 32 before the
/// rebuild pays for itself.
const REFACTOR_INTERVAL: usize = 96;

/// Consecutive degenerate pivots tolerated under Dantzig pricing before
/// switching to Bland (mirrors the exact engines).
const DEGENERATE_SWITCH: usize = 64;

/// What the float run claims happened. Only `Optimal` carries anything
/// downstream — and even that is just a basis awaiting verification.
pub(crate) enum FloatOutcome {
    /// Claimed optimum: the basis column indices, one per row.
    Optimal { basis: Vec<usize> },
    /// Claimed infeasible (hint only; never reported without an exact run).
    Infeasible,
    /// Claimed unbounded (hint only).
    Unbounded,
    /// Hit the iteration cap, or the float LU went numerically singular.
    GaveUp,
}

enum Step {
    Optimal,
    Unbounded,
    GaveUp,
}

/// One sparse LU elimination step (float mirror of the exact `LuStep`).
struct LuStep {
    prow: usize,
    pcol: usize,
    pivot: f64,
    lower: Vec<(usize, f64)>,
    urow: Vec<(usize, f64)>,
}

struct SparseLu {
    m: usize,
    steps: Vec<LuStep>,
}

impl SparseLu {
    /// Factorizes the `m × m` float matrix with Markowitz ordering and
    /// threshold pivoting; `None` when no acceptably-sized pivot exists
    /// (numerically singular — the caller gives up, it never panics).
    fn factorize(m: usize, cols: impl Fn(usize) -> Vec<(usize, f64)>) -> Option<SparseLu> {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for j in 0..m {
            for (i, v) in cols(j) {
                if v.abs() > DROP_TOL {
                    rows[i].push((j, v));
                }
            }
        }
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
        let mut active: Vec<usize> = (0..m).collect();
        let mut steps = Vec::with_capacity(m);

        for _ in 0..m {
            // Sparsest active column …
            let mut best: Option<(usize, usize)> = None;
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
                return None;
            }
            let pj = active.swap_remove(active_idx);
            // … then the sparsest row whose entry is within
            // STABILITY_RATIO of the column's largest magnitude.
            let mut col_max = 0.0f64;
            for &i in &col_rows[pj] {
                if row_done[i] {
                    continue;
                }
                if let Ok(pos) = rows[i].binary_search_by_key(&pj, |e| e.0) {
                    col_max = col_max.max(rows[i][pos].1.abs());
                }
            }
            if col_max <= DROP_TOL {
                return None;
            }
            let mut best_row: Option<(usize, usize)> = None;
            for &i in &col_rows[pj] {
                if row_done[i] {
                    continue;
                }
                let Ok(pos) = rows[i].binary_search_by_key(&pj, |e| e.0) else {
                    continue;
                };
                if rows[i][pos].1.abs() < STABILITY_RATIO * col_max {
                    continue;
                }
                let rc = row_count[i];
                if best_row.is_none_or(|(bc, bi)| rc < bc || (rc == bc && i < bi)) {
                    best_row = Some((rc, i));
                }
            }
            let (_, pi) = best_row?;

            row_done[pi] = true;
            let prow = std::mem::take(&mut rows[pi]);
            for (c, _) in &prow {
                col_count[*c] -= 1;
            }
            let ppos = prow
                .binary_search_by_key(&pj, |e| e.0)
                .expect("pivot entry present");
            let pivot = prow[ppos].1;
            let urow: Vec<(usize, f64)> = prow
                .iter()
                .filter(|(c, _)| *c != pj)
                .map(|(c, v)| (*c, *v))
                .collect();

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
                let factor = rows[i][pos].1 / pivot;
                let old = std::mem::take(&mut rows[i]);
                let mut merged = Vec::with_capacity(old.len() + urow.len());
                let (mut a, mut b) = (old.into_iter().peekable(), urow.iter().peekable());
                loop {
                    match (a.peek(), b.peek()) {
                        (Some((ca, _)), Some((cb, _))) if ca == cb => {
                            let (c, va) = a.next().expect("peeked");
                            let (_, vb) = b.next().expect("peeked");
                            let nv = va - factor * vb;
                            if nv.abs() <= DROP_TOL {
                                col_count[c] -= 1; // (near-)cancellation
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
                            let nv = -(factor * vb);
                            if nv.abs() > DROP_TOL {
                                col_count[*c] += 1;
                                col_rows[*c].push(i);
                                merged.push((*c, nv));
                            }
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
            steps.push(LuStep {
                prow: pi,
                pcol: pj,
                pivot,
                lower,
                urow,
            });
        }
        Some(SparseLu { m, steps })
    }

    fn ftran(&self, mut v: Vec<f64>) -> Vec<f64> {
        for step in &self.steps {
            if v[step.prow].abs() > DROP_TOL {
                let pv = v[step.prow];
                for (row, factor) in &step.lower {
                    v[*row] -= factor * pv;
                }
            }
        }
        let mut x = vec![0.0f64; self.m];
        for step in self.steps.iter().rev() {
            let mut acc = v[step.prow];
            for (c, val) in &step.urow {
                if x[*c].abs() > DROP_TOL {
                    acc -= val * x[*c];
                }
            }
            if acc.abs() > DROP_TOL {
                x[step.pcol] = acc / step.pivot;
            }
        }
        x
    }

    fn btran(&self, mut c: Vec<f64>) -> Vec<f64> {
        let mut z = vec![0.0f64; self.m];
        for step in &self.steps {
            if c[step.pcol].abs() > DROP_TOL {
                let zv = c[step.pcol] / step.pivot;
                for (col, val) in &step.urow {
                    c[*col] -= val * zv;
                }
                z[step.prow] = zv;
            }
        }
        for step in self.steps.iter().rev() {
            let mut acc = z[step.prow];
            for (i, factor) in &step.lower {
                if z[*i].abs() > DROP_TOL {
                    acc -= factor * z[*i];
                }
            }
            z[step.prow] = acc;
        }
        z
    }
}

/// Product-form eta update (float mirror of the exact `Eta`).
struct Eta {
    r: usize,
    wr: f64,
    w: Vec<(usize, f64)>,
}

impl Eta {
    fn from_dense(r: usize, w: &[f64]) -> Eta {
        Eta {
            r,
            wr: w[r],
            w: w.iter()
                .enumerate()
                .filter(|(i, v)| *i != r && v.abs() > DROP_TOL)
                .map(|(i, v)| (i, *v))
                .collect(),
        }
    }

    fn ftran(&self, v: &mut [f64]) {
        if v[self.r].abs() <= DROP_TOL {
            v[self.r] = 0.0;
            return;
        }
        let zr = v[self.r] / self.wr;
        for (i, w) in &self.w {
            v[*i] -= w * zr;
        }
        v[self.r] = zr;
    }

    fn btran(&self, v: &mut [f64]) {
        let mut acc = v[self.r];
        for (i, w) in &self.w {
            if v[*i].abs() > DROP_TOL {
                acc -= w * v[*i];
            }
        }
        v[self.r] = acc / self.wr;
    }
}

struct Basis {
    lu: SparseLu,
    etas: Vec<Eta>,
}

impl Basis {
    fn ftran(&self, v: Vec<f64>) -> Vec<f64> {
        let mut x = self.lu.ftran(v);
        for eta in &self.etas {
            eta.ftran(&mut x);
        }
        x
    }

    fn btran(&self, mut c: Vec<f64>) -> Vec<f64> {
        for eta in self.etas.iter().rev() {
            eta.btran(&mut c);
        }
        self.lu.btran(c)
    }
}

/// The float engine. Built from an already-canonicalized exact
/// [`Revised`] so both phases of the hybrid see the *same* column
/// layout (structural, slack/surplus, artificial) and basis indices
/// mean the same thing on both sides.
pub(crate) struct FloatSimplex {
    m: usize,
    first_art: usize,
    cols: usize,
    /// CSC columns, converted from the exact matrix.
    a: Vec<Vec<(usize, f64)>>,
    costs2: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    x_b: Vec<f64>,
    factors: Option<Basis>,
    any_artificial: bool,
    pub(crate) pivots: usize,
}

impl FloatSimplex {
    pub(crate) fn new(ex: &Revised<'_>) -> FloatSimplex {
        let a: Vec<Vec<(usize, f64)>> = (0..ex.cols)
            .map(|j| ex.a.col(j).iter().map(|(i, v)| (*i, v.to_f64())).collect())
            .collect();
        let b: Vec<f64> = ex.b_rhs.iter().map(Rational::to_f64).collect();
        let costs2: Vec<f64> = ex.phase2_costs().iter().map(Rational::to_f64).collect();
        let basis = ex.basis.clone();
        let factors = SparseLu::factorize(ex.m, |p| a[basis[p]].clone()).map(|lu| Basis {
            lu,
            etas: Vec::new(),
        });
        FloatSimplex {
            m: ex.m,
            first_art: ex.first_art,
            cols: ex.cols,
            x_b: b,
            a,
            costs2,
            basis,
            in_basis: ex.in_basis.clone(),
            factors,
            any_artificial: ex.any_artificial,
            pivots: 0,
        }
    }

    /// Total pivot budget before the run reports `GaveUp`. Generous —
    /// these LPs finish in `O(m)` pivots in practice — but finite, so a
    /// float-arithmetic cycle cannot hang the solve.
    fn iteration_cap(&self) -> usize {
        1_000 + 20 * (self.m + self.cols)
    }

    fn col_dense(&self, j: usize) -> Vec<f64> {
        let mut v = vec![0.0f64; self.m];
        for (i, val) in &self.a[j] {
            v[*i] = *val;
        }
        v
    }

    fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        self.a[j].iter().map(|(i, v)| v * y[*i]).sum()
    }

    fn refactorize(&mut self) -> bool {
        match SparseLu::factorize(self.m, |p| self.a[self.basis[p]].clone()) {
            Some(lu) => {
                self.factors = Some(Basis {
                    lu,
                    etas: Vec::new(),
                });
                true
            }
            None => false,
        }
    }

    fn pivot(&mut self, r: usize, q: usize, theta: f64, w: &[f64]) -> bool {
        if theta.abs() > 0.0 {
            for (i, wi) in w.iter().enumerate() {
                if i != r && wi.abs() > DROP_TOL {
                    self.x_b[i] -= wi * theta;
                }
            }
        }
        self.x_b[r] = theta;
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.pivots += 1;
        let needs_refactor = {
            let factors = self.factors.as_mut().expect("pivot with live factors");
            factors.etas.push(Eta::from_dense(r, w));
            factors.etas.len() >= REFACTOR_INTERVAL
        };
        if needs_refactor {
            return self.refactorize();
        }
        true
    }

    /// Simplex iterations maximizing `costs·x` over columns `< limit`.
    fn optimize(&mut self, costs: &[f64], limit: usize, rule: PivotRule) -> Step {
        let cap = self.iteration_cap();
        let mut degenerate_streak = 0usize;
        loop {
            if self.pivots >= cap {
                return Step::GaveUp;
            }
            let Some(factors) = self.factors.as_ref() else {
                return Step::GaveUp;
            };
            let c_b: Vec<f64> = self.basis.iter().map(|&j| costs[j]).collect();
            let y = factors.btran(c_b);
            let use_bland = rule == PivotRule::Bland || degenerate_streak >= DEGENERATE_SWITCH;
            let mut entering: Option<(usize, f64)> = None;
            for (j, cost) in costs.iter().enumerate().take(limit) {
                if self.in_basis[j] {
                    continue;
                }
                let d = cost - self.dot_col(j, &y);
                if d > REDCOST_TOL {
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
                return Step::Optimal;
            };
            let w = self
                .factors
                .as_ref()
                .expect("checked above")
                .ftran(self.col_dense(q));
            // Ratio test; ties to the smallest basis column index.
            let mut best: Option<(usize, f64)> = None;
            for (r, wr) in w.iter().enumerate() {
                if *wr <= PIVOT_TOL {
                    continue;
                }
                // Round-off can leave x_b a hair negative; clamp so the
                // ratio stays admissible instead of going negative.
                let ratio = self.x_b[r].max(0.0) / wr;
                let better = match &best {
                    None => true,
                    Some((br, bratio)) => {
                        ratio < *bratio - DROP_TOL
                            || (ratio < *bratio + DROP_TOL && self.basis[r] < self.basis[*br])
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
            let Some((r, theta)) = best else {
                return Step::Unbounded;
            };
            if theta <= DROP_TOL {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            if !self.pivot(r, q, theta, &w) {
                return Step::GaveUp; // refactorization went singular
            }
        }
    }

    /// Exchanges basic artificials (at ~0) for non-artificial columns
    /// where possible, mirroring the exact engine's drive-out. Purely a
    /// success-rate optimization: a basis still holding artificials has
    /// a worse chance of exact verification (their positions must solve
    /// to *exactly* zero), so fewer of them means fewer fallbacks.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.first_art {
                continue;
            }
            let Some(factors) = self.factors.as_ref() else {
                return;
            };
            let mut e = vec![0.0f64; self.m];
            e[r] = 1.0;
            let rho = factors.btran(e);
            let q = (0..self.first_art)
                .find(|&j| !self.in_basis[j] && self.dot_col(j, &rho).abs() > PIVOT_TOL);
            if let Some(q) = q {
                let w = self
                    .factors
                    .as_ref()
                    .expect("checked above")
                    .ftran(self.col_dense(q));
                if !self.pivot(r, q, 0.0, &w) {
                    return;
                }
            }
        }
    }

    /// Runs both phases. The returned basis (on `Optimal`) is the only
    /// artifact the hybrid engine verifies; every other outcome routes
    /// to the exact engine.
    pub(crate) fn run(mut self, rule: PivotRule) -> (FloatOutcome, usize) {
        if self.factors.is_none() {
            return (FloatOutcome::GaveUp, self.pivots);
        }
        if self.any_artificial {
            let art_infeasible = |s: &FloatSimplex| {
                (0..s.m).any(|r| s.basis[r] >= s.first_art && s.x_b[r] > REDCOST_TOL)
            };
            if art_infeasible(&self) {
                let mut phase1 = vec![0.0f64; self.cols];
                for cost in phase1.iter_mut().skip(self.first_art) {
                    *cost = -1.0;
                }
                match self.optimize(&phase1, self.cols, rule) {
                    Step::Optimal => {}
                    // Phase 1 is bounded; a float claim otherwise is noise.
                    Step::Unbounded | Step::GaveUp => return (FloatOutcome::GaveUp, self.pivots),
                }
            }
            if art_infeasible(&self) {
                return (FloatOutcome::Infeasible, self.pivots);
            }
            self.drive_out_artificials();
        }
        let costs = std::mem::take(&mut self.costs2);
        match self.optimize(&costs, self.first_art, rule) {
            Step::Optimal => (
                FloatOutcome::Optimal {
                    basis: std::mem::take(&mut self.basis),
                },
                self.pivots,
            ),
            Step::Unbounded => (FloatOutcome::Unbounded, self.pivots),
            Step::GaveUp => (FloatOutcome::GaveUp, self.pivots),
        }
    }
}
