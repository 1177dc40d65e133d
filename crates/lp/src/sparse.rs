//! Compressed sparse-column matrices over exact rationals.
//!
//! The revised simplex ([`crate::revised`]) never materializes the dense
//! tableau: it keeps the constraint matrix in column-major sparse form
//! and touches only the nonzero entries of whichever column it prices or
//! brings into the basis. The paper's large LPs are exactly this shape —
//! the entropy programs of Propositions 6.9/6.10 have `2^k − 1` columns
//! while each elemental/monotonicity/submodularity row touches only a
//! handful of them — so the sparse representation is what makes the
//! exact arithmetic scale to programs a dense tableau could not hold.

use cq_arith::Rational;

/// A column-major sparse matrix: each column is a row-sorted list of
/// `(row, value)` pairs with every stored `value` nonzero.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: Vec<Vec<(usize, Rational)>>,
}

impl SparseMatrix {
    /// An empty `rows × ncols` matrix.
    pub fn zero(rows: usize, ncols: usize) -> Self {
        SparseMatrix {
            rows,
            cols: vec![Vec::new(); ncols],
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Appends a nonzero entry to column `col`. Entries of a column must
    /// be pushed in strictly increasing row order (the natural order when
    /// the matrix is built constraint by constraint).
    pub fn push(&mut self, col: usize, row: usize, value: Rational) {
        debug_assert!(row < self.rows && !value.is_zero());
        debug_assert!(self.cols[col].last().is_none_or(|(r, _)| *r < row));
        self.cols[col].push((row, value));
    }

    /// The row-sorted nonzero entries of column `j`.
    pub fn col(&self, j: usize) -> &[(usize, Rational)] {
        &self.cols[j]
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// `Σ_i col_j[i] · dense[i]` — the inner product used by pricing
    /// (reduced cost of column `j` against the dual vector).
    pub fn dot_col(&self, j: usize, dense: &[Rational]) -> Rational {
        let mut acc = Rational::zero();
        for (i, v) in &self.cols[j] {
            if !dense[*i].is_zero() {
                acc += &(v * &dense[*i]);
            }
        }
        acc
    }

    /// Scatters column `j` into a fresh dense vector.
    pub fn col_dense(&self, j: usize) -> Vec<Rational> {
        let mut out = vec![Rational::zero(); self.rows];
        for (i, v) in &self.cols[j] {
            out[*i] = v.clone();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ri(n: i64) -> Rational {
        Rational::int(n)
    }

    #[test]
    fn build_and_query() {
        let mut m = SparseMatrix::zero(3, 2);
        m.push(0, 0, ri(1));
        m.push(0, 2, ri(-2));
        m.push(1, 1, ri(5));
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0).len(), 2);
        let dense = vec![ri(3), ri(7), ri(1)];
        assert_eq!(m.dot_col(0, &dense), ri(1)); // 1*3 + (-2)*1
        assert_eq!(m.dot_col(1, &dense), ri(35));
        assert_eq!(m.col_dense(0), vec![ri(1), ri(0), ri(-2)]);
    }
}
