//! Non-negative least squares for the units→nanoseconds calibration.
//!
//! The model has five columns (match, resolve, act and external work
//! units plus a per-task constant), so the exact solution is found by
//! brute force: the NNLS optimum is the unconstrained least-squares
//! solution on *some* subset of the columns with every other coefficient
//! zero, and there are only 31 non-empty subsets to try.

/// Columns of the calibration model.
pub const COLS: usize = 5;

/// A fitted model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fit {
    /// One non-negative coefficient per column.
    pub coef: [f64; COLS],
    /// `100 × Σ|measured − predicted| / Σ measured`.
    pub residual_pct: f64,
}

/// Solves `a·x = b` for the `n` leading rows/columns by Gaussian
/// elimination with partial pivoting; `None` when singular.
fn solve(mut a: [[f64; COLS]; COLS], mut b: [f64; COLS], n: usize) -> Option<[f64; COLS]> {
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_row, pivot_b) = (a[col], b[col]);
        for row in col + 1..n {
            let f = a[row][col] / pivot_row[col];
            for (x, p) in a[row].iter_mut().zip(pivot_row) {
                *x -= f * p;
            }
            b[row] -= f * pivot_b;
        }
    }
    let mut x = [0.0; COLS];
    for row in (0..n).rev() {
        let tail: f64 = (row + 1..n).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    Some(x)
}

/// Fits `y ≈ rows · coef` with every coefficient ≥ 0. `None` without rows.
pub fn fit(rows: &[[f64; COLS]], y: &[f64]) -> Option<Fit> {
    assert_eq!(rows.len(), y.len());
    if rows.is_empty() {
        return None;
    }
    // Columns differ by orders of magnitude (thousands of match units
    // beside a constant 1); scale each to unit maximum before forming the
    // normal equations.
    let mut scale = [1.0f64; COLS];
    for r in rows {
        for (s, v) in scale.iter_mut().zip(r) {
            *s = s.max(v.abs());
        }
    }
    let mut ata = [[0.0; COLS]; COLS];
    let mut aty = [0.0; COLS];
    for (r, &yi) in rows.iter().zip(y) {
        for i in 0..COLS {
            aty[i] += r[i] / scale[i] * yi;
            for j in 0..COLS {
                ata[i][j] += r[i] / scale[i] * r[j] / scale[j];
            }
        }
    }
    let sse = |coef: &[f64; COLS]| -> f64 {
        rows.iter()
            .zip(y)
            .map(|(r, &yi)| {
                let pred: f64 = (0..COLS).map(|i| coef[i] * r[i] / scale[i]).sum();
                (yi - pred) * (yi - pred)
            })
            .sum()
    };

    let mut best: Option<([f64; COLS], f64)> = None;
    for mask in 1u32..(1 << COLS) {
        let cols: Vec<usize> = (0..COLS).filter(|c| mask & (1 << c) != 0).collect();
        let mut a = [[0.0; COLS]; COLS];
        let mut b = [0.0; COLS];
        for (i, &ci) in cols.iter().enumerate() {
            b[i] = aty[ci];
            for (j, &cj) in cols.iter().enumerate() {
                a[i][j] = ata[ci][cj];
            }
        }
        let Some(x) = solve(a, b, cols.len()) else {
            continue;
        };
        if x[..cols.len()].iter().any(|v| *v < 0.0) {
            continue;
        }
        let mut coef = [0.0; COLS];
        for (i, &ci) in cols.iter().enumerate() {
            coef[ci] = x[i];
        }
        let e = sse(&coef);
        if best.as_ref().is_none_or(|(_, be)| e < *be) {
            best = Some((coef, e));
        }
    }
    // All-zero is always feasible; a subset beats it unless y is ≤ 0.
    let (scaled, _) = best.unwrap_or(([0.0; COLS], 0.0));
    let mut coef = [0.0; COLS];
    for i in 0..COLS {
        coef[i] = scaled[i] / scale[i];
    }
    let abs_err: f64 = rows
        .iter()
        .zip(y)
        .map(|(r, &yi)| (yi - (0..COLS).map(|i| coef[i] * r[i]).sum::<f64>()).abs())
        .sum();
    let total: f64 = y.iter().sum();
    Some(Fit {
        coef,
        residual_pct: if total > 0.0 {
            100.0 * abs_err / total
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random rows shaped like LCC tasks.
    fn synthetic(n: usize) -> Vec<[f64; COLS]> {
        let mut x: u64 = 88_172_645_463_325_252;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64
        };
        (0..n)
            .map(|_| [next() * 3.0, next(), next() * 0.5, next() * 2.0, 1.0])
            .collect()
    }

    #[test]
    fn recovers_known_positive_coefficients() {
        let truth = [1.5, 0.25, 4.0, 0.75, 12_000.0];
        let rows = synthetic(300);
        let y: Vec<f64> = rows
            .iter()
            .map(|r| (0..COLS).map(|i| truth[i] * r[i]).sum())
            .collect();
        let f = fit(&rows, &y).unwrap();
        for (got, want) in f.coef.iter().zip(truth) {
            assert!(
                (got - want).abs() <= 1e-6 * want.max(1.0),
                "{got} vs {want}"
            );
        }
        assert!(f.residual_pct < 1e-6, "{}", f.residual_pct);
    }

    #[test]
    fn clamps_a_column_whose_free_coefficient_would_be_negative() {
        // y falls as column 1 grows: the unconstrained fit wants a
        // negative coefficient there, NNLS must pin it to zero.
        let rows = synthetic(200);
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 2.0 * r[0] - 0.5 * r[1] + 50_000.0)
            .collect();
        let f = fit(&rows, &y).unwrap();
        assert_eq!(f.coef[1], 0.0);
        assert!(f.coef.iter().all(|c| *c >= 0.0));
        assert!((f.coef[0] - 2.0).abs() < 0.2, "{:?}", f.coef);
        assert!(f.residual_pct > 0.0);
    }

    #[test]
    fn constant_only_data_lands_on_the_constant_column() {
        let rows = vec![[0.0, 0.0, 0.0, 0.0, 1.0]; 10];
        let y = vec![700.0; 10];
        let f = fit(&rows, &y).unwrap();
        assert_eq!(f.coef[..4], [0.0; 4]);
        assert!((f.coef[4] - 700.0).abs() < 1e-9);
        assert!(fit(&[], &[]).is_none());
    }
}
