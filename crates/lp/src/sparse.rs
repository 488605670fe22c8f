//! Sparse revised simplex with basis factorization and warm starts.
//!
//! The production solver of this crate.  Instead of carrying a dense
//! tableau (O(rows × cols) memory and per-pivot work, as the oracle in
//! [`crate::simplex`] does), this solver keeps the constraint matrix in
//! compressed-sparse-column form and represents the basis inverse as an LU
//! factorization plus a bounded *eta file* of rank-one pivot updates:
//!
//! * the **LU factorization** eliminates the basis columns in ascending
//!   nonzero count (unit slack and artificial columns first, dense columns
//!   such as the path-rate LP's θ last) with partial pivoting, and each
//!   column is eliminated over its nonzeros only; a basis the candidates
//!   cannot fill is completed with the unit columns a candidate-order
//!   elimination would choose (see `Elimination::factorize`), so the
//!   ordering never changes which unit columns complete a basis;
//! * that choice is made by `choose_basis`, an elimination that keeps
//!   only what the choice reads: which rows are pivoted, and L.  Unit
//!   columns on unpivoted rows cost no arithmetic, rows pivoted without an
//!   L column drop out, and the live rows are kept ordered so that each L
//!   column is one dense suffix, applied as a branch-free axpy.  It picks
//!   the same columns in the same order as the full elimination, at a
//!   quarter to a third of its cost;
//! * **FTRAN** (`B z = a`) and **BTRAN** (`Bᵀ y = c_B`) solve against the
//!   LU factors and replay the eta file (forward after the factors for
//!   FTRAN, in reverse before them for BTRAN), so a pivot costs O(nnz)
//!   instead of O(rows × cols);
//! * the eta file is one dense block, one `m`-wide row per pivot.  On the
//!   tall Step-1 programs (hundreds of rows, about a hundred columns)
//!   every FTRAN image is over 90% dense, so FTRAN's replay is a
//!   contiguous axpy per eta.  BTRAN's right-hand side `c_B` is zero on
//!   every basic slack, so its replay dots each eta row over the
//!   positions where `c` is nonzero only, and its Uᵀ solve scatters down
//!   U's rows from the nonzero entries only (U is kept by columns for
//!   FTRAN and by rows for BTRAN);
//! * the eta file is folded back into a fresh LU factorization every
//!   [`ETA_LIMIT`] pivots (and the basic solution recomputed from the
//!   right-hand side), bounding both drift and per-solve memory;
//! * FTRAN, BTRAN and the repair passes allocate nothing: the work
//!   vectors, the eta block and the factorization workspace live as long
//!   as the solve.  A factorization allocates only its factors, a few
//!   flat arrays, and frees the old ones first;
//! * pricing is Dantzig over nonzeros only, scaled by a static
//!   steepest-edge-lite column norm `γ_j = √(1 + ‖a_j‖²)`, with a
//!   stall-triggered Bland fallback against cycling, like the dense
//!   oracle.
//!
//! **Warm starts.**  Every [`SparseSolution`] exposes its final basis as a
//! [`WarmStart`]: a list of [`BasisVar`]s naming each basic column either
//! as a structural variable ([`BasisVar::Structural`]) or as the unit
//! column of a row ([`BasisVar::Row`]).  A follow-up solve of a
//! *structurally similar* program (same columns with a new right-hand side
//! or objective; or a program with a few columns/rows dropped, as in
//! `FaultSet` superset chains) can pass the handle to
//! [`LinearProgram::solve_sparse_warm`]: the basis is re-factorized
//! against the new matrix, unpivoted rows are repaired with their own
//! slack or artificial column, then the start is nursed back to the
//! optimum in two stages tuned to stay near the carried basis —
//!
//! 1. *objective-aware repair*: infeasibility left by the program change
//!    (carried basics whose B⁻¹b went negative) is driven out by a
//!    composite phase 1 from that basis — a longest-step ratio test over
//!    the total-infeasibility objective, with the entering column chosen
//!    by *real* reduced cost among the competitively-gaining candidates
//!    ([`REPAIR_WINDOW`]), so the repair lands on a near-optimal feasible
//!    vertex instead of a merely feasible one; a dual-style repair and
//!    finally a cold start are the fallbacks;
//! 2. *steered phase 2*: pricing prefers re-admitting carried-basis
//!    columns over fresh ones whenever they are competitively improving
//!    ([`PREF_FACTOR`]), so the walk reconstructs the old neighborhood
//!    instead of wandering.
//!
//! If the basis is singular, or the repair stalls, the solver silently
//! falls back to a cold start, so warm starting never changes feasibility
//! or optimality, only the pivot count.  Callers remapping a basis across
//! programs with different variable/row numbering use
//! [`WarmStart::remap`].
//!
//! **Determinism.**  For a fixed program and a fixed (possibly empty) warm
//! start, the solve is bit-reproducible.  The returned solution is always
//! produced by a *canonical refactorization*: the optimal basis's support
//! is offered to the factorization in ascending column order, and the
//! primal values, duals and objective are recomputed from that fresh
//! factorization, whose elimination order is a function of the support
//! alone.  Two solves that reach the same optimal basis therefore return
//! bit-identical objectives even when their pivot paths differ — the
//! property the warm-vs-cold equivalence tests pin.
//!
//! **Fill.**  [`SparseSolution::basis_nonzeros`] and
//! [`SparseSolution::lu_nonzeros`] count the basis and factor nonzeros
//! over every factorization of a solve; they repeat exactly, so tests can
//! assert the fill the ordering buys.
//!
//! **Path identity.**  The kernels may change how a solve is computed,
//! never what it computes: every floating-point operation that can
//! change a nonzero result happens in the same order as in a plain
//! column-by-column implementation.  A kernel may skip a term whose
//! factor is zero (`x − 0·v = x`), which can change only the sign of a
//! zero.  FTRAN skips only where that plain implementation skips, so
//! basic values and FTRAN images keep even their zero signs (the
//! repair's ratio test orders crossings with `total_cmp`); BTRAN's
//! multipliers feed only threshold comparisons.  The pivot path, the
//! counters, the objective and the primal values are therefore fixed to
//! the bit (a zero dual may change sign), and `tugal-model`'s `lu_fill`
//! test pins them on four Step-1 chains.

use crate::simplex::{LinearProgram, Relation, SolveError, VarId};

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;
/// Entering threshold of the tie-resolution polish pass: just above the
/// float noise floor of reduced-cost computation, far below [`EPS`], so
/// micro-perturbation tie-breaks (e.g. `tugal-model`'s 1e-7-scale
/// objective jitter) are resolved identically from any starting basis.
const POLISH_EPS: f64 = 1e-12;

/// Warm-start pricing bias: a carried-basis column wins the entering
/// choice when its (scaled) score is at least this fraction of the best
/// score over all columns.  See `Solver::prefer`.
const PREF_FACTOR: f64 = 0.5;
/// Entering window of the warm-start composite repair
/// ([`Solver::repair_feasibility`]): columns whose scaled infeasibility
/// gain is at least this fraction of the best gain compete on *real*
/// reduced cost instead of gain alone, so the repair path tracks the
/// true objective while it restores feasibility.
const REPAIR_WINDOW: f64 = 0.5;
/// Bound-violation slack of the Harris two-pass ratio test in
/// [`Solver::optimize`]: blockers whose exact ratio lies within this much
/// feasibility slack of the tightest one compete on pivot-element size
/// instead of ratio order.  Kept below [`PIVOT_EPS`] so the tolerance the
/// rest of the solver grants to basic values is never exceeded.
const RATIO_DELTA: f64 = 5e-8;
/// Eta-file length that triggers a refactorization.
const ETA_LIMIT: usize = 64;
/// Absolute singularity threshold for LU pivots.
const LU_EPS: f64 = 1e-10;

/// Identity of a basic variable, stable across structurally-similar
/// programs (the currency of [`WarmStart`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BasisVar {
    /// A caller-added variable, by [`VarId`] index.
    Structural(usize),
    /// The unit column attached to a row (slack of a `≤` row, surplus of a
    /// `≥` row, artificial of an `=` row), by constraint index.
    Row(usize),
}

/// The final basis of a solve, reusable to warm-start a structurally
/// similar program.  Obtained from [`SparseSolution::warm_start`].
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    entries: Vec<BasisVar>,
}

impl WarmStart {
    /// Basis members, sorted.
    pub fn entries(&self) -> &[BasisVar] {
        &self.entries
    }

    /// Builds a handle from explicit basis members (sorted, deduplicated).
    pub fn from_entries(mut entries: Vec<BasisVar>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        WarmStart { entries }
    }

    /// Translates the basis into another program's variable/row numbering.
    /// `f` maps each member to its identity in the target program, or
    /// `None` to drop it (e.g. a column deleted by a fault); rows left
    /// uncovered are repaired by the warm-start factorization.
    pub fn remap<F: FnMut(BasisVar) -> Option<BasisVar>>(&self, mut f: F) -> WarmStart {
        WarmStart::from_entries(self.entries.iter().copied().filter_map(&mut f).collect())
    }

    /// True when the handle carries no basis (solving with it is a cold
    /// start).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An optimal solution of the sparse revised simplex.
#[derive(Debug, Clone)]
pub struct SparseSolution {
    /// Optimal objective value (of the maximization).
    pub objective: f64,
    /// Simplex pivots performed (phase 1 + phase 2).
    pub pivots: usize,
    /// LU (re)factorizations performed, including the initial and the
    /// final canonical one.
    pub refactorizations: usize,
    /// Whether the supplied warm start was actually used (a rejected warm
    /// basis falls back to a cold start and reports `false`).
    pub warm_used: bool,
    /// Nonzeros of the basis matrix, summed over the same factorizations
    /// as [`Self::refactorizations`].
    pub basis_nonzeros: usize,
    /// Nonzeros of the L and U factors (diagonal included), summed over
    /// the same factorizations.  The ratio to [`Self::basis_nonzeros`] is
    /// the factorization's fill.
    pub lu_nonzeros: usize,
    values: Vec<f64>,
    duals: Vec<f64>,
    basis: WarmStart,
}

impl SparseSolution {
    /// Value of a variable at the optimum.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Values of all variables, indexed by [`VarId`] order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual value of each constraint, in insertion order; same sign
    /// convention as [`crate::Solution::duals`].
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// The optimal basis, for warm-starting a follow-up solve.
    pub fn warm_start(&self) -> &WarmStart {
        &self.basis
    }
}

impl LinearProgram {
    /// Solves with the sparse revised simplex (cold start).  Agrees with
    /// the dense oracle [`LinearProgram::solve`] to within LP tolerance;
    /// the differential test suite pins the two against each other.
    pub fn solve_sparse(&self) -> Result<SparseSolution, SolveError> {
        solve(self, None)
    }

    /// Sparse solve warm-started from a prior optimal basis.  Returns the
    /// same optimum as [`LinearProgram::solve_sparse`] (bit-identical when
    /// the optimal basis is unique), usually in far fewer pivots.
    pub fn solve_sparse_warm(&self, warm: &WarmStart) -> Result<SparseSolution, SolveError> {
        solve(self, Some(warm))
    }
}

/// The normalized program `max cᵀx  s.t.  Ax {≤,=,≥} b, x ≥ 0, b ≥ 0` in
/// CSC form, with slack/surplus and artificial unit columns appended after
/// the `n` structural columns.
struct Instance {
    m: usize,
    n: usize,
    /// Total columns: `n` structural, then slacks/surpluses, then
    /// artificials.
    total: usize,
    /// First artificial column.
    art_start: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    vals: Vec<f64>,
    b: Vec<f64>,
    /// Phase-2 objective over all columns (zero beyond the structurals).
    cost: Vec<f64>,
    /// Steepest-edge-lite pricing scale `√(1 + ‖a_j‖²)` per column.
    gamma: Vec<f64>,
    /// Per row: its slack/surplus column, `usize::MAX` if none.
    slack_of_row: Vec<usize>,
    /// Per row: its artificial column, `usize::MAX` if none.
    art_of_row: Vec<usize>,
    /// Per column: the row a unit column belongs to (`usize::MAX` for
    /// structural columns).
    row_of_unit: Vec<usize>,
}

impl Instance {
    fn build(lp: &LinearProgram) -> Instance {
        let m = lp.constraints.len();
        let n = lp.objective.len();

        // Normalize rows exactly like the dense oracle: a negative rhs
        // flips the row's sign and relation.
        let mut rels = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        let mut signs = Vec::with_capacity(m);
        for c in &lp.constraints {
            let flip = c.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            let rel = match (flip, c.rel) {
                (false, r) => r,
                (true, Relation::Le) => Relation::Ge,
                (true, Relation::Ge) => Relation::Le,
                (true, Relation::Eq) => Relation::Eq,
            };
            rels.push(rel);
            b.push(sign * c.rhs);
            signs.push(sign);
        }

        // The structural CSC in two passes: count each column's terms, then
        // fill the columns row by row.  Entries arrive in ascending row, so
        // a variable repeated within a row meets its own last entry and is
        // summed into it in insertion order (same contract as the dense
        // oracle's tableau accumulation); entries that sum to zero and the
        // slots merging freed are squeezed out afterwards.
        let mut col_ptr = vec![0; n + 1];
        for c in &lp.constraints {
            for &(v, coef) in &c.terms {
                col_ptr[v + 1] += usize::from(coef != 0.0);
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0; col_ptr[n]];
        let mut vals = vec![0.0; col_ptr[n]];
        let mut end = col_ptr[..n].to_vec();
        for (i, (c, sign)) in lp.constraints.iter().zip(&signs).enumerate() {
            for &(v, coef) in &c.terms {
                if coef == 0.0 {
                    continue;
                }
                let e = end[v];
                if e > col_ptr[v] && row_idx[e - 1] == i {
                    vals[e - 1] += sign * coef;
                } else {
                    row_idx[e] = i;
                    vals[e] = sign * coef;
                    end[v] += 1;
                }
            }
        }
        let mut kept = 0;
        for j in 0..n {
            for e in col_ptr[j]..end[j] {
                if vals[e] != 0.0 {
                    row_idx[kept] = row_idx[e];
                    vals[kept] = vals[e];
                    kept += 1;
                }
            }
            // `col_ptr` keeps the old starts until every column is moved.
            end[j] = kept;
        }
        col_ptr[1..].copy_from_slice(&end);
        row_idx.truncate(kept);
        vals.truncate(kept);

        let mut slack_of_row = vec![usize::MAX; m];
        let mut art_of_row = vec![usize::MAX; m];
        let mut next = n;
        for (i, rel) in rels.iter().enumerate() {
            if matches!(rel, Relation::Le | Relation::Ge) {
                slack_of_row[i] = next;
                next += 1;
            }
        }
        let art_start = next;
        for (i, rel) in rels.iter().enumerate() {
            if matches!(rel, Relation::Ge | Relation::Eq) {
                art_of_row[i] = next;
                next += 1;
            }
        }
        let total = next;

        col_ptr.reserve_exact(total - n);
        row_idx.reserve_exact(total - n);
        vals.reserve_exact(total - n);
        for (i, rel) in rels.iter().enumerate() {
            match rel {
                Relation::Le => {
                    row_idx.push(i);
                    vals.push(1.0);
                    col_ptr.push(row_idx.len());
                }
                Relation::Ge => {
                    row_idx.push(i);
                    vals.push(-1.0);
                    col_ptr.push(row_idx.len());
                }
                Relation::Eq => {}
            }
        }
        for (i, rel) in rels.iter().enumerate() {
            if matches!(rel, Relation::Ge | Relation::Eq) {
                row_idx.push(i);
                vals.push(1.0);
                col_ptr.push(row_idx.len());
            }
        }
        debug_assert_eq!(col_ptr.len(), total + 1);

        let mut row_of_unit = vec![usize::MAX; total];
        for (i, &c) in slack_of_row.iter().enumerate() {
            if c != usize::MAX {
                row_of_unit[c] = i;
            }
        }
        for (i, &c) in art_of_row.iter().enumerate() {
            if c != usize::MAX {
                row_of_unit[c] = i;
            }
        }

        let mut cost = vec![0.0; total];
        cost[..n].copy_from_slice(&lp.objective);
        let mut gamma = vec![1.0; total];
        for (j, g) in gamma.iter_mut().enumerate() {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            let norm2: f64 = vals[lo..hi].iter().map(|v| v * v).sum();
            *g = (1.0 + norm2).sqrt();
        }

        Instance {
            m,
            n,
            total,
            art_start,
            col_ptr,
            row_idx,
            vals,
            b,
            cost,
            gamma,
            slack_of_row,
            art_of_row,
            row_of_unit,
        }
    }

    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.vals[lo..hi])
    }
}

/// LU factors of a basis matrix, built column by column with partial
/// pivoting (left-looking Gilbert–Peierls scheme) in the column-count
/// order [`Elimination::factorize`] chooses, so a basis position is an
/// elimination step, not a candidate index.  Position `k` pivoted on
/// original row `prow[k]`, with U diagonal `udiag[k]`.
///
/// The factors are stored flat, as `(index, value)` entries behind
/// pointer arrays.  L keeps only its non-empty columns: the `t`-th
/// belongs to position `lpos[t]` and holds the multipliers
/// `lcols[lptr[t]..lptr[t + 1]]` as `(original row, l)` in ascending row
/// order.  U's off-diagonal entries are kept twice, once per solve that
/// scatters them: by columns for FTRAN's back-substitution (column `k`'s
/// entries `(position j < k, u)` are `ucols[ucptr[k]..ucptr[k + 1]]`),
/// and by rows for BTRAN's Uᵀ solve (row `j`'s entries `(position k > j,
/// u)` are `urows[urptr[j]..urptr[j + 1]]`, ascending in `k`).  A scatter
/// makes independent updates where a dot product waits on its running
/// sum, and it skips a zero source entry whole.
#[derive(Default)]
struct Lu {
    prow: Vec<usize>,
    udiag: Vec<f64>,
    lpos: Vec<usize>,
    lptr: Vec<usize>,
    lcols: Vec<(usize, f64)>,
    ucptr: Vec<usize>,
    ucols: Vec<(usize, f64)>,
    urptr: Vec<usize>,
    urows: Vec<(usize, f64)>,
}

impl Lu {
    /// Empties the factors, keeping their storage.
    fn clear(&mut self) {
        self.prow.clear();
        self.udiag.clear();
        self.lpos.clear();
        self.lptr.clear();
        self.lptr.push(0);
        self.lcols.clear();
        self.ucptr.clear();
        self.ucptr.push(0);
        self.ucols.clear();
        self.urptr.clear();
        self.urows.clear();
    }

    /// Nonzeros of L and U, the U diagonal included.
    fn nonzeros(&self) -> usize {
        self.udiag.len() + self.lcols.len() + self.ucols.len()
    }

    /// Stores U's columns as rows too.  Columns are visited in position
    /// order, so each row comes out in ascending position.  `cursor` is
    /// scratch.
    fn transpose_u(&mut self, cursor: &mut Vec<usize>) {
        let m = self.udiag.len();
        self.urptr.clear();
        self.urptr.resize(m + 1, 0);
        for &(j, _) in &self.ucols {
            self.urptr[j + 1] += 1;
        }
        for j in 0..m {
            self.urptr[j + 1] += self.urptr[j];
        }
        self.urows.clear();
        self.urows.resize(self.ucols.len(), (0, 0.0));
        cursor.clear();
        cursor.extend_from_slice(&self.urptr[..m]);
        for k in 0..m {
            for &(j, u) in &self.ucols[self.ucptr[k]..self.ucptr[k + 1]] {
                self.urows[cursor[j]] = (k, u);
                cursor[j] += 1;
            }
        }
    }

    /// Solves `B z = rhs`.  `rhs` is in original row space and is consumed
    /// as scratch; `z` receives the result in basis *position* space.
    fn ftran(&self, rhs: &mut [f64], z: &mut [f64]) {
        // Replay the recorded row eliminations (apply L⁻¹).
        for (t, &k) in self.lpos.iter().enumerate() {
            let v = rhs[self.prow[k]];
            if v != 0.0 {
                for &(i, l) in &self.lcols[self.lptr[t]..self.lptr[t + 1]] {
                    rhs[i] -= v * l;
                }
            }
        }
        // Back-substitute U z = y in position space (column-oriented).
        for (zk, &pr) in z.iter_mut().zip(&self.prow) {
            *zk = rhs[pr];
        }
        for k in (0..z.len()).rev() {
            let x = z[k] / self.udiag[k];
            z[k] = x;
            if x != 0.0 {
                for &(j, u) in &self.ucols[self.ucptr[k]..self.ucptr[k + 1]] {
                    z[j] -= u * x;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c`.  `c` is in position space and is consumed as
    /// scratch; `y` receives the result in original row space.
    fn btran(&self, c: &mut [f64], y: &mut [f64]) {
        // Forward-solve Uᵀ w = c (Uᵀ is lower triangular in position
        // space): each finished w[j] is scattered down U's row j, so a
        // later position takes its terms in ascending j, as a dot product
        // over its U column would.  A zero w[j] is skipped, which changes
        // at most the sign of a zero; the slack positions of a tall basis
        // stay zero under the costs, so only the structural rows work.
        for j in 0..c.len() {
            let cj = c[j];
            if cj != 0.0 {
                let x = cj / self.udiag[j];
                c[j] = x;
                for &(k, u) in &self.urows[self.urptr[j]..self.urptr[j + 1]] {
                    c[k] -= u * x;
                }
            }
        }
        // Scatter to row space and apply the transposed eliminations in
        // reverse order.
        for (&pr, &ck) in self.prow.iter().zip(c.iter()) {
            y[pr] = ck;
        }
        for (t, &k) in self.lpos.iter().enumerate().rev() {
            let pr = self.prow[k];
            let mut s = y[pr];
            for &(i, l) in &self.lcols[self.lptr[t]..self.lptr[t + 1]] {
                s -= l * y[i];
            }
            y[pr] = s;
        }
    }
}

/// One factorization workspace: the factors being built plus the scatter
/// workspace that lets each new column be eliminated over its nonzeros
/// only.  A solver keeps one for all its factorizations, so only the
/// factors' flat arrays are allocated per factorization.
struct Elimination<'a> {
    inst: &'a Instance,
    lu: Lu,
    /// Position → basic column, in elimination order.
    basis: Vec<usize>,
    /// Column → already accepted?
    used: Vec<bool>,
    /// Row → the position that pivoted on it (`usize::MAX` while
    /// unpivoted).
    pos_of_row: Vec<usize>,
    /// Dense scatter of the column being eliminated; zero outside
    /// `pattern` between columns.
    x: Vec<f64>,
    /// Rows where `x` may be nonzero, in no particular order, and their
    /// membership flags.
    pattern: Vec<usize>,
    in_pattern: Vec<bool>,
    /// Scratch: the per-row fill cursor of U's transpose, and the
    /// (nonzero count, candidate index) elimination order.
    cursor: Vec<usize>,
    keyed: Vec<(usize, usize)>,
}

impl<'a> Elimination<'a> {
    fn new(inst: &'a Instance) -> Elimination<'a> {
        let m = inst.m;
        Elimination {
            inst,
            lu: Lu::default(),
            basis: Vec::with_capacity(m),
            used: vec![false; inst.total],
            pos_of_row: vec![usize::MAX; m],
            x: vec![0.0; m],
            pattern: Vec::new(),
            in_pattern: vec![false; m],
            cursor: Vec::with_capacity(m),
            keyed: Vec::with_capacity(m),
        }
    }

    /// Starts an empty factorization.
    fn reset(&mut self) {
        self.lu.clear();
        self.basis.clear();
        self.used.fill(false);
        self.pos_of_row.fill(usize::MAX);
    }

    fn full(&self) -> bool {
        self.basis.len() == self.inst.m
    }

    /// Eliminates `col` against the partial factorization and pivots it
    /// on an unpivoted row (largest magnitude, lowest row on ties, or
    /// `prefer` when numerically acceptable).  Returns false — leaving the
    /// factorization untouched — if the column was already accepted or is
    /// numerically dependent on the columns accepted so far.
    ///
    /// The work is proportional to the column's nonzeros (after fill) and
    /// to the number of positions with a non-empty L column, not to `m`:
    /// L columns apply in ascending position order, exactly as a dense
    /// sweep over every earlier position would, so the arithmetic is the
    /// same operation for operation.  The fill pattern is left unsorted:
    /// the pivot search breaks ties by row explicitly, and only the new L
    /// column, whose order BTRAN's dot products depend on, is sorted.
    fn try_col(&mut self, col: usize, prefer: Option<usize>) -> bool {
        if self.used[col] {
            return false;
        }
        let (rs, vs) = self.inst.col(col);
        for (&r, &v) in rs.iter().zip(vs) {
            self.x[r] = v;
            self.in_pattern[r] = true;
            self.pattern.push(r);
        }
        let lu = &mut self.lu;
        for (t, &j) in lu.lpos.iter().enumerate() {
            let v = self.x[lu.prow[j]];
            if v != 0.0 {
                for &(i, l) in &lu.lcols[lu.lptr[t]..lu.lptr[t + 1]] {
                    if !self.in_pattern[i] {
                        self.in_pattern[i] = true;
                        self.pattern.push(i);
                    }
                    self.x[i] -= v * l;
                }
            }
        }
        let mut best = usize::MAX;
        let mut best_abs = 0.0;
        for &i in &self.pattern {
            let a = self.x[i].abs();
            let wins = a > best_abs || (a == best_abs && best != usize::MAX && i < best);
            if self.pos_of_row[i] == usize::MAX && wins {
                best_abs = a;
                best = i;
            }
        }
        let mut r = best;
        if let Some(p) = prefer {
            let xp = self.x[p].abs();
            if self.pos_of_row[p] == usize::MAX && xp > LU_EPS && xp >= 1e-3 * best_abs {
                r = p;
            }
        }
        let accepted = r != usize::MAX && self.x[r].abs() > LU_EPS;
        if accepted {
            let k = self.basis.len();
            let piv = self.x[r];
            let l_start = lu.lcols.len();
            for &i in &self.pattern {
                let v = self.x[i];
                if i == r || v == 0.0 {
                    continue;
                }
                match self.pos_of_row[i] {
                    usize::MAX => lu.lcols.push((i, v / piv)),
                    j => lu.ucols.push((j, v)),
                }
            }
            if lu.lcols.len() > l_start {
                lu.lcols[l_start..].sort_unstable_by_key(|e| e.0);
                lu.lpos.push(k);
                lu.lptr.push(lu.lcols.len());
            }
            lu.ucptr.push(lu.ucols.len());
            self.pos_of_row[r] = k;
            lu.prow.push(r);
            lu.udiag.push(piv);
            self.basis.push(col);
            self.used[col] = true;
        }
        for &i in &self.pattern {
            self.x[i] = 0.0;
            self.in_pattern[i] = false;
        }
        self.pattern.clear();
        accepted
    }

    /// Offers `cols` in order until the basis is full; dependent and
    /// repeated columns are skipped.
    fn take(&mut self, cols: &[usize]) {
        for &c in cols {
            if self.full() {
                break;
            }
            self.try_col(c, None);
        }
    }

    /// [`Self::take`] in ascending nonzero count, ties in the order of
    /// `cols`.  The (count, index) keys are unique, so an unstable sort
    /// gives the stable order without a merge buffer.
    fn take_by_count(&mut self, cols: &[usize]) {
        let inst = self.inst;
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        keyed.extend(
            cols.iter()
                .enumerate()
                .map(|(i, &c)| (inst.col_ptr[c + 1] - inst.col_ptr[c], i)),
        );
        keyed.sort_unstable();
        for &(_, i) in &keyed {
            if self.full() {
                break;
            }
            self.try_col(cols[i], None);
        }
        self.keyed = keyed;
    }

    /// Completes a rank-deficient basis: every row left unpivoted is
    /// offered its own slack (preferred) or artificial column, pivoting
    /// on that row where numerically acceptable.
    fn complete(&mut self) {
        let inst = self.inst;
        for r in 0..inst.m {
            if self.pos_of_row[r] != usize::MAX {
                continue;
            }
            for cand in [inst.slack_of_row[r], inst.art_of_row[r]] {
                if cand != usize::MAX && self.try_col(cand, Some(r)) {
                    break;
                }
            }
        }
        // A fill column may have pivoted away from its own row; mop up
        // with any remaining unit columns.
        for c in inst.n..inst.total {
            if self.full() {
                break;
            }
            self.try_col(c, None);
        }
    }

    /// Factorizes a basis chosen from `candidates`, repairing rank
    /// deficiency: dependent and repeated candidates are skipped, and
    /// every row left unpivoted is filled with its own slack (preferred)
    /// or artificial column.  The factors are left in `self.lu` and the
    /// basis, position by position, in `self.basis`.  Every row owns a
    /// slack or an artificial column, so a completion always exists.
    ///
    /// **Order.**  Columns are eliminated in ascending nonzero count (ties
    /// keep candidate order), and partial pivoting picks the rows.  Unit
    /// slack and artificial columns then pivot first and leave no L
    /// column, and a dense column such as the path-rate LP's θ, which
    /// touches every demand and capacity row, pivots last instead of
    /// filling in every later column.  On `step1_max`'s programs this
    /// keeps the factors at about 1.1× the basis's nonzeros, against 7×
    /// in basis order.
    ///
    /// **Completion.**  Which rows stay unpivoted for the completion
    /// depends on the elimination order, and the completion decides which
    /// slack or artificial columns join the basis.  So when the
    /// candidates alone do not fill the basis, [`choose_basis`] picks the
    /// set an elimination in candidate order would pick, and only then is
    /// it factorized in count order.  The basis *set* is therefore the one
    /// a candidate-order factorization gives whenever a completion is
    /// needed or the candidates are independent, as the canonical final
    /// support always is: warm starts repair the same rows, and the
    /// canonical final basis (see [`Solver::finalize`]) is unchanged.
    /// Ordering the completion as well moved the rows of degenerate warm
    /// starts and lengthened fault-chain re-solves.  Fewer candidates than
    /// rows cannot fill the basis, so they go to the chooser directly.
    fn factorize(&mut self, candidates: &[usize]) {
        self.reset();
        if candidates.len() >= self.inst.m {
            self.take_by_count(candidates);
            if self.full() {
                self.lu.transpose_u(&mut self.cursor);
                return;
            }
            self.reset();
        }
        let chosen = choose_basis(self.inst, candidates);
        self.take_by_count(&chosen);
        if !self.full() {
            // A set independent in one order is independent in any; this
            // only guards against a pivot falling under `LU_EPS` in the
            // new order, and keeps the candidate-order factors.
            self.reset();
            self.take(candidates);
            self.complete();
        }
        self.lu.transpose_u(&mut self.cursor);
    }
}

/// A [`Chooser`] row pivoted by a column that added no L column.
const DEAD: usize = usize::MAX;

/// The workspace of [`choose_basis`]: an elimination in candidate order
/// that keeps only what the choice reads, namely which rows are pivoted
/// and the L columns, never U.
///
/// The rows still live are kept permuted as [pivot rows of the L
/// columns, in order | unpivoted rows].  L column `t` has entries only on
/// rows that were unpivoted when it was made, which are the live
/// positions after `t`, so it is stored dense as the suffix from position
/// `t + 1` and applied as one branch-free axpy.  A row pivoted by a
/// column that adds no L column is dead and leaves the live set: no
/// multiplier is read there, no later L entry is written there, and the
/// pivot search skips it, so a column's entries on it are dropped.  Live
/// positions only shrink, so each L column stores only the positions live
/// when it was made.
struct Chooser<'a> {
    inst: &'a Instance,
    /// Row → live position, or [`DEAD`].
    pos_of_row: Vec<usize>,
    /// Live position → row.
    row_at: Vec<usize>,
    /// Number of L columns; positions `..nl` hold their pivot rows.
    nl: usize,
    /// Number of live positions; `nl..live` are the unpivoted rows.
    live: usize,
    /// L column `t` holds positions `t..` of the live range at its
    /// making, position `p` at `lcols[lstart[t] + p - t]`; it is read at
    /// positions `t + 1..live`.
    lcols: Vec<f64>,
    lstart: Vec<usize>,
    /// Dense scatter of the column being offered, by live position; zero
    /// between offers.
    x: Vec<f64>,
    /// Column → already accepted?
    used: Vec<bool>,
    /// The accepted columns, in order.
    basis: Vec<usize>,
}

impl Chooser<'_> {
    /// Swaps live positions `a` and `b`, in the L columns too.
    fn swap(&mut self, a: usize, b: usize) {
        for (t, &s) in self.lstart.iter().enumerate() {
            self.lcols.swap(s + a - t, s + b - t);
        }
        self.row_at.swap(a, b);
        self.pos_of_row[self.row_at[a]] = a;
        self.pos_of_row[self.row_at[b]] = b;
    }

    /// Offers `col` as `Elimination::try_col(col, None)` would: unless it
    /// was accepted already or is dependent, it pivots on its unpivoted
    /// row of largest magnitude after elimination, the lowest row on
    /// ties.  The tie-break compares rows explicitly, because the
    /// unpivoted block is not in row order.
    ///
    /// Each entry receives its updates in ascending `t`, as in `try_col`.
    /// A term `try_col` skips has a zero factor here, which changes at
    /// most the sign of a zero, and values are read only through `abs`
    /// and `!= 0`.  A column whose live entries are all unpivoted meets
    /// no L column (each reads its multiplier at a pivoted row), so it
    /// costs no arithmetic and no dense scan.
    fn offer(&mut self, col: usize) {
        if self.used[col] {
            return;
        }
        let (nl, live) = (self.nl, self.live);
        let (rs, vs) = self.inst.col(col);
        let x = &mut self.x;
        let pos_of_row = &self.pos_of_row;
        let row_at = &self.row_at;
        let entries = || rs.iter().map(|&r| pos_of_row[r]).filter(|&p| p != DEAD);
        let mut t0 = live;
        for (&r, &v) in rs.iter().zip(vs) {
            let p = pos_of_row[r];
            if p != DEAD {
                x[p] = v;
                t0 = t0.min(p);
            }
        }
        let filled = t0 < nl;
        if filled {
            for t in t0..nl {
                let v = x[t];
                if v != 0.0 {
                    let s = self.lstart[t];
                    let l = &self.lcols[s + 1..s + live - t];
                    for (xi, &li) in x[t + 1..live].iter_mut().zip(l) {
                        *xi -= v * li;
                    }
                }
            }
        }
        // The pivot search, counting the nonzero unpivoted entries: the
        // column adds an L column when the pivot is not the only one.
        let mut best = DEAD;
        let mut best_abs = 0.0;
        let mut nonzeros = 0;
        let mut consider = |p: usize| {
            let a = x[p].abs();
            if a > best_abs || (a == best_abs && best != DEAD && row_at[p] < row_at[best]) {
                best_abs = a;
                best = p;
            }
            nonzeros += usize::from(x[p] != 0.0);
        };
        if filled {
            (nl..live).for_each(&mut consider);
        } else {
            entries().for_each(&mut consider);
        }
        let accepted = best != DEAD && best_abs > LU_EPS;
        let adds_l = accepted && nonzeros > 1;
        if adds_l {
            let piv = x[best];
            let s = self.lcols.len();
            self.lstart.push(s);
            self.lcols.resize(s + live - nl, 0.0);
            let l = &mut self.lcols[s..];
            if filled {
                for (li, &xp) in l.iter_mut().zip(&x[nl..live]) {
                    *li = xp / piv;
                }
            } else {
                for p in entries() {
                    l[p - nl] = x[p] / piv;
                }
            }
        }
        if filled {
            x[t0..live].fill(0.0);
        } else {
            for p in entries() {
                x[p] = 0.0;
            }
        }
        if accepted {
            if adds_l {
                self.swap(best, nl);
                self.nl += 1;
            } else {
                self.live -= 1;
                self.swap(best, self.live);
                self.pos_of_row[self.row_at[self.live]] = DEAD;
            }
            self.used[col] = true;
            self.basis.push(col);
        }
    }
}

/// Chooses the basis that `Elimination::take(candidates)` followed by
/// `Elimination::complete` would choose, position by position, at a
/// fraction of its cost (see [`Chooser`]).
///
/// A unit column on an unpivoted row always pivots there, so the
/// completion gives each row left unpivoted its own slack, else its
/// artificial, in row order; that fills the basis, and `complete`'s
/// mop-up pass never adds a column.
fn choose_basis(inst: &Instance, candidates: &[usize]) -> Vec<usize> {
    let m = inst.m;
    let mut ch = Chooser {
        inst,
        pos_of_row: (0..m).collect(),
        row_at: (0..m).collect(),
        nl: 0,
        live: m,
        lcols: Vec::new(),
        lstart: Vec::new(),
        x: vec![0.0; m],
        used: vec![false; inst.total],
        basis: Vec::with_capacity(m),
    };
    for &c in candidates {
        if ch.basis.len() == m {
            break;
        }
        ch.offer(c);
    }
    for r in 0..m {
        let p = ch.pos_of_row[r];
        if p != DEAD && p >= ch.nl {
            let unit = if inst.slack_of_row[r] != usize::MAX {
                inst.slack_of_row[r]
            } else {
                inst.art_of_row[r]
            };
            debug_assert!(!ch.used[unit], "a used unit column left its row unpivoted");
            ch.basis.push(unit);
        }
    }
    ch.basis
}

/// The eta file: one rank-one basis update per pivot since the last
/// factorization.  Eta `e` put a column with FTRAN image `w` into basis
/// slot `slot[e]`, with pivot element `pivot[e] = w[slot[e]]`.  Its `w`
/// is row `e` of one dense `m`-wide block, with the slot's own entry
/// zeroed, so FTRAN's replay is a contiguous axpy and BTRAN's a dot over
/// the right-hand side's nonzeros.  A refactorization empties the block
/// but keeps its storage.
struct Etas {
    m: usize,
    slot: Vec<usize>,
    pivot: Vec<f64>,
    block: Vec<f64>,
}

impl Etas {
    fn new(m: usize) -> Etas {
        Etas {
            m,
            slot: Vec::with_capacity(ETA_LIMIT),
            pivot: Vec::with_capacity(ETA_LIMIT),
            block: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.slot.len()
    }

    fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    fn clear(&mut self) {
        self.slot.clear();
        self.pivot.clear();
        self.block.clear();
    }

    /// Records the pivot that put a column with FTRAN image `w` into
    /// `slot`.
    fn push(&mut self, slot: usize, w: &[f64]) {
        self.slot.push(slot);
        self.pivot.push(w[slot]);
        let start = self.block.len();
        self.block.extend_from_slice(w);
        self.block[start + slot] = 0.0;
    }

    fn row(&self, e: usize) -> &[f64] {
        &self.block[e * self.m..(e + 1) * self.m]
    }

    /// Applies the etas in order to an FTRAN result `z` (position space).
    /// A zero entry of `w` leaves its target untouched, so the result is
    /// bit for bit that of a replay over `w`'s nonzeros alone; the select
    /// keeps the loop branch-free.
    fn ftran(&self, z: &mut [f64]) {
        for (e, (&slot, &pivot)) in self.slot.iter().zip(&self.pivot).enumerate() {
            let zr = z[slot] / pivot;
            z[slot] = zr;
            if zr != 0.0 {
                for (zi, &wi) in z.iter_mut().zip(self.row(e)) {
                    let v = *zi;
                    *zi = if wi != 0.0 { v - wi * zr } else { v };
                }
            }
        }
    }

    /// Applies the etas in reverse to a BTRAN right-hand side `c`
    /// (position space).  `nz` lists, ascending, every position where `c`
    /// may be nonzero, and is kept so.  Each eta's dot runs over `nz` in
    /// ascending order: it sums the same nonzero products in the same
    /// order as a dot over `w`'s nonzeros, and the zero products it adds
    /// or drops change at most the sign of a zero.
    fn btran(&self, c: &mut [f64], nz: &mut Vec<usize>) {
        for e in (0..self.len()).rev() {
            let w = self.row(e);
            let slot = self.slot[e];
            let mut s = c[slot];
            for &i in nz.iter() {
                s -= w[i] * c[i];
            }
            let v = s / self.pivot[e];
            c[slot] = v;
            if v != 0.0 {
                if let Err(p) = nz.binary_search(&slot) {
                    nz.insert(p, slot);
                }
            }
        }
    }
}

/// Solves `Bᵀ y = c` for the basis `lu` updated by `etas`: `c` is in
/// position space and is consumed as scratch, `nz` is scratch, and `y`
/// receives the result in row space.
fn btran(lu: &Lu, etas: &Etas, c: &mut [f64], nz: &mut Vec<usize>, y: &mut [f64]) {
    if !etas.is_empty() {
        nz.clear();
        nz.extend((0..c.len()).filter(|&k| c[k] != 0.0));
        etas.btran(c, nz);
    }
    lu.btran(c, y);
}

struct Solver<'a> {
    inst: &'a Instance,
    /// Factorization workspace, reused by every refactorization.  Each
    /// factorization builds fresh factors in it, after the old ones are
    /// freed: keeping them to reuse their storage, or building the new
    /// ones beside them, raised `step1_max`'s peak RSS by 1–3 MiB.
    elim: Elimination<'a>,
    lu: Lu,
    etas: Etas,
    /// Slot → basic column.
    basis: Vec<usize>,
    /// Column → currently basic?
    in_basis: Vec<bool>,
    /// Slot → basic variable value.
    xb: Vec<f64>,
    pivots: usize,
    refactorizations: usize,
    /// Basis and L+U nonzeros summed over the factorizations counted in
    /// `refactorizations`.
    basis_nonzeros: usize,
    lu_nonzeros: usize,
    budget: usize,
    /// Column → preferred entering candidate.  Warm starts seed this with
    /// the carried basis: the new optimum is combinatorially close to it
    /// (a fault step moves a few percent of the basis), but the repair
    /// pivots evict carried members, and unbiased pricing then wanders far
    /// from the old neighborhood before finding its way back.  Preferring
    /// improving carried columns steers phase 2 along the short path.
    /// Empty means no preference (cold solves).
    prefer: Vec<bool>,
    // Work vectors, sized once per solve and reused by every pivot.
    /// Row-space right-hand side of an FTRAN (consumed by the solve).
    rhs: Vec<f64>,
    /// FTRAN image `B⁻¹ a_j` of the entering column, by slot.
    w: Vec<f64>,
    /// Position-space right-hand side of a BTRAN, and the positions
    /// where it may be nonzero.
    c: Vec<f64>,
    nz: Vec<usize>,
    /// Simplex multipliers `B⁻ᵀ c_B` of the objective being optimized.
    y: Vec<f64>,
    /// A second BTRAN result: a row of `B⁻¹`, or the multipliers of the
    /// infeasibility objective.
    rho: Vec<f64>,
    /// Repair scratch: the infeasibility objective by slot, the entering
    /// scores, and the ratio-test crossings.
    d: Vec<f64>,
    scores: Vec<f64>,
    crossings: Vec<(f64, f64, usize)>,
}

impl<'a> Solver<'a> {
    /// Factorizes a basis chosen from `candidates` (see
    /// [`Elimination::factorize`]).
    fn new(inst: &'a Instance, candidates: &[usize], budget: usize) -> Solver<'a> {
        let mut elim = Elimination::new(inst);
        elim.factorize(candidates);
        let m = inst.m;
        let mut s = Solver {
            inst,
            elim,
            lu: Lu::default(),
            etas: Etas::new(m),
            basis: Vec::with_capacity(m),
            in_basis: vec![false; inst.total],
            xb: vec![0.0; m],
            pivots: 0,
            refactorizations: 0,
            basis_nonzeros: 0,
            lu_nonzeros: 0,
            budget,
            prefer: Vec::new(),
            rhs: vec![0.0; m],
            w: vec![0.0; m],
            c: vec![0.0; m],
            nz: Vec::with_capacity(m),
            y: vec![0.0; m],
            rho: vec![0.0; m],
            d: vec![0.0; m],
            scores: Vec::with_capacity(inst.art_start),
            crossings: Vec::with_capacity(m),
        };
        s.adopt();
        s
    }

    /// Makes the factorization just built in `elim` current: counts it,
    /// empties the eta file and recomputes the basic solution from the
    /// right-hand side.
    fn adopt(&mut self) {
        self.lu = std::mem::take(&mut self.elim.lu);
        std::mem::swap(&mut self.basis, &mut self.elim.basis);
        self.refactorizations += 1;
        self.basis_nonzeros += self
            .basis
            .iter()
            .map(|&c| self.inst.col(c).0.len())
            .sum::<usize>();
        self.lu_nonzeros += self.lu.nonzeros();
        // The repair path may have substituted unit columns for
        // numerically dependent basis members (the elimination order also
        // permutes the slots).
        self.in_basis.fill(false);
        for &c in &self.basis {
            self.in_basis[c] = true;
        }
        self.etas.clear();
        self.rhs.copy_from_slice(&self.inst.b);
        self.lu.ftran(&mut self.rhs, &mut self.xb);
    }

    /// FTRAN of column `j` into `self.w`: `w = B⁻¹ a_j` in position space.
    fn ftran_col(&mut self, j: usize) {
        self.rhs.fill(0.0);
        let (rs, vs) = self.inst.col(j);
        for (&r, &v) in rs.iter().zip(vs) {
            self.rhs[r] = v;
        }
        self.lu.ftran(&mut self.rhs, &mut self.w);
        self.etas.ftran(&mut self.w);
    }

    /// Simplex multipliers `y = B⁻ᵀ c_B` for the given objective, into
    /// `self.y`.
    fn btran_costs(&mut self, cost: &[f64]) {
        for (ck, &col) in self.c.iter_mut().zip(&self.basis) {
            *ck = cost[col];
        }
        btran(&self.lu, &self.etas, &mut self.c, &mut self.nz, &mut self.y);
    }

    /// Row `slot` of `B⁻¹` as `ρ = B⁻ᵀ e_slot` in row space, into
    /// `self.rho`.
    fn btran_unit(&mut self, slot: usize) {
        self.c.fill(0.0);
        self.c[slot] = 1.0;
        btran(
            &self.lu,
            &self.etas,
            &mut self.c,
            &mut self.nz,
            &mut self.rho,
        );
    }

    fn objective_of(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&c, &x)| cost[c] * x)
            .sum()
    }

    /// Pivots column `enter`, whose FTRAN image is in `self.w`, into slot
    /// `l` at step `t`.
    fn apply_pivot(&mut self, l: usize, enter: usize, t: f64) {
        for (x, &wi) in self.xb.iter_mut().zip(&self.w) {
            if wi != 0.0 {
                *x -= t * wi;
            }
        }
        self.xb[l] = t;
        self.in_basis[self.basis[l]] = false;
        self.in_basis[enter] = true;
        self.basis[l] = enter;
        self.etas.push(l, &self.w);
        self.pivots += 1;
        if self.etas.len() >= ETA_LIMIT {
            self.refactorize();
        }
    }

    fn refactorize(&mut self) {
        // The old factors are not needed to build the new ones; freeing
        // them first keeps one set alive at a time.
        self.lu = Lu::default();
        self.elim.factorize(&self.basis);
        self.adopt();
    }

    /// Primal simplex iterations until optimality for `cost`.  Phase 1
    /// allows artificial columns to move; phase 2 prices only real
    /// columns and ejects any still-basic artificial at ratio 0 before a
    /// regular ratio test may grow it.
    fn optimize(&mut self, cost: &[f64], phase1: bool) -> Result<(), SolveError> {
        let allow = if phase1 {
            self.inst.total
        } else {
            self.inst.art_start
        };
        let mut stall = 0usize;
        let mut bland = false;
        let mut last_obj = self.objective_of(cost);
        loop {
            if self.pivots >= self.budget {
                return Err(SolveError::IterationLimit);
            }
            self.btran_costs(cost);
            let y = &self.y;
            let mut enter = usize::MAX;
            let mut best_score = EPS;
            let mut enter_pref = usize::MAX;
            let mut best_pref = EPS;
            for (j, &cj) in cost.iter().enumerate().take(allow) {
                if self.in_basis[j] {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let mut d = cj;
                for (&r, &v) in rs.iter().zip(vs) {
                    d -= y[r] * v;
                }
                if bland {
                    if d > EPS {
                        enter = j;
                        break;
                    }
                } else {
                    let score = d / self.inst.gamma[j];
                    if score > best_score {
                        best_score = score;
                        enter = j;
                    }
                    if !self.prefer.is_empty() && self.prefer[j] && score > best_pref {
                        best_pref = score;
                        enter_pref = j;
                    }
                }
            }
            // A competitively-improving carried column outranks the global
            // Dantzig pick: re-admitting the old basis first keeps a warm
            // phase 2 inside the carried neighborhood (see `prefer`).  The
            // factor keeps a barely-improving carried column from starving
            // genuinely profitable work.  Optimality is still certified
            // over *all* columns, so the preference changes the path,
            // never the terminal vertex.
            if enter_pref != usize::MAX && best_pref >= PREF_FACTOR * best_score {
                enter = enter_pref;
            }
            if enter == usize::MAX {
                return Ok(());
            }
            self.ftran_col(enter);
            let w = &self.w;
            if !phase1 {
                let mut guard = usize::MAX;
                let mut ga = PIVOT_EPS;
                for (i, &c) in self.basis.iter().enumerate() {
                    if c >= self.inst.art_start && w[i].abs() > ga {
                        ga = w[i].abs();
                        guard = i;
                    }
                }
                if guard != usize::MAX {
                    self.apply_pivot(guard, enter, 0.0);
                    continue;
                }
            }
            // Harris-style two-pass ratio test (skipped under Bland, whose
            // termination proof needs the exact lexicographic rule).  Pass
            // one finds the tightest ratio with a small slack on each
            // bound; pass two picks, among blockers inside that relaxed
            // limit, the largest pivot element.  On heavily degenerate
            // bases (a warm start patches near-zero slacks into binding
            // rows) the exact test walks long chains of zero-step pivots
            // on tiny pivot elements; the relaxed window converts most of
            // them into one well-conditioned pivot.  The chosen step is
            // still the blocker's exact ratio, so basics never go negative
            // beyond the existing [`PIVOT_EPS`] tolerance.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            if bland {
                for (i, &wi) in w.iter().enumerate() {
                    if wi > PIVOT_EPS {
                        let ratio = self.xb[i].max(0.0) / wi;
                        let better = ratio < best_ratio - EPS
                            || (ratio < best_ratio + EPS
                                && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                        if better {
                            best_ratio = ratio;
                            leave = Some(i);
                        }
                    }
                }
            } else {
                let mut limit = f64::INFINITY;
                for (i, &wi) in w.iter().enumerate() {
                    if wi > PIVOT_EPS {
                        let r = (self.xb[i].max(0.0) + RATIO_DELTA) / wi;
                        if r < limit {
                            limit = r;
                        }
                    }
                }
                for (i, &wi) in w.iter().enumerate() {
                    if wi > PIVOT_EPS {
                        let ratio = self.xb[i].max(0.0) / wi;
                        if ratio <= limit {
                            // Inside the window, keep carried-basis columns
                            // basic when a non-carried blocker is available
                            // (warm starts only; `prefer` is empty cold) —
                            // evicting a carried member just to re-admit it
                            // later wastes two pivots.
                            let cand_keep = !self.prefer.is_empty() && self.prefer[self.basis[i]];
                            let better = match leave {
                                None => true,
                                Some(l) => {
                                    let cur_keep =
                                        !self.prefer.is_empty() && self.prefer[self.basis[l]];
                                    if cand_keep != cur_keep {
                                        !cand_keep
                                    } else {
                                        wi > w[l] + EPS
                                            || (wi > w[l] - EPS && self.basis[i] < self.basis[l])
                                    }
                                }
                            };
                            if better {
                                best_ratio = ratio;
                                leave = Some(i);
                            }
                        }
                    }
                }
            }
            let Some(l) = leave else {
                return Err(SolveError::Unbounded);
            };
            self.apply_pivot(l, enter, best_ratio);
            let obj = self.objective_of(cost);
            if (obj - last_obj).abs() <= 1e-9 * (1.0 + last_obj.abs()) {
                stall += 1;
                if stall > 2 * (self.inst.m + self.inst.n) + 10 {
                    // Latched: Bland's rule is slow but cannot cycle.
                    bland = true;
                }
            } else {
                if !bland {
                    stall = 0;
                }
                last_obj = obj;
            }
        }
    }

    /// Tie-resolution polish: [`Self::optimize`] stops as soon as no
    /// reduced cost exceeds [`EPS`], which leaves objective differences
    /// *below* that tolerance — e.g. the 1e-7-scale tie-breaking
    /// perturbations `tugal-model` puts on its path-rate columns, whose
    /// pairwise gaps sit well under 1e-9 — unresolved, so two starting
    /// bases can stop at two different near-optimal vertices.  This pass
    /// continues with Bland's rule down to [`POLISH_EPS`], driving every
    /// start to the same micro-resolved vertex.
    ///
    /// Every exit here is benign: the basis is already feasible and
    /// [`EPS`]-optimal, so numerical trouble, a sub-tolerance ray, or the
    /// pivot budget simply ends the polish instead of failing the solve.
    fn polish(&mut self, cost: &[f64]) {
        let cap = 2 * (self.inst.m + self.inst.n) + 50;
        for _ in 0..cap {
            if self.pivots >= self.budget {
                return;
            }
            self.btran_costs(cost);
            let y = &self.y;
            let mut enter = usize::MAX;
            for (j, &cj) in cost.iter().enumerate().take(self.inst.art_start) {
                if self.in_basis[j] {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let mut d = cj;
                for (&r, &v) in rs.iter().zip(vs) {
                    d -= y[r] * v;
                }
                if d > POLISH_EPS {
                    enter = j;
                    break;
                }
            }
            if enter == usize::MAX {
                return;
            }
            self.ftran_col(enter);
            let w = &self.w;
            // Same artificial guard as phase 2: eject a pinned artificial
            // at ratio 0 before a regular ratio test may grow it.
            let mut guard = usize::MAX;
            let mut ga = PIVOT_EPS;
            for (i, &c) in self.basis.iter().enumerate() {
                if c >= self.inst.art_start && w[i].abs() > ga {
                    ga = w[i].abs();
                    guard = i;
                }
            }
            if guard != usize::MAX {
                self.apply_pivot(guard, enter, 0.0);
                continue;
            }
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, &wi) in w.iter().enumerate() {
                if wi > PIVOT_EPS {
                    let ratio = self.xb[i].max(0.0) / wi;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            // A ray whose gain sits below the main pricing tolerance is
            // "unbounded" only at a scale the solver's contract ignores.
            let Some(l) = leave else {
                return;
            };
            self.apply_pivot(l, enter, best_ratio);
        }
    }

    /// Dual-simplex repair from a warm basis: leaving-row-first pivots
    /// that drive the negative basics out while preserving the carried
    /// basis's (approximate) dual feasibility — the property that makes
    /// warm starts cheap.  The carried basis was *optimal* for the
    /// previous program; when only right-hand sides and a minority of
    /// columns changed, its reduced costs stay (near-)nonnegative, the
    /// classic dual ratio test keeps them so, and on reaching primal
    /// feasibility the basis is already (near-)optimal — the following
    /// primal phase 2 only has to fix the columns the program change
    /// actually touched, instead of re-deriving the whole vertex.
    ///
    /// `Ok(false)` means the repair stalled (no eligible entering column,
    /// a positive basic artificial, or the pivot budget): the caller
    /// falls back to the composite primal repair or a cold start; this
    /// path never declares infeasibility itself.
    fn dual_repair(&mut self, cost: &[f64]) -> Result<bool, SolveError> {
        let max_rounds = self.inst.m + self.inst.n + 100;
        for _ in 0..max_rounds {
            // Leaving row: most negative basic (ties to the lowest row).
            let mut leave = usize::MAX;
            let mut worst = -PIVOT_EPS;
            for (i, (&c, &x)) in self.basis.iter().zip(&self.xb).enumerate() {
                if c >= self.inst.art_start && x > PIVOT_EPS {
                    // A positive basic artificial needs the composite
                    // repair's two-sided objective; bail out.
                    return Ok(false);
                }
                if x < worst {
                    worst = x;
                    leave = i;
                }
            }
            if leave == usize::MAX {
                return Ok(true);
            }
            if self.pivots >= self.budget {
                return Ok(false);
            }
            // Row `leave` of B⁻¹A via ρ = B⁻ᵀ e_leave, and the dual ratio
            // test: among columns that can raise x_leave (α < 0), the one
            // whose reduced cost hits zero first keeps every other
            // reduced cost nonnegative.
            self.btran_unit(leave);
            self.btran_costs(cost);
            let (rho, y) = (&self.rho, &self.y);
            let mut enter = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for (j, &cj) in cost.iter().enumerate().take(self.inst.art_start) {
                if self.in_basis[j] {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let mut alpha = 0.0;
                let mut d = cj;
                for (&r, &v) in rs.iter().zip(vs) {
                    alpha += rho[r] * v;
                    d -= y[r] * v;
                }
                if alpha < -PIVOT_EPS {
                    // Carried bases are only *near* dual feasible (the
                    // program change re-prices its columns); clamping
                    // keeps slightly-negative d from hijacking the test.
                    let ratio = d.max(0.0) / -alpha;
                    // Strict improvement, with one deterministic override:
                    // among (near-)tied ratios — common, since every
                    // clamped column ties at zero — a carried-basis column
                    // (`prefer`) beats an uncarried one.  Repair evictions
                    // then recycle the old basis instead of dragging in
                    // fresh columns, keeping the repaired vertex close to
                    // the carried neighborhood that phase 2 wants.
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && enter != usize::MAX
                            && !self.prefer.is_empty()
                            && self.prefer[j]
                            && !self.prefer[enter]);
                    if better {
                        // Near-tie overrides keep the true minimum so the
                        // tolerance cannot creep across many candidates.
                        best_ratio = best_ratio.min(ratio);
                        enter = j;
                    }
                }
            }
            if enter == usize::MAX {
                return Ok(false);
            }
            self.ftran_col(enter);
            let w = &self.w;
            if w[leave].abs() <= PIVOT_EPS {
                return Ok(false);
            }
            let t = self.xb[leave] / w[leave];
            self.apply_pivot(leave, enter, t);
        }
        Ok(false)
    }

    /// Composite phase 1 from an arbitrary starting basis (warm starts):
    /// maximizes the negated total primal infeasibility
    /// `Σ_{x_B<0} x_B − Σ_{basic artificial >0} x_B` with a two-sided
    /// ratio test, re-deriving the piecewise-linear objective each pivot.
    /// Returns `true` once the basis is primal feasible; `false` means
    /// fall back to a cold solve — this path never declares the program
    /// infeasible itself, the cold phase 1 stays authoritative for that.
    fn repair_feasibility(&mut self, cost: &[f64]) -> Result<bool, SolveError> {
        let max_rounds = self.inst.m + self.inst.n + 100;
        for _ in 0..max_rounds {
            let d = &mut self.d;
            d.fill(0.0);
            let mut infeasible = false;
            for (i, (&c, &x)) in self.basis.iter().zip(&self.xb).enumerate() {
                if x < -PIVOT_EPS {
                    d[i] = 1.0;
                    infeasible = true;
                } else if c >= self.inst.art_start && x > PIVOT_EPS {
                    d[i] = -1.0;
                    infeasible = true;
                }
            }
            if !infeasible {
                return Ok(true);
            }
            if self.pivots >= self.budget {
                return Ok(false);
            }
            // Entering, in two passes.  Pass one: moving x_j up changes
            // the infeasibility objective by −yᵀa_j per unit; find the
            // best positive (scaled) gain.  Pass two: among the
            // competitively-gaining columns (within [`REPAIR_WINDOW`] of
            // the best) the *real* reduced cost picks the winner — the
            // carried basis was optimal for the previous program, so a
            // repair that also respects the true objective lands on a
            // near-optimal feasible vertex and leaves phase 2 almost
            // nothing to do, where feasibility-first pivots reach a vertex
            // phase 2 then has to unwind.
            self.c.copy_from_slice(&self.d);
            btran(
                &self.lu,
                &self.etas,
                &mut self.c,
                &mut self.nz,
                &mut self.rho,
            );
            self.btran_costs(cost);
            let (y, y_cost) = (&self.rho, &self.y);
            let scores = &mut self.scores;
            scores.clear();
            scores.resize(self.inst.art_start, f64::NEG_INFINITY);
            let mut best = PIVOT_EPS;
            for (j, s) in scores.iter_mut().enumerate() {
                if self.in_basis[j] {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let mut g = 0.0;
                for (&r, &v) in rs.iter().zip(vs) {
                    g -= y[r] * v;
                }
                let score = g / self.inst.gamma[j];
                *s = score;
                if score > best {
                    best = score;
                }
            }
            if best <= PIVOT_EPS {
                return Ok(false);
            }
            let mut enter = usize::MAX;
            let mut best_rc = f64::NEG_INFINITY;
            for (j, &score) in scores.iter().enumerate() {
                if score < REPAIR_WINDOW * best {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let mut rc = cost[j];
                for (&r, &v) in rs.iter().zip(vs) {
                    rc -= y_cost[r] * v;
                }
                let rc = rc / self.inst.gamma[j];
                if enter == usize::MAX || rc > best_rc {
                    best_rc = rc;
                    enter = j;
                }
            }
            if enter == usize::MAX {
                return Ok(false);
            }
            self.ftran_col(enter);
            let w = &self.w;
            // Longest-step ratio test (piecewise-linear line search): the
            // total infeasibility s(t) is convex in the step t with a
            // slope kink at every basic's zero crossing.  Walk the sorted
            // crossings, accumulating slope, and stop at the first point
            // where s stops decreasing — one pivot then clears *every*
            // infeasibility passed along the way, instead of blocking at
            // the nearest crossing.
            // s'(0) = Σ d_i·w_i = −gain < 0: guaranteed improving.
            let mut slope: f64 = self.d.iter().zip(w).map(|(&di, &wi)| di * wi).sum();
            let crossings = &mut self.crossings;
            crossings.clear();
            for (i, &wi) in w.iter().enumerate() {
                let x = self.xb[i];
                let artificial = self.basis[i] >= self.inst.art_start;
                if x < -PIVOT_EPS {
                    if wi < -PIVOT_EPS {
                        // Infeasible basic reaches 0: its −slope term
                        // drops out (and an artificial must then *stay*
                        // at 0, kinking twice as hard).
                        let dd = if artificial { -2.0 * wi } else { -wi };
                        crossings.push((x / wi, dd, i));
                    }
                } else if artificial && x > PIVOT_EPS {
                    if wi > PIVOT_EPS {
                        crossings.push((x / wi, 2.0 * wi, i));
                    }
                } else if wi > PIVOT_EPS {
                    crossings.push((x.max(0.0) / wi, wi, i));
                } else if artificial && wi < -PIVOT_EPS {
                    // Artificial resting at 0 pushed positive: blocks
                    // immediately.
                    crossings.push((0.0, -wi, i));
                }
            }
            // Pushed in slot order, so the slot breaks the remaining ties
            // as a stable sort would.
            crossings.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(b.1.total_cmp(&a.1))
                    .then(a.2.cmp(&b.2))
            });
            let mut leave: Option<(usize, f64)> = None;
            for &(t, dd, i) in crossings.iter() {
                leave = Some((i, t));
                slope += dd;
                if slope >= -EPS {
                    break;
                }
            }
            let Some((l, t)) = leave else {
                return Ok(false);
            };
            if w[l].abs() <= PIVOT_EPS {
                return Ok(false);
            }
            self.apply_pivot(l, enter, t);
        }
        Ok(false)
    }

    /// Phase 1: drive the artificial variables to zero, then pivot basic
    /// artificials out (or leave them pinned at zero on redundant rows).
    fn phase1(&mut self) -> Result<(), SolveError> {
        if !self.basis.iter().any(|&c| c >= self.inst.art_start) {
            return Ok(());
        }
        let mut cost1 = vec![0.0; self.inst.total];
        for c in cost1.iter_mut().skip(self.inst.art_start) {
            *c = -1.0;
        }
        self.optimize(&cost1, true)?;
        let infeas: f64 = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|&(&c, _)| c >= self.inst.art_start)
            .map(|(_, &x)| x.max(0.0))
            .sum();
        if infeas > PIVOT_EPS {
            return Err(SolveError::Infeasible);
        }
        for slot in 0..self.inst.m {
            if self.basis[slot] < self.inst.art_start {
                continue;
            }
            // Row `slot` of B⁻¹A, via ρ = B⁻ᵀ e_slot: any real column with
            // a nonzero entry can replace the artificial at value 0.
            self.btran_unit(slot);
            for j in 0..self.inst.art_start {
                if self.in_basis[j] {
                    continue;
                }
                let (rs, vs) = self.inst.col(j);
                let dot: f64 = rs.iter().zip(vs).map(|(&r, &v)| self.rho[r] * v).sum();
                if dot.abs() > PIVOT_EPS {
                    self.ftran_col(j);
                    if self.w[slot].abs() > 0.5 * PIVOT_EPS {
                        self.apply_pivot(slot, j, 0.0);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Canonical final refactorization: rebuild a basis from the optimal
    /// *support* — the basic columns with value above tolerance, in
    /// ascending order — and let [`Elimination::factorize`]'s deterministic fill
    /// complete the degenerate rows with unit columns.  Values, duals and
    /// the objective are recomputed from the fresh factors.  The result
    /// therefore depends only on the optimal *vertex*, not on the pivot
    /// path or even on which of the vertex's (degenerate-)alternative
    /// bases the iteration stopped at — the property that makes warm and
    /// cold solves bit-identical.
    fn finalize(mut self, warm_used: bool) -> Result<SparseSolution, SolveError> {
        let inst = self.inst;
        let mut sorted: Vec<usize> = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|&(_, &x)| x.abs() > EPS)
            .map(|(&c, _)| c)
            .collect();
        sorted.sort_unstable();
        self.lu = Lu::default();
        self.elim.factorize(&sorted);
        self.adopt();
        let mut values = vec![0.0; inst.n];
        let mut objective = 0.0;
        for (&c, &x) in self.basis.iter().zip(&self.xb) {
            if c < inst.n {
                values[c] = x;
            }
            objective += inst.cost[c] * x;
        }
        for (ck, &c) in self.c.iter_mut().zip(&self.basis) {
            *ck = inst.cost[c];
        }
        let mut duals = vec![0.0; inst.m];
        self.lu.btran(&mut self.c, &mut duals);
        let basis = WarmStart::from_entries(
            self.basis
                .iter()
                .map(|&c| {
                    if c < inst.n {
                        BasisVar::Structural(c)
                    } else {
                        BasisVar::Row(inst.row_of_unit[c])
                    }
                })
                .collect(),
        );
        Ok(SparseSolution {
            objective,
            pivots: self.pivots,
            refactorizations: self.refactorizations,
            warm_used,
            basis_nonzeros: self.basis_nonzeros,
            lu_nonzeros: self.lu_nonzeros,
            values,
            duals,
            basis,
        })
    }
}

/// Attempts a warm-started solve; `Ok(None)` means the warm basis was
/// rejected (singular or infeasible here) and the caller should start
/// cold.
fn try_warm(
    inst: &Instance,
    ws: &WarmStart,
    budget: usize,
) -> Result<Option<SparseSolution>, SolveError> {
    let mut cands = Vec::with_capacity(inst.m);
    for &e in ws.entries() {
        match e {
            BasisVar::Structural(j) if j < inst.n => cands.push(j),
            BasisVar::Row(r) if r < inst.m => {
                let c = if inst.slack_of_row[r] != usize::MAX {
                    inst.slack_of_row[r]
                } else {
                    inst.art_of_row[r]
                };
                if c != usize::MAX {
                    cands.push(c);
                }
            }
            _ => {}
        }
    }
    let mut s = Solver::new(inst, &cands, budget);
    s.prefer = vec![false; inst.total];
    for &c in &cands {
        s.prefer[c] = true;
    }
    // Whatever infeasibility survives the slack patching is driven out by
    // pivoting: the composite primal repair (longest-step phase 1 from
    // this basis) first — it empirically lands closest to the carried
    // neighborhood — then the dual-style repair for the residue, and a
    // failure of both falls back to a cold start.
    let cost = inst.cost.clone();
    match s.repair_feasibility(&cost) {
        Ok(true) => {}
        Ok(false) => match s.dual_repair(&cost) {
            Ok(true) => {}
            // Stuck (possibly genuinely infeasible) or numerical
            // trouble: the cold path decides.
            Ok(false) | Err(_) => return Ok(None),
        },
        Err(_) => return Ok(None),
    }
    match s.optimize(&cost, false) {
        Ok(()) => {
            s.polish(&cost);
            s.finalize(true).map(Some)
        }
        // A feasible warm basis witnessing unboundedness is conclusive.
        Err(SolveError::Unbounded) => Err(SolveError::Unbounded),
        // Numerical trouble: retry cold.
        Err(_) => Ok(None),
    }
}

fn solve(lp: &LinearProgram, warm: Option<&WarmStart>) -> Result<SparseSolution, SolveError> {
    let inst = Instance::build(lp);
    let budget = lp.max_iterations.unwrap_or(50 * (inst.m + inst.n) + 1000);
    if let Some(ws) = warm.filter(|w| !w.is_empty()) {
        if let Some(sol) = try_warm(&inst, ws, budget)? {
            return Ok(sol);
        }
    }
    let cands: Vec<usize> = (0..inst.m)
        .map(|r| {
            if inst.art_of_row[r] != usize::MAX {
                inst.art_of_row[r]
            } else {
                inst.slack_of_row[r]
            }
        })
        .collect();
    let mut s = Solver::new(&inst, &cands, budget);
    s.phase1()?;
    let cost = inst.cost.clone();
    s.optimize(&cost, false)?;
    s.polish(&cost);
    s.finalize(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{LinearProgram, Relation};

    fn lp(obj: &[f64], rows: &[(&[f64], Relation, f64)]) -> LinearProgram {
        let mut p = LinearProgram::new();
        let vars: Vec<VarId> = obj.iter().map(|&c| p.add_var(c)).collect();
        for (coefs, rel, rhs) in rows {
            let terms: Vec<(VarId, f64)> = vars
                .iter()
                .zip(coefs.iter())
                .map(|(&v, &c)| (v, c))
                .collect();
            p.add_constraint(&terms, *rel, *rhs);
        }
        p
    }

    #[test]
    fn textbook_le() {
        let p = lp(
            &[3.0, 2.0],
            &[
                (&[1.0, 1.0], Relation::Le, 4.0),
                (&[1.0, 0.0], Relation::Le, 2.0),
            ],
        );
        let s = p.solve_sparse().unwrap();
        assert!((s.objective - 10.0).abs() < 1e-9);
        assert!((s.value(VarId(0)) - 2.0).abs() < 1e-9);
        assert!((s.value(VarId(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phase1_ge_and_eq() {
        // max x + y  s.t.  x + y = 3, x ≥ 1, y ≤ 5
        let p = lp(
            &[1.0, 1.0],
            &[
                (&[1.0, 1.0], Relation::Eq, 3.0),
                (&[1.0, 0.0], Relation::Ge, 1.0),
                (&[0.0, 1.0], Relation::Le, 5.0),
            ],
        );
        let s = p.solve_sparse().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let p = lp(
            &[1.0],
            &[(&[1.0], Relation::Le, 1.0), (&[1.0], Relation::Ge, 2.0)],
        );
        assert_eq!(p.solve_sparse().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = lp(&[1.0], &[(&[-1.0], Relation::Le, 1.0)]);
        assert_eq!(p.solve_sparse().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ 2 written as -x ≤ -2.
        let p = lp(&[-1.0], &[(&[-1.0], Relation::Le, -2.0)]);
        let s = p.solve_sparse().unwrap();
        assert!((s.objective + 2.0).abs() < 1e-9);
        assert!((s.value(VarId(0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn beale_cycling_instance() {
        // Beale's classic degenerate LP; Bland fallback must terminate.
        let p = lp(
            &[0.75, -150.0, 0.02, -6.0],
            &[
                (&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0),
                (&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0),
                (&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0),
            ],
        );
        let s = p.solve_sparse().unwrap();
        assert!(
            (s.objective - 0.05).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn agrees_with_dense_oracle_on_mixed_relations() {
        let p = lp(
            &[2.0, 3.0, 1.0],
            &[
                (&[1.0, 1.0, 1.0], Relation::Le, 10.0),
                (&[1.0, 0.0, 2.0], Relation::Ge, 2.0),
                (&[0.0, 1.0, -1.0], Relation::Eq, 1.0),
                (&[3.0, 1.0, 0.0], Relation::Le, 15.0),
            ],
        );
        let dense = p.solve().unwrap();
        let sparse = p.solve_sparse().unwrap();
        assert!(
            (dense.objective - sparse.objective).abs() <= 1e-9 * (1.0 + dense.objective.abs()),
            "dense {} vs sparse {}",
            dense.objective,
            sparse.objective
        );
        for (d, s) in dense.duals().iter().zip(sparse.duals()) {
            assert!((d - s).abs() < 1e-6, "dual mismatch {d} vs {s}");
        }
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        let p = lp(
            &[3.0, 2.0],
            &[
                (&[1.0, 1.0], Relation::Le, 4.0),
                (&[1.0, 0.0], Relation::Le, 2.0),
            ],
        );
        let s = p.solve_sparse().unwrap();
        let dual_obj: f64 = s.duals().iter().zip([4.0, 2.0]).map(|(y, b)| y * b).sum();
        assert!((dual_obj - s.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_reaches_same_optimum_with_fewer_pivots() {
        // A chain of programs differing only in one rhs.
        let build = |cap: f64| {
            lp(
                &[3.0, 2.0, 1.0],
                &[
                    (&[1.0, 1.0, 1.0], Relation::Le, cap),
                    (&[1.0, 0.0, 0.0], Relation::Le, 2.0),
                    (&[0.0, 1.0, 2.0], Relation::Le, 3.0),
                ],
            )
        };
        let first = build(4.0).solve_sparse().unwrap();
        let mut warm = first.warm_start().clone();
        for cap in [4.5, 5.0, 5.5] {
            let p = build(cap);
            let cold = p.solve_sparse().unwrap();
            let hot = p.solve_sparse_warm(&warm).unwrap();
            assert_eq!(
                cold.objective.to_bits(),
                hot.objective.to_bits(),
                "warm diverged at cap {cap}"
            );
            assert!(hot.pivots <= cold.pivots, "warm start pivoted more");
            warm = hot.warm_start().clone();
        }
    }

    #[test]
    fn empty_warm_start_is_cold() {
        let p = lp(&[1.0], &[(&[1.0], Relation::Le, 1.0)]);
        let s = p.solve_sparse_warm(&WarmStart::default()).unwrap();
        assert!(!s.warm_used);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn remap_drops_and_translates() {
        let ws = WarmStart::from_entries(vec![
            BasisVar::Structural(0),
            BasisVar::Structural(3),
            BasisVar::Row(1),
        ]);
        let out = ws.remap(|v| match v {
            BasisVar::Structural(3) => None,
            BasisVar::Structural(j) => Some(BasisVar::Structural(j + 1)),
            r => Some(r),
        });
        assert_eq!(out.entries(), &[BasisVar::Structural(1), BasisVar::Row(1)]);
    }

    /// SplitMix64: a seeded generator for the factorization tests.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in [-1, 1), away from zero.
        fn coef(&mut self) -> f64 {
            let v = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            if v.abs() < 0.05 {
                0.5
            } else {
                v
            }
        }
    }

    /// Relative residuals `‖Bz − a‖/‖a‖` of an FTRAN and `‖Bᵀy − c‖/‖c‖`
    /// of a BTRAN through the factors `f` has built, on seeded dense
    /// right-hand sides.
    fn residuals(inst: &Instance, f: &Elimination, rng: &mut Mix) -> (f64, f64) {
        let m = inst.m;
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let a: Vec<f64> = (0..m).map(|_| rng.coef()).collect();
        let mut z = vec![0.0; m];
        f.lu.ftran(&mut a.clone(), &mut z);
        let mut bz = vec![0.0; m];
        for (k, &c) in f.basis.iter().enumerate() {
            let (rs, vs) = inst.col(c);
            for (&r, &v) in rs.iter().zip(vs) {
                bz[r] += v * z[k];
            }
        }
        let df: Vec<f64> = bz.iter().zip(&a).map(|(x, y)| x - y).collect();
        let c: Vec<f64> = (0..m).map(|_| rng.coef()).collect();
        let mut y = vec![0.0; m];
        f.lu.btran(&mut c.clone(), &mut y);
        let db: Vec<f64> = f
            .basis
            .iter()
            .zip(&c)
            .map(|(&col, &ck)| {
                let (rs, vs) = inst.col(col);
                rs.iter().zip(vs).map(|(&r, &v)| v * y[r]).sum::<f64>() - ck
            })
            .collect();
        (norm(&df) / norm(&a), norm(&db) / norm(&c))
    }

    #[test]
    fn factorization_solves_random_sparse_bases() {
        for seed in 0..40u64 {
            let mut rng = Mix(seed);
            let m = 8 + rng.below(40);
            let rels = [Relation::Le, Relation::Ge, Relation::Eq];
            let mut p = LinearProgram::new();
            // Column 0 is dense (a θ-like column touching every row); the
            // rest carry one to four random entries each.
            let mut cols: Vec<Vec<(usize, f64)>> = vec![(0..m).map(|r| (r, rng.coef())).collect()];
            for _ in 0..m {
                let k = 1 + rng.below(4);
                cols.push((0..k).map(|_| (rng.below(m), rng.coef())).collect());
            }
            // A dependent column: the sum of columns 1 and 2.
            let dep: Vec<(usize, f64)> = cols[1].iter().chain(&cols[2]).copied().collect();
            cols.push(dep);
            let vars: Vec<VarId> = cols.iter().map(|_| p.add_var(0.0)).collect();
            let mut rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); m];
            for (v, col) in vars.iter().zip(&cols) {
                for &(r, a) in col {
                    rows[r].push((*v, a));
                }
            }
            for row in &rows {
                p.add_constraint(row, rels[rng.below(3)], 1.0);
            }
            let inst = Instance::build(&p);
            let dep_col = cols.len() - 1;
            // The dense column first, then fewer structurals than rows,
            // the dependent column, and a repeat.
            let mut cands = vec![0, 1, 2];
            cands.extend(3..3 + m / 2);
            cands.extend([dep_col, 1, 0]);
            let mut f = Elimination::new(&inst);
            f.factorize(&cands);
            assert_eq!(f.basis.len(), m);
            let mut seen = f.basis.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), m, "seed {seed}: a column was pivoted twice");
            assert!(
                ![1, 2, dep_col].iter().all(|c| f.basis.contains(c)),
                "seed {seed}: dependent candidate accepted with both of its parts"
            );
            for _ in 0..3 {
                let (rf, rb) = residuals(&inst, &f, &mut rng);
                assert!(rf <= 1e-9, "seed {seed}: FTRAN residual {rf:e}");
                assert!(rb <= 1e-9, "seed {seed}: BTRAN residual {rb:e}");
            }
        }
    }

    /// The basis a candidate-order elimination with U picks:
    /// `Elimination::take` and then `complete`, the oracle of
    /// [`choose_basis`].
    fn candidate_order_choice(inst: &Instance, cands: &[usize]) -> Vec<usize> {
        let mut f = Elimination::new(inst);
        f.reset();
        f.take(cands);
        f.complete();
        f.basis
    }

    /// A seeded program shaped like a Step-1 path-rate LP: column 0 is a
    /// θ touching nearly every row, demand rows (`=` or `≥`) carry one
    /// path's `1` each, capacity rows (`≤`) carry paths' `±1` or `2`, and
    /// θ's coefficients come from a short list, so pivot magnitudes tie
    /// often.  Returns the program and its structural column count; the
    /// last structurals are an exact copy of one path and the sum of two.
    fn step1_shaped(rng: &mut Mix) -> (LinearProgram, usize) {
        let m = 6 + rng.below(60);
        let demands = 1 + m / 3;
        let paths = 2 + rng.below(m + m / 2);
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        let theta_coefs = [-1.0, -2.0, 1.0, 0.5, -1.0];
        cols.push(
            (0..m)
                .filter_map(|r| {
                    let v = theta_coefs[rng.below(theta_coefs.len())];
                    (rng.below(8) != 0).then_some((r, v))
                })
                .collect(),
        );
        for _ in 0..paths {
            let mut col = vec![(rng.below(demands), 1.0)];
            for _ in 0..rng.below(5) {
                let r = demands + rng.below(m - demands);
                let v = [1.0, -1.0, 2.0][rng.below(3)];
                if col.iter().all(|e| e.0 != r) {
                    col.push((r, v));
                }
            }
            cols.push(col);
        }
        let copy = cols[1].clone();
        let mut sum = cols[1].clone();
        for &(r, v) in &cols[2] {
            match sum.iter_mut().find(|e| e.0 == r) {
                Some(e) => e.1 += v,
                None => sum.push((r, v)),
            }
        }
        cols.push(copy);
        cols.push(sum);
        let mut p = LinearProgram::new();
        let vars: Vec<VarId> = cols.iter().map(|_| p.add_var(0.0)).collect();
        let mut rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); m];
        for (v, col) in vars.iter().zip(&cols) {
            for &(r, a) in col {
                rows[r].push((*v, a));
            }
        }
        for (r, row) in rows.iter().enumerate() {
            let rel = if r >= demands {
                Relation::Le
            } else if rng.below(2) == 0 {
                Relation::Eq
            } else {
                Relation::Ge
            };
            p.add_constraint(row, rel, 1.0);
        }
        (p, cols.len())
    }

    #[test]
    fn chooser_matches_candidate_order_elimination() {
        // Lists shorter than `m`, and lists at least `m` long whose
        // choice still needs unit columns they do not name.
        let (mut short, mut long_completed) = (0, 0);
        for seed in 0..300u64 {
            let mut rng = Mix(seed);
            let (p, n) = step1_shaped(&mut rng);
            let inst = Instance::build(&p);
            for _ in 0..4 {
                // θ first, then structurals ascending with some left out
                // and some repeated, as canonical supports and carried
                // warm bases list them; then unit columns, some on rows
                // the structurals pivot and some interleaved.
                let mut cands = vec![0];
                for j in 1..n {
                    if rng.below(3) != 0 {
                        cands.push(j);
                    }
                    if rng.below(10) == 0 {
                        cands.push(1 + rng.below(j));
                    }
                }
                for _ in 0..rng.below(inst.m) {
                    let unit = inst.n + rng.below(inst.total - inst.n);
                    let at = rng.below(cands.len() + 1);
                    cands.insert(at, unit);
                }
                if rng.below(4) == 0 {
                    // A list at least `m` long, which mostly still needs
                    // completing.
                    let more: Vec<usize> = (0..inst.m).map(|_| rng.below(n)).collect();
                    cands.extend(more);
                }
                let want = candidate_order_choice(&inst, &cands);
                assert_eq!(want.len(), inst.m);
                assert_eq!(
                    choose_basis(&inst, &cands),
                    want,
                    "seed {seed}: candidates {cands:?}"
                );
                if cands.len() < inst.m {
                    short += 1;
                } else if want.iter().any(|c| !cands.contains(c)) {
                    long_completed += 1;
                }
            }
        }
        assert!(
            short > 100 && long_completed > 100,
            "{short} {long_completed}"
        );
    }

    #[test]
    fn instance_sums_repeated_terms_in_insertion_order() {
        let mut p = LinearProgram::new();
        let x = p.add_var(1.0);
        let y = p.add_var(1.0);
        let z = p.add_var(0.0);
        // In insertion order (1e16 + 1) − 1e16 rounds to 0, so x leaves
        // row 0; summed in any other order it reads 1.
        p.add_constraint(
            &[(x, 1e16), (y, 2.0), (x, 1.0), (x, -1e16)],
            Relation::Le,
            4.0,
        );
        // A negative rhs flips the row, and y's terms cancel.
        p.add_constraint(
            &[(y, 1.0), (x, 3.0), (y, -1.0), (z, 0.0)],
            Relation::Ge,
            -1.0,
        );
        p.add_constraint(&[(z, 0.5), (x, 1.0), (z, 0.25)], Relation::Eq, 2.0);
        let inst = Instance::build(&p);
        assert_eq!(inst.col(0), (&[1, 2][..], &[-3.0, 1.0][..]));
        assert_eq!(inst.col(1), (&[0][..], &[2.0][..]));
        assert_eq!(inst.col(2), (&[2][..], &[0.75][..]));
        // Row 1 became a `≤` row: slacks of rows 0 and 1, then row 2's
        // artificial.
        assert_eq!(inst.col(3), (&[0][..], &[1.0][..]));
        assert_eq!(inst.col(4), (&[1][..], &[1.0][..]));
        assert_eq!(inst.col(5), (&[2][..], &[1.0][..]));
        assert_eq!((inst.total, inst.b.as_slice()), (6, &[4.0, 1.0, 2.0][..]));
    }

    #[test]
    fn rank_deficient_completion_picks_pinned_unit_columns() {
        // Five rows, three of them with an artificial column; x3 = x1 + x2
        // is dependent and x1 is offered twice, so three structurals are
        // accepted and two rows are completed with unit columns.
        let p = lp(
            &[0.0; 4],
            &[
                (&[1.0, 1.0, 0.0, 1.0], Relation::Le, 1.0),
                (&[1.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0),
                (&[1.0, 0.0, 0.0, 0.0], Relation::Ge, 1.0),
                (&[1.0, 1.0, 0.0, 1.0], Relation::Le, 1.0),
                (&[1.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0),
            ],
        );
        let inst = Instance::build(&p);
        let mut f = Elimination::new(&inst);
        f.factorize(&[0, 1, 2, 3, 1]);
        let mut set = f.basis.clone();
        set.sort_unstable();
        // Structurals are columns 0–3, slacks 4–6 (rows 0, 2, 3) and
        // artificials 7–9 (rows 1, 2, 4).  The set was captured from the
        // basis-order factorization: the completion takes the slack of row
        // 3 and the artificial of row 4, whatever order the accepted
        // columns are eliminated in.
        assert_eq!(set, [0, 1, 2, 6, 9]);
        let mut rng = Mix(7);
        let (rf, rb) = residuals(&inst, &f, &mut rng);
        assert!(rf <= 1e-9 && rb <= 1e-9, "residuals {rf:e} {rb:e}");
    }

    /// Residuals of the solver's current FTRAN image `w` of column `j`
    /// (`‖Bw − a_j‖∞`) and of `y = B⁻ᵀ c_B` (`maxₖ |a_{B(k)}ᵀy − c_{B(k)}|`),
    /// checked against the basis the eta file has updated to.
    fn eta_residuals(s: &Solver, j: usize, cost: &[f64]) -> (f64, f64) {
        let inst = s.inst;
        let mut bw = vec![0.0; inst.m];
        for (k, &c) in s.basis.iter().enumerate() {
            let (rs, vs) = inst.col(c);
            for (&r, &v) in rs.iter().zip(vs) {
                bw[r] += v * s.w[k];
            }
        }
        let (rs, vs) = inst.col(j);
        for (&r, &v) in rs.iter().zip(vs) {
            bw[r] -= v;
        }
        let rf = bw.iter().fold(0.0f64, |a, x| a.max(x.abs()));
        let rb = s
            .basis
            .iter()
            .map(|&c| {
                let (rs, vs) = inst.col(c);
                let dot: f64 = rs.iter().zip(vs).map(|(&r, &v)| v * s.y[r]).sum();
                (dot - cost[c]).abs()
            })
            .fold(0.0f64, f64::max);
        (rf, rb)
    }

    #[test]
    fn eta_file_solves_track_the_updated_basis() {
        // Tall programs with a dense column: every FTRAN image is dense,
        // and the costs are nonzero on structural slots only, so BTRAN's
        // eta replay starts sparse and fills in slot by slot.
        for seed in 0..12u64 {
            let mut rng = Mix(seed);
            let m = 40 + rng.below(60);
            let n = 3 + rng.below(10);
            let mut p = LinearProgram::new();
            let vars: Vec<VarId> = (0..n).map(|_| p.add_var(rng.coef())).collect();
            for _ in 0..m {
                let mut terms = vec![(vars[0], rng.coef())];
                for _ in 0..1 + rng.below(3) {
                    terms.push((vars[1 + rng.below(n - 1)], rng.coef()));
                }
                p.add_constraint(&terms, Relation::Le, 1.0);
            }
            let inst = Instance::build(&p);
            let slacks: Vec<usize> = (0..m).map(|r| inst.slack_of_row[r]).collect();
            let mut s = Solver::new(&inst, &slacks, usize::MAX);
            // More pivots than the eta file holds, so the replay also
            // runs across a refactorization.
            for step in 0..20 * ETA_LIMIT {
                if s.pivots > ETA_LIMIT + 20 {
                    break;
                }
                let out: Vec<usize> = (0..inst.total).filter(|&c| !s.in_basis[c]).collect();
                let j = out[rng.below(out.len())];
                s.ftran_col(j);
                let l = (0..m)
                    .max_by(|&a, &b| s.w[a].abs().total_cmp(&s.w[b].abs()))
                    .unwrap();
                if s.w[l].abs() < 1e-2 {
                    continue;
                }
                s.apply_pivot(l, j, 0.0);
                let probe = (0..inst.total).find(|&c| !s.in_basis[c]).unwrap();
                s.ftran_col(probe);
                s.btran_costs(&inst.cost);
                let (rf, rb) = eta_residuals(&s, probe, &inst.cost);
                assert!(
                    rf <= 1e-8 && rb <= 1e-8,
                    "seed {seed} step {step} ({} etas): residuals {rf:e} {rb:e}",
                    s.etas.len()
                );
            }
            assert!(
                s.refactorizations >= 2,
                "seed {seed}: no refactorization in {} pivots",
                s.pivots
            );
        }
    }
}
