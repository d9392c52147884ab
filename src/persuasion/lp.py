"""Self-contained dense linear programming.

Implements a two-phase primal simplex on a dense tableau. All programs in
this package are small and dense, so a tableau method is both fast enough
and, more importantly, deterministic: identical inputs always produce the
identical vertex. Pivoting uses the largest-coefficient rule and falls back
to Bland's rule after a long degenerate streak, which guarantees
termination without cycling.

A pivot costs O(k * width) for a tableau of the given width, where k is the
number of rows with a nonzero entry in the pivot column: the rank-1 update
leaves all other rows alone, since it would only subtract exact zeros there.
Tableau rows of the direct-scheme programs stay sparse: on 81-300 state
priors a pivot touches about one row in seven on average. The phase-1 objective row
is priced only until phase 1 ends.

A program is held in matrix form (A, relations, b) over variables x >= 0,
which the builders assemble with numpy and the constructor checks in one
vectorized pass; row input is stacked once (see LinearProgram). The
tableau copies A into place, negating the rows whose rhs is negative, and
the returned point is checked with one A @ x.

The tableau has no artificial columns. Artificial variables exist only as
basis labels: phase 1 prices and the drive-out step reads only the
structural and slack columns, and duals and Farkas vectors are recovered
from the labels, A and the row signs. On a 300-state, 3-action
direct-scheme program that makes each row about a quarter narrower.

A start basis can skip phase 1. ``solve(lp, start=...)`` takes one entry
per constraint: a variable index that becomes basic in that row, or -1 to
keep the row's slack or surplus basic. The start is accepted when the
named block A[R, cols] is diagonal with a nonzero diagonal, every other
row is an inequality, and the basic solution is nonnegative up to
FEAS_TOL. The basis matrix is then block lower-triangular, so B^-1 [A | b]
and the priced phase-2 row come from one block elimination (on slice views
when the named rows are a prefix, as in every direct-scheme start) instead
of one pivot per row. Any other start leaves the tableau untouched and
runs the cold solve, byte for byte as without a start. Installing the
start is not counted as pivots. A crash solve that does not end optimal is
redone cold: rounding error builds up pivot by pivot, and on one 243-state
i.i.d. expansion the phase 2 from the honest start drifted into a
numerical failure that the cold path does not hit. So a start never costs
a certified answer.

Tolerances: pivot 1e-10, feasibility 1e-8. A returned "optimal" point is
re-checked against the original constraints; anything that cannot be
certified comes back with status "numerical_failure", never as a wrong
optimum.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8

@dataclass(frozen=True)
class Constraint:
    coeffs: np.ndarray
    relation: str
    rhs: float


def _stack_rows(constraints, n: int):
    """(A, relations, b) from Constraint objects or (coeffs, relation, rhs)."""
    rows = [(c.coeffs, c.relation, c.rhs) if isinstance(c, Constraint) else c
            for c in constraints]
    for k, (coeffs, _, _) in enumerate(rows):
        if np.shape(coeffs) != (n,):
            raise ValidationError(
                f"constraint {k}: expected {n} coefficients, got {np.shape(coeffs)}")
    coeffs, relations, rhs = zip(*rows) if rows else ((), (), ())
    return np.array(coeffs, dtype=float).reshape(len(rows), n), relations, rhs


def _checked_relations(relations, k: int) -> np.ndarray:
    """k relations, each "<=", "=" or ">=", as a "<U2" array."""
    rel = np.asarray(relations, dtype=str).reshape(-1)
    if rel.size != k:
        raise ValidationError(f"expected {k} relations, got {rel.size}")
    unknown = (rel != "<=") & (rel != "=") & (rel != ">=")
    if unknown.any():
        r = int(np.argmax(unknown))
        raise ValidationError(f"constraint {r}: unknown relation {rel[r]!r}")
    return rel.astype("<U2")


@dataclass(frozen=True)
class _Rows(Sequence):
    """Read-only row view of a program's (A, relations, b)."""

    _lp: "LinearProgram"

    def __len__(self) -> int:
        return self._lp.b.size

    def __getitem__(self, k: int) -> Constraint:
        return Constraint(self._lp.A[k], str(self._lp.relations[k]), float(self._lp.b[k]))


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective @ x subject to A x (relations) b and x >= 0.

    Constraints are ``A`` (k x n), ``relations`` (k of "<=", "=", ">=")
    and ``b`` (k), checked in one vectorized pass and kept as read-only
    views, not copies. Row input,
    ``LinearProgram(c, [(coeffs, relation, rhs) or Constraint, ...])``, is
    stacked once; ``constraints`` reads the rows back from A. Every
    variable is nonnegative; a bound of another kind is written as a row.
    """

    objective: np.ndarray
    A: np.ndarray
    relations: np.ndarray
    b: np.ndarray

    def __init__(self, objective, constraints=(), *, A=None, relations=None, b=None):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValidationError("objective coefficients must be finite")
        n = c.size
        if A is None:
            if relations is not None or b is not None:
                raise ValidationError("relations and b need A")
            A, relations, b = _stack_rows(constraints, n)
        elif len(constraints):
            raise ValidationError("give constraints as rows or as A, not both")
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if b.ndim != 1 or A.shape != (b.size, n):
            raise ValidationError(f"A must have shape ({b.size}, {n}), got {A.shape}")
        rel = _checked_relations(relations, b.size)
        for name, values in (("rhs", b[:, None]), ("coefficients", A)):
            finite = np.isfinite(values).all(axis=1)
            if not finite.all():
                raise ValidationError(
                    f"constraint {np.argmin(finite)}: {name} must be finite")
        for name, value in zip(("objective", "A", "relations", "b"), (c, A, rel, b)):
            view = value.view()  # read-only; the caller's array stays writeable
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def constraints(self) -> Sequence:
        """The rows as Constraint objects over views of A (read-only)."""
        return _Rows(self)


@dataclass(frozen=True)
class LpOutcome:
    """Result of a solve.

    status is one of "optimal", "infeasible", "unbounded",
    "numerical_failure". When optimal, ``point`` is a vertex and ``duals``
    holds one multiplier per constraint (None when the duality gap could
    not be certified). ``certificate`` carries a best-effort Farkas vector
    for infeasible programs. ``pivots`` counts the simplex pivots of phase 1
    and phase 2; the pivots that drive leftover artificial variables out of
    the basis between the phases are not counted. ``start`` is "crash" when
    a start basis given to :func:`solve` was installed, so phase 1 did not
    run and ``pivots`` is (0, phase-2 pivots); it is "cold" otherwise, a
    rejected start included, and so is the cold re-solve that replaces a
    crash solve which did not end optimal.
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None
    pivots: Optional[tuple[int, int]] = None
    start: str = "cold"


def solve(lp: LinearProgram, start=None) -> LpOutcome:
    """Solve a linear program, returning a vertex optimum when one exists.

    ``start`` optionally names a start basis with one entry per constraint:
    a variable index that becomes basic in that row, or -1 to keep the
    row's own slack or surplus basic. A start that cannot be installed as a
    primal-feasible basis falls back to the cold two-phase solve (see the
    module docstring), and so does a crash solve that does not end optimal.
    """
    if start is not None:
        start = np.asarray(start)
        if start.shape != (lp.b.size,) or (
                start.size and start.dtype.kind not in "iu"):
            raise ValidationError("start needs one integer entry per constraint")
        if np.any(start < -1) or np.any(start >= lp.objective.size):
            raise ValidationError("start entries must be -1 or a variable index")
        start = start.astype(int)
    out = _simplex(lp, start)
    if out.start == "crash" and out.status != "optimal":
        # rounding error can build up along a long phase 2 from the start
        out = _simplex(lp)
    return out


# ---------------------------------------------------------------------------
# tableau simplex

_DEGENERATE_SWITCH = 40  # consecutive degenerate pivots before Bland's rule


class _Tableau:
    """Dense tableau [B^-1 A | B^-1 b] over the structural and slack columns.

    Rows with b < 0 enter negated, with "<=" and ">=" swapped, so the
    starting rhs is nonnegative; sign holds -1.0 for those rows and b the
    flipped rhs. Columns: structural, then one slack or surplus per
    inequality row in row order. Rows that need an artificial variable
    ("=" and ">=" rows after the flip) get a basis label first_art + k but
    no column: phase 1 prices only columns below first_art, the drive-out
    step reads only those, and duals and certificates come from the
    labels, A and sign.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.A.shape
        neg = lp.b < 0
        self.sign = np.where(neg, -1.0, 1.0)
        self.b = lp.b * self.sign
        eq = lp.relations == "="
        ge = np.where(neg, lp.relations == "<=", lp.relations == ">=")  # after the flip
        slack_rows = (~eq).nonzero()[0]
        self.art_rows = (eq | ge).nonzero()[0]  # row of label first_art + k
        self.first_art = n + slack_rows.size
        T = np.zeros((m, self.first_art + 1))
        T[:, :n] = lp.A
        T[neg.nonzero()[0], :n] *= -1.0
        T[:, -1] = self.b
        self.slack_col = np.full(m, -1)
        self.slack_col[slack_rows] = n + np.arange(slack_rows.size)
        slack_sign = np.where(ge[slack_rows], -1.0, 1.0)
        T[slack_rows, self.slack_col[slack_rows]] = slack_sign
        basis = self.slack_col.copy()
        basis[self.art_rows] = self.first_art + np.arange(self.art_rows.size)
        # each non-structural label n + k is a unit column: its row and sign
        self.unit_row = np.concatenate([slack_rows, self.art_rows])
        self.unit_sign = np.concatenate([slack_sign, np.ones(self.art_rows.size)])
        self.T = T
        self.basis = basis
        self.n_struct = n
        self.m = m
        # Phase-2 reduced costs are carried along from the start so no
        # re-pricing is needed between phases; the phase-1 row z1 is priced
        # only when phase 1 runs.
        z2 = np.zeros(self.first_art + 1)
        z2[:n] = lp.objective
        self.z2 = z2
        self.z1 = None
        self.priced = (z2,)
        self.iterations = 0

    def price_phase1(self) -> None:
        """Phase-1 objective max -(sum of artificials), priced out over the
        starting basis."""
        z1 = np.zeros(self.T.shape[1])
        for r in self.art_rows:
            z1 += self.T[r]
        self.z1 = z1
        self.priced = (z1, self.z2)

    def crash(self, start: np.ndarray) -> bool:
        """Install a start basis by one block elimination; False if rejected.

        start[k] >= 0 makes that variable basic in constraint row k; -1
        keeps the row's slack basic. The start is accepted only when the
        named block A[R, cols] is diagonal with a nonzero diagonal and every
        other row has a slack. Then B^-1 [A | b] is: the R rows divided by
        their diagonal, and the other rows minus C @ (those rows), divided
        by their slack coefficient, where C is their part of the named
        columns. It is also rejected when an entry of B^-1 b is below
        -FEAS_TOL. When R is a prefix of the rows, both blocks are updated
        in place through slice views.
        """
        R = (start >= 0).nonzero()[0]
        O = (start < 0).nonzero()[0]
        if np.any(self.slack_col[O] < 0):
            return False
        cols = start[R]
        T = self.T
        D = T[np.ix_(R, cols)]
        diag = D.diagonal()
        if np.count_nonzero(D) != R.size or not np.all(diag):
            return False
        C = T[np.ix_(O, cols)]
        slack = T[O, self.slack_col[O]]
        # the rhs column alone decides, so a rejected start changes nothing
        rhs = T[R, -1] / diag
        rhs_other = (T[O, -1] - C @ rhs) / slack
        if min(rhs.min(initial=0.0), rhs_other.min(initial=0.0)) < -FEAS_TOL:
            return False
        prefix = R.size == 0 or R[-1] == R.size - 1
        TR = T[: R.size] if prefix else T[R]
        if not np.all(diag == 1.0):  # x / 1.0 == x
            TR /= diag[:, None]
        # the named columns come out as exact unit vectors: x / x == 1 and,
        # with TR[:, cols] == I, C - C @ TR[:, cols] == 0
        if prefix:
            TO = T[R.size:]
            TO -= C @ TR
            TO /= slack[:, None]
        else:
            T[R] = TR
            T[O] = (T[O] - C @ TR) / slack[:, None]
        z2 = self.z2
        z2 -= z2[cols] @ TR
        z2[cols] = 0.0
        self.basis[R] = cols
        self.basis[O] = self.slack_col[O]
        return True

    def pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        T[row] /= piv
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        # A row with a zero in the pivot column would only have zeros
        # subtracted, so the rank-1 update skips it.
        hit = colvals.nonzero()[0]
        T[hit] -= colvals[hit, None] * T[row]
        T[:, col] = 0.0
        T[row, col] = 1.0
        for z in self.priced:
            if z[col] != 0.0:
                z -= z[col] * T[row]
                z[col] = 0.0
        self.basis[row] = col

    def run(self, z: np.ndarray, allowed_upto: int, max_iter: int) -> str:
        """Pivot until optimal/unbounded on objective row z (maximization)."""
        T = self.T
        bland = False
        degenerate_streak = 0
        while True:
            cols = z[:allowed_upto]
            if bland:
                candidates = np.nonzero(cols > PIVOT_TOL)[0]
                if candidates.size == 0:
                    return "optimal"
                enter = int(candidates[0])
            else:
                enter = int(np.argmax(cols))
                if cols[enter] <= PIVOT_TOL:
                    return "optimal"
            col = T[:, enter]
            pos = np.nonzero(col > PIVOT_TOL)[0]
            if pos.size == 0:
                return "unbounded"
            ratios = T[pos, -1] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + PIVOT_TOL]
            # smallest basis index among ties keeps Bland's rule valid
            leave = int(ties[np.argmin(self.basis[ties])])
            if best <= PIVOT_TOL:
                degenerate_streak += 1
                if degenerate_streak >= _DEGENERATE_SWITCH:
                    bland = True
            else:
                degenerate_streak = 0
            self.pivot(leave, enter)
            self.iterations += 1
            if self.iterations > max_iter:
                return "iteration_limit"


def _simplex(lp: LinearProgram, start: Optional[np.ndarray] = None) -> LpOutcome:
    tab = _Tableau(lp)
    m = tab.m
    # the limit counts one artificial column per row, as the tableau once had
    max_iter = 2000 + 50 * (m + tab.first_art + m)
    kind = "crash" if start is not None and tab.crash(start) else "cold"

    if kind == "crash":
        phase1_pivots = 0
        kept_rows = np.arange(m)
    elif m > 0:
        tab.price_phase1()
        status = tab.run(tab.z1, tab.first_art, max_iter)
        phase1_pivots = tab.iterations
        if status == "iteration_limit":
            return LpOutcome(status="numerical_failure", pivots=(phase1_pivots, 0))
        phase1 = -tab.z1[-1]
        infeasibility = -phase1  # sum of artificials left over
        if infeasibility > FEAS_TOL:
            return LpOutcome(status="infeasible", certificate=_farkas(lp, tab),
                             pivots=(phase1_pivots, 0))
        tab.priced = (tab.z2,)
        # Drive remaining artificial variables out of the basis; a row whose
        # artificial cannot leave is redundant and gets dropped.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if tab.basis[r] >= tab.first_art:
                row = tab.T[r, : tab.first_art]
                nz = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if nz.size:
                    tab.pivot(r, int(nz[0]))
                else:
                    keep[r] = False
        if not keep.all():
            tab.T = tab.T[keep]
            tab.basis = tab.basis[keep]
            tab.m = int(keep.sum())
        kept_rows = np.nonzero(keep)[0]
    else:
        phase1_pivots = 0
        kept_rows = np.zeros(0, dtype=int)

    status = tab.run(tab.z2, tab.first_art, max_iter)
    pivots = (phase1_pivots, tab.iterations - phase1_pivots)
    if status == "iteration_limit":
        return LpOutcome(status="numerical_failure", pivots=pivots, start=kind)
    if status == "unbounded":
        return LpOutcome(status="unbounded", pivots=pivots, start=kind)

    # no artificial label is basic after phase 1
    u = np.zeros(tab.first_art)
    u[tab.basis] = tab.T[:, -1]
    if np.any(u[tab.basis] < -FEAS_TOL):
        return LpOutcome(status="numerical_failure", pivots=pivots, start=kind)
    x = u[: tab.n_struct] + 0.0  # a -0.0 entry comes back as 0.0
    if not _feasible(lp, x):
        return LpOutcome(status="numerical_failure", pivots=pivots, start=kind)
    value = float(lp.objective @ x)
    duals = _duals(lp, tab, kept_rows, u)
    return LpOutcome(status="optimal", value=value, point=x, duals=duals,
                     pivots=pivots, start=kind)


def _feasible(lp: LinearProgram, x: np.ndarray) -> bool:
    """A x (relations) b within FEAS_TOL; x >= -FEAS_TOL is checked on u."""
    lhs, rhs, rel = lp.A @ x, lp.b, lp.relations
    return not (np.any((lhs > rhs + FEAS_TOL) & (rel == "<="))
                or np.any((lhs < rhs - FEAS_TOL) & (rel == ">="))
                or np.any((np.abs(lhs - rhs) > FEAS_TOL) & (rel == "=")))


def _basis_duals(lp: LinearProgram, tab: _Tableau, kept_rows: np.ndarray,
                 costs: np.ndarray) -> Optional[np.ndarray]:
    """Multipliers y with B^T y = c_B for the kept rows of the flipped program."""
    if kept_rows.size == 0:
        return np.zeros(tab.sign.size)
    basis, n = tab.basis, tab.n_struct
    # B over the kept rows: structural columns from A, with the flipped rows
    # negated; a slack, surplus or artificial column is +-1 in its own row,
    # if that row is kept
    cols = np.zeros((kept_rows.size, basis.size))
    struct = (basis < n).nonzero()[0]
    cols[:, struct] = lp.A[np.ix_(kept_rows, basis[struct])] * tab.sign[kept_rows, None]
    pos = np.full(tab.sign.size, -1)
    pos[kept_rows] = np.arange(kept_rows.size)
    unit = (basis >= n).nonzero()[0]
    label = basis[unit] - n
    at = pos[tab.unit_row[label]]
    kept = at >= 0
    cols[at[kept], unit[kept]] = tab.unit_sign[label[kept]]
    try:
        y = np.linalg.solve(cols.T, costs)
    except np.linalg.LinAlgError:
        return None
    full = np.zeros(tab.sign.size)
    full[kept_rows] = y
    return full


def _duals(lp: LinearProgram, tab: _Tableau, kept_rows: np.ndarray,
           u: np.ndarray) -> Optional[np.ndarray]:
    costs = np.zeros(tab.basis.size)
    struct = tab.basis < tab.n_struct
    costs[struct] = lp.objective[tab.basis[struct]]
    y = _basis_duals(lp, tab, kept_rows, costs)
    if y is None:
        return None
    primal = lp.objective @ u[: tab.n_struct]
    gap = abs(primal - y @ tab.b)
    if gap > 1e-7 * max(1.0, abs(primal)):
        return None
    return tab.sign * y


def _farkas(lp: LinearProgram, tab: _Tableau) -> Optional[np.ndarray]:
    """Best-effort infeasibility certificate from the phase-1 multipliers."""
    rows = np.arange(tab.m)
    costs = np.where(tab.basis >= tab.first_art, -1.0, 0.0)
    y = _basis_duals(lp, tab, rows, costs)
    if y is None:
        return None
    return tab.sign * y
