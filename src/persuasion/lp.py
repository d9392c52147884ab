"""Self-contained dense linear programming.

Implements a two-phase primal simplex on a dense tableau for cold solves,
and a revised-simplex phase 2 with generalized upper bounding for solves
from a start basis. All programs in this package are small and dense, so
these methods are both fast enough and, more importantly, deterministic:
identical inputs always produce the identical vertex. Both paths pivot by
one rule (_PivotRule): the largest-coefficient entering column, a ratio
test whose ties go to the smallest basis label, and Bland's rule after a
long degenerate streak, which guarantees termination without cycling.

A pivot costs O(k * width) for a tableau of the given width, where k is the
number of rows with a nonzero entry in the pivot column: the rank-1 update
leaves all other rows alone, since it would only subtract exact zeros there.
The phase-1 objective row is priced only until phase 1 ends.

A program is held in matrix form (A, relations, b) over variables x >= 0,
which the builders assemble with numpy and the constructor checks in one
vectorized pass. The tableau copies A into place, negating the rows whose
rhs is negative.

The tableau has no artificial columns. Artificial variables exist only as
basis labels: phase 1 prices and the drive-out step reads only the
structural and slack columns, and duals and Farkas vectors are recovered
from the labels, A and the row signs. On a 300-state, 3-action
direct-scheme program that makes each row about a quarter narrower.

A start basis skips phase 1 and the tableau. ``solve(lp, keys=...)`` makes
keys[k] the basic variable of each leading row k < len(keys). The start is
accepted when those rows are "=" rows whose nonzeros are all 1, with
pairwise disjoint supports, every other row is an inequality, and the
basic solution is nonnegative up to FEAS_TOL. Phase 2 then uses
generalized upper bounding (Dantzig and Van Slyke, "Generalized upper
bounding techniques", JCSS 1967): each named row stays implicit, with its
key basic, and only the inverse of the basis W over the other rows is
kept. For a direct-scheme program W is n(n-1) x n(n-1) for any number of
states. W^-1 gets a product-form update per pivot, a Sherman-Morrison
update when a key's set member takes over as key, and is refactorized
every _REFACTOR_EVERY updates and when a key change moves more than one
column of W. Many pivots of a direct-scheme program are free swaps, which
go as vectorized blocks (see _gub). The pivot rule is the tableau's, so in
exact arithmetic the path is the same, blocks included, and the duals come
from W. Any other start, and a started solve that is not certified
optimal, runs the cold solve, byte for byte as without a start.

Both paths return through one certificate (_certify), computed from A, b
and c: the point is feasible, the duals are dual feasible with the sign
each relation asks for, and the duality gap closes. Tolerances: pivot
1e-10, feasibility 1e-8, gap 1e-7 relative. An answer that cannot be
certified comes back with status "numerical_failure", never as a wrong
optimum or as an optimum without duals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8

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

    def __getitem__(self, k: int) -> tuple:
        return self._lp.A[k], str(self._lp.relations[k]), float(self._lp.b[k])


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective @ x subject to A x (relations) b and x >= 0.

    Constraints are ``A`` (k x n), ``relations`` (k of "<=", "=", ">=")
    and ``b`` (k), checked in one vectorized pass and kept as read-only
    views, not copies. Every variable is nonnegative; a bound of another
    kind is written as a row.
    """

    objective: np.ndarray
    A: np.ndarray
    relations: np.ndarray
    b: np.ndarray

    def __init__(self, objective, *, A, relations, b):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise ValidationError("objective coefficients must be finite")
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if b.ndim != 1 or A.shape != (b.size, c.size):
            raise ValidationError(f"A must have shape ({b.size}, {c.size}), got {A.shape}")
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
        """The rows as (coeffs, relation, rhs) tuples over views of A (read-only)."""
        return _Rows(self)


@dataclass(frozen=True)
class LpOutcome:
    """Result of a solve.

    status is one of "optimal", "infeasible", "unbounded",
    "numerical_failure". When optimal, ``point`` is a vertex and ``duals``
    holds one multiplier per constraint; on either path the two certify
    each other (see the module docstring), and an answer that does not is
    "numerical_failure". ``certificate`` carries a best-effort Farkas vector
    for infeasible programs. ``pivots`` counts the simplex pivots of phase 1
    and phase 2; the pivots that drive leftover artificial variables out of
    the basis between the phases are not counted. ``start`` is "crash" when
    the keys given to :func:`solve` were accepted and its phase 2 answered,
    so phase 1 did not run and ``pivots`` is (0, phase-2 pivots); it is
    "cold" otherwise, rejected keys included, and so is the cold re-solve
    that replaces a started solve which did not end certified optimal.
    """

    status: str
    value: Optional[float] = None
    point: Optional[np.ndarray] = None
    duals: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None
    pivots: Optional[tuple[int, int]] = None
    start: str = "cold"


def solve(lp: LinearProgram, keys=None) -> LpOutcome:
    """Solve a linear program, returning a vertex optimum when one exists.

    ``keys`` optionally names a start basis over the leading rows: keys[k]
    is the basic variable of row k for k < len(keys), and every other row
    keeps its slack or surplus basic. The named rows stay implicit and phase
    2 pivots on a basis over the other rows (see the module docstring). A
    start that is not accepted falls back to the cold two-phase solve, and
    so does a started solve that does not end certified optimal. An
    "optimal" outcome carries certified duals whichever path answered.
    """
    if keys is not None:
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size > lp.b.size or keys.size and (
                keys.dtype.kind not in "iu" or keys.min() < 0
                or keys.max() >= lp.objective.size):
            raise ValidationError("keys must be at most one variable index per constraint")
        out = _gub(lp, keys.astype(int))
        if out is not None and out.status == "optimal":
            return out
    return _simplex(lp)


def _max_iter(lp: LinearProgram) -> int:
    """Pivots after which either path ends as a numerical failure."""
    return 2000 + 50 * (lp.A.shape[1] + int((lp.relations != "=").sum()) + 2 * lp.b.size)


# ---------------------------------------------------------------------------
# tableau simplex

_DEGENERATE_SWITCH = 40  # consecutive degenerate pivots before Bland's rule


class _PivotRule:
    """The pivot rule of both simplex paths, with its degenerate streak.

    The entering column has the largest reduced cost, or after
    _DEGENERATE_SWITCH degenerate pivots in a row the first positive one
    (Bland's rule). The leaving basic wins the ratio test, ties going to
    the smallest basis label, which keeps Bland's rule valid.
    """

    def __init__(self):
        self.bland, self.streak = False, 0

    def enter(self, r: np.ndarray) -> Optional[int]:
        """The entering column for reduced costs r; None when optimal."""
        q = int((r > PIVOT_TOL).argmax() if self.bland else r.argmax())
        return q if r[q] > PIVOT_TOL else None

    def leave(self, col: np.ndarray, val: np.ndarray, labels: np.ndarray) -> Optional[int]:
        """The leaving basic for an entering column col over basic values val
        and basis labels; None when the column is unbounded."""
        pos = (col > PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return None
        ratios = val[pos] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + PIVOT_TOL]
        self.streak = self.streak + 1 if best <= PIVOT_TOL else 0
        self.bland = self.bland or self.streak >= _DEGENERATE_SWITCH
        return int(ties[labels[ties].argmin()])


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
        rule = _PivotRule()
        while True:
            enter = rule.enter(z[:allowed_upto])
            if enter is None:
                return "optimal"
            leave = rule.leave(self.T[:, enter], self.T[:, -1], self.basis)
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)
            self.iterations += 1
            if self.iterations > max_iter:
                return "iteration_limit"


def _simplex(lp: LinearProgram) -> LpOutcome:
    tab = _Tableau(lp)
    m = tab.m
    max_iter = _max_iter(lp)

    if m > 0:
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
        return LpOutcome(status="numerical_failure", pivots=pivots)
    if status == "unbounded":
        return LpOutcome(status="unbounded", pivots=pivots)

    # no artificial label is basic after phase 1
    u = np.zeros(tab.first_art)
    u[tab.basis] = tab.T[:, -1]
    costs = np.concatenate([lp.objective, np.zeros(tab.first_art - tab.n_struct)])
    y = _basis_duals(lp, tab, kept_rows, costs[tab.basis])
    return _certify(lp, u[: tab.n_struct] + 0.0, y, pivots)  # -0.0 comes back as 0.0


# ---------------------------------------------------------------------------
# phase 2 from a start basis, with generalized upper bounding

_REFACTOR_EVERY = 32  # product-form updates of W^-1 between refactorizations


def _gub(lp: LinearProgram, key: np.ndarray) -> Optional[LpOutcome]:
    """Revised-simplex phase 2 from a start basis; None if it is rejected.

    Row k < K = len(key) is a set: the variables with a 1 in it, its only
    nonzero. One basic per set, its key, stays implicit at b_k less the
    set's other basics. On the other (working) rows, column j of set k
    then acts as d_j = a_j - a_key, with cost c_j - c_key, and only W^-1 is
    kept, for the basis W of the non-key basics there. Pricing is one
    mat-vec over the d_j and the entering column another; the ratio test
    covers W's basics and the keys that move. The pivot rule is the
    tableau's, so in exact arithmetic the path is the same. The result is
    certified from A.

    A free swap is a pivot in which a key leaves for a member of its own
    set while W holds no basic of that set, so W^-1 and pi stay. After
    one, swaps() takes the rule's next free swaps at once: the best member
    of each set in the rule's order (reduced cost, then index), cut before
    any other column as good, since a set's reduced costs drop to at most
    0 once its best member is key. One product gives their columns, one
    cumsum the values before each swap, and the block is the longest
    prefix in which each candidate's own key alone wins the ratio test, by
    more than PIVOT_TOL, at a step above PIVOT_TOL. No block is taken
    under Bland's rule, and each swap counts as a pivot.
    """
    A, b, c, rel = lp.A, lp.b, lp.objective, lp.relations
    (m, n), K = A.shape, key.size
    P = m - K
    hit = A[:K] != 0.0
    count = hit.sum(axis=0)
    if ((rel[:K] != "=").any() or (rel[K:] == "=").any() or (count > 1).any()
            or (A[:K].sum(axis=0) != count).any()):
        return None  # not unit "=" rows with disjoint supports, then inequalities
    N = n + P  # the slack of working row K + p has label n + p
    s = np.concatenate([np.where(count > 0, hit.argmax(axis=0) if K else 0, -1),
                        np.full(P, -1)])  # the set of each variable, -1 for none
    if (s[key] != np.arange(K)).any():
        return None  # a key is not in its row
    wb = n + np.arange(P)  # W's columns: the working rows' slacks
    # one line per variable: its coefficients in the working rows, then its cost
    AC = np.zeros((N, P + 1))
    AC[:n, :P] = A[K:].T
    AC[:n, P] = c
    AC[wb, np.arange(P)] = np.where(rel[K:] == "<=", 1.0, -1.0)
    members = np.argsort(s, kind="stable")
    first = np.searchsorted(s[members], np.arange(K + 1))
    DC = AC.copy()  # the same, reduced against the keys

    def rekey(ks):  # reduce the lines of the sets ks against their keys; returns them
        size = first[ks + 1] - first[ks]
        G = members[np.repeat(first[ks] - np.cumsum(size) + size, size)
                    + np.arange(size.sum())]
        DC[G] = AC[G] - AC[key[s[G]]]
        return G

    rekey(np.arange(K))
    lab = np.concatenate([wb, key])  # basics: W's columns, then the keys
    Winv, val, col = np.empty((P, P)), np.empty(P + K), np.empty(P + K)
    price = np.ones(P + 1)  # (-pi, 1): DC @ price are the reduced costs
    neg_pi = price[:P]
    neg_cw, sw = np.empty(P), np.empty(P, dtype=int)  # W's columns: -cost, set + 1

    def factor() -> bool:
        try:
            Winv[...] = np.linalg.inv(DC[wb, :P].T)
        except np.linalg.LinAlgError:
            return False
        neg_cw[:], sw[:] = -DC[wb, P], s[wb] + 1
        val[:P] = Winv @ (b[K:] - b[:K] @ AC[key, :P])
        val[P:] = b[:K] - np.bincount(sw, val[:P], minlength=K + 1)[1:]
        return True

    def swaps(r) -> int:
        """Take the run of free swaps that the pivot rule takes next, for
        reduced costs r, and re-price their sets in r; returns their number."""
        cut = np.zeros(K + 1, dtype=bool)
        cut[0] = cut[sw] = True  # columns in no set, and sets holding a basic of W
        other = cut[s + 1]
        pos = ((r > r[other].max(initial=PIVOT_TOL)) & ~other).nonzero()[0]
        order = pos[np.argsort(-r[pos], kind="stable")]
        Q = order[np.sort(np.unique(s[order], return_index=True)[1])]
        k = s[Q]
        theta = val[P + k]  # the own key's entry is 1
        held = np.unique(sw[sw > 0])  # s + 1 of the sets holding a basic of W
        D = Winv @ DC[Q, :P].T  # the columns on W's basics, then on held keys
        D = np.vstack([D, (sw == held[:, None]) @ -D])
        rows = np.concatenate([np.arange(P), P - 1 + held])
        v = val[rows, None] - np.cumsum(
            np.hstack([np.zeros((rows.size, 1)), theta * D]), axis=1)
        ratio = np.divide(v[:, :-1], D, out=np.full(D.shape, np.inf), where=D > PIVOT_TOL)
        ok = (ratio > theta + PIVOT_TOL).all(axis=0) & (theta > PIVOT_TOL)
        t = int(ok.argmin()) if not ok.all() else ok.size
        if t:
            Q, k = Q[:t], k[:t]
            val[rows], val[P + k] = v[:, t], theta[:t]
            key[k] = lab[P + k] = Q
            G = rekey(k)
            r[G] = DC[G] @ price
            rule.streak = 0
        return t

    if not factor() or val.min(initial=0.0) < -FEAS_TOL:
        return None
    max_iter = _max_iter(lp)
    rule, it, since = _PivotRule(), 0, 0  # since: updates since factor()
    free = False  # the last pivot was a free swap
    status = "optimal"
    while True:
        np.matmul(neg_cw, Winv, out=neg_pi)
        r = DC @ price
        if free and not rule.bland:
            it += swaps(r)
        if it > max_iter:
            status = "numerical_failure"
            break
        q = rule.enter(r)
        if q is None:
            break
        alpha = Winv @ DC[q, :P]
        col[:P] = alpha
        np.negative(np.bincount(sw, alpha, minlength=K + 1)[1:], out=col[P:])
        if s[q] >= 0:
            col[P + s[q]] += 1.0
        leave = rule.leave(col, val, lab)
        if leave is None:
            status = "unbounded"
            break
        theta = val[leave] / col[leave]
        val -= theta * col
        it += 1
        stale = free = False  # stale: W changed in more than one column
        if leave >= P:  # a key leaves: q, or a basic of W in its set, is the new key
            k = leave - P
            mine = (sw == k + 1).nonzero()[0]
            if s[q] == k:
                key[k] = lab[leave] = q
                val[leave] = theta
                free = not mine.size  # a free swap: W and pi stay as they are
                if mine.size:  # their columns move by -d_q v^T: Sherman-Morrison
                    v = np.zeros(P)
                    v[mine] = 1.0
                    Winv += np.outer(alpha, v @ Winv) / (1.0 - v @ alpha)
                    since += 1
            else:  # that basic's column of W goes to q
                leave = mine[0]
                key[k] = lab[P + k] = wb[leave]
                val[P + k] = val[leave]
                stale = mine.size > 1
            rekey(np.array([k]))
            neg_cw[mine] = -DC[wb[mine], P]
        if leave < P:
            if not stale:  # product-form update of W^-1
                Winv[leave] /= alpha[leave]
                alpha[leave] = 0.0
                Winv -= alpha[:, None] * Winv[leave]
                since += 1
            wb[leave] = lab[leave] = q
            val[leave], neg_cw[leave], sw[leave] = theta, -DC[q, P], s[q] + 1
        if stale or since >= _REFACTOR_EVERY:
            since = 0
            if not factor():
                status = "numerical_failure"
                break
    pivots = (0, it)
    if status != "optimal":
        return LpOutcome(status=status, pivots=pivots, start="crash")
    x = np.zeros(N)
    x[lab] = val
    pi = -neg_pi
    y = np.concatenate([AC[key, P] - AC[key, :P] @ pi, pi])
    return _certify(lp, x[:n] + 0.0, y, pivots, "crash")  # -0.0 comes back as 0.0


def _certify(lp: LinearProgram, x: np.ndarray, y: Optional[np.ndarray],
             pivots: tuple[int, int], start: str = "cold") -> LpOutcome:
    """An "optimal" outcome if point x and duals y certify each other, else
    a "numerical_failure".

    x must satisfy A x (relations) b and x >= 0 within FEAS_TOL. y must be
    dual feasible, c - A^T y <= 0, and have the sign each relation asks
    for, >= 0 on "<=" rows and <= 0 on ">=" rows, within FEAS_TOL times the
    largest |c|. The duality gap c x - y b must close within 1e-7 relative.
    """
    A, b, c, rel = lp.A, lp.b, lp.objective, lp.relations
    value = float(c @ x)
    if y is not None:
        lhs, tol = A @ x, FEAS_TOL * max(1.0, float(np.abs(c).max()))
        le, ge = rel == "<=", rel == ">="
        if not ((x < -FEAS_TOL).any() or (lhs[le] > b[le] + FEAS_TOL).any()
                or (lhs[ge] < b[ge] - FEAS_TOL).any()
                or (np.abs(lhs - b)[~(le | ge)] > FEAS_TOL).any()
                or (c - A.T @ y > tol).any() or (y[le] < -tol).any()
                or (y[ge] > tol).any()
                or abs(value - y @ b) > 1e-7 * max(1.0, abs(value))):
            return LpOutcome(status="optimal", value=value, point=x, duals=y,
                             pivots=pivots, start=start)
    return LpOutcome(status="numerical_failure", pivots=pivots, start=start)


def _basis_duals(lp: LinearProgram, tab: _Tableau, kept_rows: np.ndarray,
                 costs: np.ndarray) -> Optional[np.ndarray]:
    """Multipliers y with B^T y = c_B for the kept rows of the flipped
    program, in the signs of the original rows; None if B is singular."""
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
    return tab.sign * full


def _farkas(lp: LinearProgram, tab: _Tableau) -> Optional[np.ndarray]:
    """Best-effort infeasibility certificate from the phase-1 multipliers."""
    costs = np.where(tab.basis >= tab.first_art, -1.0, 0.0)
    return _basis_duals(lp, tab, np.arange(tab.m), costs)
