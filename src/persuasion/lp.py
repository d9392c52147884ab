"""Self-contained dense linear programming.

One two-phase revised simplex (_gub) solves every program. All programs in
this package are small and dense, so it is both fast enough and, more
importantly, deterministic: identical inputs always produce the identical
vertex. It pivots by one rule (_PivotRule): the largest-coefficient
entering column, a ratio test whose ties go to the smallest basis label,
and Bland's rule after a long degenerate streak, which guarantees
termination without cycling.

Rows that are sets stay implicit (Dantzig and Van Slyke, "Generalized upper
bounding techniques", JCSS 1967), so the basis covers only the other rows.
A program finds its sets itself (_layout); a DirectSchemeProgram's are its
state rows, and its incentive rows are read from W, never from the dense A.
``solve(lp, keys=...)`` starts a DirectSchemeProgram from one key per state.

Every answer is checked before it is returned, from A x, A^T y, b and c,
which a direct-scheme program forms from W: an optimum's point and duals
certify each other (_certify), and an infeasible verdict carries a Farkas
vector (_refute). Tolerances: pivot 1e-10, feasibility 1e-8, gap 1e-7
relative. An answer that fails its check comes back with status
"numerical_failure", never as a wrong optimum or an unproven verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective @ x subject to A x (relations) b and x >= 0.

    Constraints are ``A`` (k x n), ``relations`` (k of "<=", "=", ">=")
    and ``b`` (k), checked in one vectorized pass and kept as read-only
    views, not copies. Every variable is nonnegative; a bound of another
    kind is written as a row. Programs compare by identity.
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
        _freeze(self, objective=c, A=A, relations=rel, b=b)

    def __repr__(self) -> str:
        counts = ", ".join(f"{int((self.relations == r).sum())} {r!r}" for r in ("<=", "=", ">="))
        return f"{type(self).__name__}({self.b.size} rows x {self.objective.size} columns: {counts})"

    @property
    def constraints(self) -> Sequence:
        """The rows as (coeffs, relation, rhs) tuples over views of A (read-only)."""
        return _Rows(self)

    def _products(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """A @ x and A.T @ y."""
        return self.A @ x, self.A.T @ y

    def _layout(self) -> tuple:
        """The program as _gub takes it: (K, w, AC, b, slack, var, row_pos).

        Lines are the columns of Z = [A | slacks], a slack being +1 in its
        "<=" row and -1 in its ">=" row. A set row is a row of Z with rhs >= 0
        and nonzeros all exactly 1.0, sharing no column with another such
        row, of their most common width w. AC holds each line's entries in the
        working (non-set) rows and its cost, the K sets' members first in
        blocks of w; b has the set rows first; slack is each working row's
        slack line (-1 on "=" rows), var each variable's line, row_pos each
        row's internal position.
        """
        A, rel, b = self.A, self.relations, self.b
        (m, n), ineq = A.shape, (rel != "=").nonzero()[0]
        Z = np.zeros((m, n + ineq.size))
        Z[:, :n] = A
        Z[ineq, n + np.arange(ineq.size)] = np.where(rel[ineq] == "<=", 1.0, -1.0)
        nz = Z != 0.0
        cand = (((Z == 1.0) == nz).all(axis=1) & (b >= 0.0)).nonzero()[0]
        nzc = nz[cand]
        width = nzc.sum(axis=1)
        ok = (width > 0) & ~(nzc & (nzc.sum(axis=0) > 1)).any(axis=1)
        w = int(np.bincount(width[ok]).argmax()) if ok.any() else 1
        sets, nzs = cand[ok & (width == w)], nzc[ok & (width == w)]
        work = np.delete(np.arange(m), sets)
        lines = np.concatenate([np.flatnonzero(nzs) % Z.shape[1], (~nzs.any(axis=0)).nonzero()[0]])
        line_of = np.argsort(lines)
        costs = np.append(self.objective, np.zeros(ineq.size))
        AC = np.ascontiguousarray(np.vstack([Z[work], costs])[:, lines].T)
        slack = np.full(m, -1)
        slack[ineq] = line_of[n + np.arange(ineq.size)]
        order = np.concatenate([sets, work])
        return sets.size, w, AC, b[order], slack[work], line_of[:n], np.argsort(order)


def _freeze(obj, **arrays) -> None:
    """Set each array on obj as a read-only view; the caller's stays writeable."""
    for name, value in arrays.items():
        object.__setattr__(obj, name, value.view())
        getattr(obj, name).setflags(write=False)


class DirectSchemeProgram(LinearProgram):
    """The direct-scheme program: sum(x[t*n:(t+1)*n]) = 1 for each state t,
    then W[:, :, p].ravel() @ x >= 0 for each incentive row p. Solves and
    the certificate read W; the dense A is built when first read
    (constraints[k]). direct_scheme_lp checks the inputs.
    """

    def __init__(self, objective: np.ndarray, W: np.ndarray):
        S, _, P = W.shape
        _freeze(self, objective=objective, W=W, b=np.repeat([1.0, 0.0], [S, P]),
                relations=np.repeat(["=", ">="], [S, P]).astype("<U2"))

    @cached_property
    def A(self) -> np.ndarray:
        S, n, P = self.W.shape
        A = np.zeros((S + P, S * n))  # filled in place: one copy of A at a time
        A[np.arange(S).repeat(n), np.arange(S * n)] = 1.0
        A[S:] = self.W.reshape(S * n, P).T
        A.setflags(write=False)
        return A

    def _products(self, x: np.ndarray, y: np.ndarray) -> tuple:
        S, n, P = self.W.shape
        W = self.W.reshape(S * n, P)
        return (np.concatenate([x.reshape(S, n).sum(axis=1), W.T @ x]),
                np.repeat(y[:S], n) + W @ y[S:])

    def _layout(self) -> tuple:
        """The S state rows are the sets, and line n + p is the surplus of
        incentive row p."""
        (S, w, P), n = self.W.shape, self.objective.size
        AC = np.zeros((n + P, P + 1))
        AC[:n, :P] = self.W.reshape(n, P)
        AC[:n, P] = self.objective
        AC[n + np.arange(P), np.arange(P)] = -1.0
        return S, w, AC, self.b, n + np.arange(P), np.arange(n), np.arange(S + P)


@dataclass(frozen=True)
class LpOutcome:
    """Result of a solve.

    status is one of "optimal", "infeasible", "unbounded",
    "numerical_failure". When optimal, ``point`` is a vertex and ``duals``
    holds one multiplier per constraint, and the two certify each other.
    When infeasible, ``certificate`` holds a Farkas vector y, checked: y A
    >= 0, y >= 0 on "<=" rows, y <= 0 on ">=" rows and y b < 0. An answer
    that fails its check is "numerical_failure" (see the module docstring).
    ``pivots`` counts the simplex pivots of phase 1 and phase 2; the pivots
    that drive leftover artificial variables out of the basis between the
    phases are not counted. ``start`` is "crash" when the solve from the
    keys given to :func:`solve` answered, and "cold" when the cold solve
    did.
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

    ``keys`` optionally names a start basis of a DirectSchemeProgram, one
    basic variable in each state's block; keys on any other program, or not
    one per block, raise ValidationError. A start whose incentive surpluses
    are all >= 0 needs no phase 1. A started solve that does not end
    certified optimal is redone cold, from each block's first variable.
    """
    if keys is not None:
        keys = np.asarray(keys)
        if not (isinstance(lp, DirectSchemeProgram) and keys.shape == lp.W.shape[:1]
                and keys.dtype.kind in "iu"
                and (keys // lp.W.shape[1] == np.arange(keys.size)).all()):
            raise ValidationError("keys must name one variable per block of a DirectSchemeProgram")
        out = _gub(lp, keys.astype(int))
        if out.status == "optimal":
            return out
    return _gub(lp)


_DEGENERATE_SWITCH = 40  # consecutive degenerate pivots before Bland's rule


class _PivotRule:
    """The pivot rule of the simplex, with its degenerate streak.

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


# ---------------------------------------------------------------------------
# the revised simplex, with generalized upper bounding

_REFACTOR_EVERY = 32  # product-form updates of W^-1 between refactorizations


def _gub(lp: LinearProgram, key: Optional[np.ndarray] = None) -> LpOutcome:
    """Two-phase revised simplex over lp._layout(), from the given keys (one
    line per set) or, cold, from each set's first member.

    Set k's key is its one basic variable kept implicit, at b_k less the
    set's other basics. On the working rows, line j of set k then acts as
    d_j = a_j - a_key, with cost c_j - c_key, a_j holding its entries in the
    working rows; only W^-1 is kept, for the basis W of the non-key basics
    there. W starts on each working row's slack, or on an artificial line
    where that would be negative; phase 1 then maximizes minus their sum,
    and a leftover above FEAS_TOL makes its duals the Farkas vector. Next
    each artificial left in W is swapped, in a pivot not counted, for the
    first nonbasic line with a nonzero in its row; one that cannot leave
    marks a redundant row and stays at 0. Artificial lines are never priced. Pricing is one
    mat-vec over the d_j and the entering column another; the ratio test
    covers W's basics and the keys that move. W^-1 gets a product-form
    update per pivot, a Sherman-Morrison update when a key's set member
    takes over as key, and is refactorized every _REFACTOR_EVERY updates
    and when a key change moves more than one column of W.

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
    K, w, AC, b, slack, var, row_pos = lp._layout()
    start = "cold" if key is None else "crash"
    key = np.arange(K) * w if key is None else key
    N, P = AC.shape[0], AC.shape[1] - 1  # lines N and on are artificial
    resid = b[K:] - b[:K] @ AC[key, :P]  # what W's basics make up at the start
    art = ((slack < 0) | (resid * AC[slack, np.arange(P)] < 0.0)).nonzero()[0]
    if art.size:  # phase-1 costs; each artificial is signed to start >= 0
        cost = np.append(AC[:, P], np.zeros(art.size))
        AC = np.vstack([AC, np.zeros((art.size, P + 1))])
        AC[N + np.arange(art.size), art] = np.where(resid[art] < 0.0, -1.0, 1.0)
        AC[:, P] = np.repeat([0.0, -1.0], [N, art.size])
    wb = slack.copy()  # W's columns
    wb[art] = N + np.arange(art.size)
    s = np.concatenate([np.arange(K * w) // w, np.full(AC.shape[0] - K * w, -1)])  # sets
    DC = AC.copy()  # the same, reduced against the keys

    def rekey(ks):  # reduce the lines of the sets ks against their keys; returns them
        G = (ks[:, None] * w + np.arange(w)).reshape(-1)
        DC[G] = AC[G] - AC[np.repeat(key[ks], w)]
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
        other = cut[s[:N] + 1]
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

    def column(q) -> np.ndarray:
        """Fill col with line q's entries on W's basics and the keys; return
        those on W's basics."""
        alpha = Winv @ DC[q, :P]
        col[:P] = alpha
        np.negative(np.bincount(sw, alpha, minlength=K + 1)[1:], out=col[P:])
        if s[q] >= 0:
            col[P + s[q]] += 1.0
        return alpha

    def exchange(q, leave, alpha) -> bool:
        """Pivot line q in for basic leave; False if W turns singular."""
        nonlocal since, free
        theta = val[leave] / col[leave]
        np.subtract(val, theta * col, out=val)
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
                    np.add(Winv, np.outer(alpha, v @ Winv) / (1.0 - v @ alpha), out=Winv)
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
                np.subtract(Winv, alpha[:, None] * Winv[leave], out=Winv)
                since += 1
            wb[leave] = lab[leave] = q
            val[leave], neg_cw[leave], sw[leave] = theta, -DC[q, P], s[q] + 1
        if stale or since >= _REFACTOR_EVERY:
            since = 0
            return factor()
        return True

    def duals() -> np.ndarray:
        """The duals of the current basis and costs, in lp's row order."""
        pi = -neg_pi
        return np.concatenate([AC[key, P] - AC[key, :P] @ pi, pi])[row_pos]

    factor()  # W is diagonal, +-1
    max_iter = 2000 + 50 * (N + 2 * b.size)  # then a solve ends as a numerical failure
    rule, it, since, p1 = _PivotRule(), 0, 0, 0  # since: updates since factor()
    free = False  # the last pivot was a free swap
    phase1 = art.size > 0
    while it <= max_iter:
        np.matmul(neg_cw, Winv, out=neg_pi)
        r = DC[:N] @ price
        if free and not rule.bland:
            it += swaps(r)
        q = rule.enter(r)
        if q is None and phase1:
            phase1, p1 = False, it
            arts = (wb >= N).nonzero()[0]  # W's positions of artificial lines
            if val[arts].sum() > FEAS_TOL:
                return _refute(lp, duals(), (p1, 0), start)
            for p in arts:  # drive out; a failed swap is caught by _certify
                g = np.abs(Winv[p] @ DC[:N, :P].T)
                g[lab[lab < N]] = 0.0
                j = int(g.argmax())
                if g[j] > PIVOT_TOL:
                    exchange(j, p, column(j))
            AC[:, P] = cost
            DC[...] = AC
            rekey(np.arange(K))
            neg_cw[:], rule, free = -DC[wb, P], _PivotRule(), False
        elif q is None:
            x = np.zeros(AC.shape[0])
            x[lab] = val
            return _certify(lp, x[var] + 0.0, duals(), (p1, it - p1), start)  # -0.0 comes back as 0.0
        else:
            alpha = column(q)
            leave = rule.leave(col, val, lab)
            if leave is None and not phase1:
                return LpOutcome(status="unbounded", pivots=(p1, it - p1), start=start)
            it += 1
            if leave is None or not exchange(q, leave, alpha):
                break
    return LpOutcome(status="numerical_failure", pivots=(it, 0) if phase1 else (p1, it - p1),
                     start=start)


def _certify(lp: LinearProgram, x: np.ndarray, y: np.ndarray,
             pivots: tuple[int, int], start: str = "cold") -> LpOutcome:
    """An "optimal" outcome if point x and duals y certify each other, else
    a "numerical_failure".

    x must satisfy A x (relations) b and x >= 0 within FEAS_TOL. y must be
    dual feasible, c - A^T y <= 0, and have the sign each relation asks
    for, >= 0 on "<=" rows and <= 0 on ">=" rows, within FEAS_TOL times the
    largest |c|. The duality gap c x - y b must close within 1e-7 relative.
    A x and A^T y come from the program's _products.
    """
    b, c, rel = lp.b, lp.objective, lp.relations
    value = float(c @ x)
    (lhs, aty), tol = lp._products(x, y), FEAS_TOL * max(1.0, float(np.abs(c).max()))
    le, ge = rel == "<=", rel == ">="
    if not ((x < -FEAS_TOL).any() or (lhs[le] > b[le] + FEAS_TOL).any()
            or (lhs[ge] < b[ge] - FEAS_TOL).any()
            or (np.abs(lhs - b)[~(le | ge)] > FEAS_TOL).any()
            or (c - aty > tol).any() or (y[le] < -tol).any()
            or (y[ge] > tol).any()
            or abs(value - y @ b) > 1e-7 * max(1.0, abs(value))):
        return LpOutcome(status="optimal", value=value, point=x, duals=y,
                         pivots=pivots, start=start)
    return LpOutcome(status="numerical_failure", pivots=pivots, start=start)


def _refute(lp: LinearProgram, y: np.ndarray, pivots: tuple[int, int],
            start: str) -> LpOutcome:
    """An "infeasible" outcome if y is a Farkas vector, else a
    "numerical_failure": y A >= 0, y >= 0 on "<=" rows and y <= 0 on ">="
    rows, each within FEAS_TOL as in _certify, and y b < 0.
    """
    rel = lp.relations
    if not ((lp._products(np.zeros(lp.objective.size), y)[1] < -FEAS_TOL).any()
            or (y[rel == "<="] < -FEAS_TOL).any() or (y[rel == ">="] > FEAS_TOL).any()
            or y @ lp.b >= 0.0):
        return LpOutcome(status="infeasible", certificate=y, pivots=pivots, start=start)
    return LpOutcome(status="numerical_failure", pivots=pivots, start=start)
