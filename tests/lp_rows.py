"""Row input for test programs.

The package builds its programs in matrix form; tests that write a small
program row by row stack the rows here once.
"""

import numpy as np

from persuasion.lp import LinearProgram


def row_lp(objective, rows=()):
    """LinearProgram from (coeffs, relation, rhs) rows, stacked into (A, relations, b)."""
    rows = list(rows)
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=float)
    return LinearProgram(objective, A=A.reshape(len(rows), np.size(objective)),
                         relations=[rel for _, rel, _ in rows],
                         b=[rhs for _, _, rhs in rows])
