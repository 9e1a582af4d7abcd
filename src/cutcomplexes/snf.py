"""Exact Smith normal form over the integers.

Boundary matrices of simplicial complexes are made of +-1 entries, and almost
every pivot they need is a unit.  A matrix is a sequence of dense rows or a
dict of rows given as (column key, entry) pairs; homology passes a boundary's
transpose, each simplex's own (face, sign) list as its row.  The one working
copy is a dict-of-rows.  While some column holds a +-1, it is cleared with
row operations from the unit row with the fewest nonzeros, and the pivot row
is retired: the column is a singleton then, so the column operations that
would clear the row touch nothing else.  Each retired pivot gives a factor 1,
and its column key, a face one degree down, is cleared from the next boundary.

What no unit pivot reaches is the residual.  It is split into connected
blocks, rows linked by a shared column, and each block goes to the textbook
dense reduction; the diagonals of all parts are normalized into one
divisibility chain at the end.  Arithmetic is arbitrary-precision throughout.
The dense reduction and a fraction-free rank double as independent oracles.
"""

from collections import defaultdict
from math import gcd


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g > 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _to_rows(matrix):
    """The one working copy: a dict-of-rows without zero entries or empty rows."""
    if isinstance(matrix, dict):
        items = matrix.items()
    else:
        items = ((i, enumerate(row)) for i, row in enumerate(matrix))
    rows = {}
    for i, entries in items:
        rv = {j: int(x) for j, x in entries if x}
        if rv:
            rows[i] = rv
    return rows


def invariant_chain(values):
    """Normalize a diagonal multiset into invariant factors d1 | d2 | ... ."""
    ones = sum(1 for v in values if abs(v) == 1)
    rest = sorted(abs(v) for v in values if abs(v) != 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                a, b = rest[i], rest[j]
                if b % a:
                    g = gcd(a, b)
                    rest[i], rest[j] = g, a * b // g
                    changed = True
        rest.sort()
    return [1] * ones + rest


def smith_normal_form(matrix, pivot_cols=None):
    """Invariant factors (d1 | d2 | ... | dr, all > 0) and rank r.

    ``matrix`` is a sequence of dense rows, or a dict mapping row keys to rows
    given as (column key, entry) pairs; the input is not modified.  The zero
    matrix yields ``([], 0)``.  When ``pivot_cols`` is a set, the keys of the
    columns taken as unit pivots are added to it.
    """
    rows = _to_rows(matrix)
    diag = [1] * _unit_pivots(rows, pivot_cols)
    for block in _blocks(rows):
        diag.extend(smith_normal_form_dense(block)[0])
    factors = invariant_chain(diag)
    return factors, len(factors)


def _unit_pivots(rows, pivot_cols=None):
    """Eliminate +-1 pivots from ``rows`` in place; returns how many were taken.

    While some column holds a +-1, that column is cleared with row operations
    from the unit row with the fewest nonzeros, and the pivot row is retired:
    with the column cleared, the column operations that would clear the row
    touch nothing else.  What is left in ``rows`` is the residual.
    """
    cols = defaultdict(set)
    for r, rv in rows.items():
        for c in rv:
            cols[c].add(r)
    pending = sorted(cols)
    queued = set(pending)
    taken = 0
    while pending:
        c = pending.pop()
        queued.discard(c)
        units = [r for r in cols[c] if rows[r][c] in (1, -1)]
        if not units:
            continue
        r = min(units, key=lambda r: len(rows[r]))
        pivot = rows.pop(r)
        for j in pivot:
            cols[j].discard(r)
        sign = pivot[c]
        for i in list(cols[c]):
            row = rows[i]
            q = row[c] * sign
            for j, pv in pivot.items():
                x = row.get(j, 0) - q * pv
                if x:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = x
                    if (x == 1 or x == -1) and j not in queued:
                        queued.add(j)
                        pending.append(j)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        taken += 1
        if pivot_cols is not None:
            pivot_cols.add(c)
    return taken


def _blocks(rows):
    """Split a dict-of-rows into dense blocks of rows linked by shared columns."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    for r, rv in rows.items():
        parent[r] = r
        for c in rv:
            if c in owner:
                a, b = find(owner[c]), find(r)
                if a != b:
                    parent[a] = b
            else:
                owner[c] = r
    groups = defaultdict(list)
    for r in rows:
        groups[find(r)].append(r)
    for members in groups.values():
        cols = sorted({c for r in members for c in rows[r]})
        at = {c: j for j, c in enumerate(cols)}
        block = []
        for r in members:
            line = [0] * len(cols)
            for c, v in rows[r].items():
                line[at[c]] = v
            block.append(line)
        yield block


# -- independent reference implementations ------------------------------------


def smith_normal_form_dense(matrix):
    """Textbook dense reduction; same contract as smith_normal_form.

    Solves the residual blocks of the unit-pivot elimination, and serves as
    an independent oracle for it.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    while True:
        # find a pivot below/right of (top, top-ish)
        pivot = None
        for i in range(top, m):
            for j in range(n):
                if a[i][j]:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            v = a[top][top]
            moved = False
            for i in range(top + 1, m):
                if a[i][top] % v:
                    g, x, y = _xgcd(v, a[i][top])
                    z, w = -(a[i][top] // g), v // g
                    for j in range(n):
                        ai, at = a[i][j], a[top][j]
                        a[top][j] = x * at + y * ai
                        a[i][j] = z * at + w * ai
                    moved = True
                    v = a[top][top]
            for i in range(top + 1, m):
                q = a[i][top] // v
                if q:
                    for j in range(n):
                        a[i][j] -= q * a[top][j]
            for j in range(top + 1, n):
                if a[top][j] % v:
                    g, x, y = _xgcd(v, a[top][j])
                    z, w = -(a[top][j] // g), v // g
                    for i in range(m):
                        at, aj = a[i][top], a[i][j]
                        a[i][top] = x * at + y * aj
                        a[i][j] = z * at + w * aj
                    moved = True
                    v = a[top][top]
            for j in range(top + 1, n):
                q = a[top][j] // v
                if q:
                    for i in range(m):
                        a[i][j] -= q * a[i][top]
            if not moved and all(a[i][top] == 0 for i in range(top + 1, m)) and all(
                a[top][j] == 0 for j in range(top + 1, n)
            ):
                break
        diag.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    factors = invariant_chain(diag)
    return factors, len(factors)


def bareiss_rank(matrix):
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[row][col] * a[i][j] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank
