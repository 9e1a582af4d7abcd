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
blocks, rows linked by a shared column, and each block is diagonalized by one
Euclidean loop: the smallest entry is the pivot, row steps leave remainders
in its column, column steps leave them in its row, and the smallest remainder
becomes the next pivot until the pivot stands alone.  Entries may grow, so
once one passes 64 bits the block's rank r and a nonzero r x r minor D are
taken by fraction-free (Bareiss) elimination, and the loop goes on modulo
M = 2|D|.  Every invariant factor divides D, so each is read as gcd(e, M) of
a diagonal entry e, and exactly r of them lie below M (Domich, Kannan and
Trotter, Math. Oper. Res. 12, 1987; Hafner and McCurley, SIAM J. Comput. 20,
1991).  The diagonals of all blocks are normalized into one divisibility
chain at the end.
"""

from collections import Counter, defaultdict
from math import gcd, lcm

_LIMIT = 1 << 64


def _to_rows(matrix):
    """The one working copy: a dict-of-rows without zero entries or empty rows."""
    rows = {}
    if not isinstance(matrix, dict):
        from itertools import compress

        for i, row in enumerate(matrix):
            at = list(compress(range(len(row)), row))
            if at:
                rows[i] = dict(zip(at, map(int, map(row.__getitem__, at))))
        return rows
    for i, entries in matrix.items():
        rv = {j: int(x) for j, x in entries if x}
        if rv:
            rows[i] = rv
    return rows


def invariant_chain(values):
    """Normalize a diagonal multiset into invariant factors d1 | d2 | ... .

    Each distinct value v > 1, taken m times, is merged into the chain kept
    largest first: the i-th entry becomes lcm(c[i], gcd(v, c[i-m])), with
    c[i-m] = 0 above the top and c[i] = 1 below the bottom, which for every
    prime merges m copies of v's exponent into the sorted exponents.  A merge
    costs the length of the chain so far, so the most frequent values go last.
    """
    counts = Counter(map(abs, values))
    ones = counts.pop(1, 0)
    chain = []
    for v, m in reversed(counts.most_common()):
        chain = [lcm(c, gcd(v, d)) for c, d in zip(chain + [1] * m, [0] * m + chain)]
    return [1] * ones + chain[::-1]


def smith_normal_form(matrix, pivot_cols=None):
    """Invariant factors (d1 | d2 | ... | dr, all > 0) and rank r.

    ``matrix`` is a sequence of dense rows, or a dict mapping row keys to rows
    given as (column key, entry) pairs; the input is not modified.  The zero
    matrix yields ``([], 0)``.  When ``pivot_cols`` is a set, the keys of the
    columns taken as unit pivots are added to it.
    """
    rows = _to_rows(matrix)
    units = _unit_pivots(rows, pivot_cols)
    diag = []
    for block in _blocks(rows):
        diag += _diagonalize(block)
    factors = [1] * units + invariant_chain(diag)
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
    """Split a dict-of-rows into dense blocks of rows linked by shared columns.

    ``group`` maps each column to the list of rows of its block so far; a row
    that meets two blocks merges the smaller list into the larger.
    """
    group = {}
    for r, rv in rows.items():
        mine = None
        for c in rv:
            g = group.get(c)
            if g is None or g is mine:
                continue
            if mine is None:
                mine = g
                continue
            if len(g) > len(mine):
                g, mine = mine, g
            mine += g
            for x in g:
                for j in rows[x]:
                    group[j] = mine
        if mine is None:
            mine = []
        mine.append(r)
        for c in rv:
            group[c] = mine
    blocks = {}
    for c, g in group.items():
        blocks.setdefault(id(g), (g, []))[1].append(c)
    for members, cols in blocks.values():
        zeros = [0] * len(cols)
        yield [list(map(rows[r].get, cols, zeros)) for r in members]


def _diagonalize(a):
    """Diagonal entries of a block of dense rows, which it consumes.

    One Euclidean loop.  The pivot p, the smallest entry, is taken out of the
    rows with its row ``top``; row steps (row -= (x // p) * top) leave
    remainders below |p| in its column c, and the smallest becomes the
    pivot.  With column c clear, the column steps that clear ``top`` touch
    nothing else: ``top`` is reduced modulo p, and again the smallest
    remainder becomes the pivot.  A pivot alone in its row and column is a
    diagonal entry.  ``bound`` bounds every |entry| from above; once it
    reaches 2^64 the entries are measured, and if they have grown that far
    the loop goes on modulo M as the module docstring says.
    """
    from itertools import chain

    out = []
    mod = rank = 0
    bound = _LIMIT
    top = None
    while True:
        if top is None:
            p = min(map(abs, filter(None, chain.from_iterable(a))), default=0)
            if not p:
                break
            for i, top in enumerate(a):
                if p in top or -p in top:
                    break
            c = top.index(p) if p in top else top.index(-p)
            del a[i]
        if bound >= _LIMIT and not mod:
            bound = max(map(abs, chain(top, *a)))
            if bound >= _LIMIT:
                a.append(top)
                rank, det = _bareiss(a)
                mod = 2 * abs(det)
                exact, out, top = out, [], None
                a = [[x % mod for x in row] for row in a]
                continue
        p = top[c]
        k = None
        for j, row in enumerate(a):
            x = row[c]
            if x:
                q = x // p
                if q:
                    if mod:
                        row = [(u - q * v) % mod for u, v in zip(row, top)]
                    else:
                        row = [u - q * v for u, v in zip(row, top)]
                        bound *= abs(q) + 1
                    a[j] = row
                    x = row[c]
                    if not x:
                        continue
                if k is None or abs(x) < abs(a[k][c]):
                    k = j
        if k is not None:
            a[k], top = top, a[k]
            continue
        if p != 1 and p != -1:
            top = [x % p for x in top]
            top[c] = p
            q = min(map(abs, filter(None, top)))
            if q < abs(p):
                c = top.index(q) if q in top else top.index(-q)
                continue
        out.append(abs(p))
        top = None
        for row in a:
            del row[c]
    if not mod:
        return out
    out = [f for f in invariant_chain([gcd(e, mod) for e in out]) if f < mod]
    if len(out) != rank:
        raise ArithmeticError(f"modular reduction kept {len(out)} factors, rank is {rank}")
    return exact + out


def _bareiss(a):
    """Rank r and a nonzero r x r minor of the rows ``a``, fraction-free."""
    a = list(a)
    rank, prev = 0, 1
    for c in range(len(a[0])):
        k = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[rank], a[k] = a[k], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, len(a)):
            x = a[i][c]
            a[i] = [(p * u - x * v) // prev for u, v in zip(a[i], top)]
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank, prev
