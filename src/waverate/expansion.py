"""Expansion coefficients, projections, partial sums, summation schedules.

One dyadic-lattice engine pairs atoms with tables.  On the level-L lattice
x_m = m 2^-L the atom 2^{j/2} g(2^j x - k) reads g at (m - k 2^{L-j}) 2^{j-L}:
every translate samples one level-(L-j) lattice of g, shifted 2^{L-j} points
per unit of k.  `_atom_blocks` reads a table there once, in unit blocks, and
is the only reader of tables at atom points (exact once `refined_tables`
resolves the lattice; band-limited and spectral tables are interpolated).
Analysis uses the jump-robust rule 2T(h) - T(2h) of `product_quad`, which on
even-aligned slices is the midpoint rule (weight 2h on odd offsets): f's odd
samples correlated with the blocks, one matrix product summed along block
diagonals.  Synthesis is the transpose, a Toeplitz gather of coefficients
times blocks; `atom_rows` gathers the dense (k x points) matrix.  The
filter-bank recursion is a test-only cross-check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import MRAFamily, refined_tables
from .grids import NO_DECAY, DyadicGrid, SampledFunction

COEFFICIENT_BOUND_SLACK = 1e-6

# extra quadrature levels for families whose tables are rough between lattice
# points; the piecewise-constant closed forms are already exact on f's lattice
QUADRATURE_REFINE = 3


def _quad_refine(fam: MRAFamily) -> int:
    return 0 if fam.name == "haar" or fam.param == 1 else QUADRATURE_REFINE


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class ExpansionCoefficients:
    family: MRAFamily
    base_level: int
    top_level: int
    b: dict[int, float] = field(repr=False)
    a: dict[tuple[int, int], float] = field(repr=False)
    window: tuple[float, float] = (0.0, 0.0)

    def l2_mass(self) -> float:
        return sum(v * v for v in self.b.values()) + sum(v * v for v in self.a.values())

    def levels(self) -> list[tuple[int, dict[tuple, float]]]:
        """(j, {term: coefficient}) in k order: scaling level, then wavelet levels."""
        out = [(self.base_level, {("b", k): v for k, v in sorted(self.b.items())})]
        for j in range(self.base_level, self.top_level):
            terms = {("a", jj, k): v for (jj, k), v in sorted(self.a.items()) if jj == j}
            out.append((j, terms))
        return out


@dataclass(frozen=True)
class SummationSchedule:
    """Ordered groups of expansion terms.

    A term is ("b", k) for a scaling coefficient at the base level or
    ("a", j, k) for a wavelet coefficient.  `bounded_range` is the allowed
    span (in consecutive levels) of wavelet levels that are started but not
    finished at any prefix.
    """

    groups: tuple[tuple[tuple, ...], ...]
    bounded_range: int

    def terms(self):
        for group in self.groups:
            yield from group


def level_by_level_schedule(coeffs: ExpansionCoefficients, bounded_range: int = 1):
    groups = tuple(tuple(terms) for _, terms in coeffs.levels())
    return SummationSchedule(groups, bounded_range)


def interleaved_schedule(coeffs: ExpansionCoefficients, width: int = 2):
    """Round-robin over `width` consecutive levels at a time."""
    levels = [list(terms) for _, terms in coeffs.levels()]
    groups = [tuple(levels[0])]
    for start in range(1, len(levels), width):
        queues = levels[start : start + width]
        while any(queues):
            groups.extend((q.pop(0),) for q in queues if q)
    return SummationSchedule(tuple(groups), width)


def validate_schedule(schedule: SummationSchedule):
    """Check the bounded-partial-completeness condition on every prefix.

    Returns (ok, report); report carries the worst prefix's level span.
    """
    terms = list(schedule.terms())
    totals = Counter(term[1] for term in terms if term[0] == "a")
    seen: Counter = Counter()
    worst_span = worst_prefix = 0
    # the span must hold at every term prefix: a level finishing within a
    # group may still have straddled a wide range mid-group
    for n_terms, term in enumerate(terms, 1):
        if term[0] != "a":
            continue
        seen[term[1]] += 1
        partial = [j for j, c in seen.items() if c < totals[j]]
        span = (max(partial) - min(partial) + 1) if partial else 0
        if span > worst_span:
            worst_span, worst_prefix = span, n_terms
    ok = worst_span <= schedule.bounded_range
    report = {
        "ok": ok,
        "bounded_range": schedule.bounded_range,
        "worst_span": worst_span,
        "worst_prefix_terms": worst_prefix,
    }
    return ok, report


# ---------------------------------------------------------------------------
# the dyadic-lattice engine


def translate_range(fam: MRAFamily, j: int, window: tuple[float, float]):
    """Integer translates k whose scaled support meets the window.

    The tabulated grid already extends to the declared decay tail, so its
    endpoints play the role of the truncation margin.
    """
    s0, s1 = fam.phi.grid.left, fam.phi.grid.right
    w0, w1 = window
    kmin = int(np.ceil(w0 * 2**j - s1))
    kmax = int(np.floor(w1 * 2**j - s0))
    return range(kmin, kmax + 1)


def _atom_blocks(table: SampledFunction, j: int, level: int):
    """2^{j/2} table on the level-(level - j) lattice, in blocks of one unit.

    Returns (beta, blocks) with blocks of shape (width, 2^(level-j)): the
    atom of translate k reads blocks.ravel()[m - (k + beta) 2^(level-j)] at
    the level-`level` lattice index m.  Needs level >= j.
    """
    per = 2 ** (level - j)
    beta = math.floor(table.grid.left)
    width = math.floor(table.grid.right) - beta + 1
    u = np.ldexp(np.arange(beta * per, (beta + width) * per, dtype=float), j - level)
    return beta, (2.0 ** (j / 2.0) * table(u)).reshape(width, per)


def _gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx], reading 0 where idx falls outside values."""
    inside = (idx >= 0) & (idx < len(values))
    return np.append(values, 0.0)[np.where(inside, idx, len(values))]


def _even_intervals(grid: DyadicGrid, qlevel: int) -> int:
    """Intervals of grid's level-qlevel quadrature lattice, which must be even."""
    n = (grid.count - 1) * 2 ** (qlevel - grid.level)
    if n % 2:
        raise ExpansionError(
            f"the level-{qlevel} quadrature lattice of f has an odd number of "
            f"intervals ({n}); tabulate f one level finer"
        )
    return n


def check_quadrature_lattice(fam: MRAFamily, grid: DyadicGrid) -> None:
    """Raise the odd-lattice error of analysing f on grid, before f is tabulated."""
    _even_intervals(grid, grid.level + _quad_refine(fam))


def dyadic_analysis(
    f: SampledFunction, table: SampledFunction, j: int, ks: range, qlevel: int
) -> np.ndarray:
    """<f, 2^{j/2} table(2^j . - k)> for k in ks, midpoint rule at qlevel.

    f is read at its own level and interpolated on finer lattices; only the
    blocks that the translates in ks meet are touched.
    """
    n = _even_intervals(f.grid, qlevel)
    level = max(qlevel, j)  # atoms finer than the lattice are read at level j
    beta, blocks = _atom_blocks(table, j, level)
    width, per = blocks.shape
    m = np.arange(1, n, 2)
    pos = (round(np.ldexp(f.grid.left, qlevel)) + m) * 2 ** (level - qlevel)
    pos -= (ks.start + beta) * per
    keep = (pos >= 0) & (pos < (len(ks) + width - 1) * per)
    m = m[keep]
    fv = f.values[m] if qlevel == f.grid.level else f(f.grid.left + np.ldexp(m, -qlevel))
    g = np.zeros((len(ks) + width - 1) * per)
    g[pos[keep]] = np.ldexp(fv, 1 - qlevel)
    # translate ks[i] meets its block d in row i + d of the product
    prod = g.reshape(-1, per) @ blocks.T
    return np.einsum("kdd->k", sliding_window_view(prod, width, axis=0))


def dyadic_synthesis(coef, table: SampledFunction, j: int, ks, xs: DyadicGrid) -> np.ndarray:
    """sum_k coef[k] 2^{j/2} table(2^j x - k) at the points of xs; ks ascending."""
    level = max(xs.level, j)
    beta, blocks = _atom_blocks(table, j, level)
    width, per = blocks.shape
    dense = np.zeros(ks[-1] - ks[0] + 1)
    dense[np.asarray(ks) - ks[0]] = coef
    # block i from the first translate's first block is sum_d dense[i - d] blocks[d]
    toeplitz = sliding_window_view(np.pad(dense, width - 1), width)[:, ::-1]
    pos = np.rint(np.ldexp(xs.points(), level)).astype(np.int64)
    return _gather((toeplitz @ blocks).ravel(), pos - (ks[0] + beta) * per)


def atom_rows(table: SampledFunction, j: int, ks, x: np.ndarray, level: int) -> np.ndarray:
    """Rows 2^{j/2} table(2^j x - k), k in ks, at level-`level` lattice points x."""
    level = max(level, j)
    beta, blocks = _atom_blocks(table, j, level)
    pos = np.rint(np.ldexp(x, level)).astype(np.int64)
    return _gather(blocks.ravel(), pos - (np.asarray(ks)[:, None] + beta) * blocks.shape[1])


# ---------------------------------------------------------------------------
# analyze / project / partial_sum


def analyze(
    f: SampledFunction,
    fam: MRAFamily,
    j0: int,
    j1: int,
    window: tuple[float, float] | None = None,
) -> ExpansionCoefficients:
    """Scaling coefficients at j0 and wavelet coefficients for j0 <= j < j1."""
    if j1 <= j0:
        raise ExpansionError(f"need j1 > j0, got {j0}..{j1}")
    if window is None:
        window = (f.grid.left, f.grid.right)
    if window[0] < f.grid.left or window[1] > f.grid.right:
        raise ExpansionError(f"window {window} outside tabulated support of f")

    sup_f = f.norm_sup()
    psi_l1 = fam.psi.norm_l1()
    qlevel = f.grid.level + _quad_refine(fam)
    phi_t, psi_t = refined_tables(fam, qlevel)

    ks = translate_range(fam, j0, window)
    b = dict(zip(ks, dyadic_analysis(f, phi_t, j0, ks, qlevel).tolist()))
    a = {}
    for j in range(j0, j1):
        # the multiplicative slack absorbs the O(h) quadrature deficit of
        # ||psi||_1 at jumps, where the bound can be attained with equality
        bound = 2.0 ** (-j / 2.0) * sup_f * psi_l1 * (1.0 + 4.0 * fam.psi.dx)
        bound += COEFFICIENT_BOUND_SLACK
        ks = translate_range(fam, j, window)
        vals = dyadic_analysis(f, psi_t, j, ks, qlevel)
        over = np.flatnonzero(np.abs(vals) > bound)
        if over.size:
            raise ExpansionError(
                f"coefficient bound violated at (j={j}, k={ks[over[0]]}): "
                f"|{vals[over[0]]:.6g}| > {bound:.6g}"
            )
        a.update(((j, k), v) for k, v in zip(ks, vals.tolist()))
    return ExpansionCoefficients(fam, j0, j1, b, a, window)


def project(
    f: SampledFunction, fam: MRAFamily, j: int, xs: DyadicGrid
) -> SampledFunction:
    """(P_j f)(x) = sum_k <f, phi_jk> phi_jk(x) tabulated on xs."""
    if xs.left < f.grid.left or xs.right > f.grid.right:
        raise ExpansionError("evaluation grid outside tabulated support of f")
    ks = translate_range(fam, j, (xs.left, xs.right))
    qlevel = f.grid.level + _quad_refine(fam)
    phi_t, _ = refined_tables(fam, max(qlevel, xs.level))
    coef = dyadic_analysis(f, phi_t, j, ks, qlevel)
    return SampledFunction(xs, dyadic_synthesis(coef, phi_t, j, ks, xs), NO_DECAY)


def partial_sum(
    coeffs: ExpansionCoefficients, schedule: SummationSchedule, xs: DyadicGrid
) -> SampledFunction:
    """Accumulate scheduled terms; complete schedules telescope to P_{j1}f.

    One synthesis per level; terms absent from the schedule count 0.
    """
    counts = Counter(schedule.terms())
    levels = coeffs.levels()
    absent = set(counts).difference(*(terms for _, terms in levels))
    if absent:
        raise ExpansionError(f"schedule references absent coefficients {sorted(absent)}")
    phi_t, psi_t = refined_tables(coeffs.family, xs.level)
    out = np.zeros(xs.count)
    for (j, terms), table in zip(levels, [phi_t] + [psi_t] * (len(levels) - 1)):
        coef = [counts[term] * v for term, v in terms.items()]
        out += dyadic_synthesis(coef, table, j, [term[-1] for term in terms], xs)
    return SampledFunction(xs, out, NO_DECAY)


def complete_schedule_check(coeffs: ExpansionCoefficients, schedule: SummationSchedule):
    """True iff the schedule contains every coefficient index exactly once."""
    want = {term for _, terms in coeffs.levels() for term in terms}
    got = list(schedule.terms())
    return len(got) == len(set(got)) and set(got) == want
