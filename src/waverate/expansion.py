"""Expansion coefficients, projections, partial sums, summation schedules.

One dyadic-lattice engine pairs atoms with tables.  On the level-L lattice
x_m = m 2^-L the atom 2^{j/2} g(2^j x - k) reads g at (m - k 2^{L-j}) 2^{j-L}:
every translate samples one level-(L-j) lattice of g, shifted 2^{L-j} points
per unit of k.  `_atom_blocks` alone picks a table: it asks `refined_tables`
for g on exactly that lattice and slices it once, in unit blocks.
Analysis reads f on its own lattice, sampled `_quad_refine` levels finer than
the error grid, by the jump-robust rule 2T(h) - T(2h) of `product_quad`, on
even-aligned slices the midpoint rule (weight 2h on odd offsets): f's odd
samples, one strided slice, correlated with the blocks, one matrix product
summed along block diagonals.  Synthesis is the transpose, Toeplitz
coefficients times blocks, read on the evaluation grid as one strided slice;
`atom_rows` gathers the dense (k x points) matrix at any lattice points.  The
filter-bank recursion is a test-only cross-check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .families import MRAFamily, refined_tables, uses_haar_tables
from .grids import NO_DECAY, DyadicGrid, SampledFunction, strided_read

COEFFICIENT_BOUND_SLACK = 1e-6


def _quad_refine(fam: MRAFamily) -> int:
    """Levels by which f is sampled finer than the grid its errors are read
    on: 3 for families whose tables are rough between lattice points, 0 for
    the piecewise-constant closed forms, already exact on f's lattice."""
    return 0 if uses_haar_tables(fam.name, fam.param) else 3


class ExpansionError(ValueError):
    pass


@dataclass(frozen=True)
class ExpansionCoefficients:
    family: MRAFamily
    base_level: int
    top_level: int
    b: dict[int, float] = field(repr=False)
    a: dict[tuple[int, int], float] = field(repr=False)

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
    span (in consecutive levels) of levels that are started but not finished
    at any prefix; the scaling terms count as one level just below the
    lowest wavelet level.
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
    base = min((term[1] for term in terms if term[0] == "a"), default=0) - 1
    levels = [term[1] if term[0] == "a" else base for term in terms]
    totals = Counter(levels)
    seen: Counter = Counter()
    worst_span = worst_prefix = 0
    # the span must hold at every term prefix: a level finishing within a
    # group may still have straddled a wide range mid-group
    for n_terms, level in enumerate(levels, 1):
        seen[level] += 1
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


def _atom_blocks(fam: MRAFamily, gen: str, j: int, level: int):
    """2^{j/2} g, fam's generator gen ("phi" or "psi"), on the level-(level - j)
    lattice, in blocks of one unit: a slice of `refined_tables` at that level.

    Returns (beta, blocks) with blocks of shape (width, 2^(level-j)): the
    atom of translate k reads blocks.ravel()[m - (k + beta) 2^(level-j)] at
    the level-`level` lattice index m.  Needs level >= j.
    """
    table = refined_tables(fam, gen, level - j)
    per = 2 ** (level - j)
    beta = math.floor(table.grid.left)
    width = math.floor(table.grid.right) - beta + 1
    u = table.on_lattice(level - j, beta * per, width * per)
    return beta, (2.0 ** (j / 2.0) * u).reshape(width, per)


def _gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx], reading 0 where idx falls outside values (for `atom_rows`)."""
    inside = (idx >= 0) & (idx < len(values))
    return np.append(values, 0.0)[np.where(inside, idx, len(values))]


def _even_intervals(grid: DyadicGrid) -> int:
    """Intervals of f's quadrature lattice, its own grid, which must be even."""
    n = grid.count - 1
    if n % 2:
        raise ExpansionError(
            f"the level-{grid.level} quadrature lattice of f has an odd number of "
            f"intervals ({n}); tabulate f one level finer"
        )
    return n


def check_quadrature_lattice(fam: MRAFamily, grid: DyadicGrid) -> None:
    """Raise the odd-lattice error of a study with errors on grid, before f is sampled."""
    _even_intervals(grid.refine(_quad_refine(fam)))


def check_analysed_scale(fam: MRAFamily, level: int, j_max: int) -> int:
    """Level of f's quadrature lattice for a study with errors on a
    level-`level` grid, the finest at which it reads a table.  Raises before
    f is sampled if the study analyses a scale j_max on or past that lattice,
    whose atoms f's samples no longer resolve."""
    qlevel = level + _quad_refine(fam)
    if j_max >= qlevel:
        raise ExpansionError(
            f"scale j = {j_max} reaches the level-{qlevel} quadrature lattice of f; "
            f"analysed scales must stay below it"
        )
    return qlevel


def dyadic_analysis(
    f: SampledFunction, fam: MRAFamily, gen: str, j: int, ks: range
) -> np.ndarray:
    """<f, 2^{j/2} g(2^j . - k)> for k in ks, g fam's generator gen, by the
    midpoint rule on f's own lattice.

    Only the blocks that the translates in ks meet are touched.
    """
    n = _even_intervals(f.grid)
    qlevel = f.grid.level
    level = max(qlevel, j)  # atoms finer than the lattice are read at level j
    beta, blocks = _atom_blocks(fam, gen, j, level)
    width, per = blocks.shape
    g = np.zeros((len(ks) + width - 1) * per)
    # f's odd sample 1 + 2i lands at g index first + step i, inside g for i0 <= i < i1
    step = 2 ** (level - qlevel + 1)
    first = (round(math.ldexp(f.grid.left, qlevel)) + 1) * step // 2 - (ks.start + beta) * per
    i0 = max(0, -(first // step))
    i1 = max(i0, min(n // 2, -((first - g.size) // step)))
    out = g[first + i0 * step :: step][: i1 - i0]
    np.ldexp(f.values[1 + 2 * i0 : 2 * i1 : 2], 1 - qlevel, out=out)
    # translate ks[i] meets its block d in row i + d of the product
    prod = g.reshape(-1, per) @ blocks.T
    return np.einsum("kdd->k", sliding_window_view(prod, width, axis=0))


def dyadic_synthesis(coef, fam: MRAFamily, gen: str, j: int, ks, xs: DyadicGrid) -> np.ndarray:
    """sum_k coef[k] 2^{j/2} g(2^j x - k), g fam's generator gen, on xs; ks ascending."""
    level = max(xs.level, j)
    beta, blocks = _atom_blocks(fam, gen, j, level)
    width, per = blocks.shape
    dense = np.zeros(ks[-1] - ks[0] + 1)
    dense[np.asarray(ks) - ks[0]] = coef
    # block i from the first translate's first block is sum_d dense[i - d] blocks[d]
    toeplitz = sliding_window_view(np.pad(dense, width - 1), width)[:, ::-1]
    # the product is P_j f on the level-`level` lattice from index (ks[0] + beta) per
    first = round(math.ldexp(xs.left, level)) - (ks[0] + beta) * per
    return strided_read((toeplitz @ blocks).ravel(), first, 2 ** (level - xs.level), xs.count)


def atom_rows(fam: MRAFamily, gen: str, j: int, ks, x: np.ndarray, level: int) -> np.ndarray:
    """Rows 2^{j/2} g(2^j x - k), g fam's generator gen, k in ks, at lattice points x."""
    level = max(level, j)
    beta, blocks = _atom_blocks(fam, gen, j, level)
    pos = np.rint(np.ldexp(x, level)).astype(np.int64)
    return _gather(blocks.ravel(), pos - (np.asarray(ks)[:, None] + beta) * blocks.shape[1])


# ---------------------------------------------------------------------------
# analyze / project / partial_sum


def analyze(f: SampledFunction, fam: MRAFamily, j0: int, j1: int) -> ExpansionCoefficients:
    """Scaling coefficients at j0 and wavelet coefficients for j0 <= j < j1,
    over every translate that meets f's grid, by quadrature at f's level."""
    if j1 <= j0:
        raise ExpansionError(f"need j1 > j0, got {j0}..{j1}")
    window = (f.grid.left, f.grid.right)

    sup_f = f.norm_sup()
    psi_l1 = fam.psi.norm_l1()

    ks = translate_range(fam, j0, window)
    b = dict(zip(ks, dyadic_analysis(f, fam, "phi", j0, ks).tolist()))
    a = {}
    for j in range(j0, j1):
        # the multiplicative slack absorbs the O(h) quadrature deficit of
        # ||psi||_1 at jumps, where the bound can be attained with equality
        bound = 2.0 ** (-j / 2.0) * sup_f * psi_l1 * (1.0 + 4.0 * fam.psi.dx)
        bound += COEFFICIENT_BOUND_SLACK
        ks = translate_range(fam, j, window)
        vals = dyadic_analysis(f, fam, "psi", j, ks)
        over = np.flatnonzero(np.abs(vals) > bound)
        if over.size:
            raise ExpansionError(
                f"coefficient bound violated at (j={j}, k={ks[over[0]]}): "
                f"|{vals[over[0]]:.6g}| > {bound:.6g}"
            )
        a.update(((j, k), v) for k, v in zip(ks, vals.tolist()))
    return ExpansionCoefficients(fam, j0, j1, b, a)


def project(
    f: SampledFunction, fam: MRAFamily, j: int, xs: DyadicGrid
) -> SampledFunction:
    """(P_j f)(x) = sum_k <f, phi_jk> phi_jk(x) tabulated on xs."""
    if xs.left < f.grid.left or xs.right > f.grid.right:
        raise ExpansionError("evaluation grid outside tabulated support of f")
    ks = translate_range(fam, j, (xs.left, xs.right))
    coef = dyadic_analysis(f, fam, "phi", j, ks)
    return SampledFunction(xs, dyadic_synthesis(coef, fam, "phi", j, ks, xs), NO_DECAY)


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
    out = np.zeros(xs.count)
    for (j, terms), gen in zip(levels, ["phi"] + ["psi"] * (len(levels) - 1)):
        coef = [counts[term] * v for term, v in terms.items()]
        out += dyadic_synthesis(coef, coeffs.family, gen, j, [t[-1] for t in terms], xs)
    return SampledFunction(xs, out, NO_DECAY)


def complete_schedule_check(coeffs: ExpansionCoefficients, schedule: SummationSchedule):
    """True iff the schedule contains every coefficient index exactly once."""
    want = {term for _, terms in coeffs.levels() for term in terms}
    got = list(schedule.terms())
    return len(got) == len(set(got)) and set(got) == want
