import functools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from waverate import DyadicGrid, make_family, parse_family_spec, sample
from waverate.expansion import (
    SummationSchedule,
    _atom_blocks,
    analyze,
    atom_rows,
    check_analysis,
    complete_schedule_check,
    dyadic_analysis,
    dyadic_synthesis,
    interleaved_schedule,
    level_by_level_schedule,
    partial_sum,
    project,
    translate_range,
    validate_schedule,
)
from waverate.convergence import quadrature_sample, test_function
from waverate.families import evaluate_dilate, refined_tables
from waverate.grids import ConfigError, SampledFunction, product_quad

from conftest import EVERY_SPEC


@pytest.fixture(scope="module")
def haar():
    return make_family("haar")


@pytest.fixture(scope="module")
def db2():
    return make_family("daubechies", 2)


@pytest.fixture(scope="module")
def gauss():
    g = DyadicGrid(-2.0, 2.0, 12)
    return sample(lambda x: np.exp(-(x**2)), g)


def norm_l2(f: SampledFunction) -> float:
    """The trapezoid L^2 norm of f's table."""
    return float(np.sqrt(np.trapezoid(f.values**2, dx=f.dx)))


def ramp_on_unit(level=12):
    g = DyadicGrid(-1.0, 2.0, level)
    x = g.points()
    v = np.where((x > 0) & (x < 1), x, 0.0)
    v[g.index_of(1.0)] = 0.5  # midpoint at the jump
    return SampledFunction(g, v)


class TestTranslateRange:
    def test_haar_window(self, haar):
        ks = translate_range(haar, 0, (0.0, 1.0))
        # phi table spans [-1, 2], so translates -2..2 can meet [0, 1]
        assert list(ks) == [-2, -1, 0, 1, 2]

    def test_scales_with_level(self, haar):
        # kmin = ceil(0 - 2) = -2, kmax = floor(8 + 1) = 9 for the [-1, 2] table
        assert len(list(translate_range(haar, 3, (0.0, 1.0)))) == 12

    # a dyadic window at level <= 12 and every family's support: the scaled
    # ends are exact in binary arithmetic, so the float ceil and floor are the
    # exact ones
    @pytest.mark.parametrize("spec", EVERY_SPEC, ids=lambda spec: str(spec))
    @given(level=st.integers(0, 12), j=st.integers(-3, 12),
           left=st.integers(-2**16, 2**16), width=st.integers(1, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_ends_are_exact_ceil_and_floor(self, spec, level, j, left, width):
        fam = make_family(*spec)
        w0, w1 = Fraction(left, 2**level), Fraction(left + width, 2**level)
        s0, s1 = map(Fraction, fam.support)
        ks = translate_range(fam, j, (float(w0), float(w1)))
        scale = Fraction(2) ** j
        assert ks == range(math.ceil(w0 * scale - s1), math.floor(w1 * scale - s0) + 1)

    def test_index_of_is_exact(self):
        # one ulp off a lattice point is off the lattice, on either side
        g = DyadicGrid(-1.0, 2.0, 12)
        assert g.index_of(0.375) == 5632
        for x in (math.nextafter(0.375, 1.0), math.nextafter(0.375, 0.0),
                  math.nextafter(2.0, 3.0), math.nextafter(-1.0, -2.0)):
            with pytest.raises(ValueError, match="is not a point of"):
                g.index_of(x)


class TestAnalyze:
    def test_phi_coefficient_is_delta(self, haar):
        coeffs = analyze(haar.phi, haar, 0, 2)
        assert coeffs.b[0] == pytest.approx(1.0, abs=1e-12)
        others = [v for k, v in coeffs.b.items() if k != 0]
        assert np.max(np.abs(others)) < 1e-12
        assert np.max(np.abs(list(coeffs.a.values()))) < 1e-12

    def test_psi_coefficient_is_delta(self, haar):
        coeffs = analyze(haar.psi, haar, 0, 2)
        assert coeffs.a[(0, 0)] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(list(coeffs.b.values()))) < 1e-12

    def test_rejects_bad_levels(self, haar, gauss):
        with pytest.raises(ConfigError):
            analyze(gauss, haar, 3, 3)

    def test_coefficient_bound_invariant(self, haar, gauss):
        coeffs = analyze(gauss, haar, 0, 5)
        bound = gauss.norm_sup() * haar.psi.norm_l1() + 1e-6
        worst = max(
            2.0 ** (j / 2.0) * abs(v) for (j, k), v in coeffs.a.items()
        )
        assert worst <= bound

    def test_parseval_mass_bounded_by_l2(self, haar, gauss):
        coeffs = analyze(gauss, haar, 0, 8)
        l2sq = norm_l2(gauss) ** 2
        mass = sum(v * v for v in (*coeffs.b.values(), *coeffs.a.values()))
        assert mass <= l2sq + 1e-6
        # at level 8 the expansion has captured nearly everything
        assert mass == pytest.approx(l2sq, abs=1e-3)


class TestProject:
    def test_haar_ramp_level0_is_cell_average(self, haar):
        f = ramp_on_unit()
        xs = DyadicGrid(0.0, 1.0, 6)
        p = project(f, haar, 0, xs)
        inside = (xs.points() > 0) & (xs.points() < 1)
        assert np.max(np.abs(p.values[inside] - 0.5)) < 1e-6

    def test_haar_ramp_level1_point_value(self, haar):
        f = ramp_on_unit()
        xs = DyadicGrid(0.0, 0.5, 4)
        p = project(f, haar, 1, xs)
        assert p(0.3) == pytest.approx(0.25, abs=1e-6)

    def test_db2_projection_identity_on_v0(self, db2):
        # f = phi on the quadrature lattice, errors on the level-12 grid
        f = refined_tables(db2, "phi", 12 + db2.quad_refine)
        phi = refined_tables(db2, "phi", 12)
        p = project(f, db2, 0, phi.grid)
        assert np.max(np.abs(p.values - phi.values)) < 1e-6

    @pytest.mark.parametrize("famname,j", [("haar", j) for j in range(5)]
                             + [("db2", j) for j in range(5)])
    def test_idempotence(self, haar, db2, famname, j):
        fam = haar if famname == "haar" else db2
        # window wide enough that P_j f decays below tolerance at the edges;
        # otherwise re-projecting the truncated tabulation loses boundary mass
        xs = DyadicGrid(-6.0, 6.0, 12)
        f = sample(lambda x: np.exp(-(x**2)), xs)
        once = project(f, fam, j, xs)
        twice = project(once, fam, j, xs)
        assert np.max(np.abs(twice.values - once.values)) < 1e-6

    def test_nesting_error_nonincreasing(self, haar, db2, gauss):
        for fam in (haar, db2):
            errs = []
            xs = DyadicGrid(-2.0, 2.0, 12)
            for j in range(0, 7):
                p = project(gauss, fam, j, xs)
                errs.append(
                    np.sqrt(np.trapezoid((p.values - gauss.values) ** 2, dx=p.dx))
                )
            assert all(b <= a + 1e-8 for a, b in zip(errs, errs[1:]))

    def test_telescoping(self, haar, gauss):
        xs = DyadicGrid(-1.0, 1.0, 10)
        coeffs = analyze(gauss, haar, 0, 4)
        for j in range(0, 4):
            pj = project(gauss, haar, j, xs)
            pj1 = project(gauss, haar, j + 1, xs)
            psi_t = refined_tables(haar, "psi", xs.level)
            detail = np.zeros(xs.count)
            for (jj, k), v in coeffs.a.items():
                if jj == j:
                    detail += v * 2.0 ** (j / 2.0) * psi_t(
                        np.ldexp(xs.points(), j) - k
                    )
            assert np.max(np.abs((pj1.values - pj.values) - detail)) < 1e-6


class TestPartialSum:
    @pytest.mark.parametrize(
        "famspec", [("haar", None), ("daubechies", 2)], ids=["haar", "daubechies:2"]
    )
    def test_complete_schedule_matches_projection(self, famspec, gauss):
        # the phi and psi tables telescope: P_0 f + sum_{j<6} Q_j f = P_6 f
        fam = make_family(*famspec)
        coeffs = analyze(gauss, fam, 0, 6)
        xs = DyadicGrid(-1.0, 1.0, 8)
        ps = partial_sum(coeffs, level_by_level_schedule(coeffs), xs)
        p = project(gauss, fam, 6, xs)
        assert np.max(np.abs(ps.values - p.values)) < 1e-8

    def test_order_invariance(self, haar, gauss):
        coeffs = analyze(gauss, haar, 0, 5)
        xs = DyadicGrid(-1.0, 1.0, 7)
        a = partial_sum(coeffs, level_by_level_schedule(coeffs), xs)
        b = partial_sum(coeffs, interleaved_schedule(coeffs, 2), xs)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_rejects_unknown_coefficient(self, haar, gauss):
        coeffs = analyze(gauss, haar, 0, 2)
        sched = level_by_level_schedule(coeffs)
        bad = sched.groups + ((("a", 7, 0),),)
        with pytest.raises(ConfigError):
            partial_sum(coeffs, SummationSchedule(bad, 1), DyadicGrid(0.0, 1.0, 4))


class TestSchedules:
    def test_level_by_level_is_complete_and_valid(self, haar, gauss):
        coeffs = analyze(gauss, haar, 0, 5)
        sched = level_by_level_schedule(coeffs)
        assert complete_schedule_check(coeffs, sched)
        ok, report = validate_schedule(sched)
        assert ok and report["worst_span"] <= 1

    @given(width=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_interleaved_within_declared_range(self, haar, gauss, width):
        coeffs = analyze(gauss, haar, 0, 5)
        sched = interleaved_schedule(coeffs, width)
        assert complete_schedule_check(coeffs, sched)
        ok, report = validate_schedule(sched)
        assert ok
        assert report["worst_span"] <= width

    def test_straggler_schedule_rejected(self, haar, gauss):
        # hold back one j=0 term until all deeper levels are done
        coeffs = analyze(gauss, haar, 0, 5)
        base = level_by_level_schedule(coeffs)._replace(bounded_range=2)
        groups = list(base.groups)
        first_detail = groups[1]
        held, rest = first_detail[0], first_detail[1:]
        groups[1] = rest
        groups.append((held,))
        ok, report = validate_schedule(SummationSchedule(tuple(groups), 2))
        assert not ok
        assert report["worst_span"] == 5

    def test_scaling_straggler_rejected(self, haar):
        # hold back one base-level scaling term until every wavelet level is
        # done: the scaling terms are a level of their own, below level 0
        gaussian = sample(lambda x: np.exp(-(x**2)), DyadicGrid(-4.0, 4.0, 12))
        coeffs = analyze(gaussian, haar, 0, 6)
        groups = list(level_by_level_schedule(coeffs).groups)
        groups[0] = tuple(term for term in groups[0] if term != ("b", -6))
        groups.append((("b", -6),))
        ok, report = validate_schedule(SummationSchedule(tuple(groups), 1))
        assert not ok
        assert report["worst_span"] == 7


def levels_by_scan(coeffs):
    """ExpansionCoefficients.levels as first written: every wavelet level
    sorts and scans all the wavelet terms."""
    out = [(coeffs.base_level, {("b", k): v for k, v in sorted(coeffs.b.items())})]
    for j in range(coeffs.base_level, coeffs.top_level):
        terms = {("a", jj, k): v for (jj, k), v in sorted(coeffs.a.items()) if jj == j}
        out.append((j, terms))
    return out


def validate_by_rescan(schedule):
    """validate_schedule as first written: the open levels rebuilt after
    every term."""
    terms = list(schedule.terms())
    base = min((term[1] for term in terms if term[0] == "a"), default=0) - 1
    levels = [term[1] if term[0] == "a" else base for term in terms]
    totals = Counter(levels)
    seen = Counter()
    worst_span = worst_prefix = 0
    for n_terms, level in enumerate(levels, 1):
        seen[level] += 1
        partial = [j for j, c in seen.items() if c < totals[j]]
        span = (max(partial) - min(partial) + 1) if partial else 0
        if span > worst_span:
            worst_span, worst_prefix = span, n_terms
    ok = worst_span <= schedule.bounded_range
    return ok, {"ok": ok, "bounded_range": schedule.bounded_range,
                "worst_span": worst_span, "worst_prefix_terms": worst_prefix}


def random_schedule(terms, rng):
    """Some of `terms`, part-shuffled by random swaps over short distances,
    in random groups."""
    terms = [t for t in terms if rng.random() < 0.9]
    reach = rng.choice((2, 8, 32, len(terms)))
    for _ in range(rng.randrange(len(terms) // 4 + 1)):
        i = rng.randrange(len(terms))
        k = min(i + rng.randint(1, reach), len(terms) - 1)
        terms[i], terms[k] = terms[k], terms[i]
    groups, start = [], 0
    while start < len(terms):
        size = rng.randint(1, 6)
        groups.append(tuple(terms[start : start + size]))
        start += size
    return SummationSchedule(tuple(groups), rng.randint(1, 8))


class TestScheduleBookkeeping:
    @pytest.fixture(scope="class")
    def suite_coeffs(self, haar):
        # criterion 6's coefficients
        return analyze(quadrature_sample(test_function("gaussian"), haar), haar, 0, 6)

    def test_levels_match_the_scan(self, suite_coeffs, gauss, db2):
        shuffled = suite_coeffs._replace(  # levels() sorts whatever order it is given
            b=dict(reversed(suite_coeffs.b.items())), a=dict(reversed(suite_coeffs.a.items()))
        )
        for coeffs in (suite_coeffs, shuffled, analyze(gauss, db2, -1, 3)):
            got = [(j, list(terms.items())) for j, terms in coeffs.levels()]
            assert got == [(j, list(terms.items())) for j, terms in levels_by_scan(coeffs)]

    def test_suite_schedules_match_the_rescan(self, suite_coeffs):
        groups = list(level_by_level_schedule(suite_coeffs).groups)
        groups.append((groups[1][0],))
        groups[1] = groups[1][1:]
        for sched in (level_by_level_schedule(suite_coeffs),
                      interleaved_schedule(suite_coeffs, 2),
                      SummationSchedule(tuple(groups), 1)):
            assert validate_schedule(sched) == validate_by_rescan(sched)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules_match_the_rescan(self, seed, haar, gauss):
        rng = random.Random(seed)
        terms = list(level_by_level_schedule(analyze(gauss, haar, 0, 4)).terms())
        for _ in range(100):
            sched = random_schedule(terms, rng)
            assert validate_schedule(sched) == validate_by_rescan(sched)


# ---------------------------------------------------------------------------
# the lattice engine against the per-translate formula


def reference_coefficient(f, table, j, k):
    """<f, table_jk> by product_quad on an even-aligned slice of f's grid
    covering the atom."""
    grid = f.grid
    step = grid.spacing
    last = grid.count - 1
    lo = (table.grid.left + k) / 2**j
    hi = (table.grid.right + k) / 2**j
    i0 = max(0, int(np.floor((lo - grid.left) / step)))
    i1 = min(last, int(np.ceil((hi - grid.left) / step)))
    if i1 <= i0:
        return 0.0
    i0 -= i0 % 2
    i1 += (i1 - i0) % 2  # last is even, so this stays on the grid
    x = grid.left + np.arange(i0, i1 + 1) * step
    return product_quad(f.values[i0 : i1 + 1], evaluate_dilate(table, j, k, x), step)


ENGINE_FAMILIES = ["haar", "daubechies:2", "daubechies:4", "battle_lemarie:2", "shannon"]


@functools.lru_cache(maxsize=None)
def engine_family(spec):
    return parse_family_spec(spec)


class TestLatticeEngine:
    # errors on a level-5 grid: haar's j = 6 atoms fall below f's lattice
    # spacing, so analysis there is rejected while synthesis and rows read
    # them.  The oracle interpolates tables at their own nodes, so it reads
    # the exact samples the engine slices
    xs = DyadicGrid(-1.0, 1.0, 5)

    def engine(self, spec):
        fam = engine_family(spec)
        grid = self.xs.refine(fam.quad_refine)
        f = sample(lambda x: np.exp(-(x**2)), DyadicGrid(-2.0, 2.0, grid.level))
        return fam, f, [refined_tables(fam, gen, grid.level) for gen in ("phi", "psi")]

    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("spec", ENGINE_FAMILIES)
    def test_analysis_matches_per_translate(self, spec, j):
        fam, f, tables = self.engine(spec)
        ks = translate_range(fam, j, (-1.5, 1.0))
        for gen, table in zip(("phi", "psi"), tables):
            if j >= f.grid.level:
                with pytest.raises(ConfigError, match="analysed scales must stay below"):
                    dyadic_analysis(f, fam, gen, j, ks)
                continue
            got = dyadic_analysis(f, fam, gen, j, ks)
            want = [reference_coefficient(f, table, j, k) for k in ks]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("spec", ENGINE_FAMILIES)
    def test_synthesis_and_rows_match_per_translate(self, spec, j):
        fam, _, tables = self.engine(spec)
        ks = translate_range(fam, j, (self.xs.left, self.xs.right))
        coef = np.random.default_rng(j).standard_normal(len(ks))
        x = self.xs.points()
        for gen, table in zip(("phi", "psi"), tables):
            want_rows = np.array([evaluate_dilate(table, j, k, x) for k in ks])
            rows = atom_rows(fam, gen, j, ks, self.xs)
            np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-13)
            got = dyadic_synthesis(coef, fam, gen, j, ks, self.xs)
            np.testing.assert_allclose(got, coef @ want_rows, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_daubechies_blocks_cover_the_support(self, n):
        # phi and psi live on [0, 2N - 1]: 2N unit blocks, the first at 0
        fam = make_family("daubechies", n)
        for gen in ("phi", "psi"):
            beta, blocks = _atom_blocks(fam, gen, 2, 12)
            assert beta == 0 and blocks.shape == (2 * n, 2**10)

    def test_odd_interval_lattice_rejected(self, haar):
        # 13 intervals at level 2: the midpoint rule has no pair for the last one
        f = sample(np.sin, DyadicGrid(0.0, 3.25, 2))
        with pytest.raises(ConfigError, match="odd number of intervals"):
            analyze(f, haar, 0, 2)
        with pytest.raises(ConfigError, match="odd number of intervals"):
            project(f, haar, 3, DyadicGrid(0.5, 2.5, 2))

    def test_odd_interval_lattice_detected_from_grid(self, haar, db2):
        # the same verdict from the grid alone, before f is tabulated
        with pytest.raises(ConfigError, match="odd number of intervals"):
            check_analysis(haar, (0.0, 3.25), 2, range(0, 1))
        check_analysis(haar, (0.0, 3.25), 3, range(0, 1))
        check_analysis(db2, (0.0, 3.25), 2, range(0, 1))  # refined 3 levels: always even

    def test_coarsest_scale_bounded_by_table_level(self, haar, db2):
        # scale j reads the tables at level qlevel - j: db2's lattice at
        # level 12 is refined to 15, so j = -3 reads level 18, j = -4 level 19
        check_analysis(db2, (-4.0, 4.0), 12, range(-3, 5))
        with pytest.raises(ConfigError, match="at level 19;"):
            check_analysis(db2, (-4.0, 4.0), 12, range(-4, 5))
        check_analysis(haar, (-4.0, 4.0), 12, range(-6, 5))
        with pytest.raises(ConfigError, match="at level 19;"):
            check_analysis(haar, (-4.0, 4.0), 12, range(-7, 1))
        with pytest.raises(ConfigError, match="empty level range"):
            check_analysis(haar, (-4.0, 4.0), 12, range(0))


# ---------------------------------------------------------------------------
# the strided reads against the index-array scatter and gather they replaced


def scatter_analysis(f, fam, gen, j, ks):
    """dyadic_analysis with f's odd samples scattered by index arrays into g,
    which keeps the one parity class of block columns they fall on."""
    n = f.grid.count - 1
    qlevel = f.grid.level
    beta, blocks = _atom_blocks(fam, gen, j, qlevel)
    width, per = blocks.shape
    m = np.arange(1, n, 2)
    pos = f.grid.start + m - (ks.start + beta) * per
    parity = pos[0] % 2
    rows = len(ks) + width - 1
    keep = (pos >= 0) & (pos < rows * per)
    g = np.zeros(rows * per // 2)
    g[pos[keep] // 2] = np.ldexp(f.values[m[keep]], 1 - qlevel)
    prod = g.reshape(rows, -1) @ np.ascontiguousarray(blocks[:, parity::2]).T
    return np.einsum("kdd->k", sliding_window_view(prod, width, axis=0))


def gather_synthesis(coef, fam, gen, j, ks, xs):
    """dyadic_synthesis with the product gathered at xs's rounded points."""
    level = max(xs.level, j)
    beta, blocks = _atom_blocks(fam, gen, j, level)
    width, per = blocks.shape
    dense = np.zeros(ks[-1] - ks[0] + 1)
    dense[np.asarray(ks) - ks[0]] = coef
    toeplitz = sliding_window_view(np.pad(dense, width - 1), width)[:, ::-1]
    values = (toeplitz @ blocks).ravel()
    idx = np.rint(np.ldexp(xs.points(), level)).astype(np.int64) - (ks[0] + beta) * per
    inside = (idx >= 0) & (idx < len(values))
    return np.append(values, 0.0)[np.where(inside, idx, len(values))]


def gather_rows(fam, gen, j, ks, xs):
    """atom_rows by an index gather at xs's rounded points: one index per
    translate and point."""
    level = max(xs.level, j)
    beta, blocks = _atom_blocks(fam, gen, j, level)
    values = blocks.ravel()
    pos = np.rint(np.ldexp(xs.points(), level)).astype(np.int64)
    idx = pos - (np.asarray(ks)[:, None] + beta) * blocks.shape[1]
    inside = (idx >= 0) & (idx < len(values))
    return np.append(values, 0.0)[np.where(inside, idx, len(values))]


class TestStridedReads:
    # f on (-2, 2) at level 5 + fam.quad_refine: haar's j = 6 lies past f's
    # lattice, and analysis there is rejected
    @staticmethod
    def gaussian(fam):
        grid = DyadicGrid(-2.0, 2.0, 5 + fam.quad_refine)
        return sample(lambda x: np.exp(-(x**2)), grid)

    # the second window runs the translates past both ends of f's grid; the
    # third meets none of f's samples
    @pytest.mark.parametrize("window", [(-1.5, 1.0), (-3.0, 3.0), (40.0, 41.0)])
    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("spec", ENGINE_FAMILIES)
    def test_analysis_equals_index_scatter(self, spec, j, window):
        fam = engine_family(spec)
        f = self.gaussian(fam)
        ks = translate_range(fam, j, window)
        for gen in ("phi", "psi"):
            if j >= f.grid.level:
                with pytest.raises(ConfigError, match="analysed scales must stay below"):
                    dyadic_analysis(f, fam, gen, j, ks)
                continue
            got = dyadic_analysis(f, fam, gen, j, ks)
            assert np.array_equal(got, scatter_analysis(f, fam, gen, j, ks))

    # the second grid is coarser than the atoms' lattice and wider than the
    # product on every side
    @pytest.mark.parametrize("xs", [DyadicGrid(-1.0, 1.0, 5), DyadicGrid(-256.0, 256.0, 3)],
                             ids=["narrow", "wide"])
    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("spec", ENGINE_FAMILIES)
    def test_synthesis_equals_index_gather(self, spec, j, xs):
        fam = engine_family(spec)
        ks = translate_range(fam, j, (-1.0, 1.0))
        coef = np.random.default_rng(j).standard_normal(len(ks))
        for gen in ("phi", "psi"):
            got = dyadic_synthesis(coef, fam, gen, j, ks, xs)
            assert np.array_equal(got, gather_synthesis(coef, fam, gen, j, ks, xs))

    # the second grid is wider than the rows on every side; the third is
    # coarser than the level-j atoms' lattice at j = 3 and 6, so the rows
    # read the blocks at a stride of 4 and 32; the fourth starts between unit
    # boundaries, 13 of its spacings left of 0
    @pytest.mark.parametrize("xs", [
        DyadicGrid(-1.0, 1.0, 5),
        DyadicGrid(-256.0, 256.0, 3),
        DyadicGrid(-3.0, 3.0, 1),
        DyadicGrid(-0.8125, 1.375, 4),
    ], ids=["narrow", "wide", "coarse", "offset"])
    @pytest.mark.parametrize("j", [0, 3, 6])
    @pytest.mark.parametrize("spec", ENGINE_FAMILIES)
    def test_rows_equal_index_gather(self, spec, j, xs):
        fam = engine_family(spec)
        ks = translate_range(fam, j, (-1.0, 1.0))
        for gen in ("phi", "psi"):
            got = atom_rows(fam, gen, j, ks, xs)
            assert got.flags.c_contiguous
            assert np.array_equal(got, gather_rows(fam, gen, j, ks, xs))
            one = atom_rows(fam, gen, j, ks[3:4], xs)
            assert np.array_equal(one, gather_rows(fam, gen, j, ks[3:4], xs))

    def test_analysis_allocates_below_half_of_f(self, db2):
        # f's odd samples go into g as one strided slice: no index arrays
        # over f's 262,145 samples.  g keeps only the columns they fall on,
        # 1,032 x 32 doubles, an eighth of f, so the bound is now a fifth
        f = quadrature_sample(test_function("gaussian"), db2, 12)
        ks = translate_range(db2, 9, (-1.0, 1.0))
        dyadic_analysis(f, db2, "psi", 9, ks)  # one-time setup is not counted
        tracemalloc.start()
        try:
            dyadic_analysis(f, db2, "psi", 9, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.values.nbytes / 5


class TestFilterBankCrossCheck:
    def test_quadrature_coefficients_satisfy_recursion(self, haar, db2, gauss):
        # b_{j,k} = sum_m h_{m-2k} b_{j+1,m}; a_{j,k} = sum_m g_{m-2k} b_{j+1,m}
        for fam, tol in ((haar, 1e-10), (db2, 1e-8)):
            c0 = analyze(gauss, fam, 0, 1)
            c1 = analyze(gauss, fam, 1, 2)
            h, g = fam.filter.lowpass, fam.filter.highpass
            for k in range(-1, 2):
                want_b = sum(
                    h[m - 2 * k] * c1.b.get(m, 0.0)
                    for m in range(2 * k, 2 * k + len(h))
                )
                want_a = sum(
                    g[m - 2 * k] * c1.b.get(m, 0.0)
                    for m in range(2 * k, 2 * k + len(g))
                )
                assert c0.b[k] == pytest.approx(want_b, abs=tol)
                assert c0.a[(0, k)] == pytest.approx(want_a, abs=tol)
