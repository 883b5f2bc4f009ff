import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverate import make_family, parse_family_spec
from waverate.grids import (
    MAX_TABLE_LEVEL,
    DecayHint,
    DyadicGrid,
    ConfigError,
    SampledFunction,
    check_study_level,
    check_table_level,
    product_quad,
    sample,
    scale_span,
)


def norm_l2(f: SampledFunction) -> float:
    """The trapezoid L^2 norm of f's table."""
    return float(np.sqrt(np.trapezoid(f.values**2, dx=f.dx)))


class TestDyadicGrid:
    def test_count_and_spacing(self):
        g = DyadicGrid(-1.0, 2.0, 3)
        assert g.count == 25
        assert g.spacing == 0.125
        pts = g.points()
        assert pts[0] == -1.0 and pts[-1] == 2.0
        assert np.all(np.diff(pts) > 0)

    def test_rejects_non_dyadic_endpoint(self):
        with pytest.raises(ValueError):
            DyadicGrid(0.3, 1.0, 4)

    def test_rejects_level_past_finite_doubles(self):
        assert DyadicGrid(0.0, 2.0**-1017, 1023).count == 65
        with pytest.raises(ValueError, match="not a finite double"):
            DyadicGrid(0.0, 2.0**-1018, 1024)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            DyadicGrid(1.0, 1.0, 4)

    def test_index_of(self):
        g = DyadicGrid(0.0, 1.0, 4)
        assert g.index_of(0.5) == 8
        with pytest.raises(ValueError):
            g.index_of(0.51)

    def test_start_is_the_lattice_index_of_left(self):
        for left, level in ((-1.0, 3), (0.375, 3), (-4.0, 15), (0.0, 0), (-0.0009765625, 13)):
            start = DyadicGrid(left, left + 1.0, level).start
            assert isinstance(start, int) and start == left * 2**level

    def test_refine_keeps_endpoints(self):
        g = DyadicGrid(-0.5, 0.5, 2).refine(3)
        assert g.level == 5
        assert g.points()[0] == -0.5

    @given(
        level=st.integers(0, 12),
        a=st.integers(-8, 7),
        width=st.integers(1, 8),
    )
    @settings(max_examples=50)
    def test_points_are_exact_dyadics(self, level, a, width):
        g = DyadicGrid(float(a), float(a + width), level)
        pts = g.points()
        assert len(pts) == g.count
        # every point must be exactly representable at this level
        scaled = pts * 2.0**level
        assert np.all(scaled == np.floor(scaled))
        # a run of points is the same run of the whole array, byte for byte
        first, count = g.count // 3, g.count - g.count // 3 - 1
        assert g.points(first, count).tobytes() == pts[first : first + count].tobytes()
        assert pts.tobytes() == (g.left + np.arange(g.count) * g.spacing).tobytes()


class TestSampledFunction:
    def test_interpolation_and_zero_extension(self):
        g = DyadicGrid(0.0, 1.0, 1)
        f = SampledFunction(g, np.array([0.0, 1.0, 0.0]))
        assert f(0.25) == 0.5
        assert f(2.0) == 0.0 and f(-1.0) == 0.0

    def test_norms_of_tent(self):
        g = DyadicGrid(-1.0, 1.0, 8)
        f = sample(lambda x: np.maximum(0.0, 1.0 - np.abs(x)), g)
        assert f.integral() == pytest.approx(1.0, abs=1e-12)
        assert f.norm_l1() == pytest.approx(1.0, abs=1e-12)
        assert norm_l2(f) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-5)
        assert f.norm_sup() == 1.0


def _bits(a) -> np.ndarray:
    """The float64 bit patterns: tells -0.0 from 0.0 and compares NaN payloads."""
    return np.asarray(a, dtype=float).view(np.int64)


def _interp(f: SampledFunction, x) -> np.ndarray:
    return np.interp(x, f.x(), f.values, left=0.0, right=0.0)


@pytest.fixture(scope="module", params=["haar", "daubechies:2", "battle_lemarie:3", "shannon"])
def table(request):
    return parse_family_spec(request.param).phi


class TestEvaluationOracle:
    """__call__ and on_lattice are bitwise np.interp on the tabulated abscissae."""

    def test_nodes_midpoints_and_neighbours(self, table):
        x = table.x()
        for pts in (x, (x[:-1] + x[1:]) / 2, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)):
            assert np.array_equal(_bits(table(pts)), _bits(_interp(table, pts)))

    def test_endpoints_out_of_range_and_nan(self, table):
        g = table.grid
        pts = np.array(
            [g.left, g.right, g.left - 1.0, g.right + 1.0, np.nextafter(g.left, -np.inf),
             np.nextafter(g.right, np.inf), -np.inf, np.inf, np.nan, -0.0]
        )
        got = table(pts)
        assert np.array_equal(_bits(got), _bits(_interp(table, pts)))
        assert np.isnan(got[-2]) and got[2] == got[3] == 0.0

    def test_scalar_and_two_dimensional(self, table):
        g = table.grid
        for s in (0.3, g.left, g.right, g.right + 2.0, 1, np.nan):
            got, want = table(s), _interp(table, s)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want)
        pts = np.random.default_rng(3).uniform(g.left - 1.0, g.right + 1.0, (40, 7))
        got = table(pts)
        assert got.shape == (40, 7)
        assert np.array_equal(_bits(got), _bits(_interp(table, pts)))

    def test_random_points(self, table):
        g = table.grid
        pts = np.random.default_rng(4).uniform(g.left - 1.0, g.right + 1.0, 20000)
        assert np.array_equal(_bits(table(pts)), _bits(_interp(table, pts)))

    @pytest.mark.parametrize("extra", [-3, 0])
    def test_on_lattice(self, table, extra):
        # lattices coarser than and equal to the table's, over runs that
        # start left of it, end right of it, or fall inside it
        g = table.grid
        level = g.level + extra
        lo, hi = round(np.ldexp(g.left, level)), round(np.ldexp(g.right, level))
        span = hi - lo
        for start, count in ((lo - 5, span + 11), (lo, span + 1), (lo + span // 3, span // 4),
                             (hi, 3), (hi + 1, 4), (lo - 9, 4), (lo + 1, 0)):
            pts = np.ldexp(np.arange(start, start + count, dtype=float), -level)
            got = table.on_lattice(level, start, count)
            assert np.array_equal(_bits(got), _bits(_interp(table, pts)))

    def test_finer_lattice_rejected(self, table):
        # a finer lattice has points between the nodes: no slice reads them
        with pytest.raises(ValueError, match="finer than the level"):
            table.on_lattice(table.grid.level + 1, 0, 4)

    def test_signed_zero_node_values(self):
        # a node holding -0.0 is read back as -0.0, as np.interp does
        g = DyadicGrid(0.0, 1.0, 2)
        f = SampledFunction(g, np.array([1.0, -0.0, 2.0, -0.0, 0.0]))
        pts = np.array([0.25, 0.75, 0.5, 0.3])
        assert np.array_equal(_bits(f(pts)), _bits(_interp(f, pts)))
        assert np.array_equal(_bits(f.on_lattice(2, 0, 5)), _bits(_interp(f, np.arange(5) / 4)))


def test_check_table_level():
    check_table_level(MAX_TABLE_LEVEL)
    with pytest.raises(ValueError, match="finest allowed"):
        check_table_level(MAX_TABLE_LEVEL + 1)


def test_check_study_level():
    check_study_level(0)
    with pytest.raises(ConfigError, match="level -1 is negative"):
        check_study_level(-1)


class TestScaleSpan:
    def test_reads_the_ends(self):
        assert scale_span(range(3, 10)) == (3, 9)
        assert scale_span(range(-2, -1)) == (-2, -2)
        # no list of a billion or a googol scales is made
        assert scale_span(range(0, 10**9)) == (0, 10**9 - 1)
        assert scale_span(range(-(10**100), 4)) == (-(10**100), 3)

    @pytest.mark.parametrize("js", [range(0), range(5, 3), range(0, 7, 2), range(6, 0, -1),
                                    [0, 1, 2], (0, 1, 2), 3])
    def test_rejects_anything_but_one_nonempty_range(self, js):
        with pytest.raises(ConfigError, match="nonempty level range of step 1"):
            scale_span(js)


class TestDecayHint:
    def test_exponential_needs_rate(self):
        with pytest.raises(ValueError):
            DecayHint("exponential")
        DecayHint("exponential", a=1.0)

    def test_algebraic_needs_order_above_one(self):
        with pytest.raises(ValueError):
            DecayHint("algebraic", N=1.0)
        DecayHint("algebraic", N=2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DecayHint("linear")


def trapezoid_product_quad(values_f, values_g, dx) -> float:
    """2 T(h) - T(2h) through np.trapezoid: the rule before its sum form."""
    prod = values_f * values_g
    fine = np.trapezoid(prod, dx=dx)
    if (prod.size - 1) % 2 != 0:
        return float(fine)
    return float(2.0 * fine - np.trapezoid(prod[::2], dx=2 * dx))


class TestProductQuad:
    def test_exact_for_aligned_midpoint_jumps(self):
        # indicator of [0,1) with midpoint convention, against itself
        g = DyadicGrid(-1.0, 2.0, 6)
        x = g.points()
        v = np.where((x > 0) & (x < 1), 1.0, 0.0)
        v[g.index_of(0.0)] = 0.5
        v[g.index_of(1.0)] = 0.5
        assert product_quad(v, v, g.spacing) == pytest.approx(1.0, abs=1e-14)

    def test_second_order_for_smooth(self):
        g = DyadicGrid(0.0, 1.0, 10)
        x = g.points()
        got = product_quad(np.sin(np.pi * x), np.sin(np.pi * x), g.spacing)
        assert got == pytest.approx(0.5, abs=1e-9)

    @given(st.integers(3, 30))
    def test_plain_trapezoid_fallback_for_odd_intervals(self, n):
        vals = np.linspace(0.0, 1.0, n)
        got = product_quad(vals, np.ones(n), 0.5)
        want = np.trapezoid(vals, dx=0.5)
        if (n - 1) % 2 == 0:
            want = 2 * want - np.trapezoid(vals[::2], dx=1.0)
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_haar_phi_psi_orthogonal(self):
        haar = make_family("haar")
        got = product_quad(haar.phi.values, haar.psi.values, haar.phi.dx)
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 128, 129, 1000, 1001, 65536, 65537])
    def test_sum_form_matches_trapezoid_form(self, n):
        rng = np.random.default_rng(n)
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        dx = 2.0**-10
        bound = 8 * np.finfo(float).eps * dx * np.sum(np.abs(f * g))
        assert abs(product_quad(f, g, dx) - trapezoid_product_quad(f, g, dx)) <= bound

    def test_sum_form_matches_trapezoid_form_on_haar_jumps(self):
        haar = make_family("haar")
        for f, g in [(haar.phi, haar.phi), (haar.phi, haar.psi), (haar.psi, haar.psi)]:
            bound = 8 * np.finfo(float).eps * f.dx * np.sum(np.abs(f.values * g.values))
            got = product_quad(f.values, g.values, f.dx)
            assert abs(got - trapezoid_product_quad(f.values, g.values, f.dx)) <= bound
