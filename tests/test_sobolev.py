import contextlib
import dataclasses
import functools
import json
import math
import signal

import numpy as np
import pytest

from waverate import DyadicGrid, make_family, sample
from waverate.families import refined_tables
from waverate.grids import DecayHint, SampledFunction
from waverate.sobolev import (
    SHELL_POINTS,
    SHELLS,
    CriticalOrder,
    SampledSpectrum,
    SobolevError,
    SymbolSpectrum,
    criterion_sweep,
    critical_order,
    export_critical_json,
    export_sweep_csv,
    family_spectrum,
    fourier_transform,
    hermitian_defect,
    plancherel_defect,
    sampled_transform,
    scaling_criterion,
    wavelet_criterion,
)
from waverate.sobolev import _assemble


@pytest.fixture(scope="module")
def haar():
    return make_family("haar")


@pytest.fixture(scope="module")
def haar_psi_spec(haar):
    return family_spectrum(haar, "psi")


@pytest.fixture(scope="module")
def haar_phi_spec(haar):
    return family_spectrum(haar, "phi")


def pollen_cosine_symbol(theta):
    """Pollen's length-4 orthonormal filter at theta, as the power symbol
    a(w) = sum_n r_n cos(n w) / 2 of its autocorrelation r and b(w) = a(w + pi):
    a(0) = (sum h)^2 / 2 is 1 only up to rounding."""
    c, s = math.cos(theta), math.sin(theta)
    h = np.array([1 + c + s, 1 - c + s, 1 + c - s, 1 - c - s]) / (2 * math.sqrt(2))
    r = np.convolve(h, h[::-1])  # lags -3..3

    def symbol(omega):
        return tuple(
            sum(rn * np.cos((n - 3) * w) for n, rn in enumerate(r)) / 2
            for w in (omega, omega + np.pi)
        )

    return symbol


def box_function():
    g = DyadicGrid(-1.0, 1.0, 10)
    x = g.points()
    v = np.where(np.abs(x) < 0.5, 1.0, 0.0)
    v[np.abs(np.abs(x) - 0.5) < 1e-12] = 0.5  # midpoint at the jumps
    return SampledFunction(g, v)


class TestFourierTransform:
    def test_box_closed_form(self):
        sp = fourier_transform(box_function())
        for xi in (0.0, math.pi, 2 * math.pi):
            want = 1.0 / math.sqrt(2 * math.pi)
            if xi != 0.0:
                want *= math.sin(xi / 2) / (xi / 2)
            assert abs(sp.evaluate(xi)[0] - want) < 1e-4

    def test_plancherel(self):
        assert plancherel_defect(fourier_transform(box_function())) < 1e-4

    def test_hermitian_symmetry(self):
        assert hermitian_defect(fourier_transform(box_function())) < 1e-10

    def test_gaussian_self_transform(self):
        g = DyadicGrid(-16.0, 16.0, 8)
        f = sample(lambda x: np.exp(-(x**2) / 2), g, DecayHint("none"))
        sp = fourier_transform(f)
        xs = np.linspace(-8.0, 8.0, 65)
        assert np.max(np.abs(sp.evaluate(xs) - np.exp(-(xs**2) / 2))) < 1e-6
        assert np.array_equal(sp.evaluate(xs), sampled_transform(f, xs))

    def test_haar_wavelet_quadratic_origin(self, haar_psi_spec):
        # |psi^|^2 / xi^2 constant within 2% on [0.01, 0.1]
        xi = np.linspace(0.01, 0.1, 25)
        ratio = np.abs(haar_psi_spec.evaluate(xi)) ** 2 / xi**2
        assert (ratio.max() - ratio.min()) / ratio.mean() < 0.02

    def test_rejects_asymmetric_grid(self):
        with pytest.raises(SobolevError):
            SampledSpectrum(
                xi=np.array([0.0, 1.0, 3.0]), values=np.zeros(3, complex),
                source=box_function(),
            )


@functools.cache
def built(name, param):
    return make_family(name, param) if param else make_family(name)


class TestSymbolSpectrum:
    @pytest.mark.parametrize(
        "name,param",
        [("haar", 0), ("daubechies", 2), ("daubechies", 4), ("battle_lemarie", 2),
         ("battle_lemarie", 3)],
    )
    def test_matches_sampled_transform_of_tables(self, name, param):
        # the symbol products against the DFT of the tabulated generators
        fam = built(name, param)
        level = fam.phi.grid.level + 3
        phi, psi = (refined_tables(fam, gen, level) for gen in ("phi", "psi"))
        xi = np.linspace(0.05, 3.0, 40)
        psi_dft = np.abs(sampled_transform(psi, xi)) ** 2
        psi_sym = family_spectrum(fam, "psi").evaluate(xi) ** 2
        assert np.max(np.abs(psi_dft / psi_sym - 1.0)) <= 1e-5
        phi_dft = 2 * np.pi * np.abs(sampled_transform(phi, xi)) ** 2
        phi_sym = 2 * np.pi * family_spectrum(fam, "phi").evaluate(xi) ** 2
        assert np.max(np.abs(phi_dft - phi_sym)) <= 1e-6

    def test_rejects_nonfinite_frequency(self, haar_psi_spec):
        with pytest.raises(SobolevError):
            haar_psi_spec.evaluate(np.inf)

    @pytest.mark.parametrize("which", ["phi", "psi"])
    def test_symbol_off_one_at_zero_raises(self, which):
        # the products stop once every xi has underflowed to 0, in well
        # under the 5 s alarm
        symbol = pollen_cosine_symbol(0.8)
        assert symbol(np.zeros(1))[0][0] - 1.0 == pytest.approx(-4.4e-16, rel=0.01)
        with stops_within_alarm():
            SymbolSpectrum(symbol, which).evaluate([1.0])

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    def test_symbol_off_one_at_zero_raises_on_shells(self, criterion):
        # the shell table grows until every xi has underflowed, then raises
        fam = dataclasses.replace(built("haar", 0), symbol=pollen_cosine_symbol(0.8))
        with stops_within_alarm():
            criterion_sweep(fam, [0.5, 1.5], 1.0, criterion)
        with stops_within_alarm():
            critical_order(fam, 1.0, criterion)


@contextlib.contextmanager
def stops_within_alarm(seconds=5.0):
    """Expect the SobolevError that names a(0) of the off-one symbol within
    `seconds` under a SIGALRM guard."""

    def stop(signum, frame):
        raise TimeoutError("the symbol products did not stop")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with pytest.raises(SobolevError, match=r"a\(0\) = 0\.9999999999999996 is not 1"):
            yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestWaveletCriterion:
    def test_haar_low_order_finite(self, haar):
        r = wavelet_criterion(haar, 0.5, 1.0)
        assert not r.diverged
        assert np.isfinite(r.value) and r.value > 0

    def test_haar_high_order_diverged(self, haar):
        r = wavelet_criterion(haar, 1.5, 1.0)
        assert r.diverged
        assert r.value == math.inf

    def test_trace_monotone_increasing(self, haar):
        for s in (0.3, 0.8, 1.2, 2.5):
            t = wavelet_criterion(haar, s).refinement_trace
            assert all(b >= a for a, b in zip(t, t[1:]))

    def test_epsilon_independent_verdicts(self, haar):
        for s in (0.5, 1.5):
            verdicts = {
                wavelet_criterion(haar, s, eps).diverged
                for eps in (0.5, 1.0, 2.0)
            }
            assert len(verdicts) == 1

    def test_rejects_bad_parameters(self, haar):
        with pytest.raises(SobolevError):
            wavelet_criterion(haar, -1.0)
        with pytest.raises(SobolevError):
            wavelet_criterion(haar, 1.0, epsilon=0.0)
        with pytest.raises(SobolevError):
            # the SHELLS shells of eps = 0.05 reach below XI_FLOOR / 4
            wavelet_criterion(haar, 1.0, epsilon=0.05)


class TestScalingCriterion:
    def test_haar_verdicts(self, haar):
        assert not scaling_criterion(haar, 0.5).diverged
        assert scaling_criterion(haar, 1.5).diverged

    def test_haar_factor_quadratic_law(self, haar_phi_spec):
        xi = np.array([1e-3, 1e-2, 0.05])
        factor = 2 * np.pi * np.abs(haar_phi_spec.evaluate(xi)) ** 2 - 1
        assert np.max(np.abs(factor / (-(xi**2) / 12.0) - 1.0)) < 0.01

    def test_haar_factor_without_cancellation(self, haar_phi_spec):
        # 1 - sinc^2(xi/2) = xi^2/12 - xi^4/360 + O(xi^6), far below 1e-16 at 1e-9
        xi = np.array([1e-9, 1e-6, 1e-3])
        series = xi**2 / 12.0 - xi**4 / 360.0
        assert np.max(np.abs(haar_phi_spec.scaling_factor(xi) / series - 1.0)) < 1e-9

    def test_shannon_identically_zero(self):
        shannon = make_family("shannon")
        for s in (0.5, 2.0, 4.0):
            r = scaling_criterion(shannon, s)
            assert not r.diverged
            assert abs(r.value) < 1e-12

    def test_epsilon_independent_verdicts(self, haar):
        for s in (0.5, 1.5):
            verdicts = {
                scaling_criterion(haar, s, eps).diverged
                for eps in (0.5, 1.0, 2.0)
            }
            assert len(verdicts) == 1


class TestCriticalOrder:
    @pytest.mark.parametrize(
        "name,param,target,tol",
        [
            ("haar", 0, 1.0, 0.1),
            ("daubechies", 2, 2.0, 0.15),
            ("battle_lemarie", 2, 2.0, 0.15),
        ],
    )
    def test_known_orders(self, name, param, target, tol):
        fam = make_family(name, param) if param else make_family(name)
        co = critical_order(fam)
        assert abs(co.s_star - target) <= tol
        # the extrapolation moved the last local exponent by less than 1e-6
        assert abs(co.local_exponents[1] - co.s_star) <= 1e-6

    def test_matches_vanishing_moments(self):
        for spec in [("haar", 0), ("daubechies", 2), ("daubechies", 3), ("battle_lemarie", 2)]:
            fam = make_family(spec[0], spec[1]) if spec[1] else make_family(spec[0])
            co = critical_order(fam)
            assert abs(co.s_star - fam.vanishing_moments) <= 0.15

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0, math.pi])
    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize(
        "name,param,moments",
        [("haar", 0, 1)]
        + [("daubechies", n, n) for n in range(1, 11)]
        + [("battle_lemarie", k, k) for k in range(1, 5)],
    )
    def test_every_family_vanishing_moments(self, name, param, moments, criterion, eps):
        fam = built(name, param)
        co = critical_order(fam, eps, criterion)
        assert abs(co.s_star - moments) <= 0.15
        assert abs(co.s_star - moments) <= 1e-6
        # the sweep reads the same onset: diverged at N, finite just below
        below, at = criterion_sweep(fam, [moments - 0.01, moments], eps, criterion)
        assert not below.diverged and np.isfinite(below.value)
        assert at.render_value() == "DIVERGED"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_daubechies_order_equals_filter_sum_rules(self, n):
        # sum_k (-1)^k k^m h_k = 0 for m < N: count the sum rules of the
        # stored lowpass, relative to sum_k |k^m h_k|
        fam = built("daubechies", n)
        h = fam.filter.lowpass
        k = np.arange(h.size, dtype=float)
        rel = [
            abs(np.sum((-1.0) ** k * k**m * h)) / np.sum(np.abs(k**m * h)) for m in range(12)
        ]
        rules = next(m for m, r in enumerate(rel) if r > 1e-12)
        assert rel[rules] > 1e-4  # 8 decades above the tolerance: no borderline count
        for criterion in ("wavelet", "scaling"):
            assert abs(critical_order(fam, 1.0, criterion).s_star - rules) <= 1e-6

    def test_wavelet_scaling_agreement(self):
        for spec in [("haar", 0), ("daubechies", 2), ("battle_lemarie", 2)]:
            fam = make_family(spec[0], spec[1]) if spec[1] else make_family(spec[0])
            a = critical_order(fam, criterion="wavelet").s_star
            b = critical_order(fam, criterion="scaling").s_star
            assert abs(a - b) <= 0.15

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    def test_shannon_has_no_onset(self, criterion):
        # its shells vanish: finite at every s, and no critical order
        shannon = built("shannon", 0)
        sweep = criterion_sweep(shannon, [0.1, 4.0, 16.0], 1.0, criterion)
        assert not any(r.diverged for r in sweep)
        with pytest.raises(SobolevError, match="no divergence onset"):
            critical_order(shannon, criterion=criterion)

    def test_bad_criterion_name(self, haar):
        with pytest.raises(SobolevError):
            critical_order(haar, criterion="bogus")
        with pytest.raises(SobolevError):
            criterion_sweep(haar, [0.5], criterion="bogus")

    def test_verdict_monotone_on_sweep(self, haar):
        # finite verdicts must precede diverged ones on a 0.1-spaced sweep
        sweep = criterion_sweep(haar, np.arange(0.1, 2.01, 0.1))
        flags = [r.diverged for r in sweep]
        assert flags == sorted(flags)


def counted_symbol(fam):
    """fam with its symbol wrapped to count calls, and the call list."""
    calls = []

    def symbol(omega):
        calls.append(omega.size)
        return fam.symbol(omega)

    return dataclasses.replace(fam, symbol=symbol), calls


_SINGLE = {"wavelet": wavelet_criterion, "scaling": scaling_criterion}


class TestShellIntegrand:
    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize("name,param", [("haar", 0), ("daubechies", 2), ("battle_lemarie", 2)])
    def test_one_product_loop_per_spectrum_and_epsilon(self, name, param, criterion):
        fam, calls = counted_symbol(built(name, param))
        _SINGLE[criterion](fam, 1.0, 0.5)
        one = list(calls)
        calls.clear()
        critical_order(fam, 0.5, criterion)
        assert calls == one
        calls.clear()
        criterion_sweep(fam, np.arange(0.1, 2.01, 0.1), 0.5, criterion)
        assert calls == one

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize("name,param", [("haar", 0), ("daubechies", 2), ("battle_lemarie", 2)])
    @pytest.mark.parametrize("eps", [0.5, 1.0])
    def test_verdicts_equal_single_order_criteria(self, name, param, criterion, eps):
        fam = built(name, param)
        single = _SINGLE[criterion]
        s_star = critical_order(fam, eps, criterion).s_star
        s_values = [s_star - 0.01, s_star, s_star + 0.01, 0.3, 1.7, 2.9]
        swept = criterion_sweep(fam, s_values, eps, criterion)
        assert swept == [single(fam, s, eps) for s in s_values]
        assert [r.diverged for r in swept[:3]] == [False, True, True]

    def test_haar_wavelet_finite_below_one(self, haar):
        sweep = criterion_sweep(haar, [0.3, 0.5])
        assert not any(r.diverged for r in sweep)


def products_oracle(symbol, xi):
    """(2pi |phi^(xi)|^2, 1 - 2pi |phi^(xi)|^2), one halving of xi per step."""
    power, factor = np.ones_like(xi), np.zeros_like(xi)
    while True:
        xi = xi / 2.0
        a, b = symbol(xi)
        factor += power * b
        power = power * a
        if np.all(a == 1.0):
            return power, factor


def spectrum_oracle(symbol, which, xi):
    """|phi^(xi)| or |psi^(xi)| from ``products_oracle``."""
    if which == "phi":
        return np.sqrt(products_oracle(symbol, xi)[0] / (2.0 * math.pi))
    power = products_oracle(symbol, xi / 2.0)[0]
    return np.sqrt(symbol(xi / 2.0)[1] * power / (2.0 * math.pi))


@functools.cache
def shell_oracle(name, param, criterion, eps):
    """The shell grids and the criterion integrand on them, one symbol call per
    halving over all shells concatenated."""
    symbol = built(name, param).symbol
    grids = [
        np.linspace(eps * 2.0 ** -(m + 1), eps * 2.0**-m, SHELL_POINTS) for m in range(SHELLS)
    ]
    xi = np.concatenate(grids)
    if criterion == "wavelet":
        values = spectrum_oracle(symbol, "psi", xi) ** 2
    else:
        values = products_oracle(symbol, xi)[1]
    return grids, np.split(values, SHELLS)


def onset_oracle(zero_sums):
    """(s*, (e_prev, e_last), onset) of the s = 0 shell sums: one Richardson
    step on the last two local exponents, s* - |e_last - s*| the onset."""
    tail = zero_sums[-3:]
    if min(tail) == 0.0:
        return math.inf, (math.inf, math.inf), math.inf
    e_prev, e_last = (math.log2(a / b) / 2.0 for a, b in zip(tail, tail[1:]))
    s_star = (4.0 * e_last - e_prev) / 3.0
    return s_star, (e_prev, e_last), s_star - abs(e_last - s_star)


def shell_sums_oracle(name, param, criterion, eps, s):
    """The shell sums at s, one trapezoid per shell."""
    grids, values = shell_oracle(name, param, criterion, eps)
    return [
        float(np.trapezoid(2.0 * v * g ** -(2.0 * s + 1.0), g)) for g, v in zip(grids, values)
    ]


def integral_oracle(name, param, criterion, eps, s):
    """The criterion at s, diverged from the oracle onset on."""
    onset = onset_oracle(shell_sums_oracle(name, param, criterion, eps, 0.0))[2]
    return _assemble(s, eps, shell_sums_oracle(name, param, criterion, eps, s), onset)


DESIGNED = (
    [("haar", 0)]
    + [("daubechies", n) for n in range(1, 11)]
    + [("battle_lemarie", k) for k in range(1, 5)]
    + [("shannon", 0)]
)


class TestShellTable:
    """The one-table shells and products against one halving per step."""

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize("name,param", DESIGNED)
    def test_shells_equal_per_shell_oracle(self, name, param, criterion):
        fam = built(name, param)
        for eps in (0.25, 0.5, 1.0, 2.0, math.pi):
            s_values = (0.1, 0.5, 1.0, 1.9, 2.5, 4.0, 8.0, 15.9)
            swept = criterion_sweep(fam, s_values, eps, criterion)
            for s, got in zip(s_values, swept):
                want = integral_oracle(name, param, criterion, eps, s)
                assert got.shells == want.shells
                assert got.value == want.value
                assert got.diverged == want.diverged
                assert got == want
                assert _SINGLE[criterion](fam, s, eps) == want

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize("name,param", DESIGNED)
    def test_critical_order_equals_oracle(self, name, param, criterion):
        s_star, exponents, _ = onset_oracle(shell_sums_oracle(name, param, criterion, 1.0, 0.0))
        if not math.isfinite(s_star):
            with pytest.raises(SobolevError):
                critical_order(built(name, param), 1.0, criterion)
        else:
            co = critical_order(built(name, param), 1.0, criterion)
            assert (co.s_star, co.local_exponents) == (s_star, exponents)

    @pytest.mark.parametrize("name,param", DESIGNED)
    def test_spectra_equal_oracle(self, name, param):
        fam = built(name, param)
        for xi in (
            np.linspace(0.05, 3.0, 40),
            np.linspace(0.01, 0.1, 25),
            np.array([1e-3, 1e-2, 0.05]),
            np.array([1e-9, 1e-6, 1e-3]),
            # haar and daubechies take more halvings to a = 1 than the first table has rows
            np.array([1.0, 1e3, 1e9]),
        ):
            for which in ("phi", "psi"):
                got = family_spectrum(fam, which).evaluate(xi)
                assert np.array_equal(got, spectrum_oracle(fam.symbol, which, xi))
            got = family_spectrum(fam, "phi").scaling_factor(xi)
            assert np.array_equal(got, products_oracle(fam.symbol, xi)[1])

    @pytest.mark.parametrize("criterion", ["wavelet", "scaling"])
    @pytest.mark.parametrize("name,param", DESIGNED)
    def test_one_symbol_call_per_shell_integral(self, name, param, criterion):
        fam, calls = counted_symbol(built(name, param))
        _SINGLE[criterion](fam, 1.0, 1.0)
        assert len(calls) == 1


class TestExports:
    def test_sweep_csv(self, haar, tmp_path):
        results = criterion_sweep(haar, [0.5, 1.5])
        path = tmp_path / "sweep.csv"
        export_sweep_csv(results, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("s,epsilon,value,shell_0")
        assert "DIVERGED" in lines[2]
        assert "DIVERGED" not in lines[1]

    def test_critical_json(self, haar, tmp_path):
        co = critical_order(haar)
        path = tmp_path / "co.json"
        export_critical_json(co, str(path))
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["criterion", "family", "local_exponents", "s_star"]
        assert doc["family"] == "haar"
        assert [abs(e - doc["s_star"]) <= 1e-6 for e in doc["local_exponents"]] == [True, True]
