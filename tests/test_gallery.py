import hashlib
import math

import numpy as np
import pytest

from slopekit import ScalarField, sample_interval, slope_field
from slopekit.errors import InvalidCount, OutOfDomain, UnknownFigure
from slopekit.gallery import (
    arctan_pair,
    cantor_approx,
    cantor_pair,
    emit_figure_data,
    square_sine_pair,
    stair_segment_is_steep,
)


def test_arctan_pair_values_and_slopes():
    f, g = arctan_pair()
    assert f.analytic_slope(0.0) == 1.0
    assert f.analytic_slope(1.0) == 0.5
    assert f.value(0.0) == 0.0 and g.value(0.0) == 0.0
    assert f.value(1.0) + g.value(1.0) == 0.0
    ts = np.linspace(-10, 10, 201)
    assert all(f.analytic_slope(t) == g.analytic_slope(t) for t in ts)


def test_square_sine_values_and_slopes():
    f, g = square_sine_pair()
    assert f.analytic_slope(0.0) == 1.0
    # both branches vanish at the junctions
    for x in (math.pi / 2, -math.pi / 2):
        assert abs(f.analytic_slope(x)) <= 1e-12
        inner = f.analytic_slope(x * (1 - 1e-9))
        outer = f.analytic_slope(x * (1 + 1e-9))
        assert abs(inner) <= 1e-8 and abs(outer) <= 1e-8
    assert abs(f.value(math.pi / 2) - 1.0) <= 1e-15
    assert abs(f.value(-math.pi / 2) + 1.0) <= 1e-15
    assert abs((g.value(-math.pi / 2) - f.value(-math.pi / 2)) - 2.0) <= 1e-12
    assert abs((g.value(math.pi / 2) - f.value(math.pi / 2)) + 2.0) <= 1e-12


def test_square_sine_slope_even():
    f, _ = square_sine_pair()
    for x in np.linspace(0.0, math.pi, 301):
        assert abs(f.analytic_slope(x) - f.analytic_slope(-x)) <= 1e-12


def test_cantor_fixed_endpoints_and_midpoint():
    for k in range(0, 11):
        assert cantor_approx(k, 0.0) == 0.0
        assert cantor_approx(k, 1.0) == 1.0
    for k in range(1, 11):
        assert cantor_approx(k, 0.5) == 0.5


def test_cantor_monotone_at_every_level():
    for k in range(0, 8):
        ts = [i / 3 ** k for i in range(3 ** k + 1)]
        ts += [i / 256 for i in range(257)]
        vals = [cantor_approx(k, t) for t in sorted(ts)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_cantor_stair_increment_steepness():
    # stair segments rise 2^-k across width 3^-k
    for k in range(1, 8):
        m = 3 ** k
        for j in (0, m - 1):
            lo = cantor_approx(k, j / m)
            hi = cantor_approx(k, (j + 1) / m)
            assert abs((hi - lo) * m - 1.5 ** k) <= 1e-9 * 1.5 ** k


def test_cantor_out_of_domain():
    with pytest.raises(OutOfDomain):
        cantor_approx(3, -0.1)
    with pytest.raises(OutOfDomain):
        cantor_approx(3, 1.1)
    with pytest.raises(InvalidCount, match="^level must be an integer >= 0, got -1$"):
        cantor_approx(-1, 0.5)
    with pytest.raises(InvalidCount, match="^level must be an integer >= 0, got -1$"):
        cantor_pair(-1)


def test_stair_segment_classifier():
    assert stair_segment_is_steep(1, 0)
    assert not stair_segment_is_steep(1, 1)
    assert stair_segment_is_steep(1, 2)
    assert [j for j in range(9) if stair_segment_is_steep(2, j)] == [0, 2, 6, 8]


def test_cantor_pair_values_and_plateau_slopes():
    k = 4
    f, g = cantor_pair(k)
    assert f.value(0.0) == 0.0 and g.value(0.0) == 0.0
    assert f.analytic_slope(0.0) == 0.0 and g.analytic_slope(0.0) == 0.0
    n = 3 ** k + 1
    grid = sample_interval(0.0, 1.0, n)
    ts = grid.coordinates
    ff = ScalarField(grid, np.array([f.value(t) for t in ts]))
    gg = ScalarField(grid, np.array([g.value(t) for t in ts]))
    sf = slope_field(grid, ff)
    sg = slope_field(grid, gg)
    m = 3 ** k
    for j in range(m):
        x = j + 1  # right endpoint of triadic interval j
        if stair_segment_is_steep(k, j):
            assert abs(sf.values[x] - (1 + 1.5 ** k)) <= 1e-9 * (1 + 1.5 ** k)
            assert abs(sg.values[x] - (1 + 2 * 1.5 ** k)) \
                <= 1e-9 * (1 + 2 * 1.5 ** k)
        else:
            assert abs(sf.values[x] - 1.0) <= 1e-9
            assert abs(sg.values[x] - 1.0) <= 1e-9


def test_cantor_pair_analytic_slopes_on_steps_and_plateaus():
    # Level 1: a stair segment on (0, 1/3] and (2/3, 1], steepness 3/2,
    # and a plateau between; f adds t once and g adds the staircase twice.
    f, g = cantor_pair(1)
    for t, slope_f, slope_g in ((0.0, 0.0, 0.0), (0.25, 2.5, 4.0),
                                (0.5, 1.0, 1.0), (0.9, 2.5, 4.0), (1.0, 2.5, 4.0)):
        assert f.analytic_slope(t) == slope_f
        assert g.analytic_slope(t) == slope_g


def test_discrete_slope_tracks_analytic_at_rate_h():
    # empirical constant in max_err <= C * h, asserted C <= 1 (with a
    # tolerance-based comparison for the knife-edge quadratic case)
    for maker, a, b, skip in (
            (lambda: arctan_pair()[0], -5.0, 5.0, 0.0),
            (lambda: square_sine_pair()[0], -math.pi, math.pi, 0.0)):
        fn = maker()
        worst_c = 0.0
        for n in (2001, 4001):
            grid = sample_interval(a, b, n)
            h = grid.edges[0][2]
            ts = grid.coordinates
            f = ScalarField(grid, np.array([fn.value(t) for t in ts]))
            sf = slope_field(grid, f)
            expected = np.array([fn.analytic_slope(t) for t in ts])
            err = np.abs(sf.values[1:-1] - expected[1:-1])
            worst_c = max(worst_c, float(err.max()) / h)
        assert worst_c <= 1.0 + 1e-9


def test_emit_figure_data_fig1():
    header, rows = emit_figure_data("fig1", n=101)
    assert header == ("t", "f", "g", "slope_f_analytic", "slope_f_discrete")
    assert len(rows) == 101
    mid = rows[50]
    assert abs(mid[0]) < 1e-12          # crosses at t = 0
    assert abs(mid[1]) < 1e-12 and abs(mid[2]) < 1e-12
    assert mid[3] == pytest.approx(1.0, abs=1e-9)


def test_emit_figure_data_fig2_mirrored():
    header, rows = emit_figure_data("fig2", n=201)
    ts = np.array([r[0] for r in rows])
    fs = np.array([r[1] for r in rows])
    gs = np.array([r[2] for r in rows])
    # g(t) = f(-t) on a symmetric grid
    assert np.allclose(gs, fs[::-1], atol=1e-9)


def test_emit_figure_data_fig3_levels():
    header, rows = emit_figure_data("fig3", level=3)
    assert len(rows) == 3 ** 3 + 1
    assert rows[0][1] == 0.0
    assert rows[-1][1] == pytest.approx(2.0, abs=1e-12)  # c(1) + 1
    assert rows[-1][2] == pytest.approx(3.0, abs=1e-12)  # 2 c(1) + 1


def test_emit_figure_data_rejects_unknown_tag():
    with pytest.raises(UnknownFigure):
        emit_figure_data("fig9")


# sha256 of `slopekit gallery ...` stdout. The closed forms run on
# math.* point by point and the slope kernel uses only exact IEEE
# operations, so these bytes do not depend on the machine.
GOLDEN = {
    ("fig1", "csv"): "c9b943769f365b4c87c374fd7e7ab5834fb721d5df70cf88f197f53eab829c1a",
    ("fig1", "gnuplot"): "92090aafeef95f200a07bcdc83d621dbafce5f0e2842b1798512f6c7c006a82a",
    ("fig2", "csv"): "38cab85e6a10f0d555121e70d41ff1b0059cc3a73cf409b75ae4dc30c0db5607",
    ("fig2", "gnuplot"): "1a4dd69976f169289d297848665c9c80ca29bd622da10bbfa182a734f2d3f86c",
    ("fig3", "csv"): "2873d9adbe2a5b45eb3ff069f38a2b1c46f1ff15f3433736715057441d8ffff2",
    ("fig3", "gnuplot"): "2259ae4f334824b2a5bc25c0fb250127c99cb50eb830b658af9b223c53c62455",
    ("fig2 --n 100001", "csv"):
        "cd8a31c0cbc5bb8a8b58374a66e74bf4b9384883f840008da992d04c34a38b8c",
    ("fig2 --n 100001", "gnuplot"):
        "5769a23f25e54aa5b854ba498b1b62dd40367c16a049b5fda2b1cc94ceff9139",
}


@pytest.mark.parametrize("figure,fmt", list(GOLDEN))
def test_gallery_output_is_pinned(figure, fmt, capsys):
    from slopekit.cli import main
    assert main(["gallery", *figure.split(), "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[figure, fmt]
