"""Quadrature, instance construction, balancing, and the instance file format."""

import numpy as np
import pytest

from transport_nare.structured_linalg import LowRankBilinear
from transport_nare.transport_problem import (
    DENSE_CAP,
    Quadrature,
    TransportParams,
    assemble_dense,
    balance,
    build_instance,
    gauss_legendre,
    make_instance,
    read_instance,
    unbalance_solution,
    write_instance,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def assert_mirrored(quad):
    """The rule is symmetric about 1/2: weights exactly, nodes to rounding."""
    assert np.array_equal(quad.weights, quad.weights[::-1])
    np.testing.assert_allclose(quad.omega + quad.omega[::-1], 1.0, rtol=0, atol=2.3e-16)
    if quad.n % 2:
        assert quad.omega[quad.n // 2] == 0.5


def test_gauss_legendre_n1_closed_form():
    quad = gauss_legendre(1)
    assert quad.omega.tolist() == [0.5]
    assert quad.weights.tolist() == [1.0]


def test_gauss_legendre_n2_closed_form():
    quad = gauss_legendre(2)
    hi = (1.0 + 1.0 / np.sqrt(3.0)) / 2.0
    lo = (1.0 - 1.0 / np.sqrt(3.0)) / 2.0
    np.testing.assert_allclose(quad.omega, [hi, lo], rtol=0, atol=1e-15)
    np.testing.assert_allclose(quad.weights, [0.5, 0.5], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 257])
def test_gauss_legendre_basic_properties(n):
    quad = gauss_legendre(n)
    assert quad.n == n
    assert np.all(quad.omega > 0.0) and np.all(quad.omega < 1.0)
    assert np.all(np.diff(quad.omega) < 0.0)
    assert np.all(quad.weights > 0.0)
    assert abs(quad.weights.sum() - 1.0) <= 1e-14
    assert_mirrored(quad)


def test_gauss_legendre_n4096_weight_sum():
    quad = gauss_legendre(4096)
    assert abs(quad.weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(quad.omega) < 0.0)
    assert_mirrored(quad)


# (index, node, weight) on (0, 1) in descending node order, from 40-digit
# Newton on the Legendre recurrence (mpmath), rounded to 17 digits
GL_REFERENCE = {
    64: [
        (0, 0.99965252086788607, 0.00089164036084821647),
        (1, 0.99817005838597764, 0.0020735166302812338),
        (2, 0.99550668573837216, 0.0032522289844891814),
        (5, 0.98050439982602686, 0.0067315239483593213),
        (16, 0.84261815652711662, 0.017736106628441192),
        (20, 0.76563973200994727, 0.020631281621311764),
        (31, 0.51217514633171222, 0.024345478504569860),
    ],
    512: [
        (0, 0.99999449549219093, 1.4126318686967346e-5),
        (1, 0.99997099730342283, 3.2882865829620098e-5),
        (2, 0.99992872318498972, 5.1665951748456618e-5),
        (5, 0.99968920460129963, 0.00010800908898849543),
        (20, 0.99596049659758573, 0.00038880174928434862),
        (128, 0.85219609405791191, 0.0021755462377535329),
        (255, 0.50153248109257970, 0.0030649525877028929),
    ],
    4096: [
        (0, 0.99999991384485191, 2.2110192569547434e-7),
        (1, 0.99999954605371249, 5.1468307020756646e-7),
        (2, 0.99999888436944837, 8.0869862585100964e-7),
        (5, 0.99999513502256452, 1.6908724524289954e-6),
        (20, 0.99993669085970720, 6.1015981726027524e-6),
        (1024, 0.85338388550737445, 0.00027126888288779609),
        (2047, 0.50019172418852696, 0.00038344835826076520),
    ],
}


@pytest.mark.parametrize("n", sorted(GL_REFERENCE))
def test_gauss_legendre_matches_reference(n):
    idx, om, w = (np.array(col) for col in zip(*GL_REFERENCE[n]))
    quad = gauss_legendre(n)
    # nodes are found in x, not in the angle, so the smallest weights at the
    # ends lose accuracy as n grows: 9e-14, 2e-13 and 7e-11 relative
    assert np.abs(quad.omega[idx] - om).max() <= 2e-16
    assert np.abs(quad.weights[idx] / w - 1.0).max() <= (5e-13 if n <= 512 else 2e-10)


@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_gauss_legendre_exact_to_degree_2n_minus_1(n):
    quad = gauss_legendre(n)
    k = np.arange(2 * n)
    moments = quad.omega[None, :] ** k[:, None] @ quad.weights
    np.testing.assert_allclose(moments, 1.0 / (k + 1), rtol=2e-15, atol=0)


def test_gauss_legendre_rejects_bad_n():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(2.5)


def test_quadrature_validation_errors():
    good_om = np.array([0.75, 0.25])
    good_w = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        Quadrature(np.array([0.25, 0.75]), good_w)       # ascending
    with pytest.raises(ValueError):
        Quadrature(np.array([1.5, 0.25]), good_w)        # node outside (0,1)
    with pytest.raises(ValueError):
        Quadrature(good_om, np.array([0.5, -0.5]))       # negative weight
    with pytest.raises(ValueError):
        Quadrature(good_om, np.array([0.6, 0.6]))        # sum != 1
    Quadrature(good_om, good_w)                          # and this one is fine


# ---------------------------------------------------------------------------
# parameters and instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c,alpha,n", [
    (0.0, 0.5, 4), (-0.1, 0.5, 4), (1.2, 0.5, 4),
    (0.5, 1.0, 4), (0.5, -0.1, 4), (0.5, 0.5, 0),
])
def test_params_rejects_out_of_range(c, alpha, n):
    with pytest.raises(ValueError):
        TransportParams(c=c, alpha=alpha, n=n)


def test_params_near_singular_flag():
    assert TransportParams(c=1.0, alpha=0.0, n=4).near_singular
    assert not TransportParams(c=1.0, alpha=0.5, n=4).near_singular
    assert not TransportParams(c=0.5, alpha=0.0, n=4).near_singular


def test_build_instance_scalar_values():
    # c=0.5, alpha=0, n=1: omega=1/2, weight=1
    inst = make_instance(1, 0.5, 0.0)
    assert inst.q.tolist() == [1.0]
    assert inst.delta.tolist() == [4.0]
    assert inst.d.tolist() == [4.0]


def test_build_instance_single_node_rates():
    quad = Quadrature(np.array([0.25]), np.array([1.0]))
    inst = build_instance(TransportParams(c=1.0, alpha=0.5, n=1), quad)
    np.testing.assert_allclose(inst.delta, [8.0 / 3.0], rtol=1e-15)
    np.testing.assert_allclose(inst.d, [8.0], rtol=1e-15)
    assert inst.q.tolist() == [2.0]


def test_build_instance_rejects_size_mismatch():
    with pytest.raises(ValueError):
        build_instance(TransportParams(c=0.5, alpha=0.5, n=3), gauss_legendre(4))


def test_isotropic_collapses_rates():
    inst = make_instance(12, 0.7, 0.0)
    assert np.array_equal(inst.delta, inst.d)


@pytest.mark.parametrize("c,alpha", [(0.3, 0.2), (0.9, 0.7), (1.0, 0.5), (0.5, 0.0)])
def test_rate_ordering(c, alpha):
    inst = make_instance(16, c, alpha)
    assert np.all(inst.delta <= inst.d)
    if alpha == 0.0:
        assert np.array_equal(inst.delta, inst.d)
    else:
        assert np.all(inst.delta < inst.d)


def test_near_critical_pair_warns():
    with pytest.warns(RuntimeWarning):
        inst = make_instance(8, 1.0, 0.0)
    assert inst.near_singular


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def test_assemble_dense_scalar():
    A, B, C, E = assemble_dense(make_instance(1, 0.5, 0.0))
    assert A.tolist() == [[3.0]]
    assert B.tolist() == [[1.0]]
    assert C.tolist() == [[1.0]]
    assert E.tolist() == [[3.0]]


def test_assemble_dense_structure():
    inst = make_instance(6, 0.8, 0.3)
    A, B, C, E = assemble_dense(inst)
    np.testing.assert_array_equal(B, np.ones((6, 6)))
    np.testing.assert_array_equal(C, np.outer(inst.q, inst.q))
    np.testing.assert_array_equal(np.diag(A) + inst.q, inst.delta)
    np.testing.assert_array_equal(np.diag(E) + inst.q, inst.d)


def test_assemble_dense_balanced_symmetric():
    binst = balance(make_instance(3, 0.8, 0.3))
    for M in assemble_dense(binst):
        np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-15)


def test_assemble_dense_cap():
    inst = make_instance(8, 0.5, 0.5)
    with pytest.raises(ValueError):
        assemble_dense(inst, cap=4)
    assert assemble_dense(inst, cap=8)[0].shape == (8, 8)
    assert DENSE_CAP == 512


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def test_balance_is_diagonal_similarity():
    inst = make_instance(4, 0.9, 0.1)
    binst = balance(inst)
    A, B, C, E = assemble_dense(inst)
    Ab, Bb, Cb, Eb = assemble_dense(binst)
    ph = binst.phi
    np.testing.assert_allclose(Ab, (ph[:, None] * A) / ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Eb, (E / ph[:, None]) * ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Bb, (ph[:, None] * B) * ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Cb, (C / ph[:, None]) / ph[None, :], rtol=1e-14)
    assert balance(binst) is binst


def test_balance_preserves_rates():
    inst = make_instance(16, 0.6, 0.4)
    binst = balance(inst)
    assert np.array_equal(binst.delta, inst.delta)
    assert np.array_equal(binst.d, inst.d)
    np.testing.assert_allclose(binst.phi ** 2, inst.q, rtol=1e-15)


@pytest.mark.parametrize("n", [8, 32])
def test_balanced_flow_matrix_similarity(n):
    # [[E, -C], [-B, A]] transforms by diag(1/phi, phi) . K . diag(phi, 1/phi)
    inst = make_instance(n, 0.85, 0.15)
    binst = balance(inst)
    A, B, C, E = assemble_dense(inst)
    Ab, Bb, Cb, Eb = assemble_dense(binst)
    K = np.block([[E, -C], [-B, A]])
    Kb = np.block([[Eb, -Cb], [-Bb, Ab]])
    s = np.concatenate([binst.phi, 1.0 / binst.phi])
    sim = (K / s[:, None]) * s[None, :]
    scale = np.abs(K).max()
    np.testing.assert_allclose(Kb, sim, rtol=0, atol=1e-14 * scale)
    ev = np.sort_complex(np.linalg.eigvals(K))
    evb = np.sort_complex(np.linalg.eigvals(Kb))
    np.testing.assert_allclose(ev, evb, rtol=0, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# unbalancing
# ---------------------------------------------------------------------------

def test_unbalance_maps_rank_one_back():
    binst = balance(make_instance(8, 0.7, 0.2))
    ph = binst.phi
    Xb = LowRankBilinear(ph[:, None], np.array([1.0]), ph[:, None])
    X = unbalance_solution(Xb, ph)
    np.testing.assert_allclose(X.dense(), np.ones((8, 8)), rtol=0, atol=1e-14)


def test_unbalance_round_trip_random():
    rng = np.random.default_rng(5)
    for n in (4, 17, 64):
        ph = rng.uniform(0.3, 2.0, size=n)
        left = rng.standard_normal((n, 3))
        core = rng.uniform(0.5, 1.5, size=3)
        right = rng.standard_normal((n, 3))
        Xb = LowRankBilinear(left, core, right)
        X = unbalance_solution(Xb, ph)
        expect = Xb.dense() / np.outer(ph, ph)
        np.testing.assert_allclose(X.dense(), expect, rtol=1e-14, atol=1e-14)


def test_unbalance_solves_original_equation():
    # solve the balanced equation densely, map back, check original residual
    from transport_nare.dense_sda import dense_residual, dense_sda_solve

    inst = make_instance(8, 0.9, 0.1)
    binst = balance(inst)
    Xb, _, rep = dense_sda_solve(binst)
    assert rep.termination == "converged"
    U, s, Vt = np.linalg.svd(Xb)
    Xlr = unbalance_solution(LowRankBilinear(U, s, Vt.T), binst.phi)
    A, B, C, E = assemble_dense(inst)
    assert dense_residual(A, B, C, E, Xlr.dense()) <= 1e-12


def test_unbalance_shape_mismatch():
    Xb = LowRankBilinear(np.ones((4, 1)), np.array([1.0]), np.ones((4, 1)))
    with pytest.raises(ValueError):
        unbalance_solution(Xb, np.ones(5))


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def test_instance_file_round_trip(tmp_path):
    inst = make_instance(16, 0.9, 0.1)
    path = tmp_path / "inst.txt"
    write_instance(inst.params, inst.quad, path)
    params, quad = read_instance(path)
    assert params == inst.params
    np.testing.assert_array_equal(quad.omega, inst.quad.omega)
    np.testing.assert_array_equal(quad.weights, inst.quad.weights)


def test_instance_file_layout(tmp_path):
    inst = make_instance(1, 0.5, 0.0)
    path = tmp_path / "inst.txt"
    write_instance(inst.params, inst.quad, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#") and "format 1" in lines[0]
    assert lines[1] == "n 1"
    assert lines[2] == "c 0.5"
    assert lines[3] == "alpha 0"
    om_tok, w_tok = lines[4].split()
    # at least 17 significant digits per node value
    for tok in (om_tok, w_tok):
        mantissa = tok.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 17
    assert float(om_tok) == 0.5 and float(w_tok) == 1.0


def test_instance_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# some other file\nn 1\nc 0.5\nalpha 0\n0.5 1.0\n")
    with pytest.raises(ValueError):
        read_instance(path)


def test_instance_file_rejects_truncation(tmp_path):
    inst = make_instance(4, 0.5, 0.5)
    path = tmp_path / "inst.txt"
    write_instance(inst.params, inst.quad, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")     # drop one node line
    with pytest.raises(ValueError):
        read_instance(path)
    path.write_text("\n".join(lines[:3]) + "\n")      # drop alpha and all nodes
    with pytest.raises(ValueError):
        read_instance(path)


def test_instance_file_validates_payload(tmp_path):
    path = tmp_path / "inst.txt"
    # well-formed layout, invalid quadrature (ascending nodes)
    write_instance(make_instance(2, 0.5, 0.5).params, gauss_legendre(2), path)
    text = path.read_text().splitlines()
    text[4], text[5] = text[5], text[4]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        read_instance(path)
