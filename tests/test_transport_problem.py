"""Quadrature, instance construction, balancing, and the instance file format."""

from dataclasses import replace

import numpy as np
import pytest

from transport_nare.structured_linalg import LowRankBilinear
from transport_nare.transport_problem import (
    DENSE_CAP,
    END_NODES,
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


def test_gauss_legendre_n65536_properties():
    quad = gauss_legendre(65536)
    assert abs(quad.weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(quad.omega) < 0.0)
    assert_mirrored(quad)


# (index, node, weight, mirror node) on (0, 1) in descending node order: the
# node omega_index, its weight, and omega_{n-1-index} = 1 - omega_index taken
# as (1 - x)/2 at full precision, so that it is accurate relative to itself.
# Made by 50-digit mpmath Newton on the three-term recurrence for P_n, started
# from Tricomi's guess, stopped at a step below 1e-45, and rounded to 17
# digits.  n = 19 to 22 straddle the switch at n = 2 END_NODES, below which
# every node comes from the exact cosine sum; indices 9 and 10 at larger n
# are the last node from that sum and the first from the Stieltjes expansion.
GL_REFERENCE = {
    19: [
        (0, 0.9962034219217922, 0.0097308941148632385, 0.0037965780782077984),
        (4, 0.86048308866761469, 0.055783322773666997, 0.13951691133238531),
        (9, 0.5, 0.080527224924391848, 0.5),
    ],
    20: [
        (0, 0.99656429959254746, 0.0088070035695760592, 0.0034357004074525376),
        (4, 0.8731659532300754, 0.050965059908620218, 0.1268340467699246),
        (9, 0.53826326056674867, 0.076376693565362925, 0.46173673943325133),
    ],
    21: [
        (0, 0.99687608531019475, 0.0080086141288871667, 0.0031239146898052499),
        (4, 0.88421998173783895, 0.046722211728016931, 0.11578001826216105),
        (9, 0.57278092708044755, 0.07226220199498503, 0.42721907291955245),
        (10, 0.5, 0.073040566824845214, 0.5),
    ],
    22: [
        (0, 0.99714729274119965, 0.0073139976491361003, 0.002852707258800354),
        (4, 0.89390840298960408, 0.042970803108533864, 0.10609159701039592),
        (9, 0.60393021334411064, 0.068270749173007586, 0.39606978665588936),
        (10, 0.53486963665986111, 0.069625936427815997, 0.46513036334013889),
    ],
    64: [
        (0, 0.99965252086788607, 0.00089164036084821647, 0.00034747913211393027),
        (1, 0.99817005838597764, 0.0020735166302812338, 0.0018299416140223603),
        (2, 0.99550668573837216, 0.0032522289844891814, 0.0044933142616278396),
        (5, 0.98050439982602686, 0.0067315239483593213, 0.019495600173973141),
        (16, 0.84261815652711662, 0.017736106628441192, 0.15738184347288338),
        (20, 0.76563973200994727, 0.020631281621311764, 0.23436026799005273),
        (31, 0.51217514633171222, 0.024345478504569860, 0.48782485366828778),
    ],
    512: [
        (0, 0.99999449549219093, 1.4126318686967346e-5, 5.5045078090660064e-6),
        (1, 0.99997099730342283, 3.2882865829620098e-5, 2.9002696577173182e-5),
        (2, 0.99992872318498972, 5.1665951748456618e-5, 7.1276815010280728e-5),
        (5, 0.99968920460129963, 0.00010800908898849543, 0.00031079539870037428),
        (9, 0.9991070082908064, 0.00018307452001781343, 0.00089299170919360231),
        (10, 0.99891455769678142, 0.00020182546326665994, 0.0010854423032185767),
        (20, 0.99596049659758573, 0.00038880174928434862, 0.004039503402414275),
        (128, 0.85219609405791191, 0.0021755462377535329, 0.14780390594208809),
        (255, 0.50153248109257970, 0.0030649525877028929, 0.4984675189074203),
    ],
    4096: [
        (0, 0.99999991384485191, 2.2110192569547434e-7, 8.6155148089575814e-8),
        (1, 0.99999954605371249, 5.1468307020756646e-7, 4.5394628750761256e-7),
        (2, 0.99999888436944837, 8.0869862585100964e-7, 1.1156305516284607e-6),
        (5, 0.99999513502256452, 1.6908724524289954e-6, 4.8649774354759442e-6),
        (9, 0.99998601905022068, 2.8671107455385975e-6, 1.3980949779319939e-5),
        (10, 0.99998300491127098, 3.1611668661325141e-6, 1.6995088729022303e-5),
        (20, 0.99993669085970720, 6.1015981726027524e-6, 6.3309140292804347e-5),
        (1024, 0.85338388550737445, 0.00027126888288779609, 0.14661611449262555),
        (2047, 0.50019172418852696, 0.00038344835826076520, 0.49980827581147304),
    ],
    16384: [
        (0, 0.99999999461431709, 1.3821401513881939e-8, 5.3856829081370225e-9),
        (1, 0.99999997162315779, 3.2173591335986439e-8, 2.8376842209016175e-8),
        (2, 0.99999993026029831, 5.0552954562132616e-8, 6.9739701688059814e-8),
        (5, 0.99999969588277042, 1.0569920095015067e-7, 3.0411722957674898e-7),
        (9, 0.99999912602681462, 1.7922880051218955e-7, 8.7397318538447036e-7),
        (10, 0.99999893760681088, 1.9761120628165415e-7, 1.062393189117443e-6),
        (20, 0.99999604237588845, 3.814348085430107e-7, 3.9576241115454579e-6),
        (4096, 0.85351101854954823, 6.7799068220276524e-5, 0.14648898145045177),
        (8191, 0.50004793543665224, 9.5870873010754767e-5, 0.49995206456334776),
    ],
    65536: [
        (0, 0.99999999966337941, 8.6387714127463565e-10, 3.3662059104424117e-10),
        (1, 0.99999999822636616, 2.0109415444836749e-9, 1.7736338414142702e-9),
        (2, 0.99999999564106902, 3.1597044324903016e-9, 4.3589309794171428e-9),
        (5, 0.99999998099180125, 6.606503726016217e-9, 1.9008198750240493e-8),
        (9, 0.99999994537416051, 1.1202318934000571e-8, 5.4625839488487083e-8),
        (10, 0.99999993359736407, 1.2351273969720419e-8, 6.6402635927525849e-8),
        (20, 0.99999975263686413, 2.384082580927989e-8, 2.4736313586772389e-7),
        (16384, 0.85354279784675013, 1.6948631855112696e-5, 0.14645720215324987),
        (32767, 0.50001198413347218, 2.3968266939766196e-5, 0.49998801586652782),
    ],
}


@pytest.mark.parametrize("n", sorted(GL_REFERENCE))
def test_gauss_legendre_matches_reference(n):
    idx, om, w, lo = (np.array(col) for col in zip(*GL_REFERENCE[n]))
    quad = gauss_legendre(n)
    # nodes are found in the angle, so the end weights and the smallest nodes
    # keep their relative accuracy at every n; measured up to 3.3e-15 (weights,
    # n = 4096, index 9) and 5.6e-16 (small nodes), bounded with a 3x margin
    assert np.abs(quad.omega[idx] - om).max() <= 2e-16
    assert np.abs(quad.omega[n - 1 - idx] / lo - 1.0).max() <= 2e-15
    assert np.abs(quad.weights[idx] / w - 1.0).max() <= 1e-14


# 2 END_NODES - 1 to 2 END_NODES + 2 straddle the switch from the cosine sum
# alone to the Stieltjes expansion at the inner roots
@pytest.mark.parametrize("n", [2, 3, 7, 16] + [2 * END_NODES + i for i in range(-1, 3)])
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
    (0.5, 0.5, 2.5), (0.5, 0.5, float("inf")), (0.5, 0.5, float("nan")),
])
def test_params_rejects_out_of_range(c, alpha, n):
    with pytest.raises(ValueError):
        TransportParams(c=c, alpha=alpha, n=n)


def test_integral_float_n_is_stored_as_int():
    # an integral float passes the value check and is stored as an int, so
    # it reaches the array constructors as one
    assert type(TransportParams(c=0.5, alpha=0.5, n=8.0).n) is int
    inst, ref = make_instance(8.0, 0.5, 0.5), make_instance(8, 0.5, 0.5)
    assert inst.n == 8 and type(inst.params.n) is int
    for name in ("d", "delta", "u", "v"):
        assert np.array_equal(getattr(inst, name), getattr(ref, name))


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
    # diag(A) is delta - q rounded once; (delta - q) + q == delta is no identity
    np.testing.assert_array_equal(np.diag(A), inst.delta - inst.q)
    np.testing.assert_array_equal(np.diag(E), inst.d - inst.q)


def test_assemble_dense_balanced_symmetric():
    binst = balance(make_instance(3, 0.8, 0.3))
    for M in assemble_dense(binst):
        np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-15)


def test_assemble_dense_cap():
    assert DENSE_CAP == 512
    assert assemble_dense(make_instance(DENSE_CAP, 0.5, 0.5))[0].shape == (512, 512)
    with pytest.raises(ValueError):
        assemble_dense(make_instance(DENSE_CAP + 1, 0.5, 0.5))


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------

def test_balance_is_diagonal_similarity():
    inst = make_instance(4, 0.9, 0.1)
    binst = balance(inst)
    A, B, C, E = assemble_dense(inst)
    Ab, Bb, Cb, Eb = assemble_dense(binst)
    ph = binst.u
    np.testing.assert_allclose(Ab, (ph[:, None] * A) / ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Eb, (E / ph[:, None]) * ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Bb, (ph[:, None] * B) * ph[None, :], rtol=1e-14)
    np.testing.assert_allclose(Cb, (C / ph[:, None]) / ph[None, :], rtol=1e-14)
    assert balance(binst) is binst
    # q = 1, u = v in two arrays: the same values, in one array
    scalar = make_instance(1, 0.5, 0.0)
    bscalar = balance(scalar)
    assert bscalar.u is bscalar.v
    np.testing.assert_array_equal(bscalar.u, scalar.u)
    np.testing.assert_array_equal(bscalar.v, scalar.v)


def test_balance_preserves_rates():
    inst = make_instance(16, 0.6, 0.4)
    binst = balance(inst)
    assert np.array_equal(binst.delta, inst.delta)
    assert np.array_equal(binst.d, inst.d)
    assert np.array_equal(binst.u, binst.v)
    np.testing.assert_allclose(binst.u ** 2, inst.q, rtol=1e-15)


@pytest.mark.parametrize("n", [8, 32])
def test_balanced_flow_matrix_similarity(n):
    # [[E, -C], [-B, A]] transforms by diag(1/phi, phi) . K . diag(phi, 1/phi)
    inst = make_instance(n, 0.85, 0.15)
    binst = balance(inst)
    A, B, C, E = assemble_dense(inst)
    Ab, Bb, Cb, Eb = assemble_dense(binst)
    K = np.block([[E, -C], [-B, A]])
    Kb = np.block([[Eb, -Cb], [-Bb, Ab]])
    s = np.concatenate([binst.u, 1.0 / binst.u])
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
    inst = make_instance(8, 0.7, 0.2)
    ph = balance(inst).u
    Xb = LowRankBilinear(ph[:, None], np.array([1.0]), ph[:, None])
    X = unbalance_solution(Xb, inst)
    np.testing.assert_allclose(X.dense(), np.ones((8, 8)), rtol=0, atol=1e-14)


def test_unbalance_round_trip_random():
    rng = np.random.default_rng(5)
    for n in (4, 17, 64):
        u = rng.uniform(0.3, 2.0, size=n)
        v = rng.uniform(0.3, 2.0, size=n)
        inst = replace(make_instance(n, 0.5, 0.5), u=u, v=v)
        left = rng.standard_normal((n, 3))
        core = rng.uniform(0.5, 1.5, size=3)
        right = rng.standard_normal((n, 3))
        Xb = LowRankBilinear(left, core, right)
        X = unbalance_solution(Xb, inst)
        s = np.sqrt(u / v)
        expect = Xb.dense() * np.outer(s, s)
        np.testing.assert_allclose(X.dense(), expect, rtol=1e-14, atol=1e-14)


def test_unbalance_of_balanced_is_identity():
    binst = balance(make_instance(16, 0.9, 0.1))
    rng = np.random.default_rng(6)
    Xb = LowRankBilinear(rng.standard_normal((16, 2)), np.array([2.0, 1.0]),
                         rng.standard_normal((16, 2)))
    X = unbalance_solution(Xb, binst)
    np.testing.assert_array_equal(X.left, Xb.left)
    np.testing.assert_array_equal(X.right, Xb.right)


def test_unbalance_solves_original_equation():
    # solve the balanced equation densely, map back, check original residual
    from transport_nare.dense_sda import dense_residual, dense_sda_solve

    inst = make_instance(8, 0.9, 0.1)
    binst = balance(inst)
    Xb, _, rep = dense_sda_solve(binst)
    assert rep.termination == "converged"
    U, s, Vt = np.linalg.svd(Xb)
    Xlr = unbalance_solution(LowRankBilinear(U, s, Vt.T), inst)
    A, B, C, E = assemble_dense(inst)
    assert dense_residual(A, B, C, E, Xlr.dense()) <= 1e-12


def test_unbalance_shape_mismatch():
    Xb = LowRankBilinear(np.ones((4, 1)), np.array([1.0]), np.ones((4, 1)))
    with pytest.raises(ValueError):
        unbalance_solution(Xb, make_instance(5, 0.5, 0.5))


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
