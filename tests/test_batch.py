"""A batch of points gives, column by column, the bits of one-point evaluation.

Jets carry a trailing batch axis (see :mod:`dfindex.jets`); frames, metric
matrices and alpha carry a leading one.  Every test here evaluates a batch
and each of its points alone and compares the two bit for bit.  A one-point
array may be real where the merged batch column is complex (a branch whose
sides differ in type); it is widened before the comparison, which is exact.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfindex import jets
from dfindex.boundary import NormalFrame, levi_data, normal_frame, sample_boundary
from dfindex.diagnostics import random_metric, random_scalar_field
from dfindex.domains import ball_domain
from dfindex.estimator import (
    _basis_rows,
    _soft_clamp,
    collect_sites,
    make_site,
    poly_basis,
    worm_reduction_basis,
)
from dfindex.expr import build_field
from dfindex.fields import ScalarField, seed_coordinate_jets, wirtinger_table
from dfindex.forms import alpha, beta_mixed
from dfindex.geometry import CTVector, MetricField, chern_frame, torsion
from dfindex.worm import WormParams, _f_jets, _lambda_jet, sgamma_points, worm_domain

SEEDS = st.integers(0, 2**32 - 1)
BATCH = settings(derandomize=True, deadline=None, max_examples=25)


def assert_same(batch_part, one):
    """One column of a batch equals a one-point result bit for bit."""
    col, one = np.asarray(batch_part), np.asarray(one)
    assert col.shape == one.shape
    assert np.can_cast(one.dtype, col.dtype)
    assert col.tobytes() == one.astype(col.dtype).tobytes()


def assert_jet_columns(batch, singles):
    """Every column of a batch jet (batch axis last) equals its one-point jet."""
    assert batch.shape == (len(singles),)
    for b, one in enumerate(singles):
        assert batch.order == one.order and one.shape == ()
        for name in ("value", "grad", "hess", "third"):
            part = getattr(batch, name)
            if part is None:
                assert getattr(one, name) is None
                continue
            assert_same(part[..., b], getattr(one, name))


def assert_rows(batch, singles):
    """Every row of a batch result (batch axis first) equals its one-point result."""
    assert len(batch) == len(singles)
    for b, one in enumerate(singles):
        assert_same(batch[b], one)


def random_points(rng, count, n=2, scale=0.6):
    return scale * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))


def worm_points(rng, params, xs):
    """Chart points (z1, z2) with log|z2|^2 = xs and z1 in a disk of radius 2."""
    z2 = np.exp(xs / 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(xs)))
    z1 = 2.0 * np.sqrt(rng.random(len(xs))) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(xs)))
    return np.stack([z1, z2], axis=1)


# ----------------------------------------------------------------------
# jet ring operations and kernels
# ----------------------------------------------------------------------

OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / (y + 3.0),
    "rsub_number": lambda x, y: 2.5 - x,
    "rdiv_number": lambda x, y: 1.5 / (y + 3.0),
    "complex_number": lambda x, y: (0.3 - 1.7j) * x + y * (2.0 + 0.5j),
    "int_power": lambda x, y: x**3 + y**-2,
    "neg_conj": lambda x, y: -(x.conj() * y),
    "real_imag": lambda x, y: x.real() * y.imag(),
    "constant_jet": lambda x, y: jets.Jet.constant(0.7 - 0.2j, x.m, x.order) * x
    + jets.Jet.constant(1.0, x.m, x.order),
    "exp": lambda x, y: jets.exp(x * y),
    "sin_cos": lambda x, y: jets.sin(x) * jets.cos(y),
    "tan": lambda x, y: jets.tan(x.real() * 0.5),
    "tanh": lambda x, y: jets.tanh(y.imag()),
    "log": lambda x, y: jets.log(jets.abs2(x) + 0.5),
    "power": lambda x, y: jets.power(jets.abs2(y) + 0.1, 1.7),
    "sqrt": lambda x, y: jets.sqrt(jets.abs2(x - y) + 0.2),
    "reciprocal": lambda x, y: (x * y + 2.0).reciprocal(),
}


@BATCH
@given(seed=SEEDS, order=st.integers(0, 3), op=st.sampled_from(sorted(OPS)))
def test_ring_ops_and_kernels_match_one_point(seed, order, op):
    rng = np.random.default_rng(seed)
    points = random_points(rng, 7)
    fn = OPS[op]
    batch = fn(*seed_coordinate_jets(points, order))
    assert_jet_columns(batch, [fn(*seed_coordinate_jets(z, order)) for z in points])


@BATCH
@given(seed=SEEDS, order=st.integers(1, 3))
def test_shift_matches_one_point(seed, order):
    rng = np.random.default_rng(seed)
    points = random_points(rng, 5)
    index = int(rng.integers(0, 4))

    def fn(zs):
        return (jets.exp(zs[0]) * zs[1].conj()).shift(index)

    assert_jet_columns(fn(seed_coordinate_jets(points, order)),
                       [fn(seed_coordinate_jets(z, order)) for z in points])


def test_kernel_guards_check_every_column():
    points = np.array([[0.5, 0.2], [0.0, 0.3], [0.4, 0.1]], dtype=complex)
    z1, _ = seed_coordinate_jets(points, 2)
    with pytest.raises(ZeroDivisionError):
        z1.reciprocal()
    with pytest.raises(ValueError, match="positive"):
        jets.log(z1.real() - 0.3)
    with pytest.raises(ValueError, match="positive"):
        jets.power(z1.real(), 1.5)
    with pytest.raises(ValueError, match="real-valued"):
        jets.log(z1 + 1j)


def test_scalar_branch_on_a_batch_raises():
    zs = seed_coordinate_jets(random_points(np.random.default_rng(3), 4), 2)

    def one_point_only(x):
        if x.value.real > 0:
            return x
        return -x

    with pytest.raises(ValueError, match="ambiguous"):
        one_point_only(zs[0])


# ----------------------------------------------------------------------
# the branch helper
# ----------------------------------------------------------------------

def _log_abs2_z2(zs):
    return jets.log(jets.abs2(zs[1]))


@BATCH
@given(seed=SEEDS, order=st.integers(0, 3))
def test_branch_straddling_x_cut_matches_one_point(seed, order):
    params = WormParams(gamma=math.pi, t=1.2)
    rng = np.random.default_rng(seed)
    # both extensions beyond the cut at +-x_cut, and the cosine branch
    xs = np.concatenate([rng.uniform(params.x_cut, params.x_cut + 0.5, 3),
                         -rng.uniform(params.x_cut, params.x_cut + 0.5, 3),
                         rng.uniform(-params.x_cut, params.x_cut, 3)])
    points = worm_points(rng, params, rng.permutation(xs))
    batch = _f_jets(_log_abs2_z2(seed_coordinate_jets(points, order)), params)
    singles = [_f_jets(_log_abs2_z2(seed_coordinate_jets(z, order)), params) for z in points]
    for k in range(3):
        assert_jet_columns(batch[k], [one[k] for one in singles])


@BATCH
@given(seed=SEEDS, order=st.integers(0, 3))
def test_branch_straddling_lambda_support_matches_one_point(seed, order):
    params = WormParams(gamma=math.pi, t=1.2)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-params.x_max, params.x_max, 8)
    xs[:2] = [0.5 * params.a, 1.01 * params.a]     # lambda = 0 and lambda > 0
    points = worm_points(rng, params, rng.permutation(xs))
    batch = _lambda_jet(_log_abs2_z2(seed_coordinate_jets(points, order)), params)
    assert_jet_columns(batch, [_lambda_jet(_log_abs2_z2(seed_coordinate_jets(z, order)), params)
                               for z in points])


def test_branch_on_one_side_only_and_on_one_point():
    x = seed_coordinate_jets(np.array([[0.2, 0.1], [0.3, 0.4]], dtype=complex), 2)[0].real()
    double = jets.branch(np.array([True, True]), lambda u: u * 2.0, lambda u: u, x)
    np.testing.assert_array_equal(double.value, [0.4, 0.6])
    zero = jets.branch(np.array([False, False]), lambda u: u,
                       lambda u: jets.Jet.constant(0.0, u.m, u.order), x)
    assert zero.shape == ()
    one = jets.branch(True, lambda u: u + 1.0, lambda u: u, x.take(np.array([True, False])))
    np.testing.assert_array_equal(one.value, [1.2])


# ----------------------------------------------------------------------
# fields and Wirtinger tables
# ----------------------------------------------------------------------

def _assert_field_batch(field, points, order):
    batch = field.jet(points, order)
    singles = [field.jet(z, order) for z in points]
    assert_jet_columns(batch, singles)
    table = wirtinger_table(batch, field.n)
    for b, one in enumerate(singles):
        ref = wirtinger_table(one, field.n)
        assert_same(np.asarray(table.value)[..., b], ref.value)
        for name in ("w1", "w2", "w3")[:order]:
            assert_same(getattr(table, name)[..., b], getattr(ref, name))


@BATCH
@given(seed=SEEDS, order=st.integers(0, 3))
def test_worm_r_and_wirtinger_tables_match_one_point(seed, order):
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2))
    params = domain.params["worm"]
    rng = np.random.default_rng(seed)
    points = worm_points(rng, params, rng.uniform(-params.x_max, params.x_max, 8))
    _assert_field_batch(domain.r, points, order)


USER_TREE = {"op": "add", "args": [
    {"op": "abs2", "arg": {"op": "coord", "index": 0}},
    {"op": "pow", "base": {"op": "abs2", "arg": {"op": "coord", "index": 1}}, "exponent": 2},
    {"op": "mul", "args": [{"op": "const", "value": [0.1, -0.3]},
                           {"op": "re", "arg": {"op": "mul", "args": [
                               {"op": "coord", "index": 0}, {"op": "coord", "index": 1}]}}]},
    {"op": "pow", "base": {"op": "add", "args": [
        {"op": "abs2", "arg": {"op": "coord", "index": 1}}, {"op": "const", "value": 0.5}]},
     "exponent": 1.5},
    {"op": "mul", "args": [{"op": "exp", "arg": {"op": "im", "arg": {"op": "coord", "index": 0}}},
                           {"op": "log", "arg": {"op": "add", "args": [
                               {"op": "abs2", "arg": {"op": "coord", "index": 0}},
                               {"op": "const", "value": 1.0}]}}]},
    {"op": "tan", "arg": {"op": "mul", "args": [{"op": "const", "value": 0.2},
                                                {"op": "coord", "index": 1}]}},
    {"op": "const", "value": -1.0},
]}


@BATCH
@given(seed=SEEDS, order=st.integers(0, 3))
def test_user_expression_and_wirtinger_tables_match_one_point(seed, order):
    field = build_field(USER_TREE, 2)
    _assert_field_batch(field, random_points(np.random.default_rng(seed), 6), order)


def test_constant_field_broadcasts_over_a_batch():
    field = build_field({"op": "const", "value": 2.5}, 2)
    jet = field.jet(np.zeros((3, 2), dtype=complex), 2)
    assert jet.shape == (3,)
    np.testing.assert_array_equal(jet.value, [2.5, 2.5, 2.5])
    assert jet.hess.shape == (4, 4, 3) and not jet.hess.any()


def test_chart_checks_cover_every_point_of_a_batch():
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2))
    points = np.array([[0.1, 1.0], [0.0, 1e-3]], dtype=complex)
    with pytest.raises(ValueError, match="removed fiber"):
        domain.r.jet(points, 1)
    boxed = build_field({"op": "coord", "index": 0}, 1, box=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="outside chart box"):
        boxed.jet(np.array([[0.5], [2.0]], dtype=complex), 1)


# ----------------------------------------------------------------------
# metric matrices, frames and alpha
# ----------------------------------------------------------------------

def _metrics(rng):
    return {
        "worm_kahler": worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler").metric,
        "random": random_metric(2, rng),
        "euclidean": MetricField.euclidean(2),
    }


@BATCH
@given(seed=SEEDS)
def test_metric_matrix_matches_one_point(seed):
    rng = np.random.default_rng(seed)
    params = WormParams(gamma=math.pi, t=1.2)
    points = worm_points(rng, params, rng.uniform(-params.x_max, params.x_max, 8))
    for metric in _metrics(rng).values():
        batch = metric.matrix(points)
        assert batch.shape == (8, 2, 2)
        assert_rows(batch, [metric.matrix(z) for z in points])
        assert_rows(np.linalg.eigvalsh(batch), [np.linalg.eigvalsh(metric.matrix(z))
                                                for z in points])


@BATCH
@given(seed=SEEDS, metric=st.sampled_from(["euclidean", "worm_kahler"]))
def test_frame_core_and_alpha_match_one_point(seed, metric):
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2), metric=metric)
    params = domain.params["worm"]
    rng = np.random.default_rng(seed)
    points = worm_points(rng, params, rng.uniform(-params.x_max, params.x_max, 6))
    batch = NormalFrame(domain, points)
    singles = [NormalFrame(domain, z) for z in points]
    for name in ("G", "u", "hr", "dbar_norm_sq", "dbar_norm", "grad_norm"):
        assert_rows(getattr(batch, name), [getattr(one, name) for one in singles])
    for name in ("L", "X", "nu_C", "nu_R"):
        assert_rows(getattr(batch, name).coeffs, [getattr(one, name).coeffs for one in singles])

    h = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    for v in (CTVector.holo(h), CTVector(h, a)):
        assert_rows(alpha(batch, v),
                    [alpha(one, CTVector(v.h[b], v.a[b])) for b, one in enumerate(singles)])
        assert_rows(batch.dr(v), [one.dr(CTVector(v.h[b], v.a[b]))
                                  for b, one in enumerate(singles)])


def test_random_field_batch_matches_one_point():
    rng = np.random.default_rng(11)
    field = random_scalar_field(2, rng, terms=6)
    _assert_field_batch(field, random_points(rng, 5), 3)


# ----------------------------------------------------------------------
# order-3 frame data, Levi data and constraint sites
# ----------------------------------------------------------------------

def pivoting_metric():
    """Hermitian metric whose first pivot row is 0 where Re z1 > 0 and 1 where Re z1 < -0.3."""
    def entry(j, k):
        def fn(zs):
            if (j, k) == (0, 0):
                return jets.exp(zs[0].real() * 0.8)
            if (j, k) == (1, 1):
                return jets.abs2(zs[1]) + 4.0
            c = zs[1] * 0.2 + 1.0
            return c if (j, k) == (0, 1) else c.conj()

        return ScalarField(2, fn, name=f"g[{j}{k}]")

    return MetricField(2, [[entry(j, k) for k in range(2)] for j in range(2)], name="pivoting")


def _chern_rows(frame):
    return {name: getattr(frame, name) for name in ("g", "gamma", "dgamma_h", "dgamma_a", "dG_h")}


@BATCH
@given(seed=SEEDS)
def test_chern_frame_pivots_per_point_and_matches_one_point(seed):
    rng = np.random.default_rng(seed)
    points = random_points(rng, 8, scale=0.4)
    points[:3, 0] = rng.uniform(0.1, 0.9, 3)
    points[3:6, 0] = rng.uniform(-0.9, -0.4, 3)
    for metric in (pivoting_metric(), random_metric(2, rng)):
        batch = chern_frame(metric, points, order=2)
        if metric.name == "pivoting":
            g = batch.g
            piv = np.abs(g[:, 1, 0]) > np.abs(g[:, 0, 0])
            assert piv.any() and not piv.all()
        singles = [chern_frame(metric, z, order=2) for z in points]
        for name, rows in _chern_rows(batch).items():
            assert_rows(rows, [_chern_rows(one)[name] for one in singles])
        assert_rows(batch.curvature_tensor, [one.curvature_tensor for one in singles])


def _worm_batch(rng, metric, count=6):
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2), metric=metric)
    params = domain.params["worm"]
    points = worm_points(rng, params, rng.uniform(-params.x_max, params.x_max, count))
    return domain, points


@BATCH
@given(seed=SEEDS, metric=st.sampled_from(["euclidean", "worm_kahler"]))
# a point where the real part of d/dz_1 L^1 is zero, which the batch and the
# one-point Wirtinger matrix products used to return with opposite signs
@example(seed=127642, metric="euclidean")
def test_h3t_L_jets_and_beta_match_one_point(seed, metric):
    rng = np.random.default_rng(seed)
    domain, points = _worm_batch(rng, metric)
    batch = NormalFrame(domain, points)
    singles = [NormalFrame(domain, z) for z in points]
    assert_rows(batch.h3t(), [one.h3t() for one in singles])
    assert_rows(batch.hess2n(), [one.hess2n() for one in singles])
    assert_rows(batch.L_w1(), [one.L_w1() for one in singles])
    assert_jet_columns(batch.r_jet(3), [one.r_jet(3) for one in singles])
    for k in range(2):
        assert_jet_columns(batch.L_jets()[k], [one.L_jets()[k] for one in singles])
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    w = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    zvec, wvec = CTVector.holo(z), CTVector.holo(w)
    assert_rows(beta_mixed(batch, zvec, wvec),
                [beta_mixed(one, CTVector.holo(z[b]), CTVector.holo(w[b]))
                 for b, one in enumerate(singles)])
    assert_rows(torsion(batch.chern(1), CTVector(z, w), CTVector(w, z)).coeffs,
                [torsion(one.chern(1), CTVector(z[b], w[b]), CTVector(w[b], z[b])).coeffs
                 for b, one in enumerate(singles)])
    assert_rows(batch.nabla_L(CTVector(z, w)).h,
                [one.nabla_L(CTVector(z[b], w[b])).h for b, one in enumerate(singles)])


def _levi_fields(ld):
    out = {name: getattr(ld, name) for name in ("levi", "eigenvalues", "eigenvectors", "null")}
    for j, (b, d) in enumerate(zip(ld.basis, ld.directions)):
        out[f"basis{j}"], out[f"direction{j}"] = b.h, d.h
    return out


@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=SEEDS)
def test_levi_data_matches_one_point(seed):
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler")
    ball = ball_domain()
    # worm: strictly pseudoconvex samples and Levi-null S_gamma points;
    # ball: at (1, 0) the first raw tangent vector is degenerate, elsewhere not
    cases = [(worm, sample_boundary(worm, 3, seed) + sgamma_points(worm.params["worm"], 3)),
             (ball, [np.array([1.0, 0.0], dtype=complex)] + sample_boundary(ball, 3, seed))]
    for domain, points in cases:
        batch = levi_data(normal_frame(domain, points, r_order=2))
        singles = [levi_data(normal_frame(domain, p, r_order=2)) for p in points]
        fields = _levi_fields(batch)
        for name, rows in fields.items():
            assert_rows(rows, [_levi_fields(one)[name] for one in singles])
        counts = [len(one.null_basis) for one in singles]
        assert [len(nb) for nb in batch.null_basis] == counts
        if domain is worm:
            assert 0 in counts and max(counts) > 0
        for nb, one in zip(batch.null_basis, singles):
            for v, w in zip(nb, one.null_basis):
                assert_same(v.h, w.h)


@BATCH
@given(seed=SEEDS)
def test_basis_rows_and_soft_clamp_match_one_point(seed):
    rng = np.random.default_rng(seed)
    params = WormParams(gamma=math.pi, t=1.2)
    domain = worm_domain(params)
    basis = worm_reduction_basis(math.pi, degree=6, spread=0.5)
    scale = 0.5 * (math.pi / 2)
    # u = x / scale on both sides of |u| = 1, with both signs outside
    xs = np.concatenate([rng.uniform(-0.9, 0.9, 3) * scale, rng.uniform(1.1, 1.6, 2) * scale,
                         -rng.uniform(1.1, 1.6, 2) * scale])
    points = worm_points(rng, params, rng.permutation(xs))
    u = jets.log(jets.abs2(seed_coordinate_jets(points, 3)[1])) * (1.0 / scale)
    assert_jet_columns(_soft_clamp(u), [_soft_clamp(jets.log(jets.abs2(
        seed_coordinate_jets(z, 3)[1])) * (1.0 / scale)) for z in points])
    z = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    for base in (basis, poly_basis(2)):
        hess, grad = _basis_rows(base, NormalFrame(domain, points, r_order=2), CTVector.holo(z))
        singles = [_basis_rows(base, NormalFrame(domain, p, r_order=2), CTVector.holo(z[b]))
                   for b, p in enumerate(points)]
        assert hess.shape == grad.shape == (7, base.m)
        assert_rows(hess, [one[0] for one in singles])
        assert_rows(grad, [one[1] for one in singles])


def test_make_site_matches_one_point(worm_kahler):
    points = np.array([p.z for p in sgamma_points(worm_kahler.params["worm"], 4, spread=0.9)])
    basis = worm_reduction_basis(math.pi, degree=5)
    zvec = CTVector.holo(np.tile([0.0, 1.0], (4, 1)).astype(complex))
    batch = make_site(NormalFrame(worm_kahler, points), zvec, basis)
    assert len(batch) == 4
    for b, z in enumerate(points):
        one = make_site(NormalFrame(worm_kahler, z[None]), CTVector.holo([[0.0, 1.0]]), basis)
        assert len(one) == 1
        for name in ("B", "A", "E", "D"):
            assert_same(getattr(batch, name)[b], getattr(one, name)[0])


@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=SEEDS)
def test_collect_sites_matches_points_one_at_a_time(seed):
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler")
    basis = worm_reduction_basis(math.pi, degree=6)
    rng = np.random.default_rng(seed)
    special = sgamma_points(worm.params["worm"], 8, spread=0.95)
    points = sample_boundary(worm, 4, seed) + [special[i] for i in rng.choice(8, 4, replace=False)]
    points = [points[i] for i in rng.permutation(len(points))]
    sites, min_pc = collect_sites(worm, points, basis)
    ones = [collect_sites(worm, [p], basis) for p in points]
    assert 0 < len(sites) < len(points)
    assert [len(s) for s, _ in ones].count(0) == len(points) - len(sites)
    for name in ("B", "A", "E", "D"):
        assert_same(getattr(sites, name),
                    np.concatenate([getattr(s, name) for s, _ in ones if len(s)]))
    assert_same(min_pc, min(m for _, m in ones))
    none, inf = collect_sites(worm, [], basis)
    assert len(none) == 0 and inf == math.inf


def test_collect_sites_stores_c_contiguous_arrays():
    # ``A @ c`` on a strided A takes another BLAS path, with other last bits
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2))
    basis = worm_reduction_basis(math.pi, degree=6)
    sites, _ = collect_sites(worm, sgamma_points(worm.params["worm"], 8, spread=0.95), basis)
    assert len(sites) == 8
    for name in ("B", "A", "E", "D"):
        assert getattr(sites, name).flags["C_CONTIGUOUS"], name


@BATCH
@given(seed=SEEDS, order=st.integers(0, 2), metric=st.sampled_from(["euclidean", "worm_kahler"]))
def test_grad_norm_field_matches_one_point(seed, order, metric):
    domain, points = _worm_batch(np.random.default_rng(seed), metric)
    field = domain.grad_norm_field
    assert_jet_columns(field.jet(points, order), [field.jet(z, order) for z in points])
