"""A batch of points gives, column by column, the bits of one-point evaluation.

Jets carry a trailing batch axis (see :mod:`dfindex.jets`); frames, metric
matrices and alpha carry a leading one.  Every test here evaluates a batch
and each of its points alone and compares the two bit for bit.  A one-point
array may be real where the merged batch column is complex (a branch whose
sides differ in type); it is widened before the comparison, which is exact.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfindex import diagnostics, estimator, jets
from dfindex.boundary import (
    TOL_GRAD,
    DomainSpec,
    NormalFrame,
    ProjectionError,
    _newton_to_level,
    levi_data,
    normal_frame,
    project_to_boundary,
    sample_boundary,
    second_fundamental_form,
)
from dfindex.diagnostics import random_metric, random_scalar_field
from dfindex.domains import ball_domain, make_domain
from dfindex.estimator import (
    _basis_rows,
    collect_sites,
    interior_check,
    make_site,
    poly_basis,
)
from dfindex.expr import build_field
from dfindex.fields import (
    ChartDomainError,
    ScalarField,
    complex_point,
    real_coords,
    seed_coordinate_jets,
    wirtinger_table,
)
from dfindex.forms import (
    NO_CONSTRAINT,
    alpha,
    alpha_geometric,
    beta_geometric,
    beta_mixed,
    beta_mixed_nullspace,
    beta_unmixed,
)
from dfindex.geometry import (
    CTVector,
    MetricField,
    VectorField,
    chern_frame,
    covariant_derivative,
    curvature,
    curvature_contraction,
    metric_compat_residual,
    torsion,
    torsion_from_fields,
)
from dfindex.worm import (WormParams, _f_jets, _lambda_jet, _soft_clamp, sgamma_points, worm_domain,
                         worm_reduction_basis)

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


def _row(v, b):
    """Row ``b`` of a batch of complexified vectors."""
    return CTVector(v.h[b], v.a[b])


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
    def fn(zs):
        c = zs[1] * 0.2 + 1.0
        return [[jets.exp(zs[0].real() * 0.8), c], [c.conj(), jets.abs2(zs[1]) + 4.0]]

    return MetricField(2, fn, name="pivoting")


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
        x, y, v = (CTVector(random_points(rng, 8), random_points(rng, 8)) for _ in range(3))
        assert_rows(curvature(batch, x, y, v).coeffs,
                    [curvature(one, _row(x, b), _row(y, b), _row(v, b)).coeffs
                     for b, one in enumerate(singles)])
        assert_rows(curvature_contraction(batch, x, v),
                    [curvature_contraction(one, _row(x, b), _row(v, b)) for b, one in enumerate(singles)])


def _instance_points(rng, count):
    """Points for random instances, with signed zero coordinates in the first two."""
    points = random_points(rng, count, scale=0.4)
    points[0] = 0.0
    points[1, 0] = complex(-0.0, 0.3)
    return points


def test_random_field_batch_matches_each_instance():
    # one batch evaluator of stacked parameters, one instance a column
    rng = np.random.default_rng(5)
    draws = [diagnostics._field_params(2, rng, 6) for _ in range(12)]
    coeffs, picks, kinds = diagnostics._stack(draws)
    # every term position mixes kinds over the batch, so each one branches
    assert all(len(set(kinds[:, t])) > 1 for t in range(6))
    assert set(kinds.ravel()) == {0, 1, 2, 3}
    assert set(picks[..., 0].ravel()) == set(picks[..., 1].ravel()) == {0, 1}
    points = _instance_points(rng, 12)
    batch = diagnostics._field(2, (coeffs, picks, kinds))
    singles = [diagnostics._field(2, p) for p in draws]
    for order in range(4):
        assert_jet_columns(batch.jet(points, order), [f.jet(z, order) for f, z in zip(singles, points)])


def test_a_coefficient_scales_each_column_as_a_number_times_its_jet():
    # elementwise: the product rule with a constant jet would turn c * 0.0 = -0.0 into +0.0
    rng = np.random.default_rng(8)
    points = _instance_points(rng, 6)
    coeffs = rng.standard_normal(6)
    coeffs[:3] = -np.abs(coeffs[:3])

    def term(zs):
        return jets.sin(zs[0].real()) * zs[1].imag()

    batch = diagnostics._scaled(coeffs, term(seed_coordinate_jets(points, 3)))
    assert_jet_columns(batch, [float(c) * term(seed_coordinate_jets(z, 3)) for c, z in zip(coeffs, points)])
    one = term(seed_coordinate_jets(points[2], 3))
    assert_jet_columns(diagnostics._scaled(coeffs[2], one).broadcast((1,)), [float(coeffs[2]) * one])


def _random_metrics(rng, count):
    draws = [diagnostics._metric_params(2, rng) for _ in range(count)]
    return diagnostics._metric(2, diagnostics._stack(draws)), [diagnostics._metric(2, p) for p in draws]


def test_random_metric_batch_matches_each_instance():
    rng = np.random.default_rng(6)
    batch, singles = _random_metrics(rng, 10)
    points = _instance_points(rng, 10)
    for order in range(3):
        entries = batch.jets(points, order)
        ones = [metric.jets(z, order) for metric, z in zip(singles, points)]
        for j in range(2):
            for k in range(2):
                assert_jet_columns(entries[j][k], [one[j][k] for one in ones])
    frame = chern_frame(batch, points, order=2)
    ones = [chern_frame(metric, z, order=2) for metric, z in zip(singles, points)]
    for name, rows in _chern_rows(frame).items():
        assert_rows(rows, [_chern_rows(one)[name] for one in ones])


def _vector_fields(rng, count):
    """A batch of random (1,0) vector fields and each instance's own."""
    draws = [diagnostics._vector_params(2, rng) for _ in range(count)]
    return (diagnostics._vector_field(2, diagnostics._stack(draws)),
            [diagnostics._vector_field(2, p) for p in draws])


def test_field_operators_match_one_point():
    rng = np.random.default_rng(7)
    count = 9
    metric, metrics = _random_metrics(rng, count)
    (xf, xfs), (yf, yfs) = _vector_fields(rng, count), _vector_fields(rng, count)
    points = _instance_points(rng, count)
    direction = CTVector(random_points(rng, count), random_points(rng, count))
    fr = chern_frame(metric, points, order=2)
    frs = [chern_frame(m, z, order=2) for m, z in zip(metrics, points)]
    assert_rows(covariant_derivative(fr, direction, yf).coeffs,
                [covariant_derivative(one, _row(direction, b), yfs[b]).coeffs for b, one in enumerate(frs)])
    assert_rows(covariant_derivative(fr, direction, xf.jets(points, 1)).coeffs,
                [covariant_derivative(one, _row(direction, b), xfs[b].jets(points[b], 1)).coeffs
                 for b, one in enumerate(frs)])
    assert_rows(torsion_from_fields(fr, xf, yf).coeffs,
                [torsion_from_fields(one, xfs[b], yfs[b]).coeffs for b, one in enumerate(frs)])
    assert_rows(metric_compat_residual(metric, points),
                [metric_compat_residual(m, z) for m, z in zip(metrics, points)])
    assert_rows(xf.value(points).coeffs, [f.value(z).coeffs for f, z in zip(xfs, points)])
    table = wirtinger_table(xf.h_fields[0].jet(points, 1), 2)
    assert_rows(diagnostics._apply_vec(direction, table),
                [diagnostics._apply_vec(_row(direction, b), wirtinger_table(f.h_fields[0].jet(z, 1), 2))
                 for b, (f, z) in enumerate(zip(xfs, points))])


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
    assert_rows(batch.h3t, [one.h3t for one in singles])
    assert_rows(batch.hess2n, [one.hess2n for one in singles])
    assert_rows(batch.L_w1, [one.L_w1 for one in singles])
    assert_jet_columns(batch.r_jet, [one.r_jet for one in singles])
    for k in range(2):
        assert_jet_columns(batch.L_jets[k], [one.L_jets[k] for one in singles])
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    w = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    zvec, wvec = CTVector.holo(z), CTVector.holo(w)
    for form in (beta_mixed, beta_unmixed, beta_mixed_nullspace):
        assert_rows(form(batch, zvec, wvec),
                    [form(one, CTVector.holo(z[b]), CTVector.holo(w[b])) for b, one in enumerate(singles)])
    assert_rows(alpha_geometric(batch, zvec),
                [alpha_geometric(one, CTVector.holo(z[b])) for b, one in enumerate(singles)])
    assert_rows(torsion(batch.chern, CTVector(z, w), CTVector(w, z)).coeffs,
                [torsion(one.chern, CTVector(z[b], w[b]), CTVector(w[b], z[b])).coeffs
                 for b, one in enumerate(singles)])
    assert_rows(batch.nabla_L(CTVector(z, w)).h,
                [one.nabla_L(CTVector(z[b], w[b])).h for b, one in enumerate(singles)])


def _levi_fields(ld):
    out = {name: getattr(ld, name) for name in ("levi", "eigenvalues", "directions", "null")}
    for j, b in enumerate(ld.basis):
        out[f"basis{j}"] = b.h
    return out


@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=SEEDS)
def test_levi_data_matches_one_point(seed):
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler")
    ball = ball_domain()
    # worm: strictly pseudoconvex samples and Levi-null S_gamma points;
    # ball: at (1, 0) the first raw tangent vector is degenerate, elsewhere not
    cases = [(worm, sample_boundary(worm, 3, seed) + sgamma_points(worm.params["worm"], 3, spread=0.97)),
             (ball, [np.array([1.0, 0.0], dtype=complex)] + sample_boundary(ball, 3, seed))]
    for domain, points in cases:
        batch = levi_data(normal_frame(domain, points, r_order=2))
        singles = [levi_data(normal_frame(domain, p, r_order=2)) for p in points]
        fields = _levi_fields(batch)
        for name, rows in fields.items():
            assert_rows(rows, [_levi_fields(one)[name] for one in singles])
        counts = [len(one.pairs(one.null)[0]) for one in singles]
        assert batch.null.sum(axis=-1).tolist() == counts
        if domain is worm:
            assert 0 in counts and max(counts) > 0
        # the batch's null (point, direction) pairs are each point's null pairs, in order
        at, zvec = batch.pairs(batch.null)
        nulls = [w for one in singles for w in one.pairs(one.null)[1].h]
        assert len(at) == len(nulls)
        assert at.tolist() == [b for b, count in enumerate(counts) for _ in range(count)]
        for k, w in enumerate(nulls):
            assert_same(zvec.h[k], w)


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
    basis = worm_reduction_basis(math.pi, degree=5, spread=0.97)
    zvec = CTVector.holo(np.tile([0.0, 1.0], (4, 1)).astype(complex))
    batch = make_site(NormalFrame(worm_kahler, points), zvec, basis)
    assert len(batch) == 4
    for b, z in enumerate(points):
        one = make_site(NormalFrame(worm_kahler, z[None]), CTVector.holo([[0.0, 1.0]]), basis)
        assert len(one) == 1
        for name in ("B", "A", "E", "D"):
            assert_same(getattr(batch, name)[b], getattr(one, name)[0])


@pytest.mark.parametrize("metric", ["euclidean", "worm_kahler"])
def test_null_site_evaluators_and_sff_match_one_point(metric):
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2), metric=metric)
    ball = ball_domain()
    # S_gamma points, where the fiber d/dz_2 is Levi-null, among strictly pseudoconvex
    # ones, and ball points, none of which has a null direction
    special = sgamma_points(worm.params["worm"], 4, spread=0.9)
    cases = [(worm, [special[0], *sample_boundary(worm, 2, 5), *special[1:]], [0, 3, 4, 5]),
             (ball, sample_boundary(ball, 3, 5), [])]
    margins = {"geometric_margin": lambda fr, z: estimator.geometric_margin(fr, z, 0.4),
               "vectorfield_margin": lambda fr, z: estimator.vectorfield_margin(fr, z, 0.4),
               "beta_geometric": beta_geometric}
    for domain, points, null_rows in cases:
        batch = normal_frame(domain, points)
        singles = [normal_frame(domain, p) for p in points]
        fiber = np.tile([0.0, 1.0 + 0.0j], (len(points), 1))
        for name, fn in margins.items():
            rows = fn(batch, CTVector.holo(fiber))
            ones = [fn(one, CTVector.holo(fiber[b])) for b, one in enumerate(singles)]
            assert all(type(one) is float for one in ones), name
            assert_rows(rows, ones)
            assert np.flatnonzero(rows != NO_CONSTRAINT).tolist() == null_rows, name
        # on tangent vectors: the first Levi basis vector and J nu_R
        tangent = levi_data(batch).basis[0]
        assert_rows(second_fundamental_form(batch, tangent, batch.nu_R.J()).coeffs,
                    [second_fundamental_form(one, levi_data(one).basis[0], one.nu_R.J()).coeffs
                     for one in singles])


@settings(derandomize=True, deadline=None, max_examples=6)
@given(seed=SEEDS)
def test_collect_sites_matches_points_one_at_a_time(seed):
    worm = worm_domain(WormParams(gamma=math.pi, t=1.2), metric="worm_kahler")
    basis = worm_reduction_basis(math.pi, degree=6, spread=0.97)
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
    basis = worm_reduction_basis(math.pi, degree=6, spread=0.97)
    sites, _ = collect_sites(worm, sgamma_points(worm.params["worm"], 8, spread=0.95), basis)
    assert len(sites) == 8
    for name in ("B", "A", "E", "D"):
        assert getattr(sites, name).flags["C_CONTIGUOUS"], name


@BATCH
@given(seed=SEEDS, metric=st.sampled_from(["euclidean", "worm_kahler"]))
def test_grad_norm_jet_matches_one_point(seed, metric):
    domain, points = _worm_batch(np.random.default_rng(seed), metric)
    assert_jet_columns(NormalFrame(domain, points).grad_norm_jet,
                       [NormalFrame(domain, z).grad_norm_jet for z in points])


# ----------------------------------------------------------------------
# Newton projection, sampling and the interior check
# ----------------------------------------------------------------------

def _guarded_ball():
    """The unit ball, whose r has a guard raising at Re z1 > 1.2 and a jet raising at Re z1 = 0.7."""
    def guard(z):
        if np.any(np.real(z[..., 0]) > 1.2):
            raise ChartDomainError("guarded region Re z1 > 1.2")

    def fn(zs):
        # the last term is zero, but its jet divides by zero on the line Re z1 = 0.7
        return jets.abs2(zs[0]) + jets.abs2(zs[1]) - 1.0 + 0.0 * (zs[0].real() - 0.7).reciprocal()

    return DomainSpec(name="guarded ball", n=2, r=ScalarField(2, fn, guard=guard),
                      metric=MetricField.euclidean(2), box=np.array([[-1.5, 1.5]] * 4),
                      interior_point=np.zeros(2, dtype=complex))


def _outcome(err):
    return None if err is None else (type(err), str(err))


def _newton_one_point(domain, z0, target, tol, max_iter):
    """The Newton iteration from one start as a plain loop, the reference for the batch."""
    x = real_coords(z0)
    for _ in range(max_iter):
        z = complex_point(x)
        jet = domain.r.jet(z, 1)
        rv, grad = float(np.real(jet.value)) - target, np.real(jet.grad)
        gnorm2 = float(grad @ grad)
        if gnorm2 < TOL_GRAD**2:
            raise ProjectionError(f"vanishing gradient of r at {z} (|grad| = {np.sqrt(gnorm2):.2e})")
        if abs(rv) <= tol * (1.0 + abs(target)):
            return z, abs(rv)
        x = x - rv * grad / gnorm2
        if not domain.in_chart(complex_point(x)):
            raise ProjectionError(f"Newton from {z0} to r = {target} left the chart box")
    raise ProjectionError(f"Newton from {z0} did not converge to r = {target} in {max_iter} iterations")


def _assert_rows_match_loop(domain, starts, targets, z, residual, errors, max_iter):
    for k, z0 in enumerate(starts):
        try:
            ref, res = _newton_one_point(domain, z0, float(targets[k]), 1e-10, max_iter)
        except (ProjectionError, ValueError, ZeroDivisionError) as err:
            assert _outcome(errors[k]) == _outcome(err)
            continue
        assert errors[k] is None
        assert_same(z[k], ref)
        assert residual[k] == res


@pytest.mark.parametrize("target", [0.0, np.array([0.0, -1e-2, 0.0, -1e-3, 0.0, 0.0, -0.5, 0.0, -0.1])])
def test_newton_rows_match_batches_of_one(target):
    domain = _guarded_ball()
    starts = np.array([
        [1.1, 0.0],                        # converges
        [0.3 + 0.2j, 0.9 - 0.1j],          # converges
        [0.0, 0.0],                        # vanishing gradient
        [1e-3, 0.0],                       # first step leaves the chart box
        [1.3, 0.1],                        # guard of r raises
        [0.7 + 0.1j, 0.2],                 # jet of r divides by zero
        [-1.45 + 1.4j, 1.4 - 1.45j],       # needs more than max_iter steps
        [0.5 - 0.5j, -0.6 + 0.1j],         # converges
        [0.4, 0.0],                        # first step lands where the guard raises
    ], dtype=complex)
    z, residual, errors = _newton_to_level(domain, starts, target, 1e-10, 5)
    targets = np.broadcast_to(target, len(starts))
    for k in range(len(starts)):
        z1, res1, err1 = _newton_to_level(domain, starts[k:k + 1], targets[k], 1e-10, 5)
        assert_same(z[k], z1[0])
        assert_same(residual[k], res1[0])
        assert _outcome(errors[k]) == _outcome(err1[0])
    _assert_rows_match_loop(domain, starts, targets, z, residual, errors, 5)
    kinds = [None if e is None else (type(e).__name__, str(e).split(" ")[0]) for e in errors]
    assert kinds == [None, None, ("ProjectionError", "vanishing"), ("ProjectionError", "Newton"),
                     ("ChartDomainError", "guarded"), ("ZeroDivisionError", "reciprocal"),
                     ("ProjectionError", "Newton"), None, ("ChartDomainError", "guarded")]
    assert "left the chart" in str(errors[3]) and "did not converge" in str(errors[6])
    assert np.isnan(z[[2, 3, 4, 5, 6, 8]]).all() and np.isnan(residual[[2, 3, 4, 5, 6, 8]]).all()
    assert (residual[[0, 1, 7]] <= 1e-10 * (1.0 + np.abs(targets[[0, 1, 7]]))).all()


USER_R = {"op": "add", "args": [
    {"op": "abs2", "arg": {"op": "coord", "index": 0}},
    {"op": "pow", "base": {"op": "abs2", "arg": {"op": "coord", "index": 1}}, "exponent": 2},
    {"op": "mul", "args": [
        {"op": "const", "value": 0.1},
        {"op": "re", "arg": {"op": "mul", "args": [{"op": "coord", "index": 0},
                                                   {"op": "coord", "index": 1}]}},
    ]},
    {"op": "const", "value": -1.0},
]}


def _domain_of(key):
    return {
        "user": lambda: make_domain("user", n=2, r=USER_R, box=[[-1.3, 1.3]] * 4,
                                    interior=[[0.0, 0.0], [0.0, 0.0]]),
        "ball": ball_domain,
        "worm(pi)": lambda: make_domain(f"worm({math.pi!r})"),
        "worm(2pi)": lambda: make_domain(f"worm({2 * math.pi!r})"),
    }[key]()


@pytest.mark.parametrize("key", ["user", "ball", "worm(pi)"])
def test_newton_matches_the_one_point_loop(key):
    # |grad|^2 summed in another order (a contiguous copy, einsum) differs in the
    # last bit on most of these rows
    domain = _domain_of(key)
    rng = np.random.default_rng(11)
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    starts = complex_point(lo + (hi - lo) * rng.random((60, lo.size)))
    starts = starts[domain.in_chart(starts)]
    targets = -0.1 * rng.random(len(starts))
    z, residual, errors = _newton_to_level(domain, starts, targets, 1e-10, 50)
    assert sum(err is None for err in errors) > len(starts) // 2
    _assert_rows_match_loop(domain, starts, targets, z, residual, errors, 50)


def test_in_chart_batch_matches_one_point():
    domain = worm_domain(WormParams(gamma=math.pi, t=1.2))
    (j, radius), = domain.min_abs_coord.items()
    rng = np.random.default_rng(3)
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    x = lo - 0.1 + (hi - lo + 0.2) * rng.random((200, 4))
    x[:4] = [lo, hi, lo - 1e-12, hi + 1e-12]          # on and just past the box faces
    x[4] = np.nan
    points = x[:, :2] + 1j * x[:, 2:]
    points[5:8, j] = radius * np.exp(1j * np.array([0.3, 1.1, 2.0]))
    points[6, j] *= 1 - 1e-15                              # just inside the removed fibre
    batch = domain.in_chart(points)
    assert batch.dtype == bool and batch.shape == (200,)
    assert batch.tolist() == [domain.in_chart(z) for z in points]
    assert batch.any() and not batch.all() and not batch[6]
    domain.check_chart(points[batch][0])
    with pytest.raises(ChartDomainError, match="outside chart"):
        domain.check_chart(points[~batch][0])


def _reference_sample(domain, seed, draws, count=None):
    """Distinct hits of projecting each candidate alone with ``project_to_boundary``.

    Returns the points, found in draw order (at most ``count``), and the
    number of them found after each draw.
    """
    rng = np.random.default_rng(seed)
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    points, seen, found = [], set(), []
    for _ in range(draws):
        z0 = complex_point(lo + (hi - lo) * rng.random(lo.shape))
        if domain.in_chart(z0):
            try:
                bp = project_to_boundary(domain, z0)
            except (ProjectionError, ValueError, ZeroDivisionError):
                bp = None
            key = None if bp is None else tuple(np.round(real_coords(bp.z), 9))
            if key is not None and key not in seen:
                seen.add(key)
                points.append(bp)
        found.append(len(points))
        if len(points) == count:
            break
    return points, found


@pytest.mark.parametrize("key", ["user", "ball", "worm(pi)", "worm(2pi)"])
@pytest.mark.parametrize("seed", [0, 7])
def test_sample_boundary_matches_projecting_each_candidate(key, seed):
    domain = _domain_of(key)
    count = 40
    ref, _ = _reference_sample(domain, seed, 100 * count, count)
    points = sample_boundary(domain, count, seed)
    assert len(points) == len(ref) == count
    for p, q in zip(points, ref):
        assert_same(p.z, q.z)
        assert p.residual == q.residual and type(p.residual) is float


def test_sample_boundary_raises_exactly_when_the_trial_cap_binds():
    # few candidates in this chart project onto the ball without leaving it
    domain = dataclasses.replace(ball_domain(), min_abs_coord={0: 0.97})
    factor, counts = 20, range(1, 9)
    ref, found = _reference_sample(domain, 0, factor * max(counts))
    admitted = [found[factor * c - 1] >= c for c in counts]
    assert any(admitted) and not all(admitted)
    for count, ok in zip(counts, admitted):
        if ok:
            points = sample_boundary(domain, count, 0, max_trials_factor=factor)
            assert [p.z.tobytes() for p in points] == [q.z.tobytes() for q in ref[:count]]
        else:
            with pytest.raises(ProjectionError, match=f"after {factor * count} trials "
                                                      fr"\({found[factor * count - 1]}/{count} found\)"):
                sample_boundary(domain, count, 0, max_trials_factor=factor)


def test_interior_check_batches_every_sample(ball, monkeypatch):
    calls, frames, h_jets = [], [], []
    monkeypatch.setattr(estimator, "_newton_to_level",
                        lambda *args: calls.append(args) or _newton_to_level(*args))
    monkeypatch.setattr(estimator, "NormalFrame",
                        lambda *args, **kwargs: frames.append(args) or NormalFrame(*args, **kwargs))
    points = sample_boundary(ball, 3, 4)
    depths = [1e-4, 1e-3, 5e-2, 1e-2]
    h_field = ScalarField(2, lambda zs: zs[0].real() * 0.1)
    h_jet = h_field.jet
    monkeypatch.setattr(h_field, "jet", lambda *args: h_jets.append(args) or h_jet(*args))
    rep = interior_check(ball, h_field, 0.3, depths=depths, points=points)
    assert len(calls) == 1 and calls[0][1].shape == (12, 2)
    assert len(frames) == 1 and frames[0][1].shape == (12, 2)
    assert len(h_jets) == 1 and h_jets[0][0].shape == (12, 2)
    one = [interior_check(ball, h_field, 0.3, depths=[d], points=[p]) for p in points for d in depths]
    assert len(rep["rows"]) == 12
    for row, ref in zip(rep["rows"], one):
        (ref,) = ref["rows"]
        assert_same(row["z"], ref["z"])
        assert row["depth"] == ref["depth"] and row["min_eig"] == ref["min_eig"]


def test_interior_check_raises_for_the_first_failing_sample(ball):
    p = sample_boundary(ball, 1, 4)[0].z
    origin = np.zeros(2, dtype=complex)        # Newton from here meets a vanishing gradient
    # the first sample reaches r = +1e-3 (not inside), the second fails its Newton step
    with pytest.raises(ValueError, match="rho >= 0"):
        interior_check(ball, None, 0.5, depths=[-1e-3], points=[p, origin])
    with pytest.raises(ProjectionError, match="vanishing gradient"):
        interior_check(ball, None, 0.5, depths=[-1e-3], points=[origin, p])
