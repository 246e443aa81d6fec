"""Row kernels and samplers against the row-wise formulas, bit for bit.

``_rowops`` evaluates a 2-D batch of few columns a column at a time. The
formulas below are the row-wise evaluation written out; every result must
carry the same bits, signed zeros included. Only a NaN's payload (its sign
bit) is not compared: numpy's own loops pass on the first or the second
operand's NaN depending on where an element falls in a vector loop, so the
row-wise form never kept it row-local either: ``row_matvec([[0, 1]], x)``
on 17 rows of ``[inf, nan]`` gives rows 0-15 a NaN with the sign bit set
and row 16 one without (numpy 2.4 on x86-64 with AVX-512).

The comparator replay in ``test_montecarlo.py`` calls ``apply_rows`` itself;
this file is what keeps that cross-check independent of the column form.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptix import (InitialConditions, e0_monte_carlo, gaussian_noise,
                     kesten_gate, linear_problem, plakhov_almeida_gate,
                     reciprocal_schedule, run_trajectory,
                     scaled_rademacher_noise, smooth_gate, tanh_problem,
                     uniform_ball_noise)
from adaptix import _rowops
from adaptix._rowops import (_ROW_CHUNK, ColumnSpans, apply_rows, dot_rows,
                             norm_rows)
from adaptix.core import NOISE_CHUNK, ComparatorConfig, _lane_takes, _simulate
from adaptix.noise import NoiseModel
from adaptix.problems import field_eval
from adaptix.rng import COMPARATOR_LANE, TRAJECTORY_LANE, substream

DIMS = range(1, 13)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def row_counts(dim):
    """Every count from 1 to 64 rows, 32 rows per column and one row either
    side of it, and a full noise block."""
    edge = 32 * dim
    return sorted(set(range(1, 65)) | {edge - 1, edge, edge + 1, 1024})


def row_sum(p):
    return np.add.reduce(np.ascontiguousarray(p), axis=-1)


def row_matvec(m, x):
    out = np.zeros(x.shape[:-1] + (m.shape[0],), dtype=np.float64)
    for j in range(m.shape[1]):
        out += x[..., j, None] * m[:, j]
    return out


def bits(a):
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


def batch(rng, shape, order):
    """Mixed magnitudes with about a fifth of the entries special."""
    a = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e200], size=shape)
    mask = rng.random(shape) < 0.2
    a[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return np.asarray(a, order=order)


def shapes(dim):
    yield (dim,)
    for rows in row_counts(dim):
        yield (rows, dim)
        yield (2, rows, dim)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", DIMS)
def test_row_kernels_match_the_row_wise_formulas(dim, order):
    rng = np.random.default_rng(dim)
    m = batch(rng, (dim, dim), order)
    for shape in shapes(dim):
        a = batch(rng, shape, order)
        b = batch(rng, shape, order)
        if a.ndim > 1:
            # a row of -0.0 products, whose sum must start from +0.0
            a[..., 0, :] = -0.0
            b[..., 0, :] = 1.0
        with np.errstate(all="ignore"):
            assert_same_bits(dot_rows(a, b), row_sum(a * b))
            assert_same_bits(norm_rows(a), np.sqrt(row_sum(a * a)))
            assert_same_bits(apply_rows(m, a), row_matvec(m, a))


@pytest.mark.parametrize("dim", range(1, 8))
def test_float_forms_match_the_one_row_kernels(dim):
    # the one-replicate lane holds a state as a tuple of floats; below the
    # pairwise sum's 8 columns its sums and products carry the bits of a
    # one-row batch, signed zeros and specials included
    rng = np.random.default_rng(50 + dim)
    m = batch(rng, (dim, dim), "C")
    held = ColumnSpans(m)
    for _ in range(200):
        a, b = batch(rng, (1, dim), "C"), batch(rng, (1, dim), "C")
        if rng.random() < 0.2:
            a[0] = -0.0
        ta, tb = tuple(a[0].tolist()), tuple(b[0].tolist())
        with np.errstate(all="ignore"):
            assert_same_bits(dot_rows(ta, tb), dot_rows(a, b)[0])
            assert_same_bits(apply_rows(held, ta), apply_rows(m, a)[0])


def test_signed_zero_rows_sum_to_plus_zero():
    a = np.full((64, 2), -0.0)
    got = dot_rows(a, np.ones((64, 2)))
    assert np.array_equal(bits(got), bits(np.zeros(64)))


def gaussian_rows(noise, rng, count):
    z = rng.standard_normal((count, noise.dim))
    return row_matvec(noise._factor_spans.matrix, z)


def ball_rows(noise, rng, count):
    g = rng.standard_normal((count, noise.dim))
    r = rng.random(count)
    nrm = np.sqrt(row_sum(g * g))
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    return g * (noise.radius * r ** (1.0 / noise.dim) / nrm)[:, None]


def rademacher_rows(noise, rng, count):
    return noise.scale * (2.0 * rng.integers(0, 2, size=(count, noise.dim))
                          - 1.0)


def correlated_gaussian(dim):
    a = np.random.default_rng(100 + dim).standard_normal((dim, dim))
    return gaussian_noise(a @ a.T + np.eye(dim))


def singular_gaussian(dim):
    """diag(1, 0, 1, 0, ...): merely PSD, so its factor comes from eigh."""
    return gaussian_noise(np.arange(1, dim + 1) % 2 * 1.0)


#: Gaussian covariances by the shape of their factor; only the identity's
#: skips the mat-vec in ``sample_block``.
GAUSSIANS = {
    "gaussian": correlated_gaussian,
    "gaussian-identity": lambda dim: gaussian_noise(np.eye(dim)),
    "gaussian-diagonal": lambda dim: gaussian_noise(
        np.linspace(0.3, 4.0, dim)),
    "gaussian-zero": lambda dim: gaussian_noise(np.zeros((dim, dim))),
    "gaussian-singular": singular_gaussian,
}

#: Each noise kind with its row-wise formula.
SAMPLERS = {
    **{name: (make, gaussian_rows) for name, make in GAUSSIANS.items()},
    "uniform_ball": (lambda dim: uniform_ball_noise(dim, 1.5), ball_rows),
    "scaled_rademacher": (lambda dim: scaled_rademacher_noise(dim, 0.7),
                          rademacher_rows),
}


@pytest.mark.parametrize("dim", DIMS)
def test_gaussian_block_matches_the_row_wise_map(dim):
    for make in GAUSSIANS.values():
        noise = make(dim)
        for count in row_counts(dim):
            block = noise.sample_block(substream(7, TRAJECTORY_LANE, dim),
                                       count)
            want = gaussian_rows(noise, substream(7, TRAJECTORY_LANE, dim),
                                 count)
            assert_same_bits(block, want)


@pytest.mark.parametrize("dim", DIMS)
def test_ball_block_matches_the_row_wise_scaling(dim):
    noise = uniform_ball_noise(dim, 1.5)
    for count in row_counts(dim):
        block = noise.sample_block(substream(3, TRAJECTORY_LANE, dim), count)
        want = ball_rows(noise, substream(3, TRAJECTORY_LANE, dim), count)
        assert_same_bits(block, want)


class FixedDraws:
    """A generator stand-in that hands out the given normals and uniforms,
    so a test can place draws that real streams never produce."""

    def __init__(self, normals, uniforms):
        self.normals = normals
        self.uniforms = uniforms

    def standard_normal(self, size=None, out=None):
        if out is None:
            assert size == self.normals.shape
            return self.normals.copy()
        out[...] = self.normals
        return out

    def random(self, count):
        assert count == self.uniforms.shape[0]
        return self.uniforms.copy()


@pytest.mark.parametrize("dim", [1, 4, 9])
def test_a_zero_normal_row_stays_a_zero_ball_row(dim):
    # a zero norm is replaced by 1.0 rather than divided by; the zero row
    # sits in the second row chunk
    count = _ROW_CHUNK + 5
    zero = _ROW_CHUNK + 2
    normals = np.random.default_rng(dim).standard_normal((count, dim))
    normals[zero] = 0.0
    uniforms = np.random.default_rng(50 + dim).random(count)
    noise = uniform_ball_noise(dim, 1.5)
    block = noise.sample_block(FixedDraws(normals, uniforms), count)
    assert_same_bits(block, ball_rows(noise, FixedDraws(normals, uniforms),
                                      count))
    assert block[zero].tobytes() == np.zeros(dim).tobytes()
    assert not np.isnan(block).any()


@pytest.mark.parametrize("dim", range(1, 10))
@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_block_drawn_into_out_matches_the_row_wise_formula(kind, dim):
    # both sides of the ball transform's row chunk, and a whole E0 block
    make, rows = SAMPLERS[kind]
    noise = make(dim)
    for count in (1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 100_000):
        want = rows(noise, substream(5, TRAJECTORY_LANE, dim), count)
        buf = np.full((count, dim), np.nan)
        got = noise.sample_block(substream(5, TRAJECTORY_LANE, dim), count,
                                 out=buf)
        assert got is buf
        assert_same_bits(buf, want)
        fresh = noise.sample_block(substream(5, TRAJECTORY_LANE, dim), count)
        assert_same_bits(fresh, want)


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_block_refuses_an_out_of_another_shape_dtype_or_order(kind):
    noise = SAMPLERS[kind][0](3)
    rng = substream(5, TRAJECTORY_LANE, 3)
    for out in (np.empty((6, 3)), np.empty((5, 2)), np.empty(15),
                np.empty((5, 3), dtype=np.float32),
                np.empty((5, 3), order="F"), np.empty((5, 6))[:, ::2]):
        with pytest.raises(ValueError, match="out must be"):
            noise.sample_block(rng, 5, out=out)


def coupled_problem(dim):
    matrix = np.eye(dim) * np.linspace(1.0, 2.5, dim) + np.eye(dim, k=1) * 0.2
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) * 0.3
    noise = gaussian_noise(a @ a.T + np.eye(dim))
    return tanh_problem(matrix=matrix, noise=noise)


@pytest.mark.parametrize("dim", [2, 4, 9, 12])
def test_batch_rows_match_single_runs_and_any_split(dim):
    # a batch of 32 rows per column and 5 more, whole and split after 3
    problem = coupled_problem(dim)
    init = InitialConditions(x0=np.full(dim, 0.5))
    schedule, gate = reciprocal_schedule(2.0), kesten_gate()
    horizon, n_rep = 60, 32 * dim + 5
    ts = range(horizon + 1)
    comparator = ComparatorConfig(alpha=problem.jacobian_at_root, e0=0.5)

    def simulate(lo, hi):
        rngs = [substream(4, TRAJECTORY_LANE, r) for r in range(lo, hi)]
        return _simulate(problem, init, schedule, gate, horizon, rngs, ts,
                         comparator=comparator)

    whole = simulate(0, n_rep)
    parts = [simulate(0, 3), simulate(3, n_rep)]
    for field in ("x", "s", "y", "z"):
        joined = np.concatenate([getattr(p, field) for p in parts], axis=1)
        assert_same_bits(getattr(whole, field), joined)
    assert np.array_equal(whole.diverged_at,
                          np.concatenate([p.diverged_at for p in parts]))

    single = run_trajectory(problem, init, schedule, gate, horizon, 4)
    assert_same_bits(single.x, whole.x[:, 0])
    assert_same_bits(single.s, whole.s[:, 0])


# ---------------------------------------------------------------------------
# the identity gaussian factor, applied as ``+= 0.0``


@pytest.mark.parametrize(("cov", "identity"), [
    (1.0, True), (np.eye(3), True), ([1.0, 1.0], True), (4.0, False),
    ([0.5, 2.0], False), (np.zeros((2, 2)), False),
    (np.diag([1.0, 0.0]), False), ([[1.0, 0.3], [0.3, 0.5]], False)],
    ids=["scalar", "identity", "unit-diagonal", "scalar-4", "diagonal",
         "zero", "singular", "correlated"])
def test_only_the_identity_factor_skips_the_matvec(cov, identity):
    assert gaussian_noise(cov)._factor_is_identity is identity


class FixedNormals:
    """A generator stand-in whose normals are given rows."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, out):
        out[...] = self.z
        return out


#: Entries whose sign or size a mat-vec could treat differently: signed
#: zeros, subnormals and the largest magnitudes.
CRAFTED = [0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
           1e308, -1e308, 1.0, -2.5]


def assert_identity_draw_is_the_matvec(z):
    dim = z.shape[1]
    got = gaussian_noise(np.eye(dim)).sample_block(FixedNormals(z), len(z))
    assert_same_bits(got, apply_rows(np.eye(dim), z))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_draw_is_the_matvec_on_crafted_rows(dim):
    # every combination of crafted entries: -0.0 must come out +0.0 as the
    # mat-vec's zero start makes it
    z = np.array(list(itertools.product(CRAFTED, repeat=dim)))
    assert_identity_draw_is_the_matvec(z)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_identity_draw_is_the_matvec_on_any_finite_rows(data):
    dim = data.draw(st.integers(1, 9))
    rows = data.draw(st.integers(1, 40))
    assert_identity_draw_is_the_matvec(
        data.draw(hnp.arrays(np.float64, (rows, dim), elements=FINITE)))


@pytest.fixture
def on_the_matvec(monkeypatch):
    """Calls a function with every gaussian draw taking the mat-vec, the
    route a factor other than the identity takes."""
    def call(fn):
        with monkeypatch.context() as patch:
            patch.setattr(NoiseModel, "_factor_is_identity",
                          property(lambda self: False))
            return fn()
    return call


@pytest.mark.parametrize("independent", [False, True])
def test_batch_rows_are_the_matvec_route_rows(on_the_matvec, independent):
    noise = gaussian_noise(np.eye(2))
    assert noise._factor_is_identity
    problem = linear_problem(matrix=np.array([[1.5, 0.2], [0.0, 3.0]]),
                             noise=noise)
    init = InitialConditions(x0=np.array([1.0, -1.0]))
    horizon, n_rep = NOISE_CHUNK + 7, 5

    def run():
        rngs = [substream(6, TRAJECTORY_LANE, r) for r in range(n_rep)]
        comp = None
        if independent:
            comp = [substream(6, COMPARATOR_LANE, r) for r in range(n_rep)]
        comparator = ComparatorConfig(alpha=problem.jacobian_at_root,
                                      e0=0.5, rngs=comp)
        res = _simulate(problem, init, reciprocal_schedule(2.0),
                        kesten_gate(), horizon, rngs, range(horizon + 1),
                        comparator=comparator)
        return [a.tobytes() for a in (res.x, res.s, res.y, res.z,
                                      res.diverged_at)]

    assert run() == on_the_matvec(run)


def test_float_lane_is_the_matvec_route_lane(on_the_matvec):
    problem = linear_problem(matrix=np.array([[1.5, 0.2], [0.0, 3.0]]),
                             noise=gaussian_noise([1.0, 1.0]))
    init = InitialConditions(x0=np.array([1.0, -1.0]))
    schedule, gate = reciprocal_schedule(2.0), kesten_gate()
    assert _lane_takes(problem, schedule, gate, 1, None)

    def run():
        traj = run_trajectory(problem, init, schedule, gate,
                              NOISE_CHUNK + 7, 9)
        return [a.tobytes() for a in (traj.x, traj.s, traj.y)]

    assert run() == on_the_matvec(run)


@pytest.mark.parametrize("gate", [plakhov_almeida_gate(-0.25, 1.0),
                                  smooth_gate(-0.5, 1.0, beta=0.7)],
                         ids=lambda gate: gate.family)
def test_e0_monte_carlo_is_the_matvec_route_estimate(on_the_matvec, gate):
    # a full block and a short one that ends inside a row chunk
    noise = gaussian_noise(np.eye(2))

    def run():
        est = e0_monte_carlo(gate, noise, n_samples=120_001, seed=23)
        return est.value, est.stderr

    assert run() == on_the_matvec(run)


# ---------------------------------------------------------------------------
# a held matrix: each column added over the rows its non-zeros span


def structured(dim):
    """Square matrices whose zeros have a structure, by name. The
    non-zeros range over magnitudes and signs; the zeros of
    ``signed-zeros`` are -0.0 and +0.0."""
    rng = np.random.default_rng(200 + dim)
    full = rng.standard_normal((dim, dim)) * rng.choice([1e-3, 1.0, 1e3],
                                                        size=(dim, dim))
    full[full == 0.0] = 1.0
    mid = dim // 2
    zero_column = full.copy()
    zero_column[:, mid] = 0.0
    zero_row = full.copy()
    zero_row[0] = 0.0
    signed = np.where(np.tri(dim, dtype=bool), full, -0.0)
    signed[0, dim - 1:] = 0.0
    single = np.zeros((dim, dim))
    single[dim - 1, mid] = full[dim - 1, mid]
    return {
        "diagonal": np.diag(np.diag(full)),
        "upper-bidiagonal": np.triu(np.tril(full, 1)),
        "lower-bidiagonal": np.tril(np.triu(full, -1)),
        "upper-triangular": np.triu(full),
        "lower-triangular": np.tril(full),
        "zero-column": zero_column,
        "zero-row": zero_row,
        "signed-zeros": signed,
        "single": single,
        "zero": np.zeros((dim, dim)),
        "dense": full,
    }


def finite_batch(rng, shape, order):
    """Mixed magnitudes with about a fifth of the entries +0.0 or -0.0."""
    a = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e200], size=shape)
    mask = rng.random(shape) < 0.2
    a[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    return np.asarray(a, order=order)


SPAN_ROWS = sorted(set(range(1, 65)) | {1024, 2000})


@pytest.fixture(params=["as-held", "always-spans"])
def held(request, monkeypatch):
    """Makes a ``ColumnSpans``: with its own row threshold, or with one
    row for every matrix that has a zero to skip, so that every row count
    takes the spans whenever the batch is finite."""
    if request.param == "always-spans":
        monkeypatch.setattr(_rowops, "_SPAN_MIN_SAVED", 1)
    return ColumnSpans


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_held_matvec_matches_the_row_wise_formula(held, dim, order):
    rng = np.random.default_rng(300 + dim)
    for name, m in structured(dim).items():
        spans = held(m)
        for rows in SPAN_ROWS:
            for x in (finite_batch(rng, (rows, dim), order),
                      batch(rng, (rows, dim), order)):
                with np.errstate(all="ignore"):
                    assert_same_bits(apply_rows(spans, x), row_matvec(m, x))
        x = finite_batch(rng, (3, 5, dim), order)
        assert_same_bits(apply_rows(spans, x), row_matvec(m, x))


@pytest.mark.parametrize("dim", [2, 4, 9])
def test_one_special_entry_sends_the_batch_to_the_full_columns(held, dim):
    # in a zero's column an inf or NaN gives a NaN product, which the full
    # columns add and the spans would skip
    rng = np.random.default_rng(400 + dim)
    for m in structured(dim).values():
        spans = held(m)
        for special in (np.inf, -np.inf, np.nan):
            for col in range(dim):
                x = finite_batch(rng, (2000, dim), "F")
                x[1234, col] = special
                with np.errstate(all="ignore"):
                    assert_same_bits(apply_rows(spans, x), row_matvec(m, x))


def test_spans_run_from_the_first_to_the_last_non_zero():
    m = np.array([[1.0, 0.2, 0.0, 0.0],
                  [0.0, 1.5, 0.0, 0.0],
                  [0.0, -0.0, 0.0, 0.2],
                  [0.0, 3.0, 0.0, 2.5]])
    spans = ColumnSpans(m)
    assert [(j, rows.start, rows.stop) for j, rows, _ in spans.spans] == [
        (0, 0, 1), (1, 0, 4), (3, 2, 4)]
    for j, rows, coef in spans.spans:
        assert_same_bits(coef[:, 0], m[rows, j])
    # 16 entries less the 4 the finiteness check reads and the 7 visited
    assert spans.min_rows == -(-_rowops._SPAN_MIN_SAVED // 5)
    # nothing to skip beyond what the check reads: always the full columns
    assert ColumnSpans(np.diag([1.5, 3.0])).min_rows == np.inf
    assert ColumnSpans(np.ones((3, 3))).min_rows == np.inf


def test_a_held_matrix_never_goes_stale():
    # the held copy is the matrix the spans were taken from; a plain array
    # is read afresh at every call
    m = np.array([[1.0, 0.2, 0.0, 0.0],
                  [0.0, 1.5, 0.2, 0.0],
                  [0.0, 0.0, 2.0, 0.2],
                  [0.0, 0.0, 0.0, 2.5]])
    before = m.copy()
    x = finite_batch(np.random.default_rng(5), (2000, 4), "F")
    spans = ColumnSpans(m)
    assert_same_bits(apply_rows(spans, x), row_matvec(before, x))
    m[3, 0] = 0.5          # outside column 0's span
    m[0, 3] = -0.25        # outside column 3's span
    assert_same_bits(apply_rows(spans, x), row_matvec(before, x))
    assert_same_bits(apply_rows(m, x), row_matvec(m, x))
    assert_same_bits(apply_rows(ColumnSpans(m), x), row_matvec(m, x))
    with pytest.raises(ValueError, match="read-only"):
        spans.matrix[3, 0] = 0.5


def test_held_owners_keep_their_matrix_from_in_place_writes():
    m = np.array([[1.0, 0.2, 0.0], [0.0, 1.5, 0.2], [0.0, 0.0, 2.0]])
    problem = tanh_problem(matrix=m, noise=uniform_ball_noise(3, 1.0))
    x = finite_batch(np.random.default_rng(6), (2000, 3), "F")
    want = row_matvec(m.copy(), np.tanh(x - problem.root))
    m[2, 0] = 9.0
    assert_same_bits(field_eval(problem, x), want)
    assert problem.matrix[2, 0] == 0.0
    noise = gaussian_noise(np.array([[2.0, 0.5], [0.5, 1.0]]))
    for held_matrix in (problem.matrix, noise._factor_spans.matrix):
        with pytest.raises(ValueError, match="read-only"):
            held_matrix[0, 0] = 1.0
    # the one-replicate lane multiplies by the held rows
    m = np.array([[1.5, 0.2], [0.0, 3.0]])
    linear = linear_problem(matrix=m)
    init = InitialConditions(x0=np.array([1.0, -1.0]))
    schedule, gate = reciprocal_schedule(2.0), kesten_gate()
    assert _lane_takes(linear, schedule, gate, 1, None)

    def run():
        traj = run_trajectory(linear, init, schedule, gate, 50, 3)
        return [a.tobytes() for a in (traj.x, traj.s, traj.y)]

    want = run()
    m[0, 1] = -4.0
    m[1, 0] = 0.5
    assert run() == want


def test_the_comparator_takes_alpha_afresh_at_every_call():
    problem = coupled_problem(4)
    init = InitialConditions(x0=np.full(4, 0.5))
    alpha = problem.jacobian_at_root
    comparator = ComparatorConfig(alpha=alpha, e0=0.5)

    def z(comparator):
        rngs = [substream(8, TRAJECTORY_LANE, r) for r in range(600)]
        res = _simulate(problem, init, reciprocal_schedule(2.0),
                        kesten_gate(), 40, rngs, [40], comparator=comparator)
        return res.z

    first = z(comparator)
    alpha[3, 0] = 0.7      # a zero of the bidiagonal alpha
    second = z(comparator)
    assert not np.array_equal(first, second)
    assert_same_bits(second,
                     z(ComparatorConfig(alpha=alpha.copy(), e0=0.5)))
