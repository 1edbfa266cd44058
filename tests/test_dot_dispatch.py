"""``a.dot(b)`` gives the bits of ``a @ b`` on every operand the step path forms.

Every matrix product on a runner's step path is written ``a.dot(b)``:
``optim._sweep``, ``network._prefixes`` and ``_suffixes``, ``_step_core``,
``_lr_from_parts``, ``_descend``, ``_gd_step_core``,
``losses.gradient_from_parts``, ``sgd._bcsgd_step_core`` and
``sgd._bx_column_weights``.  At the 4 x 32 and 32 x 32 sizes of a deep
narrow chain ``ndarray.dot`` dispatches in about half the time of ``@``,
but the two reach BLAS by different routes: ``dot`` treats a one-row or
one-column matrix as a vector (gemv or a dot product), ``matmul`` picks
by its own shape cases, and both send ``x.T x`` to syrk.  The first three
tests pin that every route gives the bits of ``@``, compared as uint64
words, on C-contiguous matrices and transposed views of them (``A^T``,
``(B X)^T``), for every dimension from 1 to 130, on a matrix times a row
``q_i`` of Q or a contiguous vector, and on the Grams ``C^T C`` and
``B X (B X)^T``.  The layer gradient ``A^T (D (B X)^T)`` takes two of
them: ``D (B X)^T``, a C-contiguous matrix times a transposed view, and
``A^T V``, a transposed view times a C-contiguous matrix; the fourth test
pins the gradient itself.  So the runners' outputs stay byte for byte what
they would be with ``@``.

A view that is neither C- nor F-contiguous is outside the rule.  A row
slice ``W[:k, :k']`` of a larger layer is one: on such operands (as the
right factor of a product, transposed, in a matrix-vector product or in a
Gram) ``dot`` and ``@`` differ in the last bits for some shapes.  The step
path never multiplies one: ``network._head_blocks`` copies the head
blocks (``initialize`` builds a compact network's C-contiguous), and
``Network`` and ``Dataset`` store every matrix C- or
F-contiguous, copying a strided view once.  The last two tests pin that:
every layer, sample matrix and factor a runner trains on is C- or
F-contiguous, also when the layers and the data are passed in as row-slice
views, and a run on such views gives the bits of the same run on
contiguous copies of them.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deeplinlab import optim
from deeplinlab.data import Dataset, gen_input_gaussian, gen_output_uniform, load_normalize_csv, write_csv
from deeplinlab.initializers import KINDS, InitScheme, initialize
from deeplinlab.losses import gradient_from_parts, l2, lp
from deeplinlab.network import Network

dims = st.integers(1, 130)
layouts = st.sampled_from(("c", "t"))
seeds = st.integers(0, 2**32 - 1)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _operand(rng, rows: int, cols: int, layout: str) -> np.ndarray:
    """A rows x cols float64 matrix: C-contiguous, or the transposed view
    of a C-contiguous one."""
    if layout == "c":
        return rng.normal(size=(rows, cols))
    return rng.normal(size=(cols, rows)).T


@settings(max_examples=400, deadline=None)
@given(m=dims, k=dims, p=dims, left=layouts, right=layouts, seed=seeds)
@example(m=1, k=1, p=1, left="c", right="c", seed=0)
@example(m=1, k=32, p=32, left="c", right="c", seed=0)  # A of a chain with one output
@example(m=32, k=32, p=1, left="c", right="t", seed=0)  # one-column B X
@example(m=32, k=1, p=32, left="t", right="c", seed=0)  # outer product
@example(m=4, k=32, p=32, left="c", right="c", seed=0)  # deep_narrow's A W
@example(m=130, k=130, p=130, left="t", right="t", seed=0)
@example(m=10, k=128, p=128, left="c", right="t", seed=0)  # wide_optimal's D (B X)^T
@example(m=1, k=40, p=32, left="c", right="t", seed=0)  # one-output D (B X)^T
@example(m=128, k=10, p=128, left="t", right="c", seed=0)  # wide_optimal's A^T V
@example(m=1, k=1, p=130, left="t", right="c", seed=0)  # one-row A^T V
def test_matrix_dot_matches_matmul(m, k, p, left, right, seed):
    rng = np.random.default_rng(seed)
    a, b = _operand(rng, m, k, left), _operand(rng, k, p, right)
    assert _same_bits(a.dot(b), a @ b)


@settings(max_examples=300, deadline=None)
@given(m=dims, k=dims, layout=layouts, seed=seeds)
@example(m=1, k=1, layout="c", seed=0)
@example(m=1, k=40, layout="t", seed=0)
@example(m=40, k=1, layout="c", seed=0)
def test_matrix_vector_dot_matches_matmul(m, k, layout, seed):
    rng = np.random.default_rng(seed)
    a = _operand(rng, m, k, layout)
    q = rng.normal(size=(7, k))
    for v in (q[3], rng.normal(size=k)):  # a row of Q (C q_i, pred q_i) and a fresh vector
        assert _same_bits(a.dot(v), a @ v)
    r = rng.normal(size=m)  # A^T r
    assert _same_bits(a.T.dot(r), a.T @ r)


@settings(max_examples=300, deadline=None)
@given(n=dims, m=dims, layout=layouts, seed=seeds)
@example(n=1, m=1, layout="c", seed=0)
@example(n=8, m=1, layout="c", seed=0)
@example(n=1, m=8, layout="t", seed=0)
def test_gram_dot_matches_matmul(n, m, layout, seed):
    x = _operand(np.random.default_rng(seed), n, m, layout)
    assert _same_bits(x.T.dot(x), x.T @ x)  # C^T C: the syrk route
    assert _same_bits(x.dot(x.T), x @ x.T)  # B X (B X)^T
    assert _same_bits(x.dot(x.T).dot(x), (x @ x.T) @ x)


@settings(max_examples=300, deadline=None)
@given(n_out=dims, n_l=dims, n_below=dims, m=dims, seed=seeds)
@example(n_out=10, n_l=128, n_below=128, m=128, seed=0)  # wide_optimal's head chain
@example(n_out=1, n_l=1, n_below=1, m=1, seed=0)
@example(n_out=1, n_l=32, n_below=32, m=100, seed=0)
def test_gradient_from_parts_matches_matmul(n_out, n_l, n_below, m, seed):
    # the operands as a step forms them: A (n_L x n_l), B X and D C-contiguous
    rng = np.random.default_rng(seed)
    a, bx, d = (rng.normal(size=shape) for shape in ((n_out, n_l), (n_below, m), (n_out, m)))
    assert _same_bits(gradient_from_parts(a, bx, d), a.T @ (d @ bx.T))


def _contiguous(a: np.ndarray) -> bool:
    return a.flags.c_contiguous or a.flags.f_contiguous


def _row_slice(a: np.ndarray) -> np.ndarray:
    """The values of *a* (two rows or more) as the row-slice view
    ``big[:rows, :cols]`` of a wider matrix, neither C- nor F-contiguous."""
    big = np.zeros((a.shape[0] + 1, a.shape[1] + 3))
    big[: a.shape[0], : a.shape[1]] = a
    view = big[: a.shape[0], : a.shape[1]]
    assert not _contiguous(view)
    return view


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [3, 40])  # m > d_in compresses the samples
@pytest.mark.parametrize("source", ["synthetic", "csv", "view"])  # view: row-slice layers and data
def test_step_operands_are_contiguous(tmp_path, kind, m, source):
    dims_chain = (5, 9, 9, 2)  # wider than max(d_in, d_out): head blocks where block-diagonal
    data = Dataset(x=gen_input_gaussian(5, m, 1), y=gen_output_uniform(2, m, 2))
    if source == "csv":
        write_csv(tmp_path / "d.csv", data)
        data = load_normalize_csv(tmp_path / "d.csv", 5, 2)
    if source == "view":
        data = Dataset(x=_row_slice(data.x), y=_row_slice(data.y))
    for lf in (l2(), lp(4)):
        net = initialize(InitScheme(kind), dims_chain, seed=3)
        if source == "view":
            net = Network([_row_slice(w) for w in net.layers])
        run = optim._reduce(net, data, lf, None)
        operands = [*run.work.layers, run.samples.x, run.samples.y]
        if run.q is not None:
            operands.append(run.q)
        for ordering in optim.ORDERINGS:
            operands += [f for _ell, a, bx in optim._sweep(run.work, run.samples.x, ordering)
                         for f in (a, bx)]
        assert all(_contiguous(a) for a in operands)


def test_row_slice_inputs_train_like_contiguous_copies():
    # m <= d_in keeps the samples uncompressed: X reaches every step as stored
    rng = np.random.default_rng(0)
    for draw in range(40):
        d_in = int(rng.integers(2, 40))
        m, d_out = int(rng.integers(2, d_in + 1)), int(rng.integers(2, 6))
        chain = (d_in, *rng.integers(2, 12, size=draw % 3), d_out)
        x, y = rng.normal(size=(d_in, m)), rng.normal(size=(d_out, m))
        layers = initialize(InitScheme("random"), chain, seed=draw).layers
        runs = []
        for wrap in (_row_slice, np.array):  # the view, then a contiguous copy
            traj = optim.run_bcgd(
                Network([wrap(w) for w in layers]), Dataset(x=wrap(x), y=y), l2(),
                optim.LrPolicy("optimal_l2"), max_sweeps=2, target_dist=0.0,
            )
            runs.append([(r.lr, r.loss_after, r.dist_after, r.grad_frobenius) for r in traj.records])
        assert runs[0] == runs[1], (draw, chain, m)
