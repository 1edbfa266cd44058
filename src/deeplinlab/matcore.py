"""Dense real-matrix substrate: SVD, pseudo-inverse, ranks and spectra,
and the text of float64 matrices (``_float_rows``).

The linear-algebra routines operate on 2-D float64 numpy arrays and reject
non-finite entries on the way in.  Rank decisions use the standard
numerical-rank convention ``sigma <= max(rows, cols) * sigma_max * eps``.
The condition number of a rank-deficient matrix comes back as
``math.inf``; downstream formulas rely on ``eta / inf == 0``.  A BCGD
step's spectra (``_gram_svals``) come from the Gram matrix of the factor's
short side, with a bound on their error, and fall back to the SVD where that
bound is too loose; every rank decision stays on the SVD.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "as_matrix",
    "compact_svd",
    "numeric_rank",
    "pseudo_inverse",
    "rank_tolerance",
    "singular_values",
]

_EPS = float(np.finfo(np.float64).eps)


def _sq_fro(a: np.ndarray) -> float:
    """``||a||_F^2`` in one BLAS pass: the ``ravel("K").dot`` whose square
    root ``np.linalg.norm(a, "fro")`` returns (its overflow warns unless
    ignored)."""
    v = a.ravel("K")
    return float(v.dot(v))


def _square(v: float) -> float:
    """``v ** 2`` bit for bit, or inf where that overflows (Python's float
    power raises OverflowError, where numpy would return inf): the one
    square of a spectral step constant (the theory_l2 and convex_safe
    denominators, the GD reference rate and the BCSGD bracket tracker) and
    of a recorded ``||G||_F`` in the optimal step's drop audit."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _all_finite(m: np.ndarray, part: np.ndarray | None = None) -> bool:
    """Whether every entry of *part* (a part of *m*; default *m*) is finite.
    The sum of squares of *m* (``_sq_fro``) decides unless it is not finite;
    then the entrywise test of *part* does."""
    return math.isfinite(_sq_fro(m)) or bool(np.isfinite(m if part is None else part).all())


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a finite 2-D float64 matrix (copied only if needed).

    Finiteness is checked by ``_all_finite``, without an overflow warning.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    with np.errstate(over="ignore"):
        if not _all_finite(m):
            raise ValueError(f"{name} contains non-finite entries")
    return m


def _contiguous(m: np.ndarray) -> np.ndarray:
    """*m* itself when C- or F-contiguous, else one C-contiguous copy.

    ``a.dot(b)`` and ``a @ b`` give the same bits on contiguous storage but
    can differ on a strided view (a row slice ``big[:k, :m]``), so the
    network and the dataset store their matrices this way.
    """
    return m if m.flags.c_contiguous or m.flags.f_contiguous else np.ascontiguousarray(m)


def _fro(a: np.ndarray) -> float:
    """``np.linalg.norm(a, "fro")`` bit for bit, without its wrapper: the
    square root of ``_sq_fro``, the ``ravel("K").dot`` it takes itself."""
    return math.sqrt(_sq_fro(a))


def _svals(a: np.ndarray) -> np.ndarray:
    """Singular values of *a*, nonincreasing; ``[0.0]`` for an empty matrix."""
    return np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(1)


_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64
_HALF_MAX = float(np.finfo(np.float64).max) / 2
_SUBNORMAL = 5e-324  # the smallest subnormal: the most an underflowing product rounds by
_EIGVALSH_C = 4.0  # c of eigvalsh's backward error, c k eps ||G||_2
# ``_gram_svals`` takes a factor's spectrum from its Gram only when the Gram's
# smallest eigenvalue is at least this many times the bound e on every
# eigenvalue's absolute error: each sigma_i^2 then lies within 1e-4 of its
# own size, and sigma_min at least sqrt(1e4 e) >= 1e2 sqrt(n eps) sigma_1,
# far above ``rank_tolerance``.
_GRAM_MARGIN = 1e4


def _gram_svals(a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(s, e)``: the singular values *s* of a step factor *a*,
    nonincreasing, and a bound *e* on the absolute error of each ``s_i^2``,
    from the Gram matrix of the short side.

    S is *a* or its transpose, whichever has fewer rows (k x n, k <= n);
    ``s = sqrt(eigvalsh(S S^T))`` in descending order.  By Weyl's inequality
    each computed eigenvalue is within e of sigma_i^2, where e sums
    - the Gram's rounding, ``gamma_n ||S||_F^2`` (gamma_n = n eps / (1 - n
      eps), twice the classical bound, which also covers the rounding of
      ``||S||_F^2`` itself, taken by ``_sq_fro``),
    - eigvalsh's backward error, ``c k eps lambda_1`` (``_EIGVALSH_C``),
      which also covers the square root's last rounding,
    - and ``k n`` times the smallest subnormal for products that underflow.

    Falls back to ``_svals`` (the bits of ``np.linalg.svd``) with e = 0
    unless the Gram is finite, lambda_1 is a normal float and
    ``lambda_min >= _GRAM_MARGIN * e``.  So a rank-deficient factor, whose
    Gram eigenvalues near 0 are noise of about eps lambda_1 (sigma about
    1e-8 sigma_1, far above ``rank_tolerance``), keeps its SVD, as do
    entries of about 1e154 or more (the Gram overflows) and of about
    1e-154 or less (it underflows).  Both are told before the Gram is
    formed: ``||S||_F^2`` at most half the largest float bounds every
    partial sum of every Gram entry (Cauchy-Schwarz), and lambda_1 is at
    most ``||S||_F^2``, so below the smallest normal float when that is.
    e > 0 exactly when the Gram's values are returned.  Runs under the
    steps' warning state (``optim._quiet``), where a Gram that overflows
    raises no numpy warning.
    """
    s = a if a.shape[0] <= a.shape[1] else a.T
    k, n = s.shape
    fro2 = _sq_fro(s)
    if _TINY <= fro2 <= _HALF_MAX:  # False for an empty *a*, inf and NaN
        lam = np.linalg.eigvalsh(s.dot(s.T))[::-1]
        lam1 = float(lam[0])
        e = n * _EPS / (1.0 - n * _EPS) * fro2 + _EIGVALSH_C * k * _EPS * lam1 + k * n * _SUBNORMAL
        if lam1 >= _TINY and float(lam[-1]) >= _GRAM_MARGIN * e:
            return np.sqrt(lam), e
    return _svals(a), 0.0


def _column_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=1)`` of a 2-D *a* of at most 8 columns, bit
    for bit, in a few ufuncs over its columns instead of one numpy inner
    loop per row (on 2000 x 8 about a third of the time, 2-vCPU Xeon,
    numpy 2.4).

    numpy sums a row of fewer than 8 entries in order, and a row of 8 as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``; the reduction adds that sum to
    its identity 0.0.  Wider rows take other orders, which this does not
    reproduce.
    """
    cols = a.shape[1]
    if cols < 8:
        res = a[:, 0] + 0.0
        for i in range(1, cols):
            res += a[:, i]
        return res
    r = a[:, 0::2] + a[:, 1::2]
    r = r[:, 0::2] + r[:, 1::2]
    res = r[:, 0] + r[:, 1]
    res += 0.0
    return res


def rank_tolerance(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this threshold count as zero."""
    return max(shape) * sigma_max * _EPS


def numeric_rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Count of the singular values *s* of a *shape* matrix above its rank tolerance."""
    return int(np.sum(s > rank_tolerance(shape, float(s[0]) if s.size else 0.0)))


def singular_values(a) -> np.ndarray:
    """All min(rows, cols) singular values, nonincreasing, zeros included."""
    m = as_matrix(a)
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def compact_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD ``A = U @ diag(s) @ V.T`` keeping only numerically
    nonzero singular values.

    Returns (U, s, V) where U is rows x r, V is cols x r, and r is the
    numeric rank.  A dimension-zero or zero matrix yields empty factors.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((cols, 0))
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = numeric_rank(s, m.shape)
    return u[:, :r], s[:r], vh[:r, :].T


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the compact SVD.

    The zero matrix maps to the zero matrix of transposed shape.
    """
    m = as_matrix(a)
    u, s, v = compact_svd(m)
    if s.size == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    return (v / s) @ u.T


def _kappa_r_from_svals(s: np.ndarray, shape: tuple[int, int], r: int, err: float = 0.0) -> float:
    """sigma_max / sigma_r of a *shape* matrix whose spectrum *s* is given.

    ``inf`` when sigma_r is numerically zero or *r* lies outside
    1..min(shape): a rank the matrix cannot carry.  *err* bounds the
    absolute error of each ``s_i^2`` (``_gram_svals``' e): then sigma_max is
    taken as ``sqrt(s_1^2 + err)`` and sigma_r as ``sqrt(s_r^2 - err)``, the
    ends of their intervals, so the ratio bounds the exact one from above.
    """
    if not 1 <= r <= min(shape):
        return math.inf
    smax = float(s[0])
    sr = float(s[r - 1])
    if err:
        smax, sr = math.sqrt(smax * smax + err), math.sqrt(max(sr * sr - err, 0.0))
    return math.inf if sr <= rank_tolerance(shape, smax) else smax / sr


# ---------------------------------------------------------------------------
# Float text: the characters ``repr`` writes for a float64, formed for a
# batch of values at once.  ``_float_rows`` writes every float the package
# puts in a text file (network snapshots and dataset CSVs).

_TEXT_BATCH = 4096  # values per batch: each workspace row is 32 KiB
_TEXT_ROWS = 21  # uint64 workspace rows ``_repr_batch`` uses

_U = np.uint64
_SIGN = _U(1 << 63)
_INF_BITS = _U(0x7FF0000000000000)
_ONE_BITS = _U(0x3FF0000000000000)
_M32 = _U(0xFFFFFFFF)
_ASCII0 = _U(0x3030303030303030)
_NL = 634  # offset of the newline half of ``_tail_words``
_WORD_ENDS = np.array([[7], [71], [135]], dtype=np.int32)  # 7 + 64 j


def _word(text: str) -> int:
    """Up to 8 ASCII characters as one little-endian word: character i in byte i."""
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _repr_tables() -> dict:
    """Every constant ``_repr_batch`` looks up, built once from Python ints.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020;
    Java's ``DoubleToDecimal``) scales each value by ``10^-k`` through
    ``g = floor(10^-k 2^-r) + 1``, ``2^125 <= g < 2^126``, one row per
    decimal exponent k from -324 to 292: ``g1 = g >> 63`` (whole and in
    32-bit halves) and the halves of ``g0 = g mod 2^63``.

    Digits and layout: ``p10s[nd] = 10^(17 - nd)``; ``nd0[b]``, the digits
    of 2^(b - 1), and ``pt[b] = 10^nd0[b]``; masks by character position
    p over the four words of an entry: ``low[:, p]`` keeps the bytes before
    p, ``high[:, p]`` those from p on, ``dot[:, p]`` holds "." at p, and
    ``sel[:, p]`` / ``sel1[:, p]`` select the word holding p and the next
    one; ``prefix[5 sign + lead]`` is "-" and then lead zeros; and the
    text of 0.0, -0.0, inf, -inf, nan and nan (a negative NaN's repr).
    """
    t = {}
    g1, g0 = [], []
    for k in range(-324, 293):
        r = ((-k * 913_124_641_741) >> 38) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    t["g1"], g0 = np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)
    t.update(g1l=t["g1"] & _M32, g1h=t["g1"] >> 32, g0l=g0 & _M32, g0h=g0 >> 32)
    t["p10s"] = np.array([10 ** (17 - nd) for nd in range(18)], dtype=np.uint64)
    t["nd0"] = np.array([len(str(1 << max(b - 1, 0))) for b in range(60)], dtype=np.int64)
    t["pt"] = np.array([10 ** int(nd) for nd in t["nd0"]], dtype=np.uint64)
    word = np.arange(4)[:, None]
    pos = np.arange(33)[None, :]
    nbytes = np.clip(pos - 8 * word, 0, 8)
    t["low"] = np.array([[(1 << (8 * int(b))) - 1 for b in row] for row in nbytes], dtype=np.uint64)
    t["high"] = ~t["low"]
    t["dot"] = np.where(pos // 8 == word, np.left_shift(_U(ord(".")), (8 * (pos % 8)).astype(_U)), _U(0))
    t["sel"] = np.where(pos // 8 == word, ~_U(0), _U(0))
    t["sel1"] = np.where(pos // 8 + 1 == word, ~_U(0), _U(0))
    t["prefix"] = np.array([_word(sign + "0" * lead) for sign in ("", "-") for lead in range(5)],
                           dtype=np.uint64)
    specials = ("0.0", "-0.0", "inf", "-inf", "nan", "nan")
    t["special"] = np.array([_word(text) for text in specials], dtype=np.uint64)
    t["special_len"] = np.array([len(text) for text in specials], dtype=np.int64)
    return t


@functools.cache
def _tail_words(sep: str) -> np.ndarray:
    """What follows an entry's digits, one word each: the exponent text
    ``e-324`` .. ``e+308`` (entries 1..633; entry 0 has none) and then *sep*,
    or, in the table's second half (from ``_NL``), a newline."""
    exps = [""] + ["e%+03d" % e for e in range(-324, 309)]
    return np.array([_word(e + end) for end in (sep, "\n") for e in exps], dtype=np.uint64)


def _frexp_exponents(a: np.ndarray, fbuf: np.ndarray, ebuf: np.ndarray) -> np.ndarray:
    """``np.frexp(a)[1]`` of the uint64 rows *a*, formed in the float64 view
    of the rows *fbuf* and returned in the int32 view of the rows *ebuf*."""
    f = fbuf.view(np.float64)
    e = ebuf.view(np.int32)[:, : a.shape[-1]]
    np.copyto(f, a, casting="unsafe")
    np.frexp(f, out=(f, e))
    return e


def _repr_batch(x: np.ndarray, row_ends: np.ndarray, tails: np.ndarray, ws: np.ndarray) -> str:
    """The text of the float64 values *x* (1-D): each one's ``repr``, then
    the separator of *tails* (``_tail_words``), or a newline after the
    positions *row_ends*.

    Every step is one numpy operation on all of *x*, written into the rows
    of the uint64 workspace *ws* (``_TEXT_ROWS`` rows of at least
    ``x.size``), so a batch allocates only a few byte masks and its text.

    Digits: Schubfach's shortest ``f 10^k`` in the rounding interval of each
    value, the closest when two qualify, the even one on a tie, as Python
    chooses.  Java asks for two digits at least and writes ``4.9E-324``
    where Python writes ``5e-324``, so its ``s >= 100`` guard and its
    scaling of the two smallest subnormals are left out.  The 64 x 128-bit
    products of Java's ``rop`` are done in 32-bit halves, with its rounding.

    Layout, as ``repr``: positional when -4 < decpt <= 16 (decpt: digits
    before the point), with ``.0`` when there is no fraction; otherwise
    ``d[.ddd]e+XX``, two exponent digits at least.  Each entry is formed as
    four little-endian words (character i of word j in byte i - 8 j), zero
    after its end; the zero bytes are dropped at the end.
    """
    tb = _repr_tables()
    n = x.size
    u = ws[:, :n]
    i = u.view(np.int64)
    bits = x.view(np.uint64)
    neg = bits >= _SIGN
    mag = np.bitwise_and(bits, ~_SIGN, out=u[0])
    np.subtract(mag, 1, out=u[1])
    special = u[1] >= _INF_BITS - _U(1)  # 0, inf or nan: a constant text
    any_special = special.any()
    if any_special:
        np.copyto(mag, _ONE_BITS, where=special)

    # --- Schubfach: the shortest f 10^k in each value's rounding interval
    be = np.right_shift(mag, 52, out=u[1])  # biased exponent
    t = np.bitwise_and(mag, (1 << 52) - 1, out=u[2])
    c = np.minimum(be, 1, out=u[4])  # the significand, hidden bit and all
    c <<= 52
    c |= t
    # a power of two above the smallest normal has a lower neighbour half as
    # far away as its upper one: k = floor(log10(3/4 2^q)), not floor(log10(2^q))
    irregular = t == 0
    irregular &= be > 1
    q = np.maximum(be, 1, out=u[3]).view(np.int64)
    q -= 1075  # c 2^q is the value
    k = np.multiply(q, 661_971_961_083, out=i[5])
    k -= np.multiply(irregular, 274_743_187_321, out=i[0])
    k >>= 41
    h = np.multiply(k, -913_124_641_741, out=i[1])
    h >>= 38  # floor(-k log2(10))
    h += q
    h += 2
    kidx = np.add(k, 324, out=i[2])  # row of g in the tables

    def table(name, out):
        return tb[name].take(kidx, out=out, mode="clip")

    cp = u[6:9]  # cb << h for the value (cb = 4 c) and its interval's two ends,
    np.add(h, 2, out=i[0])  # cb - 2 (cb - 1 when irregular) and cb + 2
    np.left_shift(c, u[0], out=cp[0])
    np.subtract(2, irregular, out=i[0])
    i[0] <<= h
    np.subtract(cp[0], u[0], out=cp[1])
    np.left_shift(2, h, out=i[0])
    np.add(cp[0], u[0], out=cp[2])
    lo = np.bitwise_and(cp, _M32, out=u[9:12])
    hi = np.right_shift(cp, 32, out=u[12:15])  # < 2^28
    # Java's rop: y1:y0 = g1 cp, x1 = high64(g0 cp), z = (y0 >> 1) + x1,
    # v = y1 + (z >> 63) | (z mod 2^63 != 0); g0, g1 < 2^63 keep every sum
    # of 32 x 32-bit products below 2^64
    y0 = np.multiply(cp, table("g1", u[0]), out=cp)  # mod 2^64
    y1, acc = u[15:18], u[18:21]
    g = table("g1l", u[0])
    np.multiply(lo, g, out=y1)
    y1 >>= 32
    y1 += np.multiply(hi, g, out=acc)
    g = table("g1h", u[0])
    y1 += np.multiply(lo, g, out=acc)
    y1 >>= 32
    y1 += np.multiply(hi, g, out=acc)
    g, g2 = table("g0l", u[0]), table("g0h", u[3])
    x1 = np.multiply(lo, g, out=acc)
    x1 >>= 32
    x1 += np.multiply(lo, g2, out=lo)
    x1 += np.multiply(hi, g, out=lo)
    x1 >>= 32
    x1 += np.multiply(hi, g2, out=hi)
    z = np.right_shift(y0, 1, out=y0)
    z += x1
    y1 += np.right_shift(z, 63, out=x1)
    z <<= 1
    y1 |= np.minimum(z, 1, out=z)
    vb, vbl, vbr = y1
    odd = np.bitwise_and(c, 1, out=c)  # an odd significand's interval is open:
    vbl += odd
    vbr += 1
    vbr -= odd  # "y + odd <= vbr" is now "y < vbr"
    s = np.right_shift(vb, 2, out=u[0])  # floor(v 10^-k)
    s4 = np.left_shift(s, 2, out=u[1])
    sp = np.floor_divide(s, 10, out=u[2])
    sp *= 10  # one digit fewer: u' = sp 10^k and w' = (sp + 10) 10^k
    sp4 = np.left_shift(sp, 2, out=u[6])
    upin = vbl <= sp4
    sp4 += 40
    wpin = sp4 < vbr
    uin = vbl <= s4
    np.add(s4, 4, out=u[7])
    win = u[7] < vbr
    # s + 1 is closer than s, or as close with s odd: vb + (s & 1) > 4 s + 2
    np.bitwise_and(s, 1, out=u[7])
    u[7] += vb
    s4 += 2
    up = u[7] > s4
    np.greater(uin, up, out=uin)  # s is in, and s + 1 no closer
    np.greater(win, uin, out=win)  # take s + 1
    f = np.add(s, win, out=s)
    for shorter, pin in ((sp, upin), (sp + 10, wpin)):  # never both in
        np.subtract(shorter, f, out=u[7])  # f += (shorter - f) pin, mod 2^64
        u[7] *= pin
        f += u[7]

    # --- digits: f as 17 decimal digits, one byte each, in three words
    # digits of f from its bit length b: nd0[b] + (f >= 10^nd0[b]).  frexp
    # gives b, or b + 1 when f rounds up to 2^b; no power of ten lies between
    bitlen = _frexp_exponents(f, u[6:7], u[7:8])[0]
    nd = tb["nd0"].take(bitlen, out=i[8], mode="clip")
    nd += f >= tb["pt"].take(bitlen, out=u[9], mode="clip")
    decpt = np.add(k, nd, out=k)  # f has nd digits and is f 10^k
    f17 = tb["p10s"].take(nd, out=u[1], mode="clip")
    f17 *= f
    d0 = np.floor_divide(f17, 10**16, out=u[2])
    f17 -= np.multiply(d0, 10**16, out=u[6])
    hl = u[9:11]  # digits 2-9 and 10-17 of the 17
    np.floor_divide(f17, 10**8, out=hl[0])
    np.subtract(f17, np.multiply(hl[0], 10**8, out=u[6]), out=hl[1])
    a, b = u[11:13], u[13:15]  # each to 8 bytes, its first digit in the lowest
    np.floor_divide(hl, 10000, out=a)
    hl -= np.multiply(a, 10000, out=b)
    hl <<= 32
    hl |= a
    np.multiply(hl, 5243, out=a)  # // 100 in each 32-bit lane (values < 10^4)
    a >>= 19
    a &= 0x0000007F0000007F
    hl -= np.multiply(a, 100, out=b)
    hl <<= 16
    hl |= a
    np.multiply(hl, 103, out=a)  # // 10 in each 16-bit lane (values < 100)
    a >>= 10
    a &= 0x000F000F000F000F
    hl -= np.multiply(a, 10, out=b)
    hl <<= 8
    hl |= a
    digits = u[15:18]
    np.left_shift(hl[0], 8, out=digits[0])
    digits[0] |= d0
    np.right_shift(hl, 56, out=digits[1:])
    digits[1] |= np.left_shift(hl[1], 8, out=u[6])
    # significant digits, up to the last nonzero byte: with b the bit length
    # of word j (none rounds up: no byte is above 9), nsig is the largest
    # (b + 7 + 64 j) // 8 over the words with b > 0
    reach = _frexp_exponents(digits, u[18:21], u[11:14])
    reach += _WORD_ENDS
    reach *= reach > _WORD_ENDS
    nsig = np.maximum.reduce(reach, axis=0, out=i[6])
    nsig >>= 3
    digits |= _ASCII0

    # --- layout: sign, leading "0." and zeros, the point, the tail word
    expo = (decpt + 3).view(np.uint64) > 19
    dp = np.subtract(decpt, 1, out=i[7])  # digits before the point: decpt,
    dp *= ~expo  # or 1 in exponential form
    dp += 1
    lead = np.subtract(1, dp, out=i[8])
    np.maximum(lead, 0, out=lead)  # zeros before the first digit ("0.00")
    np.maximum(dp, 1, out=dp)
    shift = np.add(lead, neg, out=i[9])
    shift <<= 3
    body = u[10:13]  # the digits moved past the sign and leading zeros
    np.left_shift(digits, shift.view(np.uint64), out=body)
    np.subtract(63, shift, out=shift)
    carry = np.right_shift(digits[:2], 1, out=u[13:15])
    carry >>= shift.view(np.uint64)
    body[1:] |= carry
    pidx = np.multiply(neg, 5, out=i[9])
    pidx += lead
    body[0] |= tb["prefix"].take(pidx, out=u[13], mode="clip")
    point = np.add(dp, neg, out=i[9])
    after = tb["high"][:3].take(point, axis=1, out=u[13:16], mode="clip")
    after &= body  # the characters from the point on, moved one place up
    body ^= after
    np.right_shift(after[:2], 56, out=u[16:18])
    after <<= 8
    after[1:] |= u[16:18]
    body |= after
    body |= tb["dot"][:3].take(point, axis=1, out=after, mode="clip")
    # characters before the tail: positional max(lead + nsig, dp + 1) + 1,
    # exponential nsig + 1, or 1 without a point; each plus the sign
    length = np.add(lead, nsig, out=i[19])
    dp += 1
    np.maximum(length, dp, out=length)
    length += 1
    np.greater(nsig, 1, out=uin)
    exp_length = np.add(nsig, uin, out=i[20])
    exp_length -= length
    exp_length *= expo
    length += exp_length
    length += neg
    eidx = np.add(decpt, 324, out=i[1])  # exponent decpt - 1, from entry 1
    eidx *= expo
    eidx[row_ends] += _NL
    tail = tails.take(eidx, out=u[2], mode="clip")
    if any_special:
        where = np.flatnonzero(special)
        m = bits[where] & ~_SIGN
        kind = np.where(m == 0, 0, np.where(m == _INF_BITS, 2, 4)) + neg[where]
        body[:, where] = 0
        body[0, where] = tb["special"][kind]
        length[where] = tb["special_len"][kind]

    # --- the tail from character length on, then nothing but zero bytes
    out, part = u[3:7], u[13:17]
    tb["sel"].take(length, axis=1, out=out, mode="clip")
    offset = np.bitwise_and(length, 7, out=i[7])
    offset <<= 3
    out &= np.left_shift(tail, offset.view(np.uint64), out=u[8])
    tb["sel1"].take(length, axis=1, out=part, mode="clip")
    np.subtract(63, offset, out=offset)
    np.right_shift(tail, 1, out=u[8])
    part &= np.right_shift(u[8], offset.view(np.uint64), out=u[8])
    out |= part
    body &= tb["low"][:3].take(length, axis=1, out=part[:3], mode="clip")
    out[:3] |= body
    if not out[3].any():  # no entry reaches its 25th character
        out = out[:3]
    return out.T.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")


def _float_rows(blocks, sep: str):
    """Yield the text of the rows of the 2-D float64 arrays *blocks*, in
    order: each row's entries as ``repr`` writes them, joined by *sep*, and
    a newline after each row.

    ``"".join(_float_rows(blocks, sep))`` equals ``"".join(sep.join(map(repr,
    row)) + "\n" for b in blocks for row in b.tolist())`` byte for byte, for
    every float64, with no Python call per entry (``_repr_batch``).  The
    rows go in batches of whole rows of at most ``_TEXT_BATCH`` values (a
    wider row is a batch of its own), one string each, so the memory in use
    does not grow with the input.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    widest = max((b.shape[1] for b in blocks), default=0)
    size = max(min(_TEXT_BATCH, sum(b.size for b in blocks)), widest)
    ws = np.empty((_TEXT_ROWS, size), dtype=np.uint64)
    vals = np.empty(size)
    tails = _tail_words(sep)
    fill, ends = 0, []

    def batch() -> str:
        return _repr_batch(vals[:fill], np.concatenate(ends), tails, ws)

    for b in blocks:
        rows, cols = b.shape
        if cols == 0 and rows:  # rows without entries: a newline each
            if fill:
                yield batch()
                fill, ends = 0, []
            yield "\n" * rows
            continue
        r = 0
        while r < rows:
            take = min(rows - r, (size - fill) // cols)
            if take == 0:  # the batch is full
                yield batch()
                fill, ends = 0, []
                continue
            vals[fill:fill + take * cols].reshape(take, cols)[...] = b[r:r + take]
            ends.append(np.arange(fill + cols - 1, fill + take * cols, cols))
            fill += take * cols
            r += take
    if fill:
        yield batch()
