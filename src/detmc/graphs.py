"""Biregular bipartite sampling graphs and their spectral certification.

Two generators are provided:

* ``lps_graph(p, q)`` -- the Lubotzky--Phillips--Sarnak Cayley-graph
  construction over PGL(2, q), restricted to the bipartite case where the
  Legendre symbol (p|q) is -1.  The result is a (p+1)-regular bipartite
  graph on two copies of PSL(2, q), i.e. q(q^2-1)/2 vertices per side, and
  its second singular value provably meets the optimal bound 2*sqrt(p).

* ``random_biregular(n1, n2, d1, seed)`` -- a configuration-model fallback
  with random 2-swap repair of duplicate edges, for degree/size
  combinations no algebraic construction covers.

``certify`` measures the top two singular values of the bipartite
adjacency matrix and reports whether the graph passes the Ramanujan test.
It takes both from one Lanczos run (k=2) on the sparse adjacency, falling
back to a dense SVD for the complete graph, which has rank one, and for a
graph with a side of at most two vertices, where Lanczos cannot take two
values.  The certificate is measured once per graph and cached on it, like
``adjacency``: a graph's edges are not to be edited after construction.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import FormatError, GenerationError, ParameterError

_SWAP_ATTEMPT_CAP = 1_000_000


class SamplingPattern:
    """A set of observed index pairs of an ``n1 x n2`` matrix.

    Edges are stored as an ``(m, 2)`` integer array sorted lexicographically
    with no duplicates.  Subclasses add structure (uniform degrees, or the
    Bernoulli rate used to draw the mask).
    """

    def __init__(self, n1, n2, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.shape[0] == 0:
            raise ParameterError("empty edge set")
        if edges.min() < 0 or edges[:, 0].max() >= n1 or edges[:, 1].max() >= n2:
            raise ParameterError("edge index out of range")
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
            raise ParameterError("duplicate edges")
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.edges = edges
        self.rows = edges[:, 0]
        # a contiguous intp copy, the index np.take gathers by without a cast
        self.cols = edges[:, 1].astype(np.intp)
        self.cols.flags.writeable = False

    @property
    def m(self):
        return self.edges.shape[0]

    @cached_property
    def row_ptr(self):
        # CSR index pointer; valid because edges are sorted by row.
        return np.searchsorted(self.rows, np.arange(self.n1 + 1)).astype(np.int64)

    @cached_property
    def _csr_index(self):
        # Validated and cast once, then shared by every csr_with_values
        # result; read-only so an in-place index edit (eliminate_zeros,
        # prune) fails instead of corrupting the pattern's other matrices.
        mat = scipy.sparse.csr_matrix(
            (np.ones(self.m), self.cols.copy(), self.row_ptr), shape=(self.n1, self.n2)
        )
        indices, indptr = mat.indices, mat.indptr
        indices.flags.writeable = False
        indptr.flags.writeable = False
        return indices, indptr

    @cached_property
    def row_counts(self):
        # edges per row; np.repeat by these gathers along the sorted rows
        counts = np.diff(self.row_ptr)
        counts.flags.writeable = False
        return counts

    def csr_with_values(self, values):
        """CSR matrix supported on the edge set, data aligned with ``edges``."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.m,):
            raise ParameterError(f"expected {self.m} values, got {values.shape}")
        indices, indptr = self._csr_index
        mat = scipy.sparse.csr_matrix(
            (values, indices, indptr), shape=(self.n1, self.n2), copy=False
        )
        mat.has_canonical_format = True
        return mat

    @cached_property
    def adjacency(self):
        return self.csr_with_values(np.ones(self.m))

    def __eq__(self, other):
        return (
            isinstance(other, SamplingPattern)
            and self.n1 == other.n1
            and self.n2 == other.n2
            and np.array_equal(self.edges, other.edges)
        )


class BiregularGraph(SamplingPattern):
    """Bipartite graph with every left degree ``d1`` and right degree ``d2``."""

    def __init__(self, n1, n2, edges):
        super().__init__(n1, n2, edges)
        left_deg = np.bincount(self.rows, minlength=n1)
        right_deg = np.bincount(self.cols, minlength=n2)
        if left_deg.min() != left_deg.max():
            raise ParameterError("left degrees are not uniform")
        if right_deg.min() != right_deg.max():
            raise ParameterError("right degrees are not uniform")
        self.d1 = int(left_deg[0])
        self.d2 = int(right_deg[0])

    @property
    def rate(self):
        """Fraction of entries observed: d1/n2 (= d2/n1)."""
        return self.d1 / self.n2

    @cached_property
    def certificate(self):
        """The ``SpectralCertificate``, measured on first access (see ``certify``)."""
        return _measure_certificate(self)

    def __repr__(self):
        return (
            f"BiregularGraph(n1={self.n1}, n2={self.n2}, "
            f"d1={self.d1}, d2={self.d2})"
        )


class BernoulliMask(SamplingPattern):
    """Entries observed independently with probability ``rate`` (comparator)."""

    def __init__(self, n1, n2, edges, rate):
        super().__init__(n1, n2, edges)
        self.rate = float(rate)


def bernoulli_mask(n1, n2, rate, seed):
    """Draw a Bernoulli(rate) mask; retries the rare empty draw."""
    if not 0 < rate <= 1:
        raise ParameterError(f"rate must be in (0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        keep = rng.random((n1, n2)) < rate
        if keep.any():
            rows, cols = np.nonzero(keep)
            return BernoulliMask(n1, n2, np.column_stack([rows, cols]), rate)
    raise GenerationError("Bernoulli mask came up empty repeatedly")


# ---------------------------------------------------------------------------
# random biregular generator (configuration model + 2-swap repair)
# ---------------------------------------------------------------------------


def random_biregular(n1, n2, d1, seed):
    """Uniform-ish simple (d1, d2)-biregular bipartite graph, fixed seed.

    Left stubs are matched to a random permutation of right stubs; duplicate
    edges are then repaired by random 2-swaps restricted to proposals that
    do not create new duplicates.  Above half density the complement graph
    is generated instead (2-swap repair degenerates near the complete
    graph) and its edge set inverted.
    """
    if d1 < 1 or d1 > n2:
        raise ParameterError(f"infeasible left degree d1={d1} for n2={n2}")
    if (n1 * d1) % n2 != 0:
        raise ParameterError(f"n1*d1={n1 * d1} is not divisible by n2={n2}")
    d2 = (n1 * d1) // n2
    if d2 > n1:
        raise ParameterError(f"infeasible right degree d2={d2} for n1={n1}")

    if d1 == n2:  # complete bipartite
        rows, cols = np.divmod(np.arange(n1 * n2), n2)
        return BiregularGraph(n1, n2, np.column_stack([rows, cols]))
    if d1 > n2 // 2:
        comp = random_biregular(n1, n2, n2 - d1, seed)
        keep = np.ones((n1, n2), dtype=bool)
        keep[comp.rows, comp.cols] = False
        rows, cols = np.nonzero(keep)
        return BiregularGraph(n1, n2, np.column_stack([rows, cols]))

    rng = np.random.default_rng(seed)
    m = n1 * d1
    rows = np.repeat(np.arange(n1), d1)
    cols = rng.permutation(np.repeat(np.arange(n2), d2))

    # edge k joins row k // d1 to cols[k], coded as the Python int row * n2 + col
    codes, inverse, dup = np.unique(rows * n2 + cols, return_inverse=True, return_counts=True)
    counts = dict(zip(codes.tolist(), dup.tolist()))
    stack = np.flatnonzero(dup[inverse] > 1).tolist()
    cols = cols.tolist()

    attempts = 0
    while stack:
        k1 = stack.pop()
        p1 = k1 // d1 * n2 + cols[k1]
        if counts[p1] < 2:
            continue
        while True:  # repair this one duplicate instance
            attempts += 1
            if attempts > _SWAP_ATTEMPT_CAP:
                raise GenerationError("duplicate-edge repair exceeded the attempt cap")
            k2 = int(rng.integers(m))
            new1 = k1 // d1 * n2 + cols[k2]
            new2 = k2 // d1 * n2 + cols[k1]
            if new1 == new2 or counts.get(new1) or counts.get(new2):
                continue
            counts[p1] -= 1
            counts[k2 // d1 * n2 + cols[k2]] -= 1
            counts[new1] = counts[new2] = 1
            cols[k1], cols[k2] = cols[k2], cols[k1]
            break

    return BiregularGraph(n1, n2, np.column_stack([rows, cols]))


# ---------------------------------------------------------------------------
# LPS construction on PGL(2, q)
# ---------------------------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _legendre(a, q):
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def _sqrt_minus_one(q):
    for z in range(2, q):
        if (z * z) % q == q - 1:
            return z
    raise ParameterError(f"-1 is not a square mod {q}")


def _quaternion_solutions(p):
    """All (a0, a1, a2, a3) with a0^2+a1^2+a2^2+a3^2 = p, a0 odd positive,
    a1, a2, a3 even.  For p = 1 mod 4 there are exactly p+1 of them."""
    limit = int(math.isqrt(p))
    evens = range(-limit, limit + 1, 2)
    sols = []
    for a0 in range(1, limit + 1, 2):
        rem0 = p - a0 * a0
        for a1 in evens:
            rem1 = rem0 - a1 * a1
            if rem1 < 0:
                continue
            for a2 in evens:
                rem2 = rem1 - a2 * a2
                if rem2 < 0:
                    continue
                a3 = math.isqrt(rem2)
                if a3 * a3 == rem2 and a3 % 2 == 0:
                    sols.append((a0, a1, a2, a3))
                    if a3 != 0:
                        sols.append((a0, a1, a2, -a3))
    return sols


def _canon(mat, q, inv):
    """Canonical projective representative: scale so the first nonzero of
    (a, b, c, d) equals 1."""
    for x in mat:
        if x != 0:
            s = inv[x]
            return tuple((y * s) % q for y in mat)
    raise ValueError("zero matrix has no projective class")


def _matmul2(g, h, q):
    a, b, c, d = g
    e, f, gg, hh = h
    return (
        (a * e + b * gg) % q,
        (a * f + b * hh) % q,
        (c * e + d * gg) % q,
        (c * f + d * hh) % q,
    )


def lps_graph(p, q):
    """Bipartite LPS Cayley graph of PGL(2, q) with the p+1 standard generators.

    Requires distinct primes p, q = 1 (mod 4) with (p|q) = -1 and q > 2*sqrt(p).
    The generators have non-square determinant p, so they swap the two cosets
    of PSL(2, q); the graph is bipartite with q(q^2-1)/2 vertices per side and
    degree p+1 on both sides.
    """
    if p == q or not (_is_prime(p) and _is_prime(q)):
        raise ParameterError("p and q must be distinct primes")
    if p % 4 != 1 or q % 4 != 1:
        raise ParameterError("p and q must both be congruent to 1 mod 4")
    if _legendre(p, q) != -1:
        raise ParameterError("(p|q) must be -1 for the bipartite construction")
    if q <= 2 * math.sqrt(p):
        raise ParameterError(f"q={q} must exceed 2*sqrt(p)={2 * math.sqrt(p):.3f}")

    inv = [0] * q
    for x in range(1, q):
        inv[x] = pow(x, q - 2, q)
    i_unit = _sqrt_minus_one(q)

    sols = _quaternion_solutions(p)
    gens = set()
    for a0, a1, a2, a3 in sols:
        mat = (
            (a0 + i_unit * a1) % q,
            (a2 + i_unit * a3) % q,
            (-a2 + i_unit * a3) % q,
            (a0 - i_unit * a1) % q,
        )
        gens.add(_canon(mat, q, inv))
    if len(gens) != p + 1:
        raise GenerationError(
            f"expected {p + 1} projective generators, found {len(gens)}"
        )

    squares = {(x * x) % q for x in range(1, q)}

    left = []  # determinant class square: PSL(2, q)
    right = []  # non-square coset
    for b, c, d in product(range(q), repeat=3):
        det = (d - b * c) % q
        if det == 0:
            continue
        (left if det in squares else right).append((1, b, c, d))
    for c in range(1, q):
        for d in range(q):
            det = (-c) % q
            (left if det in squares else right).append((0, 1, c, d))
    n_side = q * (q * q - 1) // 2
    if len(left) != n_side or len(right) != n_side:
        raise GenerationError("PGL(2, q) coset sizes are off")
    left.sort()
    right.sort()
    right_index = {g: j for j, g in enumerate(right)}

    gens = sorted(gens)
    edges = np.empty((n_side * (p + 1), 2), dtype=np.int64)
    k = 0
    for i, g in enumerate(left):
        for s in gens:
            h = _canon(_matmul2(g, s, q), q, inv)
            edges[k, 0] = i
            edges[k, 1] = right_index[h]
            k += 1
    return BiregularGraph(n_side, n_side, edges)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralCertificate:
    """Measured spectral data of a biregular adjacency matrix."""

    sigma1: float
    sigma2: float
    ramanujan_bound: float  # sqrt(d1-1) + sqrt(d2-1)
    c0: float  # smallest C0 with sigma2 <= (C0/2)(sqrt(d1)+sqrt(d2))
    is_ramanujan: bool


def _top_two(g):
    """sigma1 / sigma2 of the adjacency, by one Lanczos run on its sparse form.

    ARPACK's ``svds`` returns the top two singular values together: the
    constant pair (value sqrt(d1*d2)) is the top pair of any biregular
    adjacency, and sigma2 the one after it.  Two cases take a dense SVD:
    the complete graph, which has rank one, and a graph with a side of at
    most two vertices, where ``svds`` cannot take k=2.
    """
    A = g.adjacency
    if g.d1 == g.n2 or min(g.n1, g.n2) <= 2:
        s = np.linalg.svd(A.toarray(), compute_uv=False)
        return float(s[0]), float(s[1]) if s.size > 1 else 0.0
    v0 = np.random.default_rng(7).standard_normal(min(g.n1, g.n2))
    s = scipy.sparse.linalg.svds(
        A, k=2, v0=v0, return_singular_vectors=False, maxiter=50_000
    )
    return float(s.max()), float(s.min())


def _measure_certificate(g):
    sigma1, sigma2 = _top_two(g)
    s1_exact = math.sqrt(g.d1 * g.d2)
    bound = math.sqrt(g.d1 - 1) + math.sqrt(g.d2 - 1)
    tol = 1e-6 * sigma1
    is_ram = (
        abs(sigma1 - s1_exact) <= tol
        and sigma2 <= bound + tol
        and sigma2 <= sigma1 - tol
    )
    return SpectralCertificate(
        sigma1=sigma1,
        sigma2=sigma2,
        ramanujan_bound=bound,
        c0=2.0 * sigma2 / (math.sqrt(g.d1) + math.sqrt(g.d2)),
        is_ramanujan=is_ram,
    )


def certify(g):
    """Measure sigma1, sigma2 and the Ramanujan test for a biregular graph.

    The Ramanujan flag additionally requires a strict spectral gap
    (sigma2 below sigma1): a repeated top singular value means the top
    singular vectors are not the constant pair, e.g. for disconnected
    graphs, so the constant-vector assumption fails.

    The certificate is measured once, on the first call, and cached on the
    graph (``g.certificate``); later calls return the same frozen object.
    Like ``adjacency``, the cache assumes the graph's edges are not edited.
    """
    if not isinstance(g, BiregularGraph):
        raise ParameterError("certification requires a biregular graph")
    return g.certificate


# ---------------------------------------------------------------------------
# edge-list file format
# ---------------------------------------------------------------------------

_HEADER = "%%biregular"


def _edge_text(g):
    return "".join(map("{} {}\n".format, (g.rows + 1).tolist(), (g.cols + 1).tolist()))


def save_edges(g, path):
    """Write the edge list: header line, then 1-indexed sorted ``i j`` pairs."""
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} {g.n1} {g.n2} {g.d1} {g.d2}\n" + _edge_text(g))


def _parse_rows(lines, dtype, shape):
    """``lines`` parsed in one numpy pass, or None unless they parse cleanly.

    Rows are whitespace-separated fields of ``dtype``; blank lines are
    skipped, and a table whose shape is not ``shape`` (a ``None`` entry
    matches any length) counts as unclean.  Readers fall back to their
    line loop on None, which names the first bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty input only warns
            table = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=len(shape))
    except (ValueError, UserWarning):
        return None
    if any(want is not None and got != want for got, want in zip(table.shape, shape)):
        return None
    return table


def _edges_by_line(path, lines, n1, n2):
    edges = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'i j'")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-integer index") from exc
        if not (0 <= i < n1 and 0 <= j < n2):
            raise FormatError(f"{path}:{lineno}: index out of range")
        edges.append((i, j))
    return np.asarray(edges, dtype=np.int64)


def load_edges(path):
    """Read a graph written by ``save_edges``; validates degrees and dupes."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5 or header[0] != _HEADER:
            raise FormatError(f"bad header in {path}")
        try:
            n1, n2, d1, d2 = (int(x) for x in header[1:])
        except ValueError as exc:
            raise FormatError(f"non-integer header field in {path}") from exc
        lines = fh.read().split("\n")
    edges = _parse_rows(lines, np.int64, (None, 2))
    if edges is None or edges.min() < 1 or (edges.max(axis=0) > (n1, n2)).any():
        edges = _edges_by_line(path, lines, n1, n2)
    else:
        edges -= 1
    try:
        g = BiregularGraph(n1, n2, edges)
    except ParameterError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if g.d1 != d1 or g.d2 != d2:
        raise FormatError(
            f"{path}: degrees ({g.d1}, {g.d2}) do not match header ({d1}, {d2})"
        )
    return g


def save_matrixmarket_pattern(g, path):
    """Adjacency as MatrixMarket coordinate pattern (1-indexed)."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n"
                 f"{g.n1} {g.n2} {g.m}\n" + _edge_text(g))
