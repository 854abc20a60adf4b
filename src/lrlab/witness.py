"""Short exact sequences witnessing a single box move.

For tableaux one box move apart (entries u < v in rows r > s), the
five-tableau pole partition yields graded poles X, Z, X-tilde, Z-tilde.
The middle term Y glues X and Z along the cross generator
(a_X, T^{s-u} g_Z^s); the maps send the shortened block of X-tilde across
both summands and collapse the lengthened block of Z-tilde with a sign.
A k[T]-map out of a graded pole module is fixed by where it sends the
generator of each Jordan block, so iota and pi are stated as those
images, each a list of (position, coefficient) terms, and T^j of an
image is column j of its block; blocks are found by column length.
The common part G3 rides along in the sub and middle terms: each term
is one graded pole module, G3's pieces after the others.
Exactness, homogeneity, subspace compatibility and both tableau
identities are re-verified on every construction; a failure lists the
checks that failed and ends in the ``lrlab witness`` command that
reproduces it, as does a failed check of the pole partition.  The end
tableau is that of X-tilde + Z-tilde, whose chain is the stagewise
union of the summands' chains (``chain_union``), so no direct sum is
built to read it.
The construction reads the partition's column tuples
(``pole_partition_columns``) and builds no tableau.  In Jordan
coordinates T is a shift, so the commutation checks take T M and M T as
gathers of rows and columns of M (``_t_times``, ``_times_t``) instead of
products with the action matrices.  The subspace checks read each term's
echelon form in layer order (``Embedding.map_image``,
``Embedding.contains``), so a verified op derives no block-order span.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

from . import linalg as la
from .boxmoves import BoxMove, reproducer
from .errors import InvariantViolation
from .nilmod import Embedding, block_offsets, graded_pole_module
from .poles import chain_union, pole_partition_columns, pole_pieces
from .tableaux import LRTableau


class WitnessSequence:
    """0 -> Xt -> Y -> Zt -> 0 with its maps and verification report."""

    def __init__(self, xt: Embedding, y: Embedding, zt: Embedding,
                 iota: list[list[int]], pi: list[list[int]], move: BoxMove,
                 tableau_low: LRTableau, tableau_high: LRTableau):
        self.xt = xt
        self.y = y
        self.zt = zt
        self.iota = iota
        self.pi = pi
        self.move = move
        self.tableau_low = tableau_low
        self.tableau_high = tableau_high
        self.report: dict = {}

    def to_json(self) -> dict:
        return {
            "move": {"u": self.move.u, "v": self.move.v,
                     "r": self.move.r, "s": self.move.s},
            "Xt": self.xt.to_json(),
            "Y": self.y.to_json(),
            "Zt": self.zt.to_json(),
            "iota": [list(row) for row in self.iota],
            "pi": [list(row) for row in self.pi],
            "tableau_low": self.tableau_low.to_json(),
            "tableau_high": self.tableau_high.to_json(),
            "report": self.report,
        }


def _offsets(cols, start: int) -> dict[int, int]:
    """The offset of each block of a pole piece with columns ``cols``
    whose blocks start at ``start``, by column length: the lengths of g1,
    g2 and g2t are distinct by property (1)."""
    lengths = [c.length for c in cols]
    at = dict(zip(lengths, accumulate(lengths, initial=start)))
    if len(at) < len(lengths):
        raise InvariantViolation(f"column lengths repeat in the pole piece {cols}")
    return at


def _map(images, sizes, n: int) -> list[list[int]]:
    """The n-row matrix of the k[T]-map sending the generator of the i-th
    source block, of size ``sizes[i]``, to ``images[i]``, a list of
    (target position, coefficient) terms: column j of the block is T^j of
    the image, each term j places further down its target block."""
    rows = [[0] * sum(sizes) for _ in range(n)]
    col = 0
    for terms, b in zip(images, sizes):
        for pos, c in terms:
            for j in range(b):
                rows[pos + j][col + j] = c
        col += b
    return rows


def witness_sequence(
    t_low: LRTableau, t_high: LRTableau, move: BoxMove, p: int
) -> WitnessSequence:
    """Build and verify the witness sequence for one box move.

    Each term is one graded pole module.  The common part g3 of the pole
    partition is a horizontal strip (property (2)), which ``pole_pieces``
    cuts into poles and blank columns.  Its pieces follow those of
    X-tilde in the sub term and those of X and Z in the middle term, in
    degree 0: a graded pole sum of concatenated pieces is the direct sum
    of the pieces' sums, so this sums g3's realization onto both terms,
    and iota is the identity on it.  A check that fails before the
    verification raises with the same reproducing command.
    """
    try:
        ws = _sequence(t_low, t_high, move, p)
    except InvariantViolation as exc:
        raise InvariantViolation(f"{exc}{_reproduce(t_low, t_high, move, p)}") from exc
    _verify(ws)
    return ws


def _sequence(t_low: LRTableau, t_high: LRTableau, move: BoxMove,
              p: int) -> WitnessSequence:
    """The witness sequence of ``witness_sequence``, not yet verified."""
    g1, g2, g3, g1t, g2t = pole_partition_columns(t_low, t_high, move)
    u, v, r, s = move.u, move.v, move.r, move.s
    d = v - u
    x_at, zt_at = _offsets(g1, 0), _offsets(g2t, 0)
    z_at = _offsets(g2, sum(c.length for c in g1))

    common = pole_pieces(g3)
    Xt = Embedding(*graded_pole_module([g1t, *common], p, [d] + [0] * len(common)))
    Zt = Embedding(*graded_pole_module([g2t], p, [0]))

    # middle term: the graded poles X (degree d) and Z (degree 0) and the
    # common part on one ambient, the generator of X with the cross term
    # T^{s-u} g_Z^s added
    Ymod, gens = graded_pole_module([g1, g2, *common], p, [d, 0] + [0] * len(common))
    cross = list(gens[0])
    cross[z_at[s] + s - u] = 1
    gens[0] = tuple(cross)
    Y = Embedding(Ymod, gens)

    # iota: g^s of Xt goes to T^{r-s} g_X^r + g_Z^s, every other block of
    # g1t to X's block of its length, and the common part to itself
    iota = [[(x_at[r] + r - s, 1), (z_at[s], 1)] if c.length == s
            else [(x_at[c.length], 1)] for c in g1t]
    common_at = block_offsets(Xt.B.sizes)[len(g1t):]
    iota += [[(o + Ymod.dim - Xt.B.dim, 1)] for o in common_at]
    # pi: kill X except its block of length r (with a sign), g_Z^s to
    # T^{r-s} g_Zt^r, every other block of Z to Zt's block of its length,
    # and kill the common part
    pi = ([[(zt_at[r], (-1) % p)] if c.length == r else [] for c in g1]
          + [[(zt_at[r] + r - s, 1)] if c.length == s else [(zt_at[c.length], 1)]
             for c in g2]
          + [[]] * len(common_at))

    return WitnessSequence(Xt, Y, Zt, _map(iota, Xt.B.sizes, Ymod.dim),
                           _map(pi, Ymod.sizes, Zt.B.dim), move, t_low, t_high)


def _reproduce(t_low: LRTableau, t_high: LRTableau, move: BoxMove, p: int) -> str:
    """The tail of a failure message: the ``lrlab witness`` command that
    runs the construction for this move again."""
    return reproducer("witness", t_low, t_high, f" --move {move.u},{move.v} -p {p}")


def _t_times(M, sizes) -> la.Rows:
    """T M for T the action on Jordan blocks ``sizes`` (M has sum(sizes)
    rows): T moves each coordinate one place on in its block, so row j of
    T M is row j - 1 of M, and a zero row at each block start."""
    zero = (0,) * (len(M[0]) if M else 0)
    out = []
    for o, b in zip(block_offsets(sizes), sizes):
        out.append(zero)
        out += map(tuple, M[o:o + b - 1])
    return tuple(out)


def _times_t(M, sizes) -> la.Rows:
    """M T for T as in ``_t_times`` (M has sum(sizes) columns): column k
    of M T is column k + 1 of M inside a block, and 0 at a block's last
    column."""
    n = sum(sizes)
    ends = {o + b - 1 for o, b in zip(block_offsets(sizes), sizes)}
    if n <= 1:  # an itemgetter of one index returns an entry, not a tuple
        return tuple((0,) * n for _ in M)
    pick = itemgetter(*[n if k in ends else k + 1 for k in range(n)])
    return tuple([pick((*row, 0)) for row in M])


def _degree_zero(mat, gto, gfrom) -> bool:
    return all(gto[i] == gfrom[j]
               for i, row in enumerate(mat) for j, x in enumerate(row) if x)


def _verify(ws: WitnessSequence) -> None:
    p = ws.y.p
    xt, y, zt = ws.xt, ws.y, ws.zt
    iota, pi = ([[x % p for x in row] for row in m] for m in (ws.iota, ws.pi))
    checks = ws.report

    checks["dimension_split"] = y.B.dim == xt.B.dim + zt.B.dim
    checks["iota_injective"] = la.rank(iota, p) == xt.B.dim
    checks["pi_surjective"] = la.rank(pi, p) == zt.B.dim
    # the maps are sparse, and products skip zeros
    checks["composition_zero"] = not any(map(any, la.mul(pi, iota, p)))
    checks["iota_commutes"] = _times_t(iota, xt.B.sizes) == _t_times(iota, y.B.sizes)
    checks["pi_commutes"] = _times_t(pi, y.B.sizes) == _t_times(pi, zt.B.sizes)
    checks["iota_degree_zero"] = _degree_zero(iota, y.B.grading, xt.B.grading)
    checks["pi_degree_zero"] = _degree_zero(pi, zt.B.grading, y.B.grading)

    checks["iota_maps_subspace"] = all(y.contains(row) for row in xt.map_image(iota))
    # pi(A_Y) inside A_Zt and of its dimension is all of A_Zt
    pushed = y.map_image(pi)
    checks["pi_onto_subspace"] = (len(pushed) == zt.dim_sub()
                                  and all(zt.contains(row) for row in pushed))
    checks["subspace_dimension_split"] = (
        y.dim_sub() == xt.dim_sub() + zt.dim_sub()
    )
    checks["middle_tableau"] = y.chain() == ws.tableau_low.chain
    checks["end_tableau"] = chain_union(xt.chain(), zt.chain()) == ws.tableau_high.chain

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise InvariantViolation(f"witness verification failed: {failed}"
                                 + _reproduce(ws.tableau_low, ws.tableau_high, ws.move, p))
