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
reproduces it.
"""

from __future__ import annotations

import json
from itertools import accumulate

from . import linalg as la
from .boxmoves import BoxMove
from .errors import InvariantViolation
from .nilmod import Embedding, block_offsets, direct_sum, graded_pole_module
from .poles import box_move_pole_partition, pole_pieces
from .tableaux import LRTableau, reading_word


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


def _offsets(t: LRTableau, start: int) -> dict[int, int]:
    """The offset of each block of a pole piece whose blocks start at
    ``start``, by column length: the lengths of g1, g2 and g2t are
    distinct by property (1)."""
    lengths = [c.length for c in t.columns]
    at = dict(zip(lengths, accumulate(lengths, initial=start)))
    if len(at) < len(lengths):
        raise InvariantViolation(f"column lengths repeat in the pole piece {t}")
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
    and iota is the identity on it.
    """
    g1, g2, g3, g1t, g2t = box_move_pole_partition(t_low, t_high, move)
    u, v, r, s = move.u, move.v, move.r, move.s
    d = v - u
    x_at, zt_at = _offsets(g1, 0), _offsets(g2t, 0)
    z_at = _offsets(g2, sum(c.length for c in g1.columns))

    common = pole_pieces(g3.columns)
    Xt = Embedding(*graded_pole_module([g1t.columns, *common], p, [d] + [0] * len(common)))
    Zt = Embedding(*graded_pole_module([g2t.columns], p, [0]))

    # middle term: the graded poles X (degree d) and Z (degree 0) and the
    # common part on one ambient, the generator of X with the cross term
    # T^{s-u} g_Z^s added
    Ymod, gens = graded_pole_module([g1.columns, g2.columns, *common], p,
                                    [d, 0] + [0] * len(common))
    cross = list(gens[0])
    cross[z_at[s] + s - u] = 1
    gens[0] = tuple(cross)
    Y = Embedding(Ymod, gens)

    # iota: g^s of Xt goes to T^{r-s} g_X^r + g_Z^s, every other block of
    # g1t to X's block of its length, and the common part to itself
    iota = [[(x_at[r] + r - s, 1), (z_at[s], 1)] if c.length == s
            else [(x_at[c.length], 1)] for c in g1t.columns]
    common_at = block_offsets(Xt.B.sizes)[len(g1t.columns):]
    iota += [[(o + Ymod.dim - Xt.B.dim, 1)] for o in common_at]
    # pi: kill X except its block of length r (with a sign), g_Z^s to
    # T^{r-s} g_Zt^r, every other block of Z to Zt's block of its length,
    # and kill the common part
    pi = ([[(zt_at[r], (-1) % p)] if c.length == r else [] for c in g1.columns]
          + [[(zt_at[r] + r - s, 1)] if c.length == s else [(zt_at[c.length], 1)]
             for c in g2.columns]
          + [[]] * len(common_at))

    ws = WitnessSequence(Xt, Y, Zt, _map(iota, Xt.B.sizes, Ymod.dim),
                         _map(pi, Ymod.sizes, Zt.B.dim), move, t_low, t_high)
    _verify(ws)
    return ws


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
    # the maps, shifts and 0/1 actions are sparse, and products skip zeros
    checks["composition_zero"] = not any(map(any, la.mul(pi, iota, p)))
    checks["iota_commutes"] = (la.mul(iota, xt.B.action, p)
                               == la.mul(y.B.action, iota, p))
    checks["pi_commutes"] = la.mul(pi, y.B.action, p) == la.mul(zt.B.action, pi, p)
    checks["iota_degree_zero"] = _degree_zero(iota, y.B.grading, xt.B.grading)
    checks["pi_degree_zero"] = _degree_zero(pi, zt.B.grading, y.B.grading)

    image_sub = la.row_space(la.mul(xt.span, list(zip(*iota)), p), p)
    checks["iota_maps_subspace"] = all(y.contains(row) for row in image_sub)
    pushed = la.row_space(la.mul(y.span, list(zip(*pi)), p), p)
    checks["pi_onto_subspace"] = pushed == zt.span
    checks["subspace_dimension_split"] = (
        y.dim_sub() == xt.dim_sub() + zt.dim_sub()
    )
    checks["middle_tableau"] = y.chain() == ws.tableau_low.chain
    checks["end_tableau"] = direct_sum(xt, zt).chain() == ws.tableau_high.chain

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        low, high = (",".join(map(str, reading_word(t)))
                     for t in (ws.tableau_low, ws.tableau_high))
        shape = json.dumps(ws.tableau_low.shape.to_json(), separators=(",", ":"))
        raise InvariantViolation(
            f"witness verification failed: {failed}; reproduce with: lrlab witness"
            f" '{shape}' --from {low} --to {high} --move {ws.move.u},{ws.move.v} -p {p}")
