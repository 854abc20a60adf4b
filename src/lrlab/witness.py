"""Short exact sequences witnessing a single box move.

For tableaux one box move apart (entries u < v in rows r > s), the
five-tableau pole partition yields graded poles X, Z, X-tilde, Z-tilde.
The middle term Y glues X and Z along the cross generator
(a_X, T^{s-u} g_Z^s); the maps send the shortened block of X-tilde across
both summands and collapse the lengthened block of Z-tilde with a sign.
Exactness, homogeneity, subspace compatibility and both tableau
identities are re-verified on every construction.
"""

from __future__ import annotations

from . import linalg as la
from .boxmoves import BoxMove
from .errors import InvariantViolation
from .nilmod import (Embedding, block_offsets, direct_sum, graded_pole_embedding,
                     graded_pole_module, realize_tableau)
from .poles import box_move_pole_partition
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


def _block_index(t: LRTableau, length: int) -> int:
    for i, c in enumerate(t.columns):
        if c.length == length:
            return i
    raise InvariantViolation(f"no column of length {length} in {t}")


def witness_sequence(
    t_low: LRTableau, t_high: LRTableau, move: BoxMove, p: int
) -> WitnessSequence:
    """Build and verify the witness sequence for one box move.

    The common part of the pole partition is realized separately and
    direct-summed onto the sub and middle terms.
    """
    g1, g2, g3, g1t, g2t = box_move_pole_partition(t_low, t_high, move)
    u, v, r, s = move.u, move.v, move.r, move.s
    d = v - u

    Xt = graded_pole_embedding(g1t, p, shift=d)
    Zt = graded_pole_embedding(g2t, p)

    bx = [c.length for c in g1.columns]
    bz = [c.length for c in g2.columns]
    bxt = [c.length for c in g1t.columns]
    bzt = [c.length for c in g2t.columns]
    ox, oz = block_offsets(tuple(bx)), block_offsets(tuple(bz))
    oxt, ozt = block_offsets(tuple(bxt)), block_offsets(tuple(bzt))
    nx, nz = sum(bx), sum(bz)

    # middle term: the graded poles X (degree d) and Z (degree 0) on one
    # ambient, the generator of X with the cross term added
    Ymod, gens = graded_pole_module([g1.columns, g2.columns], p, [d, 0])
    gens[0][nx + oz[_block_index(g2, s)] + (s - u)] = 1
    Y = Embedding(Ymod, gens)

    # iota: the block of length s in Xt goes to g_X^r T^{r-s} + g_Z^s
    iota = [[0] * Xt.B.dim for _ in range(nx + nz)]
    ir = _block_index(g1, r)
    for bi, ell in enumerate(bxt):
        for j in range(ell):
            col = oxt[bi] + j
            if ell == s:
                iota[ox[ir] + j + (r - s)][col] = 1
                iota[nx + oz[_block_index(g2, s)] + j][col] = 1
            else:
                iota[ox[_block_index(g1, ell)] + j][col] = 1

    # pi: kill X except its length-r block (with a sign), embed Z
    pi = [[0] * (nx + nz) for _ in range(Zt.B.dim)]
    irt = _block_index(g2t, r)
    for bi, ell in enumerate(bx):
        if ell != r:
            continue
        for j in range(ell):
            pi[ozt[irt] + j][ox[bi] + j] = (-1) % p
    for bi, ell in enumerate(bz):
        for j in range(ell):
            col = nx + oz[bi] + j
            if ell == s:
                pi[ozt[irt] + j + (r - s)][col] = 1
            else:
                pi[ozt[_block_index(g2t, ell)] + j][col] = 1

    xt_full, y_full = Xt, Y
    if g3.columns:
        U = realize_tableau(g3, p)
        xt_full = direct_sum(Xt, U)
        y_full = direct_sum(Y, U)
        pad = [0] * U.B.dim
        iota = ([row + pad for row in iota]
                + [[0] * Xt.B.dim + list(e) for e in la.identity(U.B.dim)])
        pi = [row + pad for row in pi]

    ws = WitnessSequence(xt_full, y_full, Zt, iota, pi, move, t_low, t_high)
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
        raise InvariantViolation(f"witness verification failed: {failed}")
