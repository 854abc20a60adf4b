"""The witness maps as ``lrlab.witness`` built them before they were given
by the images of block generators: iota and pi filled entry by entry, in
loops over the block offsets of each pole piece, each block found by a
linear scan of its piece's column lengths (``_block_index``).  Kept only
so tests can require the same maps and middle term from both.
"""

from __future__ import annotations

from lrlab import linalg as la
from lrlab.errors import InvariantViolation
from lrlab.nilmod import Embedding, block_offsets, graded_pole_module
from lrlab.poles import box_move_pole_partition, pole_pieces


def _block_index(t, length):
    for i, c in enumerate(t.columns):
        if c.length == length:
            return i
    raise InvariantViolation(f"no column of length {length} in {t}")


def witness_maps(t_low, t_high, move, p):
    """(iota, pi, Y) of the witness sequence of one box move, unverified."""
    g1, g2, g3, g1t, g2t = box_move_pole_partition(t_low, t_high, move)
    u, v, r, s = move.u, move.v, move.r, move.s
    d = v - u

    common = pole_pieces(g3.columns)
    Xt = Embedding(*graded_pole_module([g1t.columns, *common], p, [d] + [0] * len(common)))
    Zt = Embedding(*graded_pole_module([g2t.columns], p, [0]))

    bx = [c.length for c in g1.columns]
    bz = [c.length for c in g2.columns]
    bxt = [c.length for c in g1t.columns]
    bzt = [c.length for c in g2t.columns]
    ox, oz = block_offsets(tuple(bx)), block_offsets(tuple(bz))
    oxt, ozt = block_offsets(tuple(bxt)), block_offsets(tuple(bzt))
    nx, nz, nxt = sum(bx), sum(bz), sum(bxt)
    nc = Xt.B.dim - nxt  # the common part

    Ymod, gens = graded_pole_module([g1.columns, g2.columns, *common], p,
                                    [d, 0] + [0] * len(common))
    cross = list(gens[0])
    cross[nx + oz[_block_index(g2, s)] + (s - u)] = 1
    gens[0] = tuple(cross)
    Y = Embedding(Ymod, gens)

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
    iota += [[0] * nxt + list(e) for e in la.identity(nc)]

    pi = [[0] * (nx + nz + nc) for _ in range(Zt.B.dim)]
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
    return iota, pi, Y
