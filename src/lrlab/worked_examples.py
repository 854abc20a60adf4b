"""Registry of worked examples with published expected values.

Each check recomputes one documented fact end to end and raises
AssertionError on mismatch; the ``paper-examples`` CLI subcommand runs
the registry and reports one line per check.
"""

from __future__ import annotations

from . import partitions as pt
from .boxmoves import box_leq, dom_to_box_chain, dom_to_box_step, hasse, move_between
from .nilmod import (Embedding, canonical_module, direct_sum, hom_dim,
                     invariant_intersection_dim, mu_entries, picket_embedding,
                     realize_picket, realize_pole, realize_tableau,
                     tableau_of_embedding)
from .oracle import enumerate_submodules, iso_fingerprint, s4_catalog
from .poles import (Picket, Pole, box_move_pole_partition, picket_tableau,
                    pole_decomposition, pole_of_tableau, pole_tableau,
                    split_off_pole, tableau_union)
from .tableaux import (Column, LRTableau, Shape, dominance_leq, enumerate_tableaux,
                       from_word, is_horizontal_strip, is_vertical_strip,
                       reading_word, validate)
from .witness import witness_sequence

RUNNING_SHAPE = Shape((3, 2), (4, 3, 3, 2, 1), (3, 2, 2, 1))
ALGORITHM_SHAPE = Shape((3, 2, 1), (6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1))
FIVE_CLASS_SHAPE = Shape((3, 1), (4, 3, 2, 1), (3, 2, 1))
TWO_CLASS_SHAPE = Shape((3, 1), (4, 3, 1), (3, 1))
EXT_DEG_SHAPE = Shape((4, 2), (6, 4, 2), (4, 2))


def _nine_column_pair():
    low = LRTableau(
        [Column(9, 8, (3,)), Column(9, 8, (4,)), Column(7, 6, (2,)),
         Column(5, 4, (3,)), Column(3, 2, (2,)), Column(1, 0, (1,)),
         Column(1, 0, (1,))]
    )
    high = LRTableau(
        [Column(9, 8, (3,)), Column(9, 8, (4,)), Column(7, 6, (3,)),
         Column(5, 4, (2,)), Column(3, 2, (2,)), Column(1, 0, (1,)),
         Column(1, 0, (1,))]
    )
    return low, high


def _small_move_pair():
    shape = Shape((2, 1), (5, 2, 1), (4, 1))
    return from_word(shape, (1, 2, 1)), from_word(shape, (2, 1, 1))


def check_transpose():
    assert pt.transpose((3, 2)) == (2, 2, 1)


def check_running_example_count():
    ts = enumerate_tableaux(RUNNING_SHAPE)
    assert len(ts) == 2, f"expected 2 fillings, got {len(ts)}"
    assert all(validate(t).ok for t in ts)


def check_running_example_chain():
    first = enumerate_tableaux(RUNNING_SHAPE)[0]
    want = ((3, 2, 2, 1), (3, 3, 2, 1, 1), (4, 3, 2, 2, 1), (4, 3, 3, 2, 1))
    assert first.chain == want, first.chain


def check_counts():
    for shape, n in ((FIVE_CLASS_SHAPE, 3), (EXT_DEG_SHAPE, 3), (TWO_CLASS_SHAPE, 2)):
        got = len(enumerate_tableaux(shape))
        assert got == n, f"{shape}: expected {n} tableaux, got {got}"


def check_strips():
    assert is_horizontal_strip(RUNNING_SHAPE.beta, RUNNING_SHAPE.gamma)
    assert not is_vertical_strip(RUNNING_SHAPE.beta, RUNNING_SHAPE.gamma)
    assert is_horizontal_strip(ALGORITHM_SHAPE.beta, ALGORITHM_SHAPE.gamma)
    assert is_vertical_strip(ALGORITHM_SHAPE.beta, ALGORITHM_SHAPE.gamma)


def check_dominance_not_box():
    t1, t2 = enumerate_tableaux(RUNNING_SHAPE)
    assert dominance_leq(t1, t2) and not dominance_leq(t2, t1)
    assert not box_leq(t1, t2) and not box_leq(t2, t1)


def check_box_figure():
    shape = Shape((3, 2), (5, 4, 3, 2, 1), (4, 3, 2, 1))
    low = from_word(shape, (2, 1, 3, 2, 1))
    high = from_word(shape, (3, 2, 2, 1, 1))
    assert box_leq(low, high)
    assert dominance_leq(low, high)


def check_word_algorithm():
    low = from_word(ALGORITHM_SHAPE, (1, 3, 2, 2, 1, 1))
    high = from_word(ALGORITHM_SHAPE, (2, 3, 2, 1, 1, 1))
    step3 = dom_to_box_step(low, high, pick_l=3)
    assert reading_word(step3) == (2, 3, 1, 2, 1, 1), reading_word(step3)
    step1 = dom_to_box_step(low, high, pick_l=1)
    assert step1 == low
    chain = dom_to_box_chain(low, high)
    assert len(chain) == 2


def check_five_class_hasse():
    ts = enumerate_tableaux(FIVE_CLASS_SHAPE)
    diagram = hasse(ts, "dom")
    assert sorted(diagram.edges) == [(0, 1), (1, 2)], diagram.edges


def check_picket_tableau():
    t = picket_tableau(Picket(5, 2))
    assert t.columns == (Column(5, 3, (1, 2)),)
    assert t.chain == ((3,), (4,), (5,))


def check_pole_tableau():
    t = pole_tableau(Pole((0, 2, 3, 6), (7, 4, 1)))
    assert t.chain == ((6, 2), (6, 2, 1), (6, 3, 1), (6, 4, 1), (7, 4, 1))


def check_picket_is_pole():
    for n in range(1, 6):
        for m in range(1, n + 1):
            pole = Pole(tuple(range(n - m, n)), (n,))
            assert pole_tableau(pole) == picket_tableau(Picket(n, m))


def check_pole_013():
    t = pole_tableau(Pole((0, 1, 3), (4, 2)))
    assert Column(4, 3, (3,)) in t.columns
    assert Column(2, 0, (1, 2)) in t.columns


def check_union_figure():
    low, _ = _nine_column_pair()
    g1 = LRTableau([Column(9, 8, (3,)), Column(7, 6, (2,)), Column(1, 0, (1,))])
    g2 = LRTableau([Column(9, 8, (4,)), Column(5, 4, (3,)), Column(3, 2, (2,)),
                    Column(1, 0, (1,))])
    assert tableau_union(g1, g2) == low


def check_union_pickets():
    u = tableau_union(
        tableau_union(picket_tableau(Picket(4, 3)), picket_tableau(Picket(3, 0))),
        picket_tableau(Picket(1, 1)),
    )
    assert u in enumerate_tableaux(TWO_CLASS_SHAPE)
    assert u.chain == ((3, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1))


def check_split_off():
    low, _ = _nine_column_pair()
    extracted, rest = split_off_pole(low)
    assert [(c.length, c.entries[0]) for c in extracted.columns] == \
        [(9, 4), (5, 3), (3, 2), (1, 1)]
    assert tableau_union(extracted, rest) == low


def check_decompositions():
    low, high = _nine_column_pair()
    assert sorted(ep.pole.layers for ep in pole_decomposition(low)) == \
        [(0, 2, 4, 8), (0, 6, 8)]
    # the greedy scan on the upper tableau crosses the moved columns, so it
    # produces a different (equally valid) splitting than the move-aware
    # partition checked in move-partition-large
    decomposition = pole_decomposition(high)
    assert sorted(ep.pole.layers for ep in decomposition) == \
        [(0, 2, 8), (0, 4, 6, 8)]
    merged = decomposition[0].tableau()
    for ep in decomposition[1:]:
        merged = tableau_union(merged, ep.tableau())
    assert merged == high


def check_pole_partition_figure():
    low, high = _nine_column_pair()
    move = move_between(low, high)
    g1, g2, g3, g1t, g2t = box_move_pole_partition(low, high, move)
    assert not g3.columns
    assert pole_of_tableau(g1).layers == (0, 6, 8)
    assert pole_of_tableau(g2).layers == (0, 2, 4, 8)
    assert pole_of_tableau(g1t).layers == (0, 4, 8)
    assert pole_of_tableau(g2t).layers == (0, 2, 6, 8)


def check_pole_partition_small():
    low, high = _small_move_pair()
    move = move_between(low, high)
    g1, g2, g3, g1t, g2t = box_move_pole_partition(low, high, move)
    assert [(c.length, c.entries) for c in g1.columns] == [(5, (1,))]
    assert [(c.length, c.entries[0]) for c in g2t.columns] == [(5, 2), (1, 1)]
    assert pole_of_tableau(g1).layers == (4,)
    assert pole_of_tableau(g2).layers == (0, 1)
    assert pole_of_tableau(g1t).layers == (1,)
    assert pole_of_tableau(g2t).layers == (0, 4)


def check_pole_quotient_table():
    want = ((6, 2), (6, 2, 1), (6, 3, 1), (6, 4, 1), (7, 4, 1))
    for p in (2, 3):
        E = realize_pole(Pole((0, 2, 3, 6), (7, 4, 1)), p)
        assert E.chain() == want, E.chain()
        assert tableau_of_embedding(E).chain == want


def check_mu_entries():
    E = realize_pole(Pole((0, 2, 3, 6), (7, 4, 1)), 2)
    assert mu_entries(E, 4, 7) == 1
    assert mu_entries(E, 2, 3) == 1
    assert mu_entries(E, 2, 4) == 0
    for ell in range(1, 5):
        for r in range(1, 8):
            assert mu_entries(E, ell, r) in (0, 1)


def check_graded_pole():
    pole = Pole((0, 2, 5), (6, 3, 1))
    E = realize_pole(pole, 2)
    assert E.B.grading == (-3, -2, -1, 0, 1, 2, -1, 0, 1, 0)
    gen = [0] * 10
    gen[3] = gen[7] = gen[9] = 1  # T^3 g6 + T g3 + g1
    assert E.contains(gen)
    assert tableau_of_embedding(E) == pole_tableau(pole)


def check_realization_is_picket_sum():
    cat = s4_catalog(2)
    u = tableau_union(
        tableau_union(picket_tableau(Picket(4, 3)), picket_tableau(Picket(3, 0))),
        picket_tableau(Picket(1, 1)),
    )
    E = realize_tableau(u, 2)
    M1 = direct_sum(realize_picket(4, 3, 2), realize_picket(3, 0, 2),
                    realize_picket(1, 1, 2))
    assert tableau_of_embedding(E) == tableau_of_embedding(M1) == u
    assert iso_fingerprint(E, cat) == iso_fingerprint(M1, cat)


def check_hom_min_rule():
    for ell in range(1, 5):
        for m in range(1, 5):
            E1 = Embedding(canonical_module((ell,), 2), [])
            E2 = Embedding(canonical_module((m,), 2), [])
            assert hom_dim(E1, E2) == min(ell, m)


def check_picket_hom_formula():
    E = realize_pole(Pole((0, 2, 3, 6), (7, 4, 1)), 2)
    chain = E.chain()
    for i in range(len(chain)):
        for ell in range(1, 8):
            got = hom_dim(E, picket_embedding(i, ell, 2))
            want = sum(min(x, ell) for x in chain[i])
            assert got == want, (i, ell, got, want)


def check_witness_examples():
    for low, high in (_nine_column_pair(), _small_move_pair()):
        move = move_between(low, high)
        for p in (2, 3):
            ws = witness_sequence(low, high, move, p)
            assert all(ws.report.values()), ws.report


def check_invariant_intersections():
    M12 = direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), 2),
                     realize_picket(3, 0, 2), realize_picket(2, 1, 2))
    M3 = direct_sum(realize_picket(4, 1, 2), realize_picket(3, 3, 2),
                    realize_picket(2, 0, 2), realize_picket(1, 0, 2))
    assert invariant_intersection_dim(M12, 2, 1) == 1
    assert invariant_intersection_dim(M3, 2, 1) == 2


def five_class_modules(p: int) -> dict[str, Embedding]:
    return {
        "M1": direct_sum(realize_picket(4, 3, p), realize_picket(3, 0, p),
                         realize_picket(2, 0, p), realize_picket(1, 1, p)),
        "M12": direct_sum(realize_pole(Pole((0, 2, 3), (4, 1)), p),
                          realize_picket(3, 0, p), realize_picket(2, 1, p)),
        "M2": direct_sum(_catalog_object(p, "X"), realize_picket(3, 0, p),
                         realize_picket(1, 0, p)),
        "M23": direct_sum(realize_pole(Pole((0, 1, 3), (4, 2)), p),
                          realize_picket(3, 1, p), realize_picket(1, 0, p)),
        "M3": direct_sum(realize_picket(4, 1, p), realize_picket(3, 3, p),
                         realize_picket(2, 0, p), realize_picket(1, 0, p)),
    }


def _catalog_object(p: int, name: str) -> Embedding:
    for n, E in s4_catalog(p):
        if n == name:
            return E
    raise KeyError(name)


def check_census_two_class():
    census = enumerate_submodules(TWO_CLASS_SHAPE, 2)
    assert len(census.classes) == 2
    for t in enumerate_tableaux(TWO_CLASS_SHAPE):
        assert len(census.classes_of(t)) == 1


def check_census_five_class():
    census = enumerate_submodules(FIVE_CLASS_SHAPE, 2)
    assert len(census.classes) == 5
    ts = enumerate_tableaux(FIVE_CLASS_SHAPE)
    counts = sorted(len(census.classes_of(t)) for t in ts)
    assert counts == [1, 2, 2], counts
    cat = s4_catalog(2)
    expected = {name: iso_fingerprint(E, cat)
                for name, E in five_class_modules(2).items()}
    found = {c.fingerprint for c in census.classes}
    assert found == set(expected.values()), "census classes differ from the five models"


def check_catalog_size():
    assert len(s4_catalog(2)) == 20


def check_ext_deg_census_slow():
    """Census of the three-tableau nilpotency-6 shape (needs the slow flag).

    Over F_2 the one-parameter family on the homogeneous tubes has no
    members, so exactly five classes remain: the dominance-largest
    tableau carries M1, M12 and M123, the middle one M23, the smallest M3.
    """
    from .oracle import picket_pole_catalog

    p = 2
    mods = ext_deg_modules(p)
    catalog = picket_pole_catalog(p, 6) + [(name, E) for name, E in mods.items()]
    census = enumerate_submodules(EXT_DEG_SHAPE, p, slow=True, catalog=catalog)
    ts = enumerate_tableaux(EXT_DEG_SHAPE)
    by_word = {reading_word(t): t for t in ts}
    g1 = by_word[max(by_word)]  # dominance-largest
    g3 = by_word[min(by_word)]
    g2 = next(t for w, t in by_word.items() if t not in (g1, g3))
    fp = {name: iso_fingerprint(E, catalog) for name, E in mods.items()}
    assert fp["M12"] != fp["M23"], "dual pair not distinguished"
    found = {c.fingerprint for c in census.classes}
    assert found == set(fp.values()), "census classes differ from the five models"
    assert len(census.classes) == 5
    assert sum(c.submodule_count for c in census.classes) == census.total_submodules
    for name, t in (("M1", g1), ("M12", g1), ("M123", g1), ("M23", g2), ("M3", g3)):
        assert tableau_of_embedding(mods[name]) == t, name
    assert len(census.classes_of(g1)) == 3
    assert len(census.classes_of(g2)) == 1
    assert len(census.classes_of(g3)) == 1


def ext_deg_modules(p: int) -> dict[str, Embedding]:
    """The five pictured embeddings of the nilpotency-6 example."""
    m12_mod = canonical_module((6, 4, 2), p)
    g6, g4, g2 = 0, 6, 10
    a1 = [0] * 12
    a1[g6 + 2] = 1  # T^2 x6
    a1[g2 + 0] = 1  # y2
    a2 = [0] * 12
    a2[g2 + 1] = 1  # T y2
    a2[g4 + 2] = 1  # T^2 z4
    M12 = Embedding(m12_mod, [a1, a2])

    m23_mod = canonical_module((6, 4, 2), p)
    b1 = [0] * 12
    b1[g4 + 1] = 1  # T x4
    b1[g6 + 2] = 1  # T^2 y6
    b1[g2 + 0] = 1  # z2
    b2 = [0] * 12
    b2[g4 + 2] = 1  # T^2 x4
    M23 = Embedding(m23_mod, [b1, b2])

    return {
        "M1": direct_sum(realize_picket(6, 4, p), realize_picket(4, 0, p),
                         realize_picket(2, 2, p)),
        "M123": direct_sum(realize_pole(Pole((0, 1, 4, 5), (6, 2)), p),
                           realize_picket(4, 2, p)),
        "M12": M12,
        "M23": M23,
        "M3": direct_sum(realize_picket(6, 2, p), realize_picket(4, 4, p),
                         realize_picket(2, 0, p)),
    }


REGISTRY = [
    ("partition-transpose", check_transpose),
    ("two-fillings", check_running_example_count),
    ("first-filling-chain", check_running_example_chain),
    ("tableau-counts", check_counts),
    ("strip-predicates", check_strips),
    ("dominance-without-box", check_dominance_not_box),
    ("box-order-figure", check_box_figure),
    ("word-rewriting-steps", check_word_algorithm),
    ("three-tableau-chain", check_five_class_hasse),
    ("picket-tableau", check_picket_tableau),
    ("pole-tableau", check_pole_tableau),
    ("picket-as-pole", check_picket_is_pole),
    ("pole-013-rows", check_pole_013),
    ("union-figure", check_union_figure),
    ("union-of-pickets", check_union_pickets),
    ("split-off-pole", check_split_off),
    ("pole-decompositions", check_decompositions),
    ("move-partition-large", check_pole_partition_figure),
    ("move-partition-small", check_pole_partition_small),
    ("pole-quotient-table", check_pole_quotient_table),
    ("entry-count-formula", check_mu_entries),
    ("graded-pole", check_graded_pole),
    ("realized-picket-sum", check_realization_is_picket_sum),
    ("hom-min-rule", check_hom_min_rule),
    ("picket-hom-formula", check_picket_hom_formula),
    ("witness-sequences", check_witness_examples),
    ("invariant-intersections", check_invariant_intersections),
    ("census-two-class", check_census_two_class),
    ("census-five-class", check_census_five_class),
    ("catalog-of-twenty", check_catalog_size),
]

SLOW_REGISTRY = [
    ("census-nilpotency-six", check_ext_deg_census_slow),
]


def run_registry(slow: bool = False):
    """Run all checks; returns (results, ok) with one (name, ok, msg) each."""
    results = []
    ok_all = True
    checks = REGISTRY + (SLOW_REGISTRY if slow else [])
    for name, fn in checks:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the runner
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
            ok_all = False
    return results, ok_all
