import pytest
from hypothesis import given, strategies as st

from biserial.families import (_letter_chain, build_lambda, build_lambda1prime,
                               certify_tower, family_from_spec, lambda_vertices)
from biserial.presentation import (ALPHA, Arrow, BETA, ParseError,
                                   Presentation, PresentationError, Quiver,
                                   Relation, emit_presentation, logical_lines,
                                   parse_presentation)
from oracles import structurally_equal


def test_minimal_file():
    pres = parse_presentation("algebra A\nvertex x\n")
    assert pres.name == "A"
    assert pres.quiver.vertices == ("x",)
    assert not pres.quiver.arrows


def test_comments_and_blank_lines():
    text = "# header\nalgebra A\n\nvertex x  # trailing\n"
    assert parse_presentation(text).quiver.vertices == ("x",)


def test_round_trip_lambda_0():
    pres = build_lambda(1, 0)
    again = parse_presentation(emit_presentation(pres))
    assert structurally_equal(again, pres)


def test_round_trip_lambda1prime():
    pres = build_lambda1prime(2)
    again = parse_presentation(emit_presentation(pres))
    assert structurally_equal(again, pres)


def test_emission_deterministic():
    a = emit_presentation(build_lambda(2, 3))
    b = emit_presentation(build_lambda(2, 3))
    assert a == b
    lines = a.splitlines()
    vertices = [l.split()[1] for l in lines if l.startswith("vertex")]
    assert vertices == sorted(vertices)
    arrows = [l.split()[1] for l in lines if l.startswith("arrow")]
    assert arrows == sorted(arrows)


def test_unknown_arrow_in_relation_names_it():
    text = "algebra A\nvertex x\nrel zero ghost\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert "ghost" in str(exc.value)
    assert "line 3" in str(exc.value)


def test_syntax_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_presentation("algebra A\nvertexx y\n")
    assert "line 2" in str(exc.value)


def test_unknown_directive_names_its_line_and_column_past_comment_lines():
    text = "# header\n\nalgebra A\n   vertexx y  # typo\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == "line 4, column 4: unknown directive 'vertexx'"
    assert (exc.value.line, exc.value.column) == (4, 4)


def test_logical_lines_cut_comments_and_skip_lines_left_empty():
    text = "# only a comment\n\n a b # c\n\t\nd#e\n#\n"
    assert list(logical_lines(text)) == [(3, " a b # c", ["a", "b"]),
                                         (5, "d#e", ["d"])]


def test_arrow_with_unknown_vertex():
    text = "algebra A\nvertex x\narrow f : alpha x -> y\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert "y" in str(exc.value)


def test_non_composable_relation_rejected():
    text = ("algebra A\nvertex x\nvertex y\nvertex z\n"
            "arrow f : alpha x -> y\narrow g : beta z -> x\n"
            "rel zero f g\n")
    # File order means f applied last: g then f, composable (z->x->y): fine.
    parse_presentation(text)
    bad = ("algebra A\nvertex x\nvertex y\nvertex z\n"
           "arrow f : alpha x -> y\narrow g : beta z -> x\n"
           "rel zero g f\n")
    with pytest.raises(ParseError) as exc:
        parse_presentation(bad)
    assert "non-composable" in str(exc.value)


def test_equality_needs_parallel_paths():
    text = ("algebra A\nvertex x\nvertex y\nvertex z\n"
            "arrow f : alpha x -> y\narrow g : beta x -> z\n"
            "rel eq f = g\n")
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert "parallel" in str(exc.value)


def test_repeated_vertex_rejected_at_its_line():
    # A second vertex line for x would be merged with the first silently.
    text = "algebra A\nvertex x\nvertex y\n# again\nvertex x\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == "line 5: repeated vertex 'x'"


def test_duplicate_arrow_names_rejected():
    with pytest.raises(PresentationError):
        Quiver(["x", "y"], [Arrow("f", "x", "y", ALPHA),
                            Arrow("f", "y", "x", BETA)])


@st.composite
def presentations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    verts = [f"x{i}" for i in range(n)]
    n_arrows = draw(st.integers(min_value=0, max_value=5))
    arrows = []
    for k in range(n_arrows):
        src = draw(st.sampled_from(verts))
        tgt = draw(st.sampled_from(verts))
        letter = draw(st.sampled_from([ALPHA, BETA]))
        arrows.append(Arrow(f"f{k}", src, tgt, letter))
    quiver = Quiver(verts, arrows)
    relations = []
    for a in arrows:
        nexts = quiver.arrows_from(a.target)
        if nexts and draw(st.booleans()):
            b = draw(st.sampled_from(nexts))
            relations.append(Relation("zero", (a.name, b.name)))
    return Presentation("H", quiver, relations)


@given(presentations())
def test_round_trip_generated(pres):
    assert structurally_equal(parse_presentation(emit_presentation(pres)), pres)


# -- family generators --------------------------------------------------------


def test_lambda_1_0_vertex_count():
    # Hand count: a0, b0, c0, bm1, cm1, u, v, w, d0, d1.
    pres = build_lambda(1, 0)
    assert len(pres.quiver.vertices) == 10
    assert set(pres.quiver.vertices) == {
        "a0", "b0", "c0", "bm1", "cm1", "u", "v", "w", "d0", "d1"}


def test_lambda_2_1_vertex_count():
    # 10 base + (a1,b1,c1) + (a2,b2,c2)
    assert len(build_lambda(1, 2).quiver.vertices) == 16


def test_lambda1prime_vertex_set():
    lp = build_lambda1prime(1)
    l2 = build_lambda(1, 2)
    assert set(lp.quiver.vertices) == set(l2.quiver.vertices) - {"a2", "b2"}
    assert "c2" in lp.quiver.vertices
    # Hand count: 16 - 2.  (One worked example elsewhere quotes 13, but the
    # level-2 algebra has 16 vertices, so deleting two leaves 14.)
    assert len(lp.quiver.vertices) == 14


def test_lambda_rejects_bad_parameters():
    with pytest.raises(PresentationError):
        build_lambda(0, 1)
    with pytest.raises(PresentationError):
        build_lambda(-2, 1)
    with pytest.raises(PresentationError):
        build_lambda(1, -1)


def test_full_subquiver_chain():
    # Each level is the next one with the new vertices deleted: the same
    # arrows and relations.
    for m in range(0, 5):
        small = build_lambda(2, m)
        big = build_lambda(2, m + 1)
        kept = big.delete_vertices(set(big.quiver.vertices) - set(small.quiver.vertices),
                                   small.name)
        assert kept.quiver.arrows == small.quiver.arrows
        assert kept.relations == small.relations


def test_full_subquiver_compares_relations():
    # A tower with one relation of level 1 dropped, or with one relation
    # among level 1's arrows added, does not restrict to level 1.
    small, big = build_lambda(2, 1), build_lambda(2, 2)
    dropped = Presentation(big.name, big.quiver,
                           [r for r in big.relations if r != small.relations[0]])
    added = Presentation(big.name, big.quiver,
                         [*big.relations, Relation("zero", ("al_c1_a0",), ())])
    certify_tower(2, 1, big)
    for tower in (dropped, added):
        with pytest.raises(RuntimeError, match="is not lambda_r2_m2 restricted"):
            certify_tower(2, 1, tower)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_every_level_is_certified_in_its_tower(r):
    # Each lambda(r, m) is lambda(r, m_max + 1) restricted to its vertices,
    # and no arrow of the tower leaves it.
    for m_max in range(9):
        certify_tower(r, m_max, build_lambda(r, m_max + 1))


def test_special_biserial_all_generated():
    for r in (1, 2, 3):
        for m in range(0, 6):
            assert build_lambda(r, m).quiver.is_special_biserial()
        assert build_lambda1prime(r).quiver.is_special_biserial()


def test_at_most_one_alpha_leaves_each_vertex():
    pres = build_lambda(3, 5)
    for v in pres.quiver.vertices:
        outs = [a for a in pres.quiver.arrows_from(v) if a.letter == ALPHA]
        assert len(outs) <= 1


def test_subquiver_U():
    # The ten c2-strings of Lemma 2 live on the path U.
    u = ["d0", "a1", "a0", "c1", "c2", "b1"]
    lp = build_lambda1prime(1)
    assert set(u) <= set(lp.quiver.vertices)
    # The full subquiver on U is a path: every vertex has degree <= 2 and
    # there are exactly five connecting arrows.
    inside = [a for a in lp.quiver.arrows.values()
              if a.source in u and a.target in u]
    assert len(inside) == 5
    degree = {v: 0 for v in u}
    for a in inside:
        degree[a.source] += 1
        degree[a.target] += 1
    assert sorted(degree.values()) == [1, 1, 2, 2, 2, 2]


def test_amalgam_relations_pair_the_shortest_letter_powers():
    # Against a search over every pair (i, j) of alpha and beta chain steps
    # at each vertex for the least one that meets away from the vertex.
    for r in (1, 2, 3):
        for m in range(25):
            pres = build_lambda(r, m)
            expected = []
            for v in pres.quiver.vertices:
                alphas = _letter_chain(pres.quiver, v, ALPHA)
                betas = _letter_chain(pres.quiver, v, BETA)
                pairs = [(i, j) for i in range(1, len(alphas) + 1)
                         for j in range(1, len(betas) + 1)
                         if alphas[i - 1].target == betas[j - 1].target != v]
                if pairs:
                    i, j = min(pairs)
                    expected.append(Relation("eq", tuple(a.name for a in alphas[:i]),
                                             tuple(b.name for b in betas[:j])))
            assert [rel for rel in pres.relations if rel.kind == "eq"] == sorted(expected)


def test_lambda1prime_keeps_full_chain():
    lp = build_lambda1prime(3)
    assert {"d0", "d1", "d2", "d3"} <= set(lp.quiver.vertices)


def test_family_from_spec():
    pres = family_from_spec("lambda:r=1,m=3")
    assert pres.name == "lambda_r1_m3"
    assert family_from_spec("lambda1prime:r=2").name == "lambda1prime_r2"
    for spec, message in [
            ("lambda:r=1", "family 'lambda' needs parameter 'm'"),
            ("lambda", "family 'lambda' needs parameters 'r', 'm'"),
            ("nosuch:r=1", "unknown family 'nosuch'"),
            ("lambda:r=1,r=2,m=3", "family parameter 'r' given twice"),
            ("lambda1prime:r=1,m=3", "family 'lambda1prime' takes no parameter 'm'"),
            ("lambda:r=2,m=3,q=4", "family 'lambda' takes no parameter 'q'"),
            ("lambda:r=1,q=2,x=3",
             "family 'lambda' takes no parameters 'q', 'x' and needs parameter 'm'"),
            ("lambda:r=one,m=3", "bad family parameter 'r=one'")]:
        with pytest.raises(PresentationError) as exc:
            family_from_spec(spec)
        assert str(exc.value) == message


def test_lambda_vertices_helper_matches_generator():
    for r, m in [(1, 0), (2, 3), (3, 5)]:
        assert tuple(sorted(lambda_vertices(r, m))) == \
            build_lambda(r, m).quiver.vertices
