import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from biserial.families import build_lambda, build_lambda1prime
from biserial.pathbasis import BoundExceeded, PathBasis
from biserial.presentation import parse_presentation
from oracles import spot_check_associativity


def test_single_vertex_dimension_one():
    basis = PathBasis(parse_presentation("algebra A\nvertex x\n"))
    assert basis.dim == 1
    assert basis.dim_projective("x") == 1


def test_single_loop_square_zero():
    text = ("algebra L\nvertex x\narrow l : alpha x -> x\n"
            "rel zero l l\n")
    basis = PathBasis(parse_presentation(text))
    assert basis.dim == 2  # e and l


def test_unbounded_loop_raises():
    text = "algebra L\nvertex x\narrow l : alpha x -> x\n"
    with pytest.raises(BoundExceeded) as exc:
        PathBasis(parse_presentation(text), length_bound=8)
    assert exc.value.path == ("l",) * 8  # the surviving path is reported


def test_projective_c1_dimension_six():
    basis = PathBasis(build_lambda(1, 5))
    assert basis.dim_projective("c1") == 6


def test_appendix_projective_dimensions_lambda5():
    expected = {"u": 2, "v": 2, "w": 2, "bm1": 2, "cm1": 2,
                "d0": 2, "d1": 1,
                "a0": 4, "b0": 3, "c0": 3,
                "a1": 4, "b1": 5, "c1": 6,
                "a2": 5, "b2": 4, "c2": 5,
                "a3": 5, "b3": 4, "a4": 4, "b4": 5, "a5": 4, "b5": 4}
    basis = PathBasis(build_lambda(1, 5))
    for v, dim in expected.items():
        assert basis.dim_projective(v) == dim, v


def test_algebra_dim_is_sum_of_projectives():
    for pres in (build_lambda(1, 2), build_lambda(2, 4), build_lambda1prime(1)):
        basis = PathBasis(pres)
        assert basis.dim == sum(basis.dim_projective(v)
                                for v in pres.quiver.vertices)


def test_factor_chain_path_dimensions_agree():
    # Paths out of low-level vertices never climb, so the levelwise bases
    # agree on shared vertex pairs.
    small = PathBasis(build_lambda(2, 2))
    big = PathBasis(build_lambda(2, 3))
    for pair, ids in small.by_pair.items():
        assert len(big.by_pair.get(pair, [])) == len(ids)
    for pair, ids in big.by_pair.items():
        if all(v in small.pres.quiver.vertices for v in pair):
            assert len(small.by_pair.get(pair, [])) == len(ids)


def test_associativity_spot_checks():
    rng = random.Random(20240)
    for pres in (build_lambda(1, 3), build_lambda1prime(2), build_lambda(3, 5)):
        basis = PathBasis(pres)
        assert spot_check_associativity(basis, rng)


def test_amalgam_identification():
    # At c2 the cube of alpha equals the square of beta; the basis stores
    # one class for the common socle path, reachable both ways.
    basis = PathBasis(build_lambda(1, 2))
    c2_classes = basis.classes_from("c2")
    assert len(c2_classes) == 5
    socle = [i for i in c2_classes if basis.class_target(i) == "c0"]
    assert len(socle) == 1
    # The long alpha path reduces to the stored class.
    pres = basis.pres
    eq = [r for r in pres.relations
          if r.kind == "eq" and pres.path_endpoints(r.left)[0] == "c2"]
    assert len(eq) == 1
    reduction = basis._reduce_path(eq[0].left, "c2")
    assert list(reduction.items()) == [(socle[0], 1)]


def _basis_digest(basis) -> str:
    payload = {
        "classes": [[s, t, list(p)] for s, t, p in basis.classes],
        "reduce": sorted([list(path), sorted([k, str(c)] for k, c in exp.items())]
                         for path, exp in basis.reduce.items()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Class lists and reduce maps, recorded while the path basis still ran its
# own Gauss-Jordan loop: the reduced echelon form is unique, so moving the
# elimination onto the shared kernel must not change them.
@pytest.mark.parametrize("family, r, m, digest", [
    ("lambda", 1, 0, "79db422edd2e8ee8"),
    ("lambda", 1, 1, "7c3d3322b3d182a1"),
    ("lambda", 1, 2, "1b5648bb0640aa0c"),
    ("lambda", 1, 3, "8f0b2fbc3c6f5010"),
    ("lambda", 1, 4, "1d5b42e8e4e7f242"),
    ("lambda", 1, 5, "c18d4410ccc6c634"),
    ("lambda1prime", 1, None, "3aa27c40b8d96a62"),
    ("lambda", 2, 0, "6b0d1c5f383c5d27"),
    ("lambda", 2, 1, "d323355958837b87"),
    ("lambda", 2, 2, "ae2d6aff51f88b6e"),
    ("lambda", 2, 3, "43f5519b0a617f37"),
    ("lambda", 2, 4, "b4d03fb5d58926c3"),
    ("lambda", 2, 5, "3a8401976fe178b6"),
    ("lambda1prime", 2, None, "8c2913d999323a97"),
])
def test_path_basis_is_pinned(family, r, m, digest):
    pres = build_lambda(r, m) if family == "lambda" else build_lambda1prime(r)
    assert _basis_digest(PathBasis(pres)) == digest


class _AllOffsetBasis(PathBasis):
    """The reference: every path is tested against every zero relation at
    every offset, and so is every path the action expands."""

    def _holds_zero(self, path):
        zeros = [rel.left for rel in self.pres.relations if rel.kind == "zero"]
        return any(path[i:i + len(z)] == z
                   for z in zeros for i in range(len(path) - len(z) + 1))

    def _zero_free_paths(self):
        arrows = self.pres.quiver.arrows
        endpoints = {}
        frontier = [(b.name,) for v in self.pres.quiver.vertices
                    for b in self.pres.quiver.arrows_from(v)]
        while frontier:
            survivors = [p for p in frontier if not self._holds_zero(p)]
            for p in survivors:
                if len(p) >= self.length_bound:
                    raise BoundExceeded(self.pres.name, p, self.length_bound)
                endpoints[p] = (arrows[p[0]].source, arrows[p[-1]].target)
            frontier = [p + (b.name,) for p in survivors
                        for b in self.pres.quiver.arrows_from(arrows[p[-1]].target)]
        return endpoints

    def _reduce_path(self, path, source):
        if self._holds_zero(path):
            return {}
        return super()._reduce_path(path, source)


def _assert_same_basis(pres, length_bound=64):
    try:
        basis = PathBasis(pres, length_bound)
    except BoundExceeded as exc:
        with pytest.raises(BoundExceeded) as ref_exc:
            _AllOffsetBasis(pres, length_bound)
        assert ref_exc.value.path == exc.path
        return
    reference = _AllOffsetBasis(pres, length_bound)
    assert basis.classes == reference.classes
    assert basis.reduce == reference.reduce
    assert basis.act == reference.act


@pytest.mark.parametrize("r", [1, 2, 3])
def test_suffix_zero_check_matches_all_offset_reference(r):
    for m in range(7):
        _assert_same_basis(build_lambda(r, m))
    _assert_same_basis(build_lambda1prime(r))


@st.composite
def _alg_texts(draw):
    """Small presentation files: random arrows, zero relations along
    composable paths of length 1 to 3, and sometimes an equality.  Arrows
    never lead to a lower vertex, so only loops can make the algebra
    infinite-dimensional."""
    n = draw(st.integers(min_value=1, max_value=4))
    lines = ["algebra H"] + [f"vertex v{i}" for i in range(n)]
    arrows = []
    for k in range(draw(st.integers(min_value=0, max_value=6))):
        src = draw(st.integers(0, n - 1))
        tgt = draw(st.integers(src, n - 1))
        arrows.append((f"f{k}", src, tgt))
        letter = draw(st.sampled_from(["alpha", "beta"]))
        lines.append(f"arrow f{k} : {letter} v{src} -> v{tgt}")
    if arrows:
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            path = [draw(st.sampled_from(arrows))]
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                nexts = [a for a in arrows if a[1] == path[-1][2]]
                if not nexts:
                    break
                path.append(draw(st.sampled_from(nexts)))
            # The file lists a path with its last-applied arrow first.
            lines.append("rel zero " + " ".join(a[0] for a in reversed(path)))
        parallel = [(a, b) for a in arrows for b in arrows
                    if a < b and a[1:] == b[1:]]
        if parallel and draw(st.booleans()):
            a, b = draw(st.sampled_from(parallel))
            lines.append(f"rel eq {a[0]} = {b[0]}")
    return "\n".join(lines) + "\n"


@given(_alg_texts())
def test_suffix_zero_check_matches_reference_on_random_files(text):
    _assert_same_basis(parse_presentation(text), length_bound=6)
