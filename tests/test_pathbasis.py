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
        PathBasis(parse_presentation(text))
    assert exc.value.path == ("l", "l")  # the first path to repeat an arrow
    assert exc.value.stretch == ("l",)
    assert " l*l holds none of them" in str(exc.value)


def test_tower_longer_than_64_arrows():
    # lambda(1, 61) keeps an alpha path of 64 arrows; the basis is finite.
    assert PathBasis(build_lambda(1, 61)).dim == 526


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
    reduction = basis.reduce[eq[0].left]
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
    """The reference: every path up to ``bound`` arrows is tested against
    every zero relation at every offset, so its reduce map, and with it the
    action, holds no path with a zero relation in it; a path of ``bound``
    arrows that survives fails the test.  The equalities are imposed by all
    their two-sided multiples v (x - y) u."""

    def __init__(self, pres, bound):
        self.bound = bound
        super().__init__(pres)

    def _zero_free_paths(self):
        arrows = self.pres.quiver.arrows
        endpoints = {}
        frontier = [(b.name,) for v in self.pres.quiver.vertices
                    for b in self.pres.quiver.arrows_from(v)]
        while frontier:
            survivors = [p for p in frontier if not _holds_zero(self.pres, p)]
            for p in survivors:
                assert len(p) < self.bound, f"{p} survives"
                endpoints[p] = (arrows[p[0]].source, arrows[p[-1]].target)
            frontier = [p + (b.name,) for p in survivors
                        for b in self.pres.quiver.arrows_from(arrows[p[-1]].target)]
        self._endpoints = endpoints
        return endpoints

    def _equality_rows(self, index):
        rows = []
        for rel in self.pres.relations:
            if rel.kind != "eq":
                continue
            src, tgt = self.pres.path_endpoints(rel.left)
            pre = [()] + [v for v, ends in self._endpoints.items() if ends[1] == src]
            post = [()] + [u for u, ends in self._endpoints.items() if ends[0] == tgt]
            for v in pre:
                for u in post:
                    row = [0] * len(index)
                    if v + rel.left + u in index:
                        row[index[v + rel.left + u]] += 1
                    if v + rel.right + u in index:
                        row[index[v + rel.right + u]] -= 1
                    if any(row):
                        rows.append(row)
        return rows


def _holds_zero(pres, path):
    zeros = [rel.left for rel in pres.relations if rel.kind == "zero"]
    return any(path[i:i + len(z)] == z
               for z in zeros for i in range(len(path) - len(z) + 1))


def _assert_same_basis(pres):
    """A finite basis equals the reference's run one arrow past its longest
    zero-free path; a path reported as repeating stays a zero-free path
    with one to four more copies of its repeated stretch."""
    try:
        basis = PathBasis(pres)
    except BoundExceeded as exc:
        path, arrows = exc.path, pres.quiver.arrows
        w = max([1] + [len(r.left) - 1 for r in pres.relations if r.kind == "zero"])
        earlier = [i for i in range(len(path) - w) if path[i:i + w] == path[-w:]]
        assert earlier, f"{path} does not repeat its last {w} arrows"
        stretch = exc.stretch
        assert stretch in [path[i + w:] for i in earlier]
        for copies in range(5):
            longer = path + stretch * copies
            assert all(arrows[a].target == arrows[b].source
                       for a, b in zip(longer, longer[1:]))
            assert not _holds_zero(pres, longer), (path, copies)
        return
    longest = max(map(len, basis.reduce), default=0)
    reference = _AllOffsetBasis(pres, longest + 1)
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
    composable paths of length 1 to 3, and sometimes an equality of two
    parallel paths of length 1 or 2.  Arrows
    lead to any vertex, so the quiver may hold cycles through several
    vertices as well as loops."""
    n = draw(st.integers(min_value=1, max_value=4))
    lines = ["algebra H"] + [f"vertex v{i}" for i in range(n)]
    arrows = []
    for k in range(draw(st.integers(min_value=0, max_value=6))):
        src = draw(st.integers(0, n - 1))
        tgt = draw(st.integers(0, n - 1))
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
        paths = [(a,) for a in arrows] + [(a, b) for a in arrows for b in arrows
                                          if a[2] == b[1]]
        parallel = [(p, q) for p in paths for q in paths
                    if p < q and (p[0][1], p[-1][2]) == (q[0][1], q[-1][2])]
        if parallel and draw(st.booleans()):
            p, q = draw(st.sampled_from(parallel))
            lines.append("rel eq " + " ".join(a[0] for a in reversed(p)) + " = "
                         + " ".join(a[0] for a in reversed(q)))
    return "\n".join(lines) + "\n"


@given(_alg_texts())
def test_suffix_zero_check_matches_reference_on_random_files(text):
    _assert_same_basis(parse_presentation(text))
