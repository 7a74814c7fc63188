"""Constructive splitting of modules over the pruned level-2 algebra.

Three layers; only the last builds an isomorphism and verifies it:

* ``strip_pc2`` splits off every direct summand isomorphic to the
  projective-injective P(c2): the count is the rank of the long alpha
  path out of c2, and the copies embed at its rref pivots.
* ``interval_decompose`` decomposes a representation of a path quiver
  (arbitrary arrow orientations) into interval summands, read along the
  path order it is given, which is checked against the quiver.  Interval
  modules are bricks, so a copy splits off iff some Hom(J, V) basis
  section has a retraction, and ``homology.split_off`` peels one copy off
  deterministically, with its complement.  Iterating yields the multiset
  of intervals and each copy's embedding into the input.
* ``lemma2_split`` combines the two: after stripping P(c2) copies, the
  restriction to the six-vertex path subquiver decomposes into intervals;
  those whose support contains c2 assemble into a submodule isomorphic to
  a sum of the ten canonical c2-strings, and the rest extends to a
  complement with zero c2-component.  The split's proof is its one
  certificate, X (+) P(c2)^a (+) M' -> M re-verified as an isomorphism,
  which re-checks every block of the strip and the interval peels, with
  no per-arrow obligations: the ten strings' inner arrows map onto
  their targets, and rank adds over block sums, so any X has them too.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import InputError
from .families import build_subquiver_U
# hom_basis stays importable as decomp.hom_basis, which bench/test_bench.py traces.
from .homology import (_sub_representation, hom_basis, kernel_of, map_from_projectives,
                       record_digest, solve_retraction, split_off)
from .matrices import Matrix
from .presentation import Presentation, PresentationError
from .reps import (Algebra, ModuleMap, Representation, RepresentationError, StringWord,
                   assemble_sum_map, string_module)


class NotPathQuiver(InputError):
    """interval_decompose input whose quiver is not the path it was given."""


class CertificateFailure(RuntimeError):
    """A splitting certificate failed verification: an implementation bug
    or a module outside Lemma 2's scope, not a mathematical failure."""


def _load_walks() -> dict:
    with resources.files("biserial.data").joinpath("walks.json").open() as fh:
        return json.load(fh)


_WALKS = _load_walks()


def xset(algebra: Algebra) -> List[Representation]:
    """The ten canonical strings through c2, in figure order.

    Row one (ending with a beta step to b1) then row two; entry 10 is the
    simple at c2.  Each has one-dimensional c2 component.  The modules are
    built and relation-checked once per algebra and shared; each call
    returns a fresh list of them.
    """
    return list(algebra.memo("xset", _build_xset))


def _build_xset(algebra: Algebra) -> Tuple[Representation, ...]:
    return tuple(
        string_module(algebra, StringWord(spec["base"],
                                          [tuple(x) for x in spec["letters"]]))
        for spec in _WALKS["X"])


# -- stripping projective-injective c2 summands ------------------------------


def _c2_alpha_path(pres: Presentation) -> Tuple[str, ...]:
    """The alpha-power side of the amalgam relation out of c2.  Every module
    satisfies the relation, so its beta-power side acts the same way."""
    for rel in pres.relations:
        if rel.kind == "eq" and pres.path_endpoints(rel.left)[0] == "c2":
            return rel.left
    raise PresentationError(f"{pres.name} has no amalgam relation at c2")


class StripResult(NamedTuple):
    multiplicity: int
    complement: Representation
    complement_inclusion: Optional[ModuleMap]   # complement -> M; None if no copy
    projective_embedding: Optional[ModuleMap]   # P(c2)^multiplicity -> M; None if no copy


def strip_pc2(module: Representation) -> StripResult:
    """Split off all P(c2) direct summands.

    The multiplicity equals the rank of the long alpha path acting on the
    c2 component; the unit vectors at its rref pivots span a complement of
    its kernel (each kernel vector ends at a free column) and generate the
    projective part, which splits off as im s (+) ker r for a retraction r
    of the embedding s, because P(c2) is also injective.
    """
    algebra = module.algebra
    alpha_path = _c2_alpha_path(algebra.pres)
    _, chosen, a = module.path_matrix(alpha_path).rref()
    if a == 0:
        return StripResult(0, module, None, None)

    embed_mats = map_from_projectives(module, [("c2", i) for i in chosen],
                                      algebra.free_basis(["c2"] * a))
    embedding = ModuleMap(algebra._free_module(["c2"] * a), module, embed_mats)
    # Not split_off: End(P(c2)^a) is not local once a >= 2, and the
    # certificate's checksum follows this embedding at the rref pivots.
    retraction = solve_retraction(embedding)
    if retraction is None:
        raise CertificateFailure("no retraction onto the projective part")
    # The alpha path's rank adds over the final certificate's blocks
    # X (+) P(c2)^a (+) M' and is a on P(c2)^a, so it is zero on X (+) M',
    # the complement: no P(c2) copy is left.
    complement, incl = kernel_of(retraction)
    return StripResult(a, complement, incl, embedding)


# -- interval decomposition over path quivers --------------------------------


def _check_path(pres: Presentation, order: List[str]) -> None:
    """Raise NotPathQuiver unless the quiver is the path through ``order``:
    its vertices are exactly ``order``, and its arrows join exactly the
    consecutive pairs, in either orientation."""
    where = f"{pres.name} is not the path {' - '.join(order)}"
    vertices = pres.quiver.vertices  # sorted
    for v in order:
        if v not in vertices:
            raise NotPathQuiver(f"{where}: no vertex {v}")
    if list(vertices) != sorted(order):
        raise NotPathQuiver(f"{where}: its vertices are {', '.join(vertices)}")
    pos = {v: i for i, v in enumerate(order)}
    joins = sorted(tuple(sorted((pos[a.source], pos[a.target])))
                   for a in pres.quiver.arrows.values())
    if joins != [(i, i + 1) for i in range(len(order) - 1)]:
        raise NotPathQuiver(f"{where}: its arrows do not join consecutive vertices")


def interval_module(algebra: Algebra, order: List[str], lo: int, hi: int
                    ) -> Representation:
    """Thin representation supported on order[lo..hi] with identity maps."""
    field = algebra.field
    dims = {v: (1 if lo <= order.index(v) <= hi else 0) for v in order}
    mats = {}
    for a in algebra.pres.quiver.arrows.values():
        i, j = order.index(a.source), order.index(a.target)
        if lo <= i <= hi and lo <= j <= hi:
            mats[a.name] = Matrix.identity(field, 1)
    return Representation(algebra, dims, mats)


class IntervalSummand(NamedTuple):
    interval: Tuple[str, ...]
    multiplicity: int


class IntervalDecomposition(NamedTuple):
    order: List[str]
    summands: List[IntervalSummand]
    pieces: List[Tuple[Tuple[int, int], ModuleMap]]  # each embeds into the input

    def total_dim(self) -> int:
        return sum(s.multiplicity * len(s.interval) for s in self.summands)


def interval_decompose(module: Representation, order: List[str]
                       ) -> IntervalDecomposition:
    """Decompose a representation of the path ``order`` into interval summands.

    The module's quiver must be that path, with arrows in either
    orientation; ``_check_path`` rejects any other.  Deterministic
    peeling: intervals are scanned longest first, and the first that
    ``split_off`` splits off gives one copy and, as its complement, the
    next module to peel.  Each piece embeds one copy into the input; only
    ``lemma2_split``'s final certificate proves their sum an isomorphism.
    """
    algebra = module.algebra
    _check_path(algebra.pres, order)
    n = len(order)
    candidates = sorted(((lo, hi) for lo in range(n) for hi in range(lo, n)),
                        key=lambda t: (-(t[1] - t[0]), t[0]))
    pieces: List[Tuple[Tuple[int, int], ModuleMap]] = []
    current = module
    into_original = ModuleMap.identity(module)
    while current.total_dim():
        for lo, hi in candidates:
            if any(current.dims[order[k]] == 0 for k in range(lo, hi + 1)):
                continue
            try:
                j_rep = interval_module(algebra, order, lo, hi)
            except RepresentationError:
                # Relations on the path quiver can rule an interval out.
                continue
            split = split_off(j_rep, current)
            if split is None:
                continue
            pieces.append(((lo, hi), into_original.compose(split.section)))
            into_original = into_original.compose(split.inclusion)
            current = split.complement
            break
        else:
            # Unreachable: split_off is complete for bricks such as intervals.
            raise AssertionError("no interval summand found in a nonzero path-quiver module")
    counts: Dict[Tuple[int, int], int] = {}
    for rng, _ in pieces:
        counts[rng] = counts.get(rng, 0) + 1
    summands = [IntervalSummand(tuple(order[rng[0]:rng[1] + 1]), mult)
                for rng, mult in sorted(counts.items())]
    return IntervalDecomposition(order, summands, pieces)


# -- the full splitting -------------------------------------------------------


def u_algebra(algebra: Algebra) -> Tuple[Algebra, List[str]]:
    """Algebra of the six-vertex path subquiver, plus its path order.

    The subalgebra is built once per algebra and shared.
    """
    return algebra.memo("u_algebra", _build_u_algebra), build_subquiver_U()


def _build_u_algebra(algebra: Algebra) -> Algebra:
    u_verts = build_subquiver_U()
    pres = algebra.pres
    removed = [v for v in pres.quiver.vertices if v not in u_verts]
    return Algebra(pres.delete_vertices(removed, pres.name + "|U"),
                   field=algebra.field)


def restrict_to_vertices(module: Representation, sub: Algebra) -> Representation:
    dims = {v: module.dims[v] for v in sub.vertices}
    mats = {name: module.mats[name] for name in sub.pres.quiver.arrows}
    return Representation(sub, dims, mats, check=False)


class Lemma2Split(NamedTuple):
    """Certified decomposition M = X (+) P(c2)^a (+) M'."""

    x_multiplicities: List[int]           # per figure entry, 10 numbers
    a: int
    m_prime: Representation
    certificate: ModuleMap                # X (+) P(c2)^a (+) M' -> M

    def to_record(self) -> dict:
        rec = {
            "x_multiplicities": self.x_multiplicities,
            "pc2_copies": self.a,
            "m_prime_dims": [[v, d] for v, d in self.m_prime.dim_vector()],
            "certificate_checksum": _map_checksum(self.certificate),
        }
        return rec


def _map_checksum(f: ModuleMap) -> str:
    return record_digest({v: [[str(x) for x in row] for row in m.data]
                          for v, m in sorted(f.mats.items())})


def lemma2_split(module: Representation) -> Lemma2Split:
    """Split a module over the pruned level-2 algebra as X (+) P(c2)^a (+) M'.

    X collects the interval summands of the restriction to the path
    subquiver whose support contains c2, realized as canonical strings;
    M' agrees with the module away from the subquiver and with the
    complementary intervals on it, and has zero c2 component.  The final
    isomorphism is verified; failure raises CertificateFailure.
    """
    algebra = module.algebra
    stripped = strip_pc2(module)
    core = stripped.complement

    sub, u_verts = u_algebra(algebra)
    core_u = restrict_to_vertices(core, sub)
    decomposition = interval_decompose(core_u, order=u_verts)
    c2_pos = u_verts.index("c2")

    x_walks = xset(algebra)
    # Each canonical string is the c2-interval its support spans on U.
    spans = [[k for k, v in enumerate(u_verts) if x.dims[v]] for x in x_walks]
    x_index = {(span[0], span[-1]): idx for idx, span in enumerate(spans)}
    x_mult = [0] * len(x_walks)
    x_embeddings: List[ModuleMap] = []
    y_pieces: List[ModuleMap] = []
    for (lo, hi), emb in decomposition.pieces:
        if lo <= c2_pos <= hi:
            idx = x_index[(lo, hi)]
            x_mult[idx] += 1
            x_embeddings.append(ModuleMap(x_walks[idx], core, emb.mats))
        else:
            y_pieces.append(emb)

    # X is the sum of the canonical strings, embedded into core by the
    # interval embeddings on U and by zero off U.
    x_into_core = assemble_sum_map(x_embeddings, core)
    if not x_into_core.is_morphism():
        raise CertificateFailure("c2-interval part is not a submodule")

    # M' spans the complementary intervals on U and everything off U.
    field = algebra.field
    incl_mats = {v: (Matrix.hcat(field, core.dims[v], [emb.mats[v] for emb in y_pieces])
                     if v in u_verts else Matrix.identity(field, core.dims[v]))
                 for v in algebra.vertices}
    try:
        m_prime, m_prime_incl = _sub_representation(core, incl_mats)
    except ValueError as exc:
        raise CertificateFailure(f"complement part is not a submodule: {exc}") from exc

    # Certificate: X (+) P(c2)^a (+) M' -> M; with no P(c2) copy, core is M.
    parts = [x_into_core, m_prime_incl]
    if stripped.multiplicity:
        parts = [stripped.complement_inclusion.compose(f) for f in parts]
        parts.insert(1, stripped.projective_embedding)
    cert = assemble_sum_map(parts, module)
    if not cert.is_iso():
        raise CertificateFailure("final splitting certificate failed")

    return Lemma2Split(x_mult, stripped.multiplicity, m_prime, cert)
