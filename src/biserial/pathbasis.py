"""Linear basis of the quotient algebra of a presentation.

Paths are enumerated up to a length bound, pruning any path that contains
a zero relation as a consecutive subpath.  Equality relations are then
imposed by linear quotienting: every two-sided multiple ``u (p - q) v`` of
an equality ``p = q`` spans the cut-out subspace, and the surviving path
classes form the basis.  This direct approach is exact and covers the
algebras in scope, where equalities identify two parallel socle paths; no
rewriting machinery is attempted.

The basis carries multiplication tables for single arrows acting on basis
classes, which is all the representation layer needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .fields import QQ
from .matrices import Matrix
from .presentation import Presentation

Path = Tuple[str, ...]  # arrow names, first applied first; () is an idempotent


class BoundExceeded(RuntimeError):
    """A path of maximal length survived: the bound is too small, or the
    algebra is not finite-dimensional."""

    def __init__(self, pres_name: str, path: Path, bound: int):
        self.path = path
        super().__init__(
            f"algebra {pres_name!r}: path {'*'.join(path)} of length {bound} "
            f"survives the zero relations; raise the length bound or check "
            f"finite-dimensionality")


def _contains_any(path: Path, subpaths: List[Path]) -> bool:
    """Whether some subpath occurs in ``path`` as consecutive arrows."""
    return any(path[i:i + len(z)] == z
               for z in subpaths for i in range(len(path) - len(z) + 1))


class PathBasis:
    """Basis path classes of the algebra, grouped by (source, target)."""

    def __init__(self, pres: Presentation, length_bound: int = 64):
        if length_bound < 1:
            raise ValueError("length_bound must be at least 1")
        self.pres = pres
        self.length_bound = length_bound
        self._build()

    # Class data: self.classes[i] is the representative path of class i.
    # self.reduce maps any surviving raw path to {class index: coefficient}.

    def _build(self) -> None:
        pres = self.pres
        quiver = pres.quiver
        zero_paths = [rel.left for rel in pres.relations if rel.kind == "zero"]
        eq_rels = [(rel.left, rel.right) for rel in pres.relations if rel.kind == "eq"]

        # Enumerate zero-free nonempty paths breadth-first by length; the
        # idempotents e_v are separate classes added up front.
        paths: List[Path] = []
        endpoints: Dict[Path, Tuple[str, str]] = {}
        frontier: List[Path] = []
        self.idempotents: Dict[str, int] = {}

        for v in quiver.vertices:
            for a in quiver.arrows_from(v):
                p: Path = (a.name,)
                if not _contains_any(p, zero_paths):
                    paths.append(p)
                    endpoints[p] = (a.source, a.target)
                    frontier.append(p)
        while frontier:
            new_frontier: List[Path] = []
            for p in frontier:
                if len(p) >= self.length_bound:
                    raise BoundExceeded(pres.name, p, self.length_bound)
                src, tgt = endpoints[p]
                for a in quiver.arrows_from(tgt):
                    q = p + (a.name,)
                    if not _contains_any(q, zero_paths):
                        paths.append(q)
                        endpoints[q] = (src, a.target)
                        new_frontier.append(q)
            frontier = new_frontier

        # Group by endpoint pair; quotient each block by equality consequences.
        by_pair: Dict[Tuple[str, str], List[Path]] = {}
        for p in paths:
            by_pair.setdefault(endpoints[p], []).append(p)
        path_set = set(paths)
        arrows = quiver.arrows

        def path_source(p: Path) -> str:
            return arrows[p[0]].source

        def path_target(p: Path) -> str:
            return arrows[p[-1]].target

        # Precompute suffix/prefix extension pools keyed by vertex.
        starting_at: Dict[str, List[Path]] = {v: [()] for v in quiver.vertices}
        ending_at: Dict[str, List[Path]] = {v: [()] for v in quiver.vertices}
        for p in paths:
            starting_at[path_source(p)].append(p)
            ending_at[path_target(p)].append(p)

        classes: List[Tuple[str, str, Path]] = []  # (source, target, representative)
        reduce_map: Dict[Path, Dict[int, Fraction]] = {}

        # Idempotent classes first, one per vertex.
        for v in quiver.vertices:
            self.idempotents[v] = len(classes)
            classes.append((v, v, ()))

        for (src, tgt), block in sorted(by_pair.items()):
            # Longer paths first so elimination expresses them via shorter ones.
            block_sorted = sorted(block, key=lambda p: (-len(p), p))
            index = {p: i for i, p in enumerate(block_sorted)}
            vectors: List[List[Fraction]] = []
            for (lhs, rhs) in eq_rels:
                rel_src, rel_tgt = pres.path_endpoints(lhs)
                for v_pre in ending_at[rel_src]:
                    if v_pre and path_source(v_pre) != src:
                        continue
                    if not v_pre and rel_src != src:
                        continue
                    for u_post in starting_at[rel_tgt]:
                        u_end = path_target(u_post) if u_post else rel_tgt
                        if u_end != tgt:
                            continue
                        left = v_pre + lhs + u_post
                        right = v_pre + rhs + u_post
                        vec = [Fraction(0)] * len(block_sorted)
                        hit = False
                        if left in path_set:
                            vec[index[left]] += 1
                            hit = True
                        if right in path_set:
                            vec[index[right]] -= 1
                            hit = True
                        if hit and any(vec):
                            vectors.append(vec)
            # The cut-out subspace in reduced row echelon form: its pivot paths
            # are eliminated, each row expressing one through the basis paths.
            reduced, pivots, _ = Matrix(QQ, len(vectors), len(block_sorted),
                                        vectors).rref()
            pivot_set = set(pivots)
            basis_positions = [j for j in range(len(block_sorted)) if j not in pivot_set]
            pos_to_class: Dict[int, int] = {}
            for j in basis_positions:
                pos_to_class[j] = len(classes)
                classes.append((src, tgt, block_sorted[j]))
                reduce_map[block_sorted[j]] = {pos_to_class[j]: Fraction(1)}
            for prow, pcol in zip(reduced.data, pivots):
                expansion: Dict[int, Fraction] = {}
                for j in basis_positions:
                    if prow[j]:
                        expansion[pos_to_class[j]] = -prow[j]
                reduce_map[block_sorted[pcol]] = expansion

        self.classes = classes
        self.reduce = reduce_map
        self._endpoints = endpoints
        self._path_set = path_set
        self._zero_paths = zero_paths
        self.by_pair: Dict[Tuple[str, str], List[int]] = {}
        from_vertex: Dict[str, List[int]] = {}
        for i, (src, tgt, _) in enumerate(classes):
            self.by_pair.setdefault((src, tgt), []).append(i)
            from_vertex.setdefault(src, []).append(i)
        self._from = {v: tuple(ids) for v, ids in from_vertex.items()}
        self.dim = len(classes)

        # Arrow action tables: arrow a acting on class i gives a sparse vector.
        self.act: Dict[Tuple[str, int], Dict[int, Fraction]] = {}
        for i, (src, tgt, rep) in enumerate(classes):
            for a in quiver.arrows_from(tgt):
                self.act[(a.name, i)] = self._reduce_path(rep + (a.name,), src)

    def _reduce_path(self, path: Path, source: str) -> Dict[int, Fraction]:
        """Expand a raw path (possibly not a representative) in the basis."""
        if not path:
            return {self.idempotents[source]: Fraction(1)}
        if _contains_any(path, self._zero_paths):
            return {}
        if path in self.reduce:
            return dict(self.reduce[path])
        # A path absent from the enumeration is killed by the zero ideal.
        if path not in self._path_set:
            return {}
        raise AssertionError(f"unreduced surviving path {path}")

    # -- queries -----------------------------------------------------------

    def classes_from(self, vertex: str) -> Tuple[int, ...]:
        """Basis classes whose representative starts at ``vertex``, in
        increasing order."""
        return self._from.get(vertex, ())

    def class_target(self, i: int) -> str:
        return self.classes[i][1]

    def class_path(self, i: int) -> Path:
        return self.classes[i][2]

    def dim_projective(self, vertex: str) -> int:
        return len(self.classes_from(vertex))

    def spot_check_associativity(self, rng) -> bool:
        """(b·p)·a == b·(p·a) for random arrows a, b and basis classes p."""
        quiver = self.pres.quiver
        arrow_names = list(quiver.arrows)
        if not arrow_names:
            return True
        for _ in range(64):
            i = rng.randrange(self.dim)
            src, tgt, rep = self.classes[i]
            outs = quiver.arrows_from(tgt)
            if not outs:
                continue
            a = outs[rng.randrange(len(outs))]
            via_a = self.act[(a.name, i)]
            for b in quiver.arrows_from(a.target):
                lhs: Dict[int, Fraction] = {}
                for j, c in via_a.items():
                    for k, d in self.act[(b.name, j)].items():
                        lhs[k] = lhs.get(k, Fraction(0)) + c * d
                rhs = self._reduce_path(rep + (a.name, b.name), src)
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    return False
        return True
