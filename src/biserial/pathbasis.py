"""Linear basis of the quotient algebra of a presentation.

Paths are enumerated breadth-first up to a length bound, each extending a
zero-free path by one arrow.  Such an extension can hold a zero relation
only as a suffix ending in the new arrow, so only the zero relations ending
in that arrow are compared, and only as suffixes.  Equality relations are
then imposed by linear quotienting: every two-sided multiple ``u (p - q) v``
of an equality ``p = q`` spans the cut-out subspace, and the surviving path
classes form the basis.  This direct approach is exact and covers the
algebras in scope, where equalities identify two parallel socle paths; no
rewriting machinery is attempted.

The basis carries multiplication tables for single arrows acting on basis
classes, which is all the representation layer needs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import InputError
from .fields import QQ
from .matrices import Matrix
from .presentation import Presentation

Path = Tuple[str, ...]  # arrow names, first applied first; () is an idempotent


class BoundExceeded(InputError):
    """A path of maximal length survived: the bound is too small, or the
    algebra is not finite-dimensional."""

    def __init__(self, pres_name: str, path: Path, bound: int):
        self.path = path
        super().__init__(
            f"algebra {pres_name!r}: path {'*'.join(path)} of length {bound} "
            f"survives the zero relations; raise the length bound or check "
            f"finite-dimensionality")


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

    def _zero_free_paths(self) -> Dict[Path, Tuple[str, str]]:
        """The nonempty paths holding no zero relation, breadth-first by
        length, each with its (source, target)."""
        quiver = self.pres.quiver
        zero_by_last: Dict[str, List[Path]] = {}
        for rel in self.pres.relations:
            if rel.kind == "zero":
                zero_by_last.setdefault(rel.left[-1], []).append(rel.left)
        endpoints: Dict[Path, Tuple[str, str]] = {}
        frontier: List[Tuple[Path, str, str]] = [((), v, v) for v in quiver.vertices]
        while frontier:
            current, frontier = frontier, []
            for p, src, tgt in current:
                if len(p) >= self.length_bound:
                    raise BoundExceeded(self.pres.name, p, self.length_bound)
                for a in quiver.arrows_from(tgt):
                    q = p + (a.name,)
                    if not any(q[-len(z):] == z for z in zero_by_last.get(a.name, ())):
                        endpoints[q] = (src, a.target)
                        frontier.append((q, src, a.target))
        return endpoints

    def _build(self) -> None:
        pres = self.pres
        quiver = pres.quiver
        eq_rels = [(rel.left, rel.right) for rel in pres.relations if rel.kind == "eq"]
        endpoints = self._zero_free_paths()

        # Group the paths by endpoint pair, to quotient each block by the
        # equality consequences, and pool them as prefixes and suffixes.
        by_pair: Dict[Tuple[str, str], List[Path]] = {}
        starting_at: Dict[str, List[Path]] = {v: [()] for v in quiver.vertices}
        ending_at: Dict[str, List[Path]] = {v: [()] for v in quiver.vertices}
        for p, (src, tgt) in endpoints.items():
            by_pair.setdefault((src, tgt), []).append(p)
            starting_at[src].append(p)
            ending_at[tgt].append(p)

        # Every two-sided multiple v (lhs - rhs) u of an equality, by the
        # endpoint pair of its paths.
        multiples: Dict[Tuple[str, str], List[Tuple[Path, Path]]] = {}
        for lhs, rhs in eq_rels:
            rel_src, rel_tgt = pres.path_endpoints(lhs)
            for v_pre in ending_at[rel_src]:
                src = endpoints[v_pre][0] if v_pre else rel_src
                for u_post in starting_at[rel_tgt]:
                    tgt = endpoints[u_post][1] if u_post else rel_tgt
                    multiples.setdefault((src, tgt), []).append(
                        (v_pre + lhs + u_post, v_pre + rhs + u_post))

        # (source, target, representative); the idempotents come first.
        classes: List[Tuple[str, str, Path]] = [(v, v, ()) for v in quiver.vertices]
        self.idempotents = {v: i for i, v in enumerate(quiver.vertices)}
        reduce_map: Dict[Path, dict] = {}

        for (src, tgt), block in sorted(by_pair.items()):
            # Longer paths first so elimination expresses them via shorter ones.
            block_sorted = sorted(block, key=lambda p: (-len(p), p))
            index = {p: i for i, p in enumerate(block_sorted)}
            vectors: List[list] = []
            for left, right in multiples.get((src, tgt), ()):
                # A side holding a zero relation is not enumerated: it is 0.
                vec = [QQ.zero] * len(block_sorted)
                if left in index:
                    vec[index[left]] += 1
                if right in index:
                    vec[index[right]] -= 1
                if any(vec):
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
                reduce_map[block_sorted[j]] = {pos_to_class[j]: QQ.one}
            for prow, pcol in zip(reduced.data, pivots):
                expansion = {}
                for j in basis_positions:
                    if prow[j]:
                        expansion[pos_to_class[j]] = -prow[j]
                reduce_map[block_sorted[pcol]] = expansion

        self.classes = classes
        self.reduce = reduce_map
        self.by_pair: Dict[Tuple[str, str], List[int]] = {}
        from_vertex: Dict[str, List[int]] = {}
        for i, (src, tgt, _) in enumerate(classes):
            self.by_pair.setdefault((src, tgt), []).append(i)
            from_vertex.setdefault(src, []).append(i)
        self._from = {v: tuple(ids) for v, ids in from_vertex.items()}
        self.dim = len(classes)

        # Arrow action tables: arrow a acting on class i gives a sparse vector.
        self.act: Dict[Tuple[str, int], dict] = {}
        for i, (src, tgt, rep) in enumerate(classes):
            for a in quiver.arrows_from(tgt):
                self.act[(a.name, i)] = self._reduce_path(rep + (a.name,), src)

    def _reduce_path(self, path: Path, source: str) -> dict:
        """Expand a raw path (possibly not a representative) in the basis."""
        if not path:
            return {self.idempotents[source]: QQ.one}
        # Every enumerated path is reduced; any other holds a zero relation.
        return dict(self.reduce.get(path, {}))

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
