"""Constructive splitting of modules over the pruned level-2 algebra.

Lemma 2: every module M over ``lambda1prime`` is X (+) P(c2)^a (+) M',
with X a sum of the ten canonical c2-strings (``xset``) and M' at level
one.  ``lemma2_split`` finds the split by a Krull-Schmidt peel: P(c2) and
then each c2-string is split off with ``homology.split_off``, the one
summand peel, until no c2 component is left.  The split's proof is its one
certificate, X (+) P(c2)^a (+) M' -> M, re-verified as an isomorphism; the
peels certify nothing themselves.  A module with zero c2 component is its
own M', certified by the identity.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from typing import List, NamedTuple, Tuple

# hom_basis stays importable as decomp.hom_basis, which bench/test_bench.py traces.
from .homology import hom_basis, record_digest, split_off
from .presentation import Presentation, PresentationError
from .reps import (Algebra, InvalidString, ModuleMap, Representation, StringWord,
                   assemble_sum_map, string_module)


class CertificateFailure(RuntimeError):
    """No certified split: c2 left after the peel, or a final certificate
    that failed verification.  An implementation bug or a module outside
    Lemma 2's scope, not a mathematical failure."""


def _load_walks() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "walks.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_WALKS = _load_walks()


def xset(algebra: Algebra) -> List[Representation]:
    """The ten canonical strings through c2, in figure order.

    Row one (ending with a beta step to b1) then row two; entry 10 is the
    simple at c2.  Each has one-dimensional c2 component.  The modules are
    built and relation-checked once per algebra and shared; each call
    returns a fresh list of them.  An algebra on which one of them is not a
    module raises ``InvalidString``, naming the string and why.
    """
    return list(algebra.memo("xset", _build_xset))


def _build_xset(algebra: Algebra) -> Tuple[Representation, ...]:
    strings = []
    for k, spec in enumerate(_WALKS["X"], start=1):
        word = StringWord(spec["base"], [tuple(x) for x in spec["letters"]])
        try:
            strings.append(string_module(algebra, word))
        except InvalidString as exc:
            raise InvalidString(f"{algebra.pres.name}: c2-string {k}, {word!r}, "
                                f"is not a module: {exc}") from exc
    return tuple(strings)


def _check_c2_amalgam(pres: Presentation) -> None:
    """Raise PresentationError unless ``pres`` has an amalgam relation (an
    equality of two paths) out of c2, as Lemma 2's algebra does."""
    if not any(rel.kind == "eq" and pres.path_endpoints(rel.left)[0] == "c2"
               for rel in pres.relations):
        raise PresentationError(f"{pres.name} has no amalgam relation at c2")


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

    A Krull-Schmidt peel (Assem-Simson-Skowronski, *Elements I*, ch. I):
    P(c2), then each c2-string in figure order, is split off the running
    complement by ``split_off`` for as long as it splits, and the peel stops
    once the complement has no c2 component; that complement is M'.
    ``split_off`` is complete when the part's endomorphism ring is local
    with residue field k.  P(c2)'s is e_c2 A e_c2 and a string module's is
    local (Butler-Ringel), so a part that does not split off is not a
    summand of the complement, nor of any later complement, a summand of
    it: it is never tried again.  Each part has a one-dimensional c2
    component, so a split takes at most dims[c2] peels that succeed and 11
    that miss, and by Krull-Schmidt the counts are the multiplicities of
    the module's indecomposable summands.  c2 left at the end is a sound
    negative: the module has a summand through c2 that Lemma 2 does not
    list.  Every vertex but c2 is at level one, so a c2-free module is its
    own M', certified by the identity.

    The algebra needs an amalgam relation at c2 and the ten strings as
    modules, or an input error is raised, for c2-free modules too.  The
    final isomorphism is verified; failure raises CertificateFailure.
    """
    _check_c2_amalgam(module.algebra.pres)
    strings = xset(module.algebra)
    if module.dims["c2"]:
        split = _peel(module, strings)
    else:
        split = Lemma2Split([0] * len(strings), 0, module, ModuleMap.identity(module))
    if not split.certificate.is_iso():
        raise CertificateFailure("final splitting certificate failed")
    return split


def _peel(module: Representation, strings: List[Representation]) -> Lemma2Split:
    """lemma2_split of a module with nonzero c2 component, unverified."""
    parts = [module.algebra.projective("c2"), *strings]
    sections: List[List[ModuleMap]] = [[] for _ in parts]   # each part's copies -> module
    current = module
    into_module = None   # current -> module; None while current is module
    for part, found in zip(parts, sections):
        while current.dims["c2"]:
            split = split_off(part, current)
            if split is None:
                break
            lift = into_module.compose if into_module else (lambda f: f)
            found.append(lift(split.section))
            into_module, current = lift(split.inclusion), split.complement
    if current.dims["c2"]:
        raise CertificateFailure(f"a c2 component of dimension {current.dims['c2']} is left "
                                 "after peeling P(c2) and the ten c2-strings")
    pc2, *x = sections
    return Lemma2Split([len(copies) for copies in x], len(pc2), current,
                       assemble_sum_map([*chain(*x), *pc2, into_module], module))
