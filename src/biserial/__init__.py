"""Special biserial algebra presentations, string modules, syzygies, and
projective-dimension verification by exact linear algebra."""

from .fields import QQ, FieldError, PrimeField, field_from_spec
from .matrices import Matrix
from .presentation import (ParseError, Presentation, PresentationError,
                           Quiver, Relation, emit_presentation,
                           parse_presentation)
from .pathbasis import BoundExceeded, PathBasis
from .families import (build_lambda, build_lambda1prime, build_subquiver_U,
                       family_from_spec)
from .reps import (Algebra, InvalidString, ModuleMap, Representation,
                   RepresentationError, StringWord, direct_sum, direct_sum_maps,
                   inflate, random_module, restrict, string_module)
from .homology import (CoverData, PdReport, certified_iso, cokernel_of,
                       hom_basis, is_direct_summand_simple, kernel_of,
                       projdim, projective_cover, radical, syzygy, top_dims)
from .decomp import (CertificateFailure, IntervalSummand, Lemma2Split,
                     NotPathQuiver, interval_decompose, lemma2_split,
                     strip_pc2, xset)
from .witnesses import build_U, build_Z, build_Zt, build_phi
from .claims import CLAIMS, ClaimReport, FamilyConfig, run_claim, run_claims

__version__ = "0.1.0"
