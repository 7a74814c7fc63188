"""Special biserial algebra presentations, string modules, syzygies, and
projective-dimension verification by exact linear algebra.

The public names below are resolved from their home modules on first
access (PEP 562), so ``import biserial`` loads no layer and a command
pays only for the layers it runs.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """An error in what the user gave: a flag value, a file or its contents.
    The command line exits 2 with its message; any other exception is a bug.
    A located error reads ``line N[, column C]: <message>``."""

    def __init__(self, message: str, line: "int | None" = None,
                 column: "int | None" = None):
        self.line, self.column = line, column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(message if line is None else f"{where}: {message}")


_HOMES = {
    "fields": "QQ FieldError PrimeField field_from_spec",
    "matrices": "Matrix",
    "presentation": "ParseError Presentation PresentationError Quiver Relation "
                    "emit_presentation parse_presentation",
    "pathbasis": "BoundExceeded PathBasis",
    "families": "build_lambda build_lambda1prime family_from_spec",
    "reps": "Algebra InvalidString ModuleMap Representation RepresentationError "
            "StringWord direct_sum random_module string_module",
    "homology": "CoverData PdReport certified_iso cokernel_of hom_basis "
                "kernel_of projdim projective_cover radical_filtration "
                "split_off syzygy",
    "decomp": "CertificateFailure Lemma2Split lemma2_split xset",
    "witnesses": "build_U build_Z build_Zt build_phi",
    "claims": "CLAIMS ClaimReport ConfigError FamilyConfig run_claim",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = ["InputError", *_HOME_OF]


def _lazy_getattr(module_name: str):
    """A PEP 562 ``__getattr__``: a public name imports its home module."""
    def __getattr__(name: str):
        if name not in _HOME_OF:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    return __getattr__


__getattr__ = _lazy_getattr(__name__)


def __dir__():
    return sorted(set(globals()) | set(_HOME_OF))
