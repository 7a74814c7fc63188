from fractions import Fraction

import pytest

from biserial.matrices import Matrix
from biserial.modfiles import (ModuleFileError, dot_quiver,
                               dot_representation, emit_module_raw,
                               parse_module_file)
from biserial.reps import Representation
from biserial.witnesses import build_Z


Z3_FILE = """\
# the level-3 witness
module Z3 over lambda_r1_m3
string a3 [ be_a3_b2^+1 al_b3_b2^-1 be_b3_c2^+1 al_a2_c2^-1 ]
"""


def test_parse_string_module(alg3):
    modules = parse_module_file(Z3_FILE, alg3)
    assert list(modules) == ["Z3"]
    assert dict(modules["Z3"].dim_vector()) == {
        "a3": 1, "b2": 1, "b3": 1, "c2": 1, "a2": 1}


def test_parse_sum_and_proj(alg1):
    text = """\
module s over lambda_r1_m1
string d0 [ ]
module p over lambda_r1_m1
proj a1
module both over lambda_r1_m1
sum s p p
"""
    modules = parse_module_file(text, alg1)
    assert modules["both"].total_dim() == 1 + 4 + 4


def test_parse_raw_round_trip(alg1):
    z1 = build_Z(alg1, 1)
    text = emit_module_raw("Z1", z1)
    modules = parse_module_file(text, alg1)
    back = modules["Z1"]
    assert back.dims == z1.dims
    assert back.mats == z1.mats


def test_raw_emit_ignores_how_integral_entries_are_stored(alg1):
    # The same module with its entries stored as Fractions emits the same
    # text as with its entries stored as ints.
    z1 = build_Z(alg1, 1)
    as_fractions = Representation(alg1, z1.dims, {
        name: Matrix(m.field, m.rows, m.cols, [[Fraction(x) for x in row]
                                               for row in m.data])
        for name, m in z1.mats.items()})
    assert emit_module_raw("Z1", as_fractions) == emit_module_raw("Z1", z1)


def test_wrong_algebra_name_rejected(alg1):
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file("module m over nope\nproj a1\n", alg1)
    assert "nope" in str(exc.value)


def test_unknown_sum_reference(alg1):
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file("module m over lambda_r1_m1\nsum ghost\n", alg1)
    assert "ghost" in str(exc.value)


def test_bad_string_letter(alg1):
    text = "module m over lambda_r1_m1\nstring a1 [ be_a1_a0^2 ]\n"
    with pytest.raises(ModuleFileError):
        parse_module_file(text, alg1)


def test_invalid_walk_reported_with_line(alg1):
    text = "module m over lambda_r1_m1\nstring a1 [ al_c1_a0^+1 ]\n"
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file(text, alg1)
    assert "line 2" in str(exc.value)


def test_raw_truncated_matrix(alg1):
    text = ("module m over lambda_r1_m1\nraw\ndim u 1\n"
            "mat al_u_u 1 1\n")
    with pytest.raises(ModuleFileError):
        parse_module_file(text, alg1)


def test_raw_repeated_dim_rejected_at_its_line(alg1):
    # A second dim for a vertex would silently replace the first.
    text = "module m over lambda_r1_m1\nraw\ndim d0 1\ndim d0 2\n"
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file(text, alg1)
    assert exc.value.line == 4
    assert "repeated dim" in str(exc.value) and "'d0'" in str(exc.value)


def test_raw_repeated_mat_rejected_at_its_line(alg1):
    # A second mat for an arrow would silently replace the first.
    text = ("module m over lambda_r1_m1\nraw\ndim u 1\n"
            "mat al_u_u 1 1\n0\nmat al_u_u 1 1\n0\n")
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file(text, alg1)
    assert exc.value.line == 6
    assert "repeated mat" in str(exc.value) and "'al_u_u'" in str(exc.value)


@pytest.mark.parametrize("body, message", [
    ("dim u 1\nmat al_u_u 1 1\n1\n", "relations violated: zero al_u_u*al_u_u"),
    ("dim u 1\nmat al_u_u 2 2\n0 0\n0 0\n",
     "arrow al_u_u: matrix is 2x2, expected 1x1"),
])
def test_a_raw_module_that_fails_its_checks_is_named_at_its_raw_line(alg1, body, message):
    # The second of two raw modules is at fault: the error names its body.
    text = ("module ok over lambda_r1_m1\nraw\ndim u 1\n"
            "module bad over lambda_r1_m1\n# its body\nraw\n" + body)
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file(text, alg1)
    assert exc.value.line == 6
    assert str(exc.value) == f"line 6: {message}"


def test_comment_and_blank_lines_may_stand_between_matrix_rows(alg1):
    z1 = build_Z(alg1, 1)  # its mat al_c1_a0 has two rows
    relaxed = "".join(
        line if line.split()[0] in ("module", "raw", "dim", "mat")
        else "# the next row\n\n  \t\n" + line
        for line in emit_module_raw("Z1", z1).splitlines(keepends=True))
    back = parse_module_file(relaxed, alg1)["Z1"]
    assert back.dims == z1.dims and back.mats == z1.mats


def test_a_bad_row_after_a_comment_is_named_at_its_own_line(alg1):
    text = ("module m over lambda_r1_m1\nraw\ndim u 1\nmat al_u_u 1 1\n"
            "# the row\n\n0 0\n")
    with pytest.raises(ModuleFileError) as exc:
        parse_module_file(text, alg1)
    assert str(exc.value) == "line 7: matrix al_u_u: expected 1 entries, got 2"
    assert exc.value.line == 7


@pytest.mark.parametrize("between", ["", "\n", "# its empty row\n"])
def test_a_matrix_with_no_columns_takes_no_row_lines(alg1, between):
    # be_a0_u maps a0 (dimension 0 here) to u: its one row is empty.
    text = ("module m over lambda_r1_m1\nraw\ndim u 1\nmat be_a0_u 1 0\n"
            + between + "dim d0 1\n")
    module = parse_module_file(text, alg1)["m"]
    assert dict(module.dim_vector()) == {"d0": 1, "u": 1}
    assert (module.mats["be_a0_u"].rows, module.mats["be_a0_u"].cols) == (1, 0)


def test_dot_representation(alg3):
    z3 = build_Z(alg3, 3)
    dot = dot_representation("Z3", z3)
    assert dot.startswith('digraph "Z3"')
    assert dot.count("[label=") == 5  # one node per basis vector
    assert "style=solid" in dot and "style=dashed" in dot


def test_dot_quiver(alg0):
    dot = dot_quiver(alg0.pres)
    assert '"u" -> "u" [style=solid' in dot
    assert '"d0" -> "d1" [style=dashed' in dot


def test_dot_escapes_quotes_and_backslashes():
    # A name with a double quote or a backslash is one quoted DOT string.
    from biserial.presentation import parse_presentation
    from biserial.reps import Algebra

    pres = parse_presentation('algebra Q"x\nvertex a\\b\nvertex c\n'
                              'arrow f"g : alpha a\\b -> c\n')
    assert dot_quiver(pres) == (
        'digraph "Q\\"x" {\n  "a\\\\b";\n  "c";\n'
        '  "a\\\\b" -> "c" [style=solid, label="f\\"g"];\n}\n')
    module = parse_module_file('module M"\\ over Q"x\nraw\ndim a\\b 1\n',
                               Algebra(pres))['M"\\']
    assert dot_representation('M"\\', module) == (
        'digraph "M\\"\\\\" {\n  rankdir=TB;\n  n0 [label="a\\\\b"];\n}\n')


def test_prime_field_raw_round_trip(algp_f101):
    from biserial.reps import random_module

    m = random_module(algp_f101, seed=3, budget=15)
    text = emit_module_raw("m", m)
    back = parse_module_file(text, algp_f101)["m"]
    assert back.dims == m.dims and back.mats == m.mats
