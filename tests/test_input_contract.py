"""Mutated input files through the command line, in process.

The input contract: every accepted input either works or exits 2 with one
``error:`` line that names the problem, and never ends in a traceback.
The base files are an algebra emitted by ``biserial algebra emit`` and a
module file holding each kind of module body; every example changes one
to three lines of one of them and runs one command on the result.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from biserial.cli import main
from biserial.families import build_lambda1prime
from biserial.modfiles import emit_module_raw
from biserial.reps import Algebra, random_module


def _emitted_algebra() -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["algebra", "emit", "lambda1prime:r=1"]) == 0
    return out.getvalue()


def _module_file() -> str:
    algebra = Algebra(build_lambda1prime(1))
    name = algebra.pres.name
    return (f"module S over {name}\nstring c1 [ al_c2_c1^-1 ]\n"
            f"module P over {name}\nproj c2\n"
            + emit_module_raw("R", random_module(algebra, seed=3, budget=14))
            + f"module M over {name}\nsum R P S\n")


ALGEBRA = _emitted_algebra()
MODULES = _module_file()

# Tokens a mutation writes in place of one: the file formats' own words,
# names from the algebra, small counts and malformed numbers.  Counts stay
# small, since a raw module allocates its dimensions as given.
TOKENS = st.sampled_from([
    "", "0", "1", "2", "3", "7", "-1", "1/2", "1/0", "2/-3", "x", "0.5", "--1",
    "#", "[", "]", "^+1", "al_c2_c1^+1", "al_c2_c1^-1", "module", "over", "raw",
    "dim", "mat", "sum", "proj", "string", "vertex", "arrow", "rel", "zero", "eq",
    "alpha", "beta", "->", ":", "algebra", "c1", "c2", "u", "R", "S", "al_c2_c1",
    "be_c2_b1", "lambda1prime_r1"])


@st.composite
def mutated(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "token",
                                   "truncate", "insert"]))
        if op == "delete" and len(lines) > 1:
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "token":
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[k] = " ".join(tokens)
        elif op == "truncate":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        else:
            lines.insert(k, " ".join(draw(st.lists(TOKENS, min_size=1, max_size=4))))
    return "\n".join(lines) + "\n"


COMMANDS = ["pd", "syzygy", "hom", "iso", "split", "dot", "parse"]


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data(), st.sampled_from(COMMANDS),
       st.sampled_from(["q", "fp:2", "fp:101"]))
def test_mutated_files_work_or_exit_with_one_error_line(mutate_algebra, data, command,
                                                        field):
    algebra_text, module_text = ALGEBRA, MODULES
    if mutate_algebra:
        algebra_text = data.draw(mutated(ALGEBRA))
    else:
        module_text = data.draw(mutated(MODULES))
    with tempfile.TemporaryDirectory() as tmp:
        alg, mod = Path(tmp, "a.alg"), Path(tmp, "m.mod")
        alg.write_text(algebra_text)
        mod.write_text(module_text)
        if command == "parse":
            argv = ["algebra", "parse", str(alg)]
        else:
            files = [str(mod)] * (2 if command in ("hom", "iso") else 1)
            argv = ["module", command, *files, "--algebra", str(alg), "--field", field]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), stderr
    assert "Traceback" not in stderr and "internal error" not in stderr, stderr
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
