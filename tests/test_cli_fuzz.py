"""The CLI contract under generated input: every subcommand, fed presentation
files drawn from the file grammar and then mutated, and argv drawn per
subcommand and then mutated, exits 0, 1, 2 or 3 with no traceback, and
exits 2 only for bad input: argparse's usage errors, or an `InputError`,
`ParseError` or `PresentationError` that no internal fault caused.

The run is derandomized and bounded, and the coset allowance stays small,
through --max-cosets and ORBIFORGE_MAX_COSETS, so each call is cheap."""
import contextlib
import functools
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbiforge import cli
from orbiforge.cosetenum import CosetLimitError, InvariantError
from orbiforge.fixtures import fixture_text
from orbiforge.fpgroup import PresentationError
from orbiforge.knotcusp import TheoremCheckError
from orbiforge.presfile import ParseError, parse_presentation
from orbiforge.verify import CHECK_IDS
from orbiforge.wallpaper import MODEL_NAMES, SIGNATURES, model

INPUT_ERRORS = (cli.InputError, ParseError, PresentationError)
# raised only by a fault of the program, never by what a user typed
INTERNAL_ERRORS = (InvariantError, TheoremCheckError, CosetLimitError, AssertionError,
                   AttributeError, IndexError, TypeError, ZeroDivisionError, RecursionError)

NAMES = ("a", "b", "c", "x_1", "T")
# characters a mutation inserts: the grammar's own, and some it must refuse
NOISE = ("^", "(", ")", "-", "0", "7", "#", " ", "\n", "a", "b", "rel ", "gens ",
         "group ", ";", ",", "=", "/", "*", "+", "\x00", "\t", "é", "\x85", "٣")
JUNK = ("", " ", "--bogus", "-", "-h", "x", "p7", "0", "-1", "1/0", "rt3", "=")
FIXTURES = ("p6", "p4", "figure8", "tetrahedral")


def _mutate(draw, text: str) -> str:
    """text with up to three insertions, deletions or repeated slices; with
    none two times in five, so valid input reaches the commands too."""
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        op = draw(st.sampled_from(("insert", "delete", "repeat")))
        if op == "insert":
            text = text[:i] + draw(st.sampled_from(NOISE)) + text[i:]
        elif op == "delete":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _power(word: str, k: int) -> str:
    """word^k, the word grouped unless it is one name: a power applies to
    the one term before it."""
    return f"{word}^{k}" if word.isidentifier() else f"({word})^{k}"


def _words(gens):
    """Words of the file grammar: names, juxtaposition, groups and powers."""
    return st.recursive(
        st.sampled_from(gens),
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(" ".join),
            inner.map("({})".format),
            st.builds(_power, inner, st.integers(-6, 6))),
        max_leaves=8)


@st.composite
def presentation_files(draw):
    """(bytes of a presentation file, its generator names); None for no file."""
    if draw(st.integers(0, 9)) == 9:
        return None, NAMES[:2]
    if draw(st.booleans()):
        text = fixture_text(draw(st.sampled_from(FIXTURES)))
        gens = parse_presentation(text).generators
    else:
        gens = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                                   unique=True)))
        rels = draw(st.lists(_words(gens), max_size=4))
        text = "\n".join([f"group {draw(st.sampled_from(('g', 'G2', 'fuzz')))}",
                          "gens " + " ".join(gens), *(f"rel {r}" for r in rels)]) + "\n"
    data = _mutate(draw, text).encode()
    if draw(st.integers(0, 9)) == 9:
        data += b"\xff"  # not UTF-8
    return data, gens


COMMANDS = ("abelianize", "cosets", "classify", "double-cover", "rhombic", "verdict",
            "verify-paper")


@st.composite
def invocations(draw, command):
    """(argv with FILE for the presentation path, file bytes, allowance env)."""
    data, gens = draw(presentation_files())
    argv = [command]
    if command in ("abelianize", "cosets"):
        argv.append("FILE")
    if command == "cosets":
        if draw(st.booleans()):
            words = draw(st.lists(_words(gens), max_size=3))
            argv += ["--subgroup", _mutate(draw, "; ".join(words))]
        argv += ["--max-cosets", draw(st.sampled_from(("256", "64", "8", "1", "0", "x")))]
    elif command in ("classify", "double-cover"):
        name = draw(st.sampled_from(MODEL_NAMES + ("S2(2,3,6)", "*632", "K2", "p5", "")))
        argv.append(name)
        if command == "classify" and draw(st.booleans()):
            letters = model(name).presentation.generators if name in MODEL_NAMES else NAMES
            signs = draw(st.lists(st.tuples(st.sampled_from(letters),
                                            st.sampled_from(("-1", "1", "+1", "2"))),
                                  max_size=3))
            argv += ["--sign", _mutate(draw, ",".join(f"{g}={s}" for g, s in signs))]
    elif command == "rhombic":
        coords = st.sampled_from(("1", "rt3", "1/2", "-1", "0", "-rt3", "1/2*rt3",
                                  "1/2+1/2*rt3", "3/0", "x"))
        for _ in range(2):
            argv.append(_mutate(draw, f"{draw(coords)},{draw(coords)}"))
    elif command == "verdict":
        names = [s.names.thurston for s in SIGNATURES.values()] + ["p6", "*442", "S2"]
        argv.append(_mutate(draw, draw(st.sampled_from(names))))
        if draw(st.booleans()):
            argv.append("--no-checks")
    elif command == "verify-paper":
        ids = draw(st.lists(st.sampled_from(CHECK_IDS + ("nope",)), min_size=1, max_size=2))
        argv += ["--only", _mutate(draw, ",".join(ids)),
                 "--seed", draw(st.sampled_from(("0", "3", "-1", "x"))),
                 "--format", draw(st.sampled_from(("text", "json", "xml")))]
        if draw(st.booleans()):
            argv.append("--timings")
    for _ in range(draw(st.integers(0, 1))):  # one argv mutation
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(st.sampled_from(JUNK)))
        elif i < len(argv):
            del argv[i]
    env = draw(st.sampled_from(("256", "64", "4", "1", "256", "64", "0", "many")))
    return argv, data, env


def _recording(fn, raised):
    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return fn(*args)
        except BaseException as exc:
            raised.append(exc)
            raise
    return wrapper


def _chain(exc):
    while exc is not None:
        yield exc
        exc = exc.__cause__ or exc.__context__


def run_cli(argv, env):
    """(exit code, stderr, the exception main caught or None, whether
    argparse exited) of one in-process run."""
    raised = []
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ORBIFORGE_MAX_COSETS", env)
        for name in dir(cli):
            if name.startswith("_cmd_") or name == "_allowance":
                mp.setattr(cli, name, _recording(getattr(cli, name), raised))
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue(), None, True
    return code, err.getvalue(), raised[0] if raised else None, False


@pytest.fixture(scope="module")
def presentation_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "presentation.txt"


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_codes_keep_the_contract(command, data, presentation_path):
    argv, contents, env = data.draw(invocations(command))
    path = presentation_path
    if contents is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(contents)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, err, exc, from_argparse = run_cli(argv, env)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2 and not from_argparse:
        assert isinstance(exc, INPUT_ERRORS), (argv, exc)
        internal = [e for e in _chain(exc) if isinstance(e, INTERNAL_ERRORS)]
        assert internal == [], (argv, internal)


def test_the_harness_tells_the_exit_codes_apart(tmp_path):
    # one known input for each way the harness above can see a run end
    path = tmp_path / "p.txt"
    path.write_text("group g\ngens a b\nrel a^2\n")
    assert run_cli(["abelianize", str(path)], "4") == (0, "", None, False)
    code, err, exc, from_argparse = run_cli(["cosets", str(path), "--max-cosets", "x"], "4")
    assert (code, exc, from_argparse) == (2, None, True) and "usage:" in err
    code, err, exc, from_argparse = run_cli(["abelianize", str(tmp_path / "missing")], "4")
    assert (code, type(exc), from_argparse) == (2, cli.InputError, False)
    code, err, exc, from_argparse = run_cli(["cosets", str(path)], "4")
    assert (code, type(exc), from_argparse) == (3, CosetLimitError, False)
