"""The CLI's boundary as a property: any argv and any small input file.

`sigdom.cli.main` must never let an exception out (argparse's own
`SystemExit(2)` aside) and must return one of the documented exit codes.
A usage error (exit 2) leaves stdout empty and writes exactly one `error:`
line to stderr; under --json any other exit prints exactly one line, the
report.  Argv is drawn per subcommand from pools of good and bad values, and
files from a grammar of headers, count lines and rows, or from real family
files with rows dropped, repeated, reversed or relabelled.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sigdom import FamilyInfo, random_signature, write_edge_list, write_signed_edge_list
from sigdom.cli import main
from sigdom.families import MAX_VERTICES

# Huge values go only to flags that bound or index work, and to count lines:
# each passes every check but the vertex ceiling, or overflows a machine word.
# `--signatures` is a loop count, so it never gets one.
HUGE = [str(MAX_VERTICES // 2 + 1), str(MAX_VERTICES + 1), str(2**63), str(10**30)]
BAD = ["nan", "inf", "-1", "1_0", "u²", "", "x"]
SMALL = ["0", "1", "2", "3", "5", "7"]

GOOD_PARAMS = {
    "P": [["5", "2"], ["7", "3"], ["6", "1"], ["12", "5"], ["4", "1"]],
    "I": [["7", "2", "3"], ["9", "2", "4"], ["12", "3", "3"]],
    "K4U": [["2"], ["3"]],
}
RANGES = ["5", "7", "5..7", "3..8", "7..9", "1", "1..2", "2..3", "1..5", "2..5", "3"]
BAD_RANGES = (
    ["5..", "..2", "7..5", "1_0", "+7", "", "nan", "u²", "-1..3", "1..2..3"]
    + HUGE + [f"2..{h}" for h in HUGE] + [f"{h}..{h}" for h in HUGE]
)
SETS = ["u0,u1,v2,v3", "u0", "0,1,2,3", "u0,u2,v0,v2", "u0,u1,u2,u3,u4,v2,v3", "0,1,2,3,4,5,6,7"]
BAD_SETS = ["", "v9", ",", "u²", "1_0", "-1", "u-1"] + HUGE + [f"u{h}" for h in HUGE]

FAMILIES = [FamilyInfo("P", (5, 2)), FamilyInfo("P", (4, 1)),
            FamilyInfo("I", (7, 2, 3)), FamilyInfo("K4U", (2,))]
HEADERS = [None, "# family P 5 2", "# family I 7 2 3", "# family K4U 2", "# family P 5 7",
           "# family X 3", f"# family P {HUGE[0]} 2", "# family P 5 ²", "# family",
           "# a comment", ""]
COUNTS = [str(n) for n in range(13)] + BAD + HUGE
TOKENS = [str(v) for v in range(12)] + ["12", "-1", "1_0", "u1", "²"] + HUGE


def pick(draw, good, bad):
    """A good value half the time, else any value of either pool."""
    return draw(st.sampled_from(good if draw(st.booleans()) else good + bad))


def optional(draw, flag, good, bad=()):
    return [flag, pick(draw, good, list(bad))] if draw(st.booleans()) else []


@st.composite
def family_file(draw):
    """A family file as `gen` or `sign` writes it, often with its rows perturbed."""
    fam = draw(st.sampled_from(FAMILIES))
    if draw(st.sampled_from([True, True, False])):
        signed = random_signature(fam.graph, draw(st.integers(0, 9)), 0.5)
        text = write_signed_edge_list(signed, fam)
    else:
        text = write_edge_list(fam.graph, fam)
    header, count, *rows = text.splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["drop", "repeat", "reverse", "relabel"]))
        tokens = rows[i].split()
        if kind == "drop":
            del rows[i]
        elif kind == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[i])
        elif kind == "reverse":
            rows[i] = " ".join([tokens[1], tokens[0], *tokens[2:]])
        else:
            tokens[draw(st.integers(0, 1))] = str(draw(st.integers(0, fam.vertices + 1)))
            rows[i] = " ".join(tokens)
    if draw(st.sampled_from([True, True, False])):  # keep the count line true to the rows
        count = f"{fam.vertices} {len(rows)}"
    lines = ([header] if draw(st.sampled_from([True, True, False])) else []) + [count] + rows
    return "\n".join(lines) + "\n"


@st.composite
def grammar_file(draw):
    """A small file from a grammar of header, count line and rows."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.sampled_from(TOKENS)), draw(st.sampled_from(TOKENS))
        sign = draw(st.sampled_from([None, "+", "-", "?"]))
        rows.append(" ".join([a, b] + ([sign] if sign else [])))
    n = draw(st.sampled_from(COUNTS))
    m = draw(st.sampled_from([str(len(rows)), str(len(rows) + 1), "0", "x", *HUGE]))
    count = draw(st.sampled_from([f"{n} {m}", n, None]))
    header = draw(st.sampled_from(HEADERS))
    lines = [line for line in (header, count) if line is not None] + rows
    return "\n".join(lines) + "\n"


def files():
    return st.one_of(family_file(), family_file(), grammar_file())


@st.composite
def argv(draw):
    """Argv for one subcommand. Paths are placeholders that the test resolves in its
    work directory: {a} and {b} are the drawn files, {missing} is never written,
    {nodir} is a missing directory and {dir} a directory, not a file."""
    sub = draw(st.sampled_from(
        ["gen", "sign", "verify", "balance", "switch", "decompose-cut", "construct", "solve",
         "sweep"]
    ))
    flags = []
    if sub in ("gen", "construct"):
        family = draw(st.sampled_from(["P", "I", "K4U"] if sub == "gen" else ["P", "I"]))
        if draw(st.booleans()):
            flags = [family, *draw(st.sampled_from(GOOD_PARAMS[family]))]
        else:
            params = SMALL + ["4", "9", "11", "12"] + BAD + HUGE
            flags = [family, *draw(st.lists(st.sampled_from(params), min_size=1, max_size=4))]
    elif sub != "sweep":
        flags = [pick(draw, ["{a}"], ["{missing}"])]
    if sub == "sign":
        mode = draw(st.sampled_from(["--all-positive", "--random", "--signs"]))
        flags.append(mode)
        if mode == "--random":
            flags.append(pick(draw, ["0", "0.5", "1"], ["1.5", "-0.1", "nan", "inf", "1_0", "x"]))
        elif mode == "--signs":
            flags.append(pick(draw, ["{b}", "{a}"], ["{missing}"]))
    if sub in ("verify", "switch", "decompose-cut"):
        flags += ["--set", pick(draw, SETS, BAD_SETS)]
    if sub in ("verify", "solve"):
        flags += optional(draw, "--k", ["1", "2", "3"], SMALL + BAD + HUGE)
    if sub == "solve":
        flags += optional(draw, "--max-n", ["24", "30"], SMALL + BAD + HUGE)
        flags += optional(draw, "--max-nodes", ["100", "5"], SMALL + BAD + HUGE)
        flags += optional(draw, "--max-seconds", ["0.5", "inf"], ["0", "nan", "-1", "x"])
    if sub == "construct":
        if draw(st.booleans()):
            flags.append("--tight")
        flags += optional(draw, "--signatures", ["1", "3"], ["0", "-1", "nan", "1_0"])
    if sub == "sweep":
        # --n always comes from the pools: its default, 3..20, solves instances
        # of up to 24 vertices and is slow for a property test
        flags += ["--n", pick(draw, RANGES, BAD_RANGES)]
        flags += optional(draw, "--family", ["P", "I", "all"], ["X"])
        flags += optional(draw, "--j", RANGES, BAD_RANGES)
        flags += optional(draw, "--k", RANGES, BAD_RANGES)
        flags += optional(draw, "--solver-cap", ["0", "16", "512"], ["513", "-1", "nan"] + HUGE)
    if sub in ("sign", "construct", "sweep"):
        flags += optional(draw, "--seed", ["0", "7"], SMALL + BAD + HUGE)
    if sub in ("gen", "sign", "switch", "sweep"):
        flags += optional(draw, "-o", ["{out}", "{nodir}/out", "{dir}"])
    return [sub, *flags]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(
    max_examples=500,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=argv(), a=files(), b=files(), as_json=st.booleans())
def test_main_keeps_exit_codes_and_stdout_contract(workdir, argv, a, b, as_json):
    (workdir / "a").write_text(a)
    (workdir / "b").write_text(b)
    (workdir / "out").unlink(missing_ok=True)
    paths = {"a": workdir / "a", "b": workdir / "b", "missing": workdir / "missing",
             "out": workdir / "out", "nodir": workdir / "nodir", "dir": workdir}
    argv = [arg.format(**paths) for arg in argv] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv itself
            code = None
            assert exc.code == 2
    out, err = out.getvalue(), err.getvalue()
    if code is None:
        assert ": error: " in err.splitlines()[-1]
        return
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        return
    assert err == ""
    if as_json:
        assert out.endswith("\n") and out.count("\n") == 1
        report = json.loads(out)
        assert isinstance(report, dict)
        assert set(report) == {"command", "inputs", "seed", "results", "timing_ms"}
