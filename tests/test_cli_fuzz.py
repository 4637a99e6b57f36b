"""Random CLI input ends in exit 0, 1 or 2, never in a traceback.

Every subcommand is driven with small random integers, ratios and
significance levels, with any flag possibly left out; sizes stay tiny so
each run takes milliseconds.  A negative count (files, databases, bits,
trials or sessions) is a usage error wherever it is given.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from decpir.cli import main

SMALL = st.integers(-1, 4)
RATIO = st.one_of(
    st.builds("{}/{}".format, st.integers(-1, 4), st.integers(0, 4)),
    st.sampled_from(["0.5", "1", "0", "-0.25", "2", "x", ""]),
)
# Counts that no command accepts below zero.
COUNTS = {"--k", "--n", "--file-bits", "--trials", "--sessions"}
SIGNIFICANCE = st.one_of(
    st.sampled_from(["0", "1", "-1", "nan", "inf", "0.05", "x"]),
    st.floats(0, 1).map(str),
)


def _flag(name, values):
    """``[]`` or ``[name, value]``: any flag may be missing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _command(name, *flags):
    return st.tuples(st.just([name]), *flags).map(lambda parts: sum(parts, []))


def _switch(name):
    return st.sampled_from([[], [name]])


COMMANDS = st.one_of(
    _command(
        "capacity", _flag("--k", SMALL), _flag("--n", SMALL), _flag("--mu", RATIO)
    ),
    _command("classical", _flag("--k", SMALL), _flag("--n", SMALL)),
    _command(
        "envelope", _flag("--k", SMALL), _flag("--n", SMALL), _flag("--mu", RATIO)
    ),
    _command(
        "simulate",
        _flag("--k", SMALL),
        _flag("--n", SMALL),
        _flag("--mu", RATIO),
        _flag("--file-bits", st.integers(-1, 8)),
        _flag("--trials", st.integers(-1, 2)),
        _flag("--seed", SMALL),
        _flag("--policy", st.sampled_from(["uniform-random", "whole-file-prefix"])),
        _flag("--files", st.sampled_from(["0", "1,0", "0,0", "5", "-1", "x", ""])),
    ),
    _command(
        "sweep",
        st.sampled_from([["--vary", "n"], ["--vary", "mu"], []]),
        _flag("--k", SMALL),
        _flag("--n", SMALL),
        _flag("--mu", RATIO),
        _flag("--start", SMALL),
        st.integers(-1, 3).map(lambda v: ["--to", str(v)]),
        st.integers(-1, 3).map(lambda v: ["--points", str(v)]),
        _flag("--trials", st.integers(0, 2)),
        st.integers(-1, 8).map(lambda v: ["--file-bits", str(v)]),
        _switch("--envelope"),
    ),
    _command(
        "converse",
        _flag("--k", SMALL),
        _flag("--n", SMALL),
        _flag("--mu", RATIO),
        _flag("--file-bits", st.integers(-1, 8)),
        _flag("--trials", st.integers(-1, 2)),
        _flag("--seed", SMALL),
    ),
    _command(
        "optimize",
        _flag("--k", SMALL),
        _flag("--n", SMALL),
        _flag("--mu", RATIO),
        _flag("--file-bits", st.integers(-1, 6)),
    ),
    _command(
        "privacy-test",
        _flag("--k", SMALL),
        _flag("--n", SMALL),
        _flag("--file-bits", st.integers(-1, 8)),
        st.integers(-1, 20).map(lambda v: ["--sessions", str(v)]),
        _flag("--significance", SIGNIFICANCE),
        _flag("--seed", SMALL),
        _switch("--no-permute"),
    ),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return code, err.getvalue()


@given(argv=COMMANDS)
@settings(max_examples=80)
# Empty profiles: no files, and no bits (per-size masses must still print).
@example(argv=["converse", "--k", "0", "--n", "0", "--mu", "0.5", "--file-bits", "0"])
@example(argv=["optimize", "--k", "1", "--n", "0", "--mu", "1/2", "--file-bits", "0"])
# Negative database counts, which once ran as if valid.
@example(argv=["converse", "--k", "3", "--n", "-1", "--mu", "1/2", "--file-bits", "10"])
@example(argv=["optimize", "--k", "1", "--n", "-1", "--mu", "1/2", "--file-bits", "2"])
# Four files: under the download cap, so the privacy test runs.
@example(
    argv=["privacy-test", "--k", "4", "--n", "2", "--file-bits", "16", "--sessions", "200"]
)
def test_cli_exits_cleanly_on_random_input(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert err.strip(), argv
    if argv[0] in ("simulate", "converse", "optimize", "privacy-test") and any(
        flag in COUNTS and value.startswith("-")
        for flag, value in zip(argv, argv[1:])
    ):
        assert code == 1, (argv, code, err)

