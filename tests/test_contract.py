"""Input and error contract, over generated config text and command lines.

Every config either parses to a scenario and a simulation config or raises
ConfigError naming its source, with the line of a malformed or non-finite
value. `main` returns 0, 1 or 2 for every command, lets no exception escape,
prints one line on exit 1, and then leaves no new output directory behind.
"""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qamlink import cli
from qamlink.config import _KEYS, ConfigError, RunConfig, parse_config_text

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE = "gen.cfg"
_TYPES = {f.name: f.type for f in fields(RunConfig)}

# one line of text: no line breaks of any kind (str.splitlines splits on them)
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")),
                     max_size=12)
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10**12).map(str),
    st.sampled_from(["none", "gaussian", "rectangular", ".", "1e6", "-inf",
                     "1.5", "256", "4", "1e400", "  "]),
    _LINE_TEXT,
)


def _value_as_parsed(line: str) -> str:
    return line.split("#", 1)[0].partition("=")[2].strip()


def _bad_number(key: str, value: str) -> bool:
    """True when the value is malformed or non-finite for a numeric key."""
    kind = _TYPES[key]
    if kind == "str" or (kind == "float | None" and value == "none"):
        return False
    if kind == "int":
        try:
            int(value)
            return False
        except ValueError:
            pass
    try:
        number = float(value)
    except ValueError:
        return True
    return not math.isfinite(number) or (kind == "int" and not number.is_integer())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_KEYS)), _VALUES),
                unique_by=lambda kv: kv[0], max_size=8))
def test_generated_config_loads_or_names_its_line(entries):
    lines = [f"{key} = {value}" for key, value in entries]
    try:
        cfg = parse_config_text("\n".join(lines), source=SOURCE)
        cfg.scenario()
        cfg.sim_config()
    except ConfigError as exc:
        message = str(exc)
        assert message.startswith(SOURCE), message
    else:
        message = None

    values = [_value_as_parsed(line) for line in lines]
    empty = [n for n, value in enumerate(values, start=1) if not value]
    bad = [n for n, ((key, _), value) in enumerate(zip(entries, values), start=1)
           if _bad_number(key, value)]
    first = (empty or bad or [None])[0]
    if first is not None:
        assert message is not None and message.startswith(f"{SOURCE}:{first}:"), (
            first, message)


_NUMBERS = st.one_of(st.floats(-20.0, 40.0).map(lambda x: f"{x:.2f}"),
                     st.sampled_from(["nan", "inf", "-inf", "0", "loud"]))
_CONFIGS = st.sampled_from(["paper.cfg", "qpsk.cfg", "missing.cfg", "bad.cfg", None])
_OUTS = st.sampled_from(["fresh", "taken", "taken/below", "fresh/nested"])


def _options(draw, pairs) -> list[str]:
    """Each flag given or not; a flag without a value strategy is a switch."""
    argv = []
    for flag, strategy in pairs:
        if draw(st.booleans()):
            argv += [flag] if strategy is None else [flag, draw(strategy)]
    return argv


@st.composite
def _budget_argv(draw):
    return ["budget", *_options(draw, [("--tx-power", _NUMBERS),
                                        ("--seed", st.sampled_from(["3", "-1", "x"]))])]


@st.composite
def _sweep_argv(draw):
    return ["ber-sweep", "--theory-only",
            *_options(draw, [("--from", _NUMBERS), ("--to", _NUMBERS),
                             ("--step", st.sampled_from(["0.5", "1", "0", "-1", "nan"])),
                             ("--modulation", st.sampled_from(["4", "256", "8", "x"])),
                             ("--bits", st.sampled_from(["1000", "-5"])),
                             ("--seed", st.sampled_from(["2", "x"]))])]


@st.composite
def _run_argv(draw):
    """simulate or spectrum at bit budgets of a few symbols."""
    command = draw(st.sampled_from(["simulate", "spectrum"]))
    flags = [("--tx-power", _NUMBERS), ("--no-noise", None), ("--linear-pa", None)]
    if command == "simulate":
        flags.append(("--ebn0", _NUMBERS))
    bits = draw(st.sampled_from(["2", "8", "80", "0", "7"]))
    return [command, "--bits", bits, *_options(draw, flags)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_budget_argv(), _sweep_argv(), _run_argv()), _CONFIGS, _OUTS)
def test_main_exits_0_1_or_2_and_cleans_up_on_1(argv, config, out):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "taken").write_text("")
        (tmp / "bad.cfg").write_text("seed = 1\nbogus = 2\n")
        for name in ("paper.cfg", "qpsk.cfg"):
            (tmp / name).write_bytes((REPO_ROOT / name).read_bytes())
        if config is not None:
            argv = [*argv, "--config", str(tmp / config)]
        argv = [*argv, "--out", str(tmp / out)]
        before = sorted(tmp.rglob("*"))

        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)

        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert sorted(tmp.rglob("*")) == before, argv
