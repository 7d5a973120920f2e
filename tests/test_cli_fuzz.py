"""Property test over CLI argv: whatever the arguments, cli.run ends with
exit code 0, 1, 2 or 3 and never with a traceback. Runs in-process, so
every example also reuses the one cached argument parser. It runs once
at the engine's own block size and once in blocks of two entries, so
that short inputs reach the blocked engine too, and once with vectors
read from drawn CSV and JSON files."""
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inforcer import cli, engine, registry

COMMANDS = ["compute", "list", "verify", "dual", "sweep", "info"]
VALUE_FLAGS = ["--measure", "--param", "--grid", "--p", "--q", "--u", "--u2", "--v", "--v2", "--family",
               "--format", "--tolerance", "--alpha", "--beta", "--gamma", "--mu", "--tau", "--lambda",
               "--c", "--e", "--betas"]
SWITCHES = ["--renormalize", "--raw", "--nats"]
NAMES = [spec.name for spec in registry.list_measures()]

numbers = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "2", "1.5", "-1e0", "-1e-3", "-.5", "1e300", "-1e300", "400",
                     "1e-320", "nan", "inf", "-inf", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
vectors = st.lists(
    st.one_of(st.sampled_from(["0", "0.5", "0.25", "0.75", "1", "-0.5", "0.2", "0.8", "1e-300", "nan"]),
              numbers),
    max_size=5,
).map(",".join)
values = st.one_of(
    numbers, vectors,
    st.sampled_from(NAMES + ["alpha", "beta", "gamma", "lambda", "lam", "betas", "tau", "information",
                             "certainty", "json", "csv", "plain", "", ","]),
    st.text(max_size=8),
)
options = st.one_of(
    st.tuples(st.sampled_from(VALUE_FLAGS), values).map(list),
    st.tuples(st.sampled_from(VALUE_FLAGS).map(lambda f: f + "="), values).map(lambda t: ["".join(t)]),
    st.sampled_from(SWITCHES).map(lambda s: [s]),
    values.map(lambda v: [v]),
)


PARAM_FLAGS = ["--alpha", "--beta", "--gamma", "--mu", "--tau", "--lambda", "--c", "--e"]
simplices = st.one_of(
    st.sampled_from(["0.5,0.5", "0.2,0.8", "0.25,0.25,0.5", "0,0.5,0.5", "0.1,0.2,0.3,0.4", "1,0",
                     "0,0,0.5,0.5", "0.5,0.5,0,0"]),
    vectors,
)
params = st.one_of(numbers, st.floats(-5.0, 5.0).map(repr))
grids = st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=4, unique=True)


@st.composite
def well_formed(draw):
    """A command with the arguments it requires and numeric parameters:
    these reach the registry and the engine, not only argparse."""
    command = draw(st.sampled_from(["compute", "verify", "dual", "sweep"]))
    argv = [command, "--measure", draw(st.sampled_from(NAMES)), "--p", draw(simplices)]
    if command == "verify":
        argv += ["--q", draw(simplices)]
    if command == "sweep":
        argv += ["--param", draw(st.sampled_from(["alpha", "beta", "gamma", "mu", "tau", "lambda", "c", "e"])),
                 "--grid=" + ",".join(map(repr, sorted(draw(grids))))]
    for flag in draw(st.lists(st.sampled_from(PARAM_FLAGS), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(params)}")
    weights = ["--u", "--v"] + (["--u2", "--v2"] if command == "verify" else [])
    for flag in draw(st.lists(st.sampled_from(weights), max_size=2, unique=True)):
        argv += [flag, draw(simplices)]
    switches = ["--renormalize"] + (["--nats"] if command in ("compute", "sweep") else [])
    return argv + draw(st.lists(st.sampled_from(switches), max_size=1))


@st.composite
def anything(draw):
    argv = [draw(st.sampled_from(COMMANDS))]
    for option in draw(st.lists(options, max_size=6)):
        argv += option
    return argv


def _check_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as stop:  # --help prints and exits, as argparse does
            code = stop.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


fuzz = settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@fuzz
@given(st.one_of(well_formed(), anything()))
def test_cli_exit_codes_and_no_traceback(argv):
    _check_exit_code(argv)


@fuzz
@given(st.one_of(well_formed(), anything()))
@example(["sweep", "--measure", "renyi", "--param", "alpha", "--grid", "2,3", "--p", "0,0,0.5,0.5"])
def test_cli_exit_codes_and_no_traceback_in_blocks_of_two(argv):
    # set by hand and restored in finally: hypothesis rejects the
    # function-scoped monkeypatch fixture under @given
    saved, engine._BLOCK = engine._BLOCK, 2
    try:
        _check_exit_code(argv)
    finally:
        engine._BLOCK = saved


# CSV files: an optional header, one number or a comma row per line,
# blank lines between them
columns = simplices.map(lambda s: s.replace(",", "\n"))
csv_lines = st.one_of(numbers, vectors, columns, st.sampled_from(["", " ", ","]))
headers = st.sampled_from(["", "p\n", "p,q\n", "value\n\n"])
csv_files = st.one_of(
    st.tuples(headers, st.lists(csv_lines, max_size=6).map("\n".join)),
    st.tuples(headers, columns),
).map(lambda t: t[0] + t[1] + "\n")
# JSON files: numbers, integers beyond the double range, booleans,
# nested lists and objects, in an array or alone
json_items = st.one_of(
    st.sampled_from([0, 1, 0.5, 0.25, 0.75, 0.2, 0.8]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.lists(st.floats(0.0, 1.0), max_size=2),
    st.dictionaries(st.text(max_size=3), st.floats(0.0, 1.0), max_size=2),
)
json_files = st.one_of(st.lists(json_items, max_size=5).map(json.dumps), json_items.map(json.dumps),
                       simplices.map(lambda s: f"[{s}]"))
vector_files = st.one_of(st.tuples(st.just(".csv"), csv_files), st.tuples(st.just(".json"), json_files))
FILE_FLAGS = ["--p", "--q", "--u", "--u2", "--v", "--v2"]


@st.composite
def with_vector_files(draw):
    """A well-formed command and, for some of its vector flags, the text
    of a file that the test writes and passes in place of the vector."""
    argv = draw(well_formed())
    flags = [a for a in argv if a in FILE_FLAGS]
    return argv, {flag: draw(vector_files) for flag in flags if draw(st.booleans())}


@settings(fuzz, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(with_vector_files())
@example((["compute", "--measure", "shannon", "--p", "0.5,0.5"], {"--p": (".json", "[1" + "0" * 400 + ", 0]")}))
def test_cli_exit_codes_and_no_traceback_with_vector_files(tmp_path, case):
    # every example writes the same file names, so tmp_path is safe to share
    argv, files = case
    argv = list(argv)
    for flag, (suffix, text) in files.items():
        path = tmp_path / (flag[2:] + suffix)
        path.write_text(text)
        argv[argv.index(flag) + 1] = str(path)
    _check_exit_code(argv)
