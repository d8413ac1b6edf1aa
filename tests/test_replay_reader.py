"""`read_replay_csv` against the per-row reference reader, bit for bit.

The reader parses a block of plain-number lines with numpy and conditions
it over columns; csv.reader and float() parse any other block. These tests
draw streams that take both parsers, every check of the conditioning and
block boundaries (the block size is patched small), and compare the
samples and the error with `reference_read_replay_csv`.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scalar_reference import reference_read_replay_csv
from shankexo import gait_signals
from shankexo.cli import main
from shankexo.gait_signals import (REPLAY_HEADER, KinematicSample,
                                   SignalLossError, SignalQualityError,
                                   read_replay_csv)
from shankexo.plant import GaitWorld, PlantConfig, build_template

HEADER = ",".join(REPLAY_HEADER) + "\n"
BLOCK_SIZES = (1, 2, 3, 4, 7, gait_signals.REPLAY_BLOCK_LINES)


def outcome(reader, path):
    """The samples read, as float bits, and the error that ended the read."""
    samples, error = [], None
    try:
        for s in reader(path):
            assert type(s) is KinematicSample
            assert all(type(v) is float for v in s)
            samples.append(tuple(v.hex() for v in s))
    except Exception as exc:
        error = (type(exc), str(exc))
    return samples, error


def assert_same_as_reference(path, block_sizes=BLOCK_SIZES):
    want = outcome(reference_read_replay_csv, path)
    for lines in block_sizes:
        with mock.patch.object(gait_signals, "REPLAY_BLOCK_LINES", lines):
            got = outcome(read_replay_csv, path)
        assert got == want, f"block of {lines} lines"
    return want


def text_of(rows):
    return HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows)


def write(path, rows):
    path.write_text(text_of(rows))
    return path


def regular(n, t0=10.0):
    return [[t0 + 10.0 * i, 0.5 * i, -0.25 * i, 3.0, -1.5] for i in range(n)]


def with_gap_at(rows, at):
    """`rows` with one sample missing before row `at`."""
    return rows[:at] + [[r[0] + 10.0, *r[1:]] for r in rows[at:]]


def with_value(rows, at, col, v):
    rows = [list(r) for r in rows]
    rows[at][col] = v
    return rows


# -- generated streams -----------------------------------------------------------

# A stream is regular 10 ms rows of seeded random angles, with a few drawn
# changes at drawn rows: a time step (1-3 missing samples, steps that round
# half to even, gaps past the limit, non-increasing), a value (0, -0, one
# near the float limit for a fill to overflow, or not finite), a field
# written in a form that only csv.reader and float() read or that numpy
# must not be given, or a line that is blank or has 4 or 6 fields.
STEPS = [20.0, 30.0, 40.0, 50.0, 0.0, -10.0, 5.0, 15.0, 25.0, 35.0,
         9.999999, 10.000001, 1e300, math.nan, math.inf, -math.inf]
VALUES = [0.0, -0.0, 1e308, -1e308, 8e307, 5e-324, math.nan, math.inf,
          -math.inf]
STYLES = ["spaced", "tab", "quoted", "underscore", "upper", "separator"]
LINES = ["blank", "spaces", "four", "six"]
CHANGES = st.one_of(
    st.tuples(st.just("step"), st.sampled_from(STEPS)),
    st.tuples(st.just("value"), st.integers(1, 4), st.sampled_from(VALUES)),
    st.tuples(st.just("style"), st.integers(0, 4), st.sampled_from(STYLES)),
    st.tuples(st.just("line"), st.sampled_from(LINES)))


def field(v: float, style: str) -> str:
    text = repr(v)
    if style == "spaced":
        return f" {text} "
    if style == "tab":
        return f"\t{text}"
    if style == "quoted":
        return f'"{text}"'
    if style == "upper":
        return text.upper()
    if style == "separator":
        return text + "\x1c"
    if style == "underscore" and text[:2].isdigit():
        return text[0] + "_" + text[1:]
    return text


@st.composite
def streams(draw):
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-200.0, 200.0, (n, 4)).round(
        draw(st.sampled_from([1, 6, 17]))).tolist()
    steps = [10.0] * n
    styles = [[""] * 5 for _ in range(n)]
    lines = ["row"] * n
    for row, change in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                               CHANGES), max_size=5)):
        if row >= n:
            continue
        kind, *what = change
        if kind == "step":
            steps[row] = what[0]
        elif kind == "value":
            values[row][what[0] - 1] = what[1]
        elif kind == "style":
            styles[row][what[0]] = what[1]
        else:
            lines[row] = what[0]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text, t = [HEADER.replace("\n", ending)], draw(
        st.sampled_from([0.0, 10.0, -40.0, 1e6]))
    for step, vals, style, kind in zip(steps, values, styles, lines):
        t = step if not math.isfinite(step) else t + step
        fields = [field(v, how) for v, how in zip([t] + vals, style)]
        if not math.isfinite(t):
            t = 0.0
        if kind == "blank":
            fields = []
        elif kind == "spaces":
            fields = ["   "]
        elif kind == "four":
            fields.pop()
        elif kind == "six":
            fields.append("0.0")
        text.append(",".join(fields) + ending)
    return "".join(text)


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    return tmp_path_factory.mktemp("replay") / "stream.csv"


# The examples take a block with and without a gap: a gapless stream of
# several blocks, a gap at a block boundary, finite angles whose DF
# overflows, and a NaN field in an otherwise gapless block.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=streams(), lines=st.sampled_from(BLOCK_SIZES))
@example(text=text_of(regular(11)), lines=4)
@example(text=text_of(with_gap_at(regular(11), 4)), lines=4)
@example(text=text_of(with_value(with_value(regular(11), 5, 2, 1e308),
                                 5, 1, -1e308)), lines=4)
@example(text=text_of(with_value(regular(11), 6, 3, math.nan)), lines=4)
def test_block_reader_equals_the_per_row_reader(stream_path, text, lines):
    stream_path.write_bytes(text.encode())
    assert_same_as_reference(stream_path, block_sizes=(lines,))


# -- hand-picked streams ---------------------------------------------------------

@pytest.mark.parametrize("at", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("missing", [1, 2])
def test_gap_that_straddles_a_block_boundary_is_filled(tmp_path, at, missing):
    rows = regular(8)
    for r in rows[at:]:
        r[0] += 10.0 * missing
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert error is None and len(samples) == 8 + missing


def test_gap_after_the_first_row_repeats_it(tmp_path):
    rows = [[0.0, -0.0, -0.0, 2.0, -3.0], [30.0, 1.0, 1.0, 1.0, 1.0]]
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    assert error is None
    got = list(read_replay_csv(path))
    assert [s.t_ms for s in got] == [0.0, 10.0, 20.0, 30.0]
    assert math.copysign(1.0, got[1].theta_ft) == -1.0


# The first overflows on both fills, which are checked before the row, so
# the row's NaN goes unreported; the second overflows on the second fill.
@pytest.mark.parametrize("prev, last, ft", [(-1e308, 1e308, "nan"),
                                            (0.0, 6e307, 0.0)])
def test_fill_that_overflows_is_rejected_after_the_rows_before(tmp_path, prev,
                                                               last, ft):
    rows = [[0.0, 0.0, prev, 0.0, 0.0], [10.0, 0.0, last, 0.0, 0.0],
            [40.0, ft, 0.0, 0.0, 0.0]]
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert len(samples) == 2
    assert error == (SignalQualityError,
                     "replay line 4: non-finite kinematic input: inf")


# Finite angles or rates whose DF difference overflows: the row's angle,
# the row's rate, and the angle of the fill before the row.
@pytest.mark.parametrize("rows, line", [
    ([[0, -1e308, 1e308, 3, 4]], 2),
    ([[0, 1, 2, 3, 4], [10, 1, 2, -1e308, 1e308]], 3),
    ([[0, 0, 0, 0, 0], [10, -6e307, 6e307, 0, 0], [30, 0, 0, 0, 0]], 4),
], ids=["angle", "rate", "fill"])
def test_derived_df_that_overflows_is_one_error_line(tmp_path, capsys, rows,
                                                     line):
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    assert len(samples) == line - 2
    assert error == (SignalQualityError,
                     f"replay line {line}: non-finite kinematic input: inf")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"shankexo: error: {error[1]}\n"


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_timestamp_is_one_error_line(tmp_path, capsys, bad, first):
    rows = regular(4)
    rows[0 if first else 1][0] = bad
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path)
    line = 2 if first else 3
    assert len(samples) == (0 if first else 1)
    assert error == (SignalQualityError,
                     f"replay line {line}: non-finite timestamp t_ms={bad}")
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"shankexo: error: {error[1]}\n"


def test_infinite_step_is_a_gap(tmp_path):
    rows = [[-1.7e308, 0, 0, 0, 0], [1.7e308, 0, 0, 0, 0]]
    samples, error = assert_same_as_reference(write(tmp_path / "s.csv", rows))
    assert error == (SignalLossError,
                     "kinematic stream gap of inf samples at t=1.7e+308 ms")


def test_field_past_the_csv_size_limit_is_rejected(tmp_path, capsys):
    rows = regular(3)
    rows[1][1] = "0" * 131072 + "1"
    path = write(tmp_path / "s.csv", rows)
    samples, error = assert_same_as_reference(path, block_sizes=(1, 1024))
    assert len(samples) == 1
    assert error == (SignalQualityError, "replay line 3: field larger than "
                                         "field limit (131072)")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"shankexo: error: {error[1]}\n"


def test_header_past_the_csv_size_limit_is_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x" * 131073 + "\n0,0,0,0,0\n")
    assert assert_same_as_reference(path) == ([], (
        SignalQualityError, "replay line 1: field larger than field limit "
                            "(131072)"))


def test_quoted_field_across_a_block_boundary(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(HEADER + '10,0,0,0,0\n"20\n",1,1,1,1\n30,2,2,2,2\n',
                    newline="")
    samples, error = assert_same_as_reference(path)
    assert error is None and len(samples) == 3


@pytest.mark.parametrize("open_quote", [False, True])
def test_undecodable_text_after_rows(tmp_path, open_quote):
    # A byte that is not UTF-8 reads as a lone surrogate, so its row is not
    # five numbers, after the rows before it. The second stream's last good
    # line opens a quoted field, which runs on over the bad byte to the
    # end of the file.
    text = HEADER + "".join(f"{10.0 * i},0,0,0,0\n" for i in range(1, 3000))
    if open_quote:
        text = text[:text.rindex("\n", 0, 8100) + 1]
        text += "9" * (8192 - len(text) - 4) + ',"1\n'
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode() + b"\xff\n10,0,0,0,0\n")
    samples, error = assert_same_as_reference(path, block_sizes=(7, 1024))
    line = text.count("\n") + (2 if open_quote else 1)   # where it ends
    assert samples and error[0] is SignalQualityError
    assert error[1].startswith(f"replay line {line}: not 5 numbers: ")
    assert "\\udcff" in error[1]


@pytest.mark.parametrize("where", ["header", "row"])
def test_latin_1_stream_is_one_error_line(tmp_path, capsys, where):
    path = tmp_path / "s.csv"
    head = HEADER.encode()
    if where == "header":
        head = head.replace(b"deg", b"\xb0", 1)
    path.write_bytes(head + b"0,1,2,3,4\n10,1,2,\xe9,4\n")
    samples, error = assert_same_as_reference(path)
    assert error[0] is SignalQualityError
    if where == "row":
        assert len(samples) == 1
        assert error[1] == ("replay line 3: not 5 numbers: "
                            "['10', '1', '2', '\\udce9', '4']")
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("shankexo: error: ") and err.count("\n") == 1


def test_byte_order_mark_replays_as_the_stream(tmp_path, capsys):
    # A stream saved as "CSV UTF-8" starts with a UTF-8 byte-order mark.
    frames = GaitWorld(build_template("lw"), PlantConfig()).advance_block(
        0.01, 600).frames
    path = write(tmp_path / "s.csv", [
        [(k + 1) * 10.0, ft, sk, ft_rate, sk_rate]
        for k, (ft, sk, _, ft_rate, sk_rate, _) in enumerate(frames.tolist())])
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert assert_same_as_reference(marked) == outcome(read_replay_csv, path)
    outputs = []
    for p in (path, marked):
        assert main(["replay", str(p)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out.startswith("stride 0: ")
    assert outputs[1] == outputs[0]


def test_nothing_opens_before_the_first_sample(tmp_path):
    path = tmp_path / "s.csv"
    samples = read_replay_csv(path)     # no file yet
    write(path, regular(3))
    assert len(list(samples)) == 3
    with pytest.raises(FileNotFoundError):
        next(read_replay_csv(tmp_path / "missing.csv"))


# -- memory ----------------------------------------------------------------------

def test_read_memory_does_not_grow_with_the_stream(tmp_path):
    peaks = []
    for n in (5_000, 50_000):
        path = write(tmp_path / f"s{n}.csv",
                     [[10.0 * i, 1.25, -3.5, 40.125, -7.0] for i in range(n)])
        tracemalloc.start()
        try:
            for _ in read_replay_csv(path):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Read whole, the longer stream peaks about 14 MB above the shorter.
    assert abs(peaks[1] - peaks[0]) < 200_000, peaks
