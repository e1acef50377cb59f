"""Parity of the bulk dataset reader and writer with the line-by-line versions."""

import contextlib
import functools
import io
import multiprocessing
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tailcens import cli
from tailcens.cli import CliError, _fmt, main, read_dataset, write_dataset


def reference_read_dataset(path: str) -> tuple[list[float], list[int]]:
    """The line-loop parser the bulk reader replaced, with the finite-time rule."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "time,status":
        raise CliError(f'{path}: missing header "time,status"')
    times: list[float] = []
    statuses: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CliError(f"{path}: malformed row at line {lineno}")
        try:
            t = float(parts[0])
            s = int(parts[1])
        except ValueError as exc:
            raise CliError(f"{path}: malformed row at line {lineno}") from exc
        if not (t > 0) or t == float("inf") or s not in (0, 1):
            raise CliError(f"{path}: invalid observation at line {lineno}")
        times.append(t)
        statuses.append(s)
    if not times:
        raise CliError(f"{path}: empty dataset")
    return times, statuses


def reference_write_dataset(times: list[float], statuses: list[int], out) -> None:
    """The per-row writer the single-write version replaced."""
    out.write("time,status\n")
    for t, s in zip(times, statuses):
        out.write(f"{_fmt(t)},{s}\n")


CORPUS = {
    "plain": "time,status\n1.5,1\n2,0\n",
    "no final newline": "time,status\n1.5,1\n2,0",
    "exponents": "time,status\n1e3,0\n2.5E-4,1\n.5,1\n7.,0\n",
    "blank lines": "time,status\n\n1.5,1\n\n\n2,0\n\n",
    "whitespace line": "time,status\n1.5,1\n   \n2,0\n",
    "crlf": "time,status\r\n1.5,1\r\n2,0\r\n",
    "lone cr": "time,status\r1.5,1\r2,0\r",
    "surrounding spaces": "time,status\n 1.5 , 1 \n\t2,\t0\n",
    "plus status": "time,status\n1.5,+1\n2,-0\n",
    "float status": "time,status\n1.5,1.0\n",
    "underscore time": "time,status\n1_0,1\n2,0\n",
    "underscore status": "time,status\n10,1_0\n",
    "comment": "time,status\n# note\n1.5,1\n",
    "one column": "time,status\n1.5,1\n2.5\n",
    "three columns": "time,status\n1.5,1,7\n",
    "trailing comma": "time,status\n1.5,1,\n2,0,\n",
    "empty field": "time,status\n1.5,\n",
    "nan": "time,status\n1,1\nnan,1\n",
    "inf": "time,status\n1,1\ninf,0\n",
    "overflowing time": "time,status\n1,1\n1e400,0\n",
    "zero": "time,status\n0,1\n",
    "underflowing time": "time,status\n1e-400,1\n",
    "negative": "time,status\n1,1\n-2.5,1\n",
    "status 2": "time,status\n1,1\n3,2\n",
    "status 257": "time,status\n1,257\n",
    "header only": "time,status\n",
    "header and blank lines": "time,status\n\n  \n",
    "header with spaces": " time,status \n1.5,1\n",
    "wrong header": "t,s\n1.5,1\n",
    "empty file": "",
    "form feed inside a row": "time,status\n1.5,1\x0c2,0\n",
    "form feed ending a row": "time,status\n1.5,1\x0c\n2,0\n",
    "unit separator": "time,status\n\x1f1.5,1\n",
    "line separator": "time,status\n1.5\u2028,1\n",
    "no-break space": "time,status\n1.5\xa0,1\n",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_read_dataset_matches_the_line_parser(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    try:
        want = reference_read_dataset(str(path))
    except CliError as exc:
        with pytest.raises(CliError) as got:
            read_dataset(str(path))
        assert str(got.value) == str(exc)
        return
    times, statuses = read_dataset(str(path))
    assert times.dtype == np.float64 and statuses.dtype == np.int8
    assert times.tolist() == want[0]
    assert statuses.tolist() == want[1]


@pytest.mark.parametrize("name", ["plain", "no final newline", "exponents", "blank lines",
                                  "crlf", "lone cr", "surrounding spaces", "plus status"])
def test_clean_files_are_parsed_in_bulk(tmp_path, monkeypatch, name):
    def scan(*args):
        raise AssertionError("the line scan ran on a clean file")

    monkeypatch.setattr(cli, "_scan_dataset", scan)
    path = tmp_path / "d.csv"
    path.write_bytes(CORPUS[name].encode("utf-8"))
    times, _ = read_dataset(str(path))
    assert times.size >= 1


def whole_text_routing(text: str) -> bool:
    """The bulk-parse decision made on the whole text split at its first line break."""
    header, _, body = text.partition("\n")
    return (header == "time,status" and bool(body) and not body.isspace()
            and body.isascii() and not any(c in body for c in cli._SCAN_ONLY))


@pytest.mark.parametrize("block", [1, 2, 5, 1 << 20])
def test_blockwise_routing_matches_the_whole_text(tmp_path, monkeypatch, block):
    # small blocks put every character of these files on a block boundary
    monkeypatch.setattr(cli, "_CHECK_CHARS", block)
    late = {
        "row after many blank lines": "time,status\n" + "\n" * 9 + "1,1\n",
        "form feed in the last block": "time,status\n1,1\n2,0\n3,1\x0c\n",
        "non-ascii in the last block": "time,status\n1,1\n2,0\n3\xa0,1\n",
        "blank body of many lines": "time,status\n" + " \n\t" * 7,
    }
    for name, text in {**CORPUS, **late}.items():
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        # read back with universal newlines, as both routes read the file
        assert cli._bulk_readable(str(path)) == whole_text_routing(path.read_text("utf-8")), name
    (tmp_path / "bad.csv").write_bytes(b"time,status\n1,1\n\xff,0\n")
    assert not cli._bulk_readable(str(tmp_path / "bad.csv"))
    assert not cli._bulk_readable(str(tmp_path / "missing.csv"))


# traced bytes per row that synth, contaminate and estimate may peak at.
# numpy reports its buffers to tracemalloc, so the figures are
# deterministic.  At n = 200 000 they were 57.3, 51.5 and 51.2 when every
# layer kept its full-length temporaries, and 27.3, 26.4 and 26.4 without
# them.  A block of formatted rows adds ~8 of them to synth and contaminate
PEAK_BYTES_PER_ROW = 40


def test_dataset_commands_peak_memory_per_row(tmp_path):
    n = 200_000
    synth, contaminated = tmp_path / "s.csv", tmp_path / "c.csv"
    commands = {
        "synth": ["synth", "--n", str(n), "--gamma1", "0.3", "--p", "0.7",
                  "--epsilon", "0.1", "--output", str(synth)],
        "contaminate": ["contaminate", str(synth), "--output", str(contaminated)],
        # k <= 1000, so that the scan buffer of the MDPD solves stays small
        "estimate": ["estimate", str(contaminated), "--k-min", "100", "--k-max", "1000",
                     "--k-step", "300", "--alpha", "0", "--alpha", "0.5",
                     "--with-competitors"],
    }
    per_row = {}
    for name, argv in commands.items():
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            per_row[name] = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
    assert max(per_row.values()) <= PEAK_BYTES_PER_ROW, per_row


def test_write_dataset_is_byte_identical_to_the_row_writer():
    block = cli._WRITE_ROWS
    rng = np.random.default_rng(3)
    times = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 5 * block + 3))
    times[:11] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5,
                  0.1, 1.0, 123456789012.5, 1e21, np.inf, np.nan, -0.0]
    statuses = (rng.random(times.size) < 0.6).astype(np.int8)
    # counts that put the last row on each side of a block edge
    for n in sorted({0, 1, block - 1, block, block + 1, 65535, 65536, 65537, 5 * block + 3}):
        got, want = io.StringIO(), io.StringIO()
        write_dataset(times[:n], statuses[:n], got)
        reference_write_dataset(times[:n].tolist(), statuses[:n].tolist(), want)
        assert got.getvalue() == want.getvalue(), n
        assert got.getvalue().count("\n") == n + 1


def assert_rows_match(times, statuses=None) -> None:
    """``_format_rows`` gives the row writer's text, row by row."""
    times = np.asarray(times, dtype=np.float64)
    if statuses is None:
        statuses = np.arange(times.size, dtype=np.int8) % 2
    got = cli._format_rows(times, statuses).splitlines()
    want = io.StringIO()
    reference_write_dataset(times.tolist(), statuses.tolist(), want)
    want = want.getvalue().splitlines()[1:]
    assert len(got) == len(want)
    bad = [(t, g, w) for t, g, w in zip(times.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def ties() -> np.ndarray:
    """The doubles nearest to (m + 1/2) 10^-q for 12-digit m and |q| <= 22, with neighbours."""
    rng = np.random.default_rng(8)
    m = rng.integers(10**11, 10**12, 4000)
    q = np.tile(np.arange(-22, 23), 89)[:m.size]
    tie = np.array([float(f"{a}5e{-b - 1}") for a, b in zip(m.tolist(), q.tolist())])
    return np.concatenate([tie, np.nextafter(tie, 0), np.nextafter(tie, np.inf)])


def powers_of_ten() -> np.ndarray:
    """10^e and the two doubles on either side of it, e = -323..308."""
    exact = np.array([float(f"1e{e}") for e in range(-323, 309)])
    below, above = np.nextafter(exact, 0), np.nextafter(exact, np.inf)
    return np.concatenate([np.nextafter(below, 0), below, exact, above,
                           np.nextafter(above, np.inf)])


# a rounding carry into the next decade, each side of it and of a tie
CARRIES = [999999999999.5, 999999999999.4, 999999999999.6, 99999999999.99995,
           9.999999999995e-5, 9.9999999999949e-5, 9.9999999999951e-5, 0.99999999999996,
           9.999999999996e33, 9.9999999999949e33, 1.00000000000049e-11]
# where %g switches between fixed and exponent notation, and their neighbours
SWITCHES = [v for p in (1e-5, 1e-4, 1e11, 1e12)
            for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))]


@pytest.mark.parametrize("values", [ties(), powers_of_ten(), CARRIES, SWITCHES],
                         ids=["near ties", "powers of ten", "carries", "switch points"])
def test_format_rows_matches_the_row_writer(values):
    assert_rows_match(values)


@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(-128, 127)), max_size=60))
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_the_row_writer_on_any_bits(rows):
    bits, statuses = zip(*rows) if rows else ((), ())
    times = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_rows_match(times, np.array(statuses, dtype=np.int8))


@given(st.lists(st.tuples(st.floats(1e-12, 1e35), st.sampled_from([0, 1])), max_size=60))
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_the_row_writer_over_the_array_path(rows):
    times, statuses = zip(*rows) if rows else ((), ())
    assert_rows_match(times, np.array(statuses, dtype=np.int8))


FALLBACKS = {
    "not positive": ([0.0, -1.5, -1e300], 1),
    "-0.0": ([-0.0], 1),
    "inf": ([np.inf, -np.inf], 0),
    "nan": ([np.nan], 1),
    "status not 0 or 1": ([2.5, 2.5, 2.5], [2, -1, 127]),
    "exponent below the range": ([9.99e-12, 1e-100, 5e-324], 1),
    "exponent above the range": ([1e35, 1e300, 1.7976931348623157e308], 0),
    "near tie": ([123456789012.5, 1.000000000005, 2.0000000000049999e-7], 1),
}


@pytest.mark.parametrize("name", list(FALLBACKS))
def test_each_fallback_class_is_formatted_by_the_row_writer(name):
    values, status = FALLBACKS[name]
    times = np.array(values + [2.5], dtype=np.float64)
    statuses = np.append(np.broadcast_to(status, len(values)), 1).astype(np.int8)
    fast, _, _ = cli._decimal_parts(times, statuses)
    # the last row, 2.5 with status 1, takes the array path
    assert fast.tolist() == [False] * len(values) + [True]
    assert_rows_match(times, statuses)


def test_write_dataset_starts_no_child_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("write_dataset started a child process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    n = 16 * cli._WRITE_ROWS
    times = np.random.default_rng(6).pareto(2.0, n) + 1.0
    got, want = io.StringIO(), io.StringIO()
    write_dataset(times, np.ones(n, dtype=np.int8), got)
    reference_write_dataset(times.tolist(), [1] * n, want)
    assert got.getvalue() == want.getvalue()


def format_rows_failing_at(marker: str, times: np.ndarray, statuses: np.ndarray) -> str:
    """The rows of one block, or an error for the block whose first time reads ``marker``."""
    if _fmt(times[0]) == marker:
        raise RuntimeError("formatting failed")
    return "".join(f"{_fmt(t)},{s}\n" for t, s in zip(times.tolist(), statuses.tolist()))


def test_failed_write_is_an_internal_error_and_leaves_no_partial_file(tmp_path, monkeypatch,
                                                                      capsys):
    argv = ["synth", "--n", str(3 * cli._WRITE_ROWS), "--gamma1", "0.3", "--p", "0.7",
            "--output"]
    good = tmp_path / "good.csv"
    assert main(argv + [str(good)]) == 0
    text = good.read_text()
    # the first time of the middle block
    marker = text.splitlines()[1 + cli._WRITE_ROWS].split(",")[0]
    monkeypatch.setattr(cli, "_format_rows", functools.partial(format_rows_failing_at, marker))
    assert main(argv + [str(tmp_path / "bad.csv")]) == 2
    assert "internal error: formatting failed" in capsys.readouterr().err
    # no partial file, at the path or beside it; a file already there is kept
    assert main(argv + [str(good)]) == 2
    assert os.listdir(tmp_path) == ["good.csv"] and good.read_text() == text


def test_output_file_gets_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    out = tmp_path / "d.csv"
    assert main(["synth", "--n", "10", "--gamma1", "0.3", "--p", "0.7", "--output", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["d.csv"]


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert main(["synth", "--n", "10", "--gamma1", "0.3", "--p", "0.7", "--output", str(link)]) == 0
    assert link.is_symlink() and target.read_text().startswith("time,status\n")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.path.isfile(os.devnull),
                    reason="needs a null device")
def test_output_to_a_device_is_written_in_place():
    assert main(["synth", "--n", "10", "--gamma1", "0.3", "--p", "0.7",
                 "--output", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


def reference_contaminate(times: np.ndarray, statuses: np.ndarray,
                          replacements: list[float]) -> np.ndarray:
    """contaminate's targets by a stable sort of every uncensored time."""
    times = times.copy()
    uncensored = np.flatnonzero(statuses == 1)
    targets = uncensored[np.argsort(-times[uncensored], kind="stable")[:len(replacements)]]
    times[targets] = sorted(replacements, reverse=True)
    return times


def _contaminate_cases():
    rng = np.random.default_rng(12)
    # 40 uncensored rows tie at the cut, which has 4 table slots left
    tied = np.concatenate([np.full(40, 9.0), rng.uniform(1, 8, 300), [11.0, 12.0, 10.0]])
    tied_status = np.concatenate([np.ones(40), rng.integers(0, 2, 300), [1, 1, 1]])
    order = rng.permutation(tied.size)
    coarse = np.floor(rng.pareto(1.0, 5000) * 4) + 1
    few = np.array([3.0, 1.0, 3.0, 2.0, 5.0, 3.0])
    return {
        "more ties at the cut than slots left": (tied[order], tied_status[order], 7),
        "integer times, many ties": (coarse, (rng.random(5000) < 0.7).astype(int), 10),
        "m equal to the uncensored count": (few, np.array([1, 0, 1, 1, 0, 1]), 4),
        "every row uncensored and replaced": (few, np.ones(6, dtype=int), 6),
    }


CONTAMINATE_CASES = _contaminate_cases()


@pytest.mark.parametrize("name", list(CONTAMINATE_CASES))
def test_contaminate_matches_the_full_stable_sort(tmp_path, capsys, name):
    times, statuses, m = CONTAMINATE_CASES[name]
    statuses = statuses.astype(np.int8)
    f = tmp_path / "d.csv"
    with open(f, "w", encoding="utf-8", newline="") as fh:
        reference_write_dataset(times.tolist(), statuses.tolist(), fh)
    replacements = [1000.0 + 17.0 * i for i in range(m)]
    table = tmp_path / "t.csv"
    table.write_text("".join(f"0,{r!r}\n" for r in replacements[::-1]))
    assert main(["contaminate", str(f), "--table", str(table)]) == 0
    want = io.StringIO()
    reference_write_dataset(reference_contaminate(times, statuses, replacements).tolist(),
                            statuses.tolist(), want)
    assert capsys.readouterr().out == want.getvalue()


def test_contaminate_breaks_ties_in_file_order(tmp_path, capsys):
    f = tmp_path / "d.csv"
    f.write_text("time,status\n5,1\n9,1\n9,0\n9,1\n3,1\n9,1\n")
    table = tmp_path / "t.csv"
    table.write_text("9,100\n9,200\n")
    assert main(["contaminate", str(f), "--table", str(table)]) == 0
    # of the three tied uncensored 9s, the first two in the file are replaced,
    # the larger replacement going to the first
    assert capsys.readouterr().out == "time,status\n5,1\n200,1\n9,0\n100,1\n3,1\n9,1\n"
