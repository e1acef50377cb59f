"""Command-line front end.

Subcommands:
  estimate     tail index estimates on a dataset over a k-range (CSV to stdout)
  contaminate  replace the largest uncensored times by outlier values
  sweep        Monte Carlo bias/MSE sweep from a key=value config file
  constants    asymptotic constants table for one (alpha, gamma1, p, tau1)
  synth        generate a synthetic censored dataset with the standard schema

Datasets are CSV files with header exactly "time,status" (status 1 =
event observed, 0 = censored).  All output is comma-separated with "."
decimals and LF line endings.  Exit codes: 0 success, 1 user error,
2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager

import numpy as np

from .asymptotics import (GaussianOracleConfig, eta_star, mu, sigma_squared,
                          sigma_squared_mc)
from .estimators import (EstimationError, SolverOptions, _check_alpha_domain, efg_estimator,
                         hill_gamma, mdpd_estimate, worms_estimator)
from .sample_model import InvalidSampleError, ModelParams, TailConfig, ordered_from_arrays
from .simulation import (ContaminationSpec, SweepSpec, gamma2_from_p, run_sweep,
                         sample_contaminated_censored)

# Ten outlier values (and the original times they replaced in the study
# that motivated this workflow), largest original -> largest replacement.
DEFAULT_OUTLIER_TABLE: tuple[tuple[float, float], ...] = (
    (1976.0, 36500.0),
    (2102.0, 40555.56),
    (2117.0, 45625.0),
    (2151.0, 52142.86),
    (2183.0, 60833.33),
    (2228.0, 73000.0),
    (2252.0, 91250.0),
    (2295.0, 121666.67),
    (2453.0, 182500.0),
    (2470.0, 365000.0),
)


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


@contextmanager
def _argument_errors():
    """Report the ValueError of an argument object's own checks as a user error."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# dtype of one dataset row in the bulk parse
_ROW = np.dtype([("time", np.float64), ("status", np.int8)])
# ASCII whitespace that np.loadtxt strips from a field but that the line
# scan reads as a line break (str.splitlines) or float() does not strip;
# \r is absent because text read with universal newlines has none
_SCAN_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f"
_HEADER = "time,status\n"
# characters per read when deciding whether the bulk parse may take a file,
# so that the decision never holds the whole text (~33 MB at n = 10^6)
_CHECK_CHARS = 1 << 20
# rows formatted per write: the row strings of a whole dataset at n = 10^6
# would add ~90 MB to the peak memory of synth and contaminate, and a
# block's freed cells and text stay resident in the heap, so 2^16-row
# blocks left a later estimate's peak ~2.5 MB above that of 2^14
_WRITE_ROWS = 1 << 14


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a time,status CSV into float64 times and int8 statuses.

    The body is parsed in bulk by ``np.loadtxt``.  A file the bulk parse
    rejects, might read differently, or finds an invalid value in goes to
    the line scan, which decides what is valid and names the offending
    line in its error.  Only the line scan holds the whole text.
    """
    if _bulk_readable(path):
        try:
            rows = np.loadtxt(path, dtype=_ROW, delimiter=",", comments=None, skiprows=1,
                              ndmin=1, encoding="utf-8")
        except (OSError, ValueError):
            pass
        else:
            times, statuses = rows["time"], rows["status"]
            if (np.all((times > 0) & (times < np.inf))
                    and np.all((statuses == 0) | (statuses == 1))):
                return times.copy(), statuses.copy()
    return _scan_dataset(path, _read_text(path).splitlines())


def _bulk_readable(path: str) -> bool:
    """Whether the bulk parse may read the file, decided one block of text at a time.

    The scan takes a blank body, on which loadtxt warns, and any text on
    which the two parsers could disagree.  A file that cannot be read or
    decoded also goes to the scan, which reports it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.read(len(_HEADER)) != _HEADER:
                return False
            blank = True
            while chunk := fh.read(_CHECK_CHARS):
                if not chunk.isascii() or any(c in chunk for c in _SCAN_ONLY):
                    return False
                blank = blank and chunk.isspace()
            return not blank
    except (OSError, UnicodeDecodeError):
        return False


def _scan_dataset(path: str, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse of a dataset; errors name the offending line number."""
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
        if not 0 < t < float("inf") or s not in (0, 1):
            raise CliError(f"{path}: invalid observation at line {lineno}")
        times.append(t)
        statuses.append(s)
    if not times:
        raise CliError(f"{path}: empty dataset")
    return np.array(times, dtype=np.float64), np.array(statuses, dtype=np.int8)


def write_dataset(times: np.ndarray, statuses: np.ndarray, out) -> None:
    """Write a time,status CSV, one write per block of rows; times take the ``_fmt`` format."""
    out.write("time,status\n")
    for start in range(0, len(times), _WRITE_ROWS):
        out.write(_format_rows(times[start:start + _WRITE_ROWS],
                               statuses[start:start + _WRITE_ROWS]))


# Tables of the row formatter.  A row is laid out in five 8-byte words:
# "0.000" (columns 0-4); three words of four significand digits, each
# digit followed by a "." slot (8-31); "e", the exponent's sign and two
# digits, ",", the status and "\n" (32-38).  The words are only copied
# from tables built as bytes, never computed, so byte order does not
# matter.  Which columns a row keeps depends only on its decimal exponent
# X, from _EXP_MIN to _EXP_MAX, and the index of its last nonzero digit.
_EXP_MIN, _EXP_MAX = -11, 34
_PREFIX = np.frombuffer(b"0.000\0\0\0", dtype=np.uint64)
# how close to a half the scaled time may come before its row is left to %
_TIE_MARGIN = 1e-3
# rows of a block that one np.compress packs
_COMPRESS_ROWS = 1 << 12


@functools.cache
def _row_tables() -> tuple[np.ndarray, ...]:
    """The tables of the row formatter, built on first use so that an import pays nothing.

    Returns 10^0..10^22, each exact in float64; the digit words of
    0..9999 and their trailing zero counts (4 for 0); the tail words by
    2 (X - _EXP_MIN) + status; the kept columns by 12 (X - _EXP_MIN) +
    last digit, with one more entry, keeping none, for the rows formatted
    by ``%``; and the number of columns each entry keeps.  The caller
    only reads them.
    """
    # indexed by the four digits of a group, thousands first
    digits = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)
    zeros = np.zeros((10, 10, 10, 10), dtype=np.int64)
    for place in range(4):
        digits[..., 2 * place] = np.arange(48, 58).reshape((10,) + (1,) * (3 - place))
        zeros[(...,) + (0,) * (place + 1)] += 1

    x = np.arange(_EXP_MIN, _EXP_MAX + 1)[:, None]
    tails = np.zeros((x.size, 2, 8), dtype=np.uint8)
    tails[:, :, :7] = np.frombuffer(b"e+00,0\n", dtype=np.uint8)
    tails[:, :, 1] = np.where(x < 0, ord("-"), ord("+"))
    tails[:, :, 2] = 48 + abs(x) // 10
    tails[:, :, 3] = 48 + abs(x) % 10
    tails[:, 1, 5] += 1

    x, last, col = x[:, :, None], np.arange(12)[None, :, None], np.arange(40)
    fixed = (-4 <= x) & (x < 12)
    point = np.where(fixed, x, 0)  # the digit that "." follows, -1 to -4 in "0.000"
    digit = (col - 8) // 2  # of a digit column or of the "." slot after it
    keep = ((col < 8) & fixed & (x < 0) & (col < 1 - x)
            | (8 <= col) & (col < 32) & (col % 2 == 0) & (digit <= np.maximum(last, point))
            | (8 <= col) & (col < 32) & (col % 2 == 1) & (digit == point) & (last > point)
            | (32 <= col) & (col < 36) & ~fixed
            | (36 <= col) & (col < 39))
    keep = np.concatenate([keep.reshape(-1, 40), np.zeros((1, 40), dtype=bool)])
    return (10.0 ** np.arange(23), digits.view(np.uint64).ravel(), zeros.ravel(),
            tails.view(np.uint64).ravel(), keep, keep.sum(axis=1))


def _format_rows(times: np.ndarray, statuses: np.ndarray) -> str:
    """The CSV rows of one block, as ``"%.12g,%d\n" %`` formats each row.

    A row whose time t is positive and finite and whose status is 0 or 1
    is formatted by array arithmetic.  Take q = 11 - floor(log10 t).  For
    |q| <= 22 the power 10^|q| is exact in float64, so y = t * 10^q (or
    t / 10^-q) carries a single rounding, and where y lies in
    [10^11, 10^12) it is off the exact product by at most half an ulp of
    2^39, 2^-14 < 1.2e-4.  Where the fraction of y also lies more than
    ``_TIE_MARGIN`` from 1/2, the exact product rounds to the same integer
    N = rint(y), which is the correctly rounded 12-digit significand that
    ``%.12g`` prints; N = 10^12 is 10^11 one decade up.  The digits of N
    and its last nonzero digit come from tables of 4-digit groups, and the
    decimal exponent X and the last digit pick the columns of the row
    layout above that make the ``%g`` text: fixed notation for
    -4 <= X < 12, ``d.ddde+XX`` otherwise.

    Every other row (a time not positive, inf, nan or -0.0; a status
    other than 0 or 1; |q| > 22; a y outside [10^11, 10^12), which only a
    t within about 1e-15 of a power of ten gives; a near tie) is
    formatted by ``%`` and put in its place, so the text equals the row
    writer's on any input.
    """
    _, digits4, zeros4, tails, keep, width = _row_tables()
    fast, significand, x = _decimal_parts(times, statuses)
    high, rest = np.divmod(significand, 10**8)
    mid, low = np.divmod(rest, 10**4)
    zeros = np.where(low != 0, zeros4[low],
                     np.where(mid != 0, 4 + zeros4[mid], 8 + zeros4[high]))
    key = np.where(fast, 12 * (x - _EXP_MIN) + 11 - zeros, len(keep) - 1)

    words = np.empty((x.size, 5), dtype=np.uint64)
    words[:, 0] = _PREFIX
    words[:, 1] = digits4[high]
    words[:, 2] = digits4[mid]
    words[:, 3] = digits4[low]
    words[:, 4] = tails[2 * (x - _EXP_MIN) + (np.asarray(statuses) == 1)]
    # compressed in slices, since np.compress indexes every kept byte with an int64
    data = words.view(np.uint8)
    text = "".join(str(np.compress(np.take(keep, key[lo:lo + _COMPRESS_ROWS], axis=0).ravel(),
                                   data[lo:lo + _COMPRESS_ROWS].ravel()), "ascii")
                   for lo in range(0, x.size, _COMPRESS_ROWS))

    slow = np.flatnonzero(~fast)
    if not slow.size:
        return text
    # a slow row keeps no columns, so its text goes where the rows before it end
    ends = np.cumsum(width[key])[slow].tolist()
    pieces, start = [], 0
    for end, time, status in zip(ends, times[slow].tolist(), statuses[slow].tolist()):
        pieces += text[start:end], "%.12g,%d\n" % (time, status)
        start = end
    pieces.append(text[start:])
    return "".join(pieces)


def _decimal_parts(times: np.ndarray,
                   statuses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows ``_format_rows`` formats by array arithmetic, their significands N and exponents X.

    The other rows get N = 10^11 and X = 0.
    """
    t = np.asarray(times, dtype=np.float64)
    s = np.asarray(statuses)
    fast = (t > 0) & (t < np.inf) & ((s == 0) | (s == 1))
    t = np.where(fast, t, 1.0)
    q = 11 - np.floor(np.log10(t)).astype(np.int64)
    powers = _row_tables()[0]
    y = powers[np.minimum(np.abs(q), 22)]
    up = q >= 0
    np.multiply(t, y, where=up, out=y)
    np.divide(t, y, where=~up, out=y)
    fast &= ((1e11 <= y) & (y < 1e12) & (np.abs(q) <= 22)
             & (np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN))
    significand = np.rint(np.where(fast, y, 1e11)).astype(np.int64)
    carry = significand == 10**12
    significand[carry] = 10**11
    return fast, significand, np.where(fast, 11 - q + carry, 0)


@contextmanager
def _output_file(path: str):
    """Open path for writing; a failure leaves no partial file there.

    A new file beside path, made by a plain ``open`` and so of the usual
    mode, is renamed to path on success and removed on failure.  A symlink
    is followed; a device or a pipe is written in place.  A file that
    cannot be opened, in a missing directory say, is a user error.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with _opened(path, target, "w") as fh:
            yield fh
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = _opened(path, tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _opened(path: str, name: str, mode: str):
    """``open(name, mode)`` for writing; its failure is a user error that names path."""
    try:
        return open(name, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _write_output(times: np.ndarray, statuses: np.ndarray, path: str | None) -> None:
    """``write_dataset`` to the file at path (``--output``), or to stdout without one."""
    if path:
        with _output_file(path) as fh:
            write_dataset(times, statuses, fh)
    else:
        write_dataset(times, statuses, sys.stdout)


def _k_range(args, n: int) -> list[int]:
    if args.k_step < 1:
        raise CliError("--k-step must be >= 1")
    k_max = args.k_max if args.k_max is not None else args.k_min
    ks = list(range(args.k_min, k_max + 1, args.k_step))
    if not ks:
        raise CliError("empty k range")
    if ks[-1] >= n:
        raise CliError(f"k={ks[-1]} must be below the sample size n={n}")
    return ks


def cmd_estimate(args) -> int:
    times, statuses = read_dataset(args.file)
    ks = _k_range(args, times.size)
    alphas = args.alpha if args.alpha else [0.0]
    # every cell, the solver options and each alpha on their domain are
    # validated before the header, so a bad argument writes nothing, and
    # before the ordering, which a k below 1 must not reach
    with _argument_errors():
        cells = [[TailConfig(k=k, alpha=alpha) for alpha in alphas] for k in ks]
        options = SolverOptions(*args.domain, tol_abs=args.tol)
        for alpha in alphas:
            _check_alpha_domain(alpha, options)
    # every estimator reads only the top k + 1 order statistics, so only the
    # top max(k) + 1 are ordered; the full arrays are not kept beside them
    sample = ordered_from_arrays(times, statuses, top=max(ks) + 1)
    del times, statuses
    out = sys.stdout
    out.write("k,alpha,method,gamma1_hat,residual\n")
    for k, configs in zip(ks, cells):
        if args.with_competitors:
            for name, fn in (("Hill", hill_gamma), ("EFG", efg_estimator),
                             ("Worms", worms_estimator)):
                try:
                    out.write(f"{k},,{name},{_fmt(fn(sample, k))},\n")
                except EstimationError:
                    out.write(f"{k},,{name},,\n")
        for config in configs:
            try:
                result = mdpd_estimate(sample, config, options)
                out.write(f"{k},{_fmt(config.alpha)},{result.method},"
                          f"{_fmt(result.gamma1_hat)},{_fmt(result.residual)}\n")
            except EstimationError:
                out.write(f"{k},{_fmt(config.alpha)},MDPD,,\n")
    return 0


def _load_injection_table(path: str) -> list[tuple[float, float]]:
    table = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CliError(f"{path}: malformed injection row at line {lineno}")
        try:
            original, replacement = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise CliError(f"{path}: malformed injection row at line {lineno}") from exc
        # checked here, so that the contaminated dataset reads back
        if not 0 < replacement < np.inf:
            raise CliError(f"{path}: replacement at line {lineno} is not positive and finite")
        table.append((original, replacement))
    return table


def cmd_contaminate(args) -> int:
    times, statuses = read_dataset(args.file)
    table = _load_injection_table(args.table) if args.table else list(DEFAULT_OUTLIER_TABLE)
    m = len(table)
    uncensored = statuses == 1
    count = int(np.count_nonzero(uncensored))
    if count < m:
        raise CliError(f"dataset has {count} uncensored rows; injection table needs {m}")
    if m:  # an empty table replaces nothing
        # the m largest uncensored times, matched to replacements in
        # descending order.  Only the rows at or above the m-th largest time
        # are sorted; they stay in file order, so the stable sort of their
        # negated times puts tied rows in file order, as a stable sort of
        # every uncensored row would.
        candidates = times[uncensored]
        candidates.partition(count - m)
        cut = candidates[count - m]
        del candidates
        top = np.flatnonzero((times >= cut) & uncensored)
        targets = top[np.argsort(-times[top], kind="stable")[:m]]
        times[targets] = sorted((r for _, r in table), reverse=True)
    _write_output(times, statuses, args.output)
    return 0


_SWEEP_KEYS = {"n", "replicates", "gamma1", "p", "eta", "epsilon", "theta1",
               "alphas", "k_min", "k_max", "k_step", "seed"}


def parse_sweep_config(path: str) -> dict:
    values = {}
    for line in _read_text(path).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"invalid config line: {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise CliError(f"invalid config key: {key!r}")
        values[key] = raw.strip()
    for required in ("n", "gamma1", "p"):
        if required not in values:
            raise CliError(f"missing config key: {required!r}")
    return values


def build_sweep_spec(values: dict, replicates_override: int | None = None,
                     seed_override: int | None = None) -> SweepSpec:
    try:
        n = int(values["n"])
        gamma1 = float(values["gamma1"])
        p = float(values["p"])
        eta = float(values.get("eta", "0.25"))
        epsilon = float(values.get("epsilon", "0"))
        theta1 = float(values.get("theta1", values["gamma1"]))
        replicates = int(values.get("replicates", "200"))
        seed = int(values.get("seed", "0"))
        alphas = tuple(float(a) for a in values.get("alphas", "0,0.1,0.3,0.5").split(","))
        k_min = int(values.get("k_min", "50"))
        k_max = int(values.get("k_max", str(max(k_min, n // 2))))
        k_step = int(values.get("k_step", "50"))
    except ValueError as exc:
        raise CliError(f"invalid config value: {exc}") from exc
    if k_step < 1:
        raise CliError("invalid config value: k_step must be >= 1")
    if replicates_override is not None:
        replicates = replicates_override
    if seed_override is not None:
        seed = seed_override
    with _argument_errors():
        model = ModelParams(gamma1=gamma1, gamma2=gamma2_from_p(gamma1, p), eta=eta)
        contamination = ContaminationSpec(epsilon=epsilon, theta1=theta1)
        return SweepSpec(n=n, replicates=replicates, model=model,
                         contamination=contamination, alphas=alphas,
                         k_grid=tuple(range(k_min, k_max + 1, k_step)), seed=seed)


def cmd_sweep(args) -> int:
    if args.threads < 1:
        raise CliError("--threads must be >= 1")
    values = parse_sweep_config(args.config)
    spec = build_sweep_spec(values, replicates_override=args.replicates,
                            seed_override=args.seed)
    result = run_sweep(spec, n_jobs=args.threads)

    try:
        os.makedirs(args.output_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {args.output_dir}: {exc.strerror}") from exc
    main_path = os.path.join(args.output_dir, "sweep.csv")
    with _output_file(main_path) as fh:
        fh.write("k,alpha,abs_bias,mse,n_failures\n")
        for k, alpha, abs_bias, mse, failures in result.rows:
            fh.write(f"{k},{_fmt(alpha)},{_fmt(abs_bias)},{_fmt(mse)},{failures}\n")

    # per-panel plot data: one series (column) per alpha, indexed by k
    eps = spec.contamination.epsilon
    by_cell = {(k, a): (b, m) for k, a, b, m, _ in result.rows}
    header = "k," + ",".join(f"alpha={_fmt(a)}" for a in spec.alphas)
    panels = {
        os.path.join(args.output_dir, f"bias_eps{eps:.2f}.csv"): 0,
        os.path.join(args.output_dir, f"mse_eps{eps:.2f}.csv"): 1,
    }
    for path, which in panels.items():
        with _output_file(path) as fh:
            fh.write(header + "\n")
            for k in spec.k_grid:
                cells = ",".join(_fmt(by_cell[(k, a)][which]) for a in spec.alphas)
                fh.write(f"{k},{cells}\n")

    if args.emit_svg:
        for path, which in panels.items():
            _emit_svg(path.replace(".csv", ".svg"), spec, by_cell, which)
    return 0


def _emit_svg(path: str, spec: SweepSpec, by_cell: dict, which: int) -> None:
    """Minimal static line plot of the panel data; convenience only."""
    width, height, pad = 640, 400, 50
    ks = list(spec.k_grid)
    series = {a: [by_cell[(k, a)][which] for k in ks] for a in spec.alphas}
    finite = [v for vs in series.values() for v in vs if np.isfinite(v)]
    if not finite:
        return
    y_max = max(finite) or 1.0
    x_span = max(ks) - min(ks) or 1

    def sx(k):
        return pad + (k - min(ks)) / x_span * (width - 2 * pad)

    def sy(v):
        return height - pad - (v / y_max) * (height - 2 * pad)

    colors = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>']
    for idx, (alpha, vals) in enumerate(series.items()):
        pts = " ".join(f"{sx(k):.1f},{sy(v):.1f}" for k, v in zip(ks, vals)
                       if np.isfinite(v))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(f'<text x="{width-pad+4}" y="{pad+14*idx+10}" font-size="11" '
                     f'fill="{color}">a={_fmt(alpha)}</text>')
    parts.append("</svg>")
    with _output_file(path) as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_constants(args) -> int:
    if not args.alpha > 0:  # written so that NaN fails it
        raise CliError("constants requires alpha > 0")
    # gamma2_from_p, mu and sigma_squared check the remaining arguments, p
    # included, before the MC runs; arguments whose row leaves the float
    # range are a user error too
    out_of_range = (f"alpha={args.alpha!r}, gamma1={args.gamma1!r}, p={args.p!r} "
                    "put the constants out of the float range")
    try:
        with _argument_errors():
            gamma2 = gamma2_from_p(args.gamma1, args.p)
            config = GaussianOracleConfig(seed=args.seed, replicates=args.replicates)
            mu_value = mu(args.alpha, args.gamma1, args.tau1)
            sigma2 = sigma_squared(args.alpha, args.gamma1, gamma2)
        row = (args.alpha, args.gamma1, gamma2, args.p, args.tau1,
               eta_star(args.alpha, args.gamma1), mu_value, sigma2)
        row += sigma_squared_mc(args.alpha, args.gamma1, gamma2, config)
    except ArithmeticError as exc:
        raise CliError(out_of_range) from exc
    if not np.all(np.isfinite(row)):
        raise CliError(out_of_range)
    sys.stdout.write("alpha,gamma1,gamma2,p,tau1,eta_star,mu,sigma2,sigma2_mc,mc_stderr\n")
    sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def cmd_synth(args) -> int:
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    if not 0 < args.scale < np.inf:
        raise CliError("--scale must be positive and finite")
    with _argument_errors():
        model = ModelParams(gamma1=args.gamma1, gamma2=gamma2_from_p(args.gamma1, args.p),
                            eta=args.eta)
        contamination = ContaminationSpec(epsilon=args.epsilon, theta1=args.theta1)
    times, statuses = sample_contaminated_censored(args.n, model, contamination,
                                                   seed=args.seed)
    with np.errstate(over="ignore"):  # overflow to inf is caught just below
        times *= args.scale
    # checked before writing, so that the dataset reads back; a NaN fails both
    if not (0 < times.min() and times.max() < np.inf):
        raise CliError("a scaled time is not positive and finite; choose another --scale")
    _write_output(times, statuses, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tailcens",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="tail index estimates over a k-range")
    est.add_argument("file", help="dataset CSV (header: time,status)")
    est.add_argument("--k-min", type=int, required=True)
    est.add_argument("--k-max", type=int, default=None)
    est.add_argument("--k-step", type=int, default=1)
    est.add_argument("--alpha", type=float, action="append", default=None,
                     help="MDPD tuning parameter; repeatable (default 0)")
    est.add_argument("--with-competitors", action="store_true",
                     help="also emit Hill, EFG and Worms rows")
    est.add_argument("--tol", type=float, default=1e-10)
    est.add_argument("--domain", type=float, nargs=2, default=(1e-6, 50.0),
                     metavar=("LO", "HI"))

    con = sub.add_parser("contaminate", help="inject outliers into a dataset")
    con.add_argument("file")
    con.add_argument("--table", default=None,
                     help="CSV of original,replacement pairs (default: built-in table)")
    con.add_argument("--output", default=None, help="write here instead of stdout")

    swp = sub.add_parser("sweep", help="Monte Carlo bias/MSE sweep")
    swp.add_argument("config", help="key = value config file")
    swp.add_argument("--output-dir", default=".")
    swp.add_argument("--replicates", type=int, default=None,
                     help="override config replicate count")
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--threads", type=int, default=1,
                     help="processes, this one included, capped at the usable CPUs; "
                          "output is identical for any count")
    swp.add_argument("--emit-svg", action="store_true")

    cst = sub.add_parser("constants", help="asymptotic constants table")
    cst.add_argument("--alpha", type=float, required=True)
    cst.add_argument("--gamma1", type=float, required=True)
    cst.add_argument("--p", type=float, required=True)
    cst.add_argument("--tau1", type=float, default=0.0)
    cst.add_argument("--seed", type=int, default=0)
    cst.add_argument("--replicates", type=int, default=4000)

    syn = sub.add_parser("synth", help="generate a synthetic censored dataset")
    syn.add_argument("--n", type=int, required=True)
    syn.add_argument("--gamma1", type=float, required=True)
    syn.add_argument("--p", type=float, required=True)
    syn.add_argument("--eta", type=float, default=0.25)
    syn.add_argument("--epsilon", type=float, default=0.0)
    syn.add_argument("--theta1", type=float, default=1.0)
    syn.add_argument("--scale", type=float, default=1.0,
                     help="multiply all times by this constant")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--output", default=None)
    return parser


def _release_freed_memory() -> None:
    """Hand the free pages inside the C heap back to the system (glibc ``malloc_trim``).

    Once a large block has been freed, glibc serves NumPy arrays of up to
    that size from its heap, and it returns freed heap memory only from
    the top, so one live block above a freed array keeps the array's pages
    resident.  Whether one is there depends on every earlier allocation of
    the process, down to the length of its paths and arguments; at 10^6
    rows a dataset command could leave 6 to 14 MB behind or none.  Called
    after each of them, this makes the next command in the same process
    start from the same resident size, whatever the heap's layout.  A
    no-op where the C library has no ``malloc_trim``.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # here, so that importing the CLI does not pay for it

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only, not musl
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, InvalidSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        # only the commands that hold a whole dataset: after the others the
        # trim would cost more than the little they leave behind
        if args.command in ("synth", "contaminate", "estimate"):
            _release_freed_memory()


if __name__ == "__main__":
    sys.exit(main())
