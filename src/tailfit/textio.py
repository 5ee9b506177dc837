"""The package's files, both ways: CSV text of float arrays, a header line
over rows of numbers, and JSON objects.

JSON.  `read_json(path)` returns the object in a file read as UTF-8, and
raises ValueError naming the file if the text is not UTF-8 (in the CSV
reader's wording), not JSON or not an object; an OSError passes to the
caller.  `json_text(obj)` is the one format every JSON file is written in,
keys sorted, indented by two spaces and ending in a newline; `write_json`
writes it.

Reading.  `read_rows(path, names, valid, invalid)` checks the header, then
takes the rows from the CSV's binary twin (below) if it has a valid one.
Otherwise it parses the body with numpy's C reader, which rounds each
decimal as float() does, and checks its width and the caller's `valid`
predicate on the array.  Only when one of these fails are the lines walked
with float(), the rule the file format keeps: a line ends at "\\n" alone
(text mode has translated "\\r\\n" and "\\r"), as in the header read and
numpy's reader; blank and whitespace-only lines are skipped; and a value is
what float() reads from its field, so "1_000" and " 1.5 " are numbers.  The
walk names the first bad line, or, if every line passes, returns what it
read.

The twin.  `write_rows(path, names, a)` writes the CSV, header and
`format_rows(a)`, and beside it a hidden file, `.<name>.f64`, holding the
SHA-256 of the CSV's bytes followed by the rows as little-endian float64,
and then those rows.  Every value in the CSV is repr of the twin's double,
which float() reads back as that double (nan is stored as the nan float()
reads), so the twin's rows are what parsing the CSV would return, bit for
bit, without the decimal conversion.  `read_rows` uses a twin only when the
digest matches the CSV and the twin as they are on disk, the rows fill the
header's columns and pass `valid`; an edited CSV, a truncated or garbled
twin, or no twin at all is parsed as if the twin were not there.  The CSV
stays the artifact: deleting a twin costs one parse.

Writing.  `format_rows(a)` returns exactly

    "".join(",".join(map(repr, row)) + "\\n" for row in a.tolist())

(a 1-D array is one column), so every CSV the pipeline writes (the loss file
of `generate`, the bootstrap matrices and the density overlays) holds the
same bytes as a loop over repr would write, at a fraction of its cost.

repr prints the shortest decimal that reads back as the same double, the
nearest one where several are shortest (Steele & White 1990).  For a normal
double x = m 2^ex, m in [0.5, 1), that is decided here in integer units of
its 17th significant digit:
- The decimal exponent comes from log10 and is fixed up, so that
  X = x 10^k lies in [1e16, 1e17).
- 10^k is held as a double-double c 2^b, c = hi + lo in [1, 2), built from
  exact integers.  Dekker's error-free product (1971) gives m hi = p + e
  exactly; with m lo added to e, and both scaled by 2^(ex + b), X = P + E
  to within about 1e-14 units, where P is an integer-valued double.
- x is the double nearest to every real within h = ulp(x) 10^k / 2 of X,
  so a decimal reads back as x when it lies strictly inside (X - h, X + h).
  Since h < 0.23 units of the 15th digit, at most one 15-digit decimal lies
  inside; since h > 0.55 units of the 17th, the nearest 17-digit one always
  does.  The nearest 15-, 16- and 17-digit candidates come from divmod of P
  by 100, 10 and 1 and the rounded remainder plus E.  The first one inside
  is repr's digits, with its trailing zeros stripped.
- Digits are read from a table of 4-digit groups, and the characters are
  placed through one (decimal exponent, digit count) -> column table, so a
  row's text is a gather and a mask.

A value goes to repr itself wherever that argument does not certify the
result: a candidate within 1e-6 units of the interval's edge or halfway
between two candidates; an exact power of two, whose interval is
asymmetric; subnormals, inf and nan.  Zero's text is fixed.  So the output
is repr's by construction, with or without the fast path.  The work runs
on chunks of CHUNK_ELEMENTS values, which bounds its temporaries at about
1 MB; an array of fewer than SMALL_ELEMENTS values is written by the repr
loop itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

__all__ = ["CHUNK_ELEMENTS", "SMALL_ELEMENTS", "format_rows", "json_text", "not_utf8",
           "read_json", "read_rows", "twin_path", "write_json", "write_rows"]

# Values formatted per chunk.  A chunk's temporaries peak at about 0.9 MB,
# less than the strings a repr loop builds for a 5,000 x 4 matrix; 2^14
# values took 4 MB, as fast.
CHUNK_ELEMENTS = 1 << 12
# Fewer values than this are written by a repr loop, as fast there (the two
# cross between 256 and 512 values).  The first vectorized call pages in
# about 0.8 MB of numpy code, so a process that writes only small arrays,
# like the m = 100 study bootstrap, would peak 0.6 MB higher without it.
SMALL_ELEMENTS = 512

# every k that puts a normal double's 17 significant digits before the point
_K_MIN, _K_MAX = -294, 326
_TINY = 2.0 ** -1022
_MARGIN = 1e-6  # units of the 17th digit; the arithmetic errs by < 1e-13


# The tables below are built on first use: a process that writes no array
# of SMALL_ELEMENTS values or more never holds them.  Built at import they
# raised the study bootstrap's peak RSS by about 0.17 MB.
@functools.cache
def _pow10_table():
    """(hi, hi_hi, hi_lo, lo, b) for k in [_K_MIN, _K_MAX]: 10^k = (hi + lo) 2^b
    with hi in [1, 2), and hi = hi_hi + hi_lo split in 26-bit halves."""
    ks = range(_K_MIN, _K_MAX + 1)
    hi, lo, exp2 = np.empty(len(ks)), np.empty(len(ks)), np.empty(len(ks), np.int64)
    for j, k in enumerate(ks):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:  # c = num / den in [1, 2)
            num, b = num << 1, b - 1
        hi[j] = h = num / den  # int / int rounds correctly
        hn, hd = h.as_integer_ratio()
        lo[j] = (num * hd - hn * den) / (den * hd)
        exp2[j] = b
    # Dekker's split of hi into two 26-bit halves
    t = 134217729.0 * hi
    hi_hi = t - (t - hi)
    return hi, hi_hi, hi - hi_hi, lo, exp2


# A value's source row, 28 bytes written as 7 uint32 words: its digits
# 1..16; digit 0, "0", ".", "e"; the exponent's sign and three digits; the
# value's sign, its separator and two _PAD bytes, which are dropped.
_DIGITS = [16, *range(16)]  # source index of digit 0, 1, ..., 16
_ZERO, _POINT, _E, _EXP_SIGN, _EXP_DIGITS, _SIGN, _SEP, _PAD = 17, 18, 19, 20, 21, 24, 25, 26
_WIDTH = 25  # "-1.2345678901234567e-100" and a separator


@functools.cache
def _digit_tables():
    """The 4-digit groups 0000 .. 9999 as ASCII words and their trailing
    zeros; the exponents -400 .. 399 as ASCII words, sign and three digits."""
    groups = np.arange(10000, dtype=np.uint16)
    text = np.empty((10000, 4), np.uint8)
    for col, place in enumerate((1000, 100, 10, 1)):
        text[:, col] = groups // place % 10 + ord("0")
    zeros = np.zeros(10000, np.int16)
    for place in (10, 100, 1000, 10000):
        zeros[::place] += 1
    exponents = "".join(f"{e:+04d}" for e in range(-_EXP_BIAS, _EXP_BIAS)).encode()
    return text.view(np.uint32).ravel(), zeros, np.frombuffer(exponents, np.uint32)


_EXP_BIAS = 400
_LEAD_WORDS = np.frombuffer(b"".join(b"%d0.e" % d for d in range(10)), np.uint32)
# index 2 (value < 0) + (last in its row)
_TAIL_WORDS = np.frombuffer(b"\0,\0\0\0\n\0\0-,\0\0-\n\0\0", np.uint32)


def _layout_bodies():
    """The characters between sign and separator for each (decimal point,
    digit count) of the fixed form, decpt in [-3, 16], then each (digit
    count, 3-digit exponent) of the exponent form: repr's two forms of
    0.d1d2... 10^decpt; then zero's."""
    for decpt in range(-3, 17):
        for nd in range(1, 18):
            d = _DIGITS[:nd]
            if decpt <= 0:
                yield [_ZERO, _POINT] + [_ZERO] * -decpt + d
            elif decpt < nd:
                yield d[:decpt] + [_POINT] + d[decpt:]
            else:
                yield d + [_ZERO] * (decpt - nd) + [_POINT, _ZERO]
    for nd in range(1, 18):
        for three in (False, True):
            mantissa = _DIGITS[:1] + ([_POINT] + _DIGITS[1:nd] if nd > 1 else [])
            exponent = list(range(_EXP_DIGITS + (not three), _EXP_DIGITS + 3))
            yield mantissa + [_E, _EXP_SIGN] + exponent
    yield [_ZERO, _POINT, _ZERO]  # 0.0 and -0.0


_N_FIXED = 20 * 17
_ZERO_LAYOUT = _N_FIXED + 2 * 17


@functools.cache
def _layout_table():
    """Each layout's column -> source index, and its length."""
    layouts = np.full((_ZERO_LAYOUT + 1, _WIDTH), _PAD, np.uint8)
    lengths = np.empty(len(layouts), np.int64)
    for row, body in enumerate(_layout_bodies()):
        lengths[row] = len(body) + 2
        layouts[row, :len(body) + 2] = [_SIGN, *body, _SEP]
    return layouts, lengths


def _nearest(P: np.ndarray, E: np.ndarray, step: int):
    """The multiple of `step` nearest to P + E, and its distance from it."""
    q = P // step
    t = (P - q * step) + E
    j = np.rint(t / step)
    return (q + j.astype(np.int64)) * step, np.abs(t - j * step)


def _scaled(m, ex, i):
    """m hi 2^(ex + b) for 10^k = hi 2^b, k = i + _K_MIN, and the power of
    two, built from its exponent bits."""
    hi, _, _, _, exp2 = _pow10_table()
    scale = ((ex + exp2[i] + 1023) << 52).view(np.float64)
    return m * hi[i] * scale, scale


def _shortest(x: np.ndarray):
    """(certified, n, decpt): for each nonzero x, where `certified`, repr's
    digits of |x| left-aligned in the 17 digits of n, and decpt placing the
    point, |x| = 0.d1d2...d17 10^decpt; elsewhere n = 10^16, decpt = 1.
    Zero is certified: its text is fixed."""
    ax = np.abs(x)
    m, ex = np.frexp(ax)
    certified = (ax >= _TINY) & (ax <= np.finfo(float).max) & (m != 0.5)
    # the others stand in as 1.5 until the end
    m = np.where(certified, m, 0.75)
    ex = np.where(certified, ex, 1)
    i = 16 - _K_MIN - np.floor(np.log10(np.where(certified, ax, 1.5))).astype(np.int64)
    P, scale = _scaled(m, ex, i)
    fix = (P < 1e16).astype(np.int64) - (P >= 1e17)
    if fix.any():  # log10 rounded across a power of ten
        i += fix
        P, scale = _scaled(m, ex, i)

    # X = x 10^k = P + E, with m hi = p + e exactly (Dekker)
    hi, hi_hi, hi_lo, lo, _ = _pow10_table()
    hi_hi, hi_lo, hi = hi_hi[i], hi_lo[i], hi[i]
    t = 134217729.0 * m
    m_hi = t - (t - m)
    m_lo = m - m_hi
    p = m * hi
    e = (((m_hi * hi_hi - p) + m_hi * hi_lo) + m_lo * hi_hi) + m_lo * hi_lo
    P = P.astype(np.int64)
    E = (e + m * lo[i]) * scale
    h = hi * scale * 2.0 ** -54

    # the shortest of the nearest 15-, 16- and 17-digit candidates inside
    # (X - h, X + h); no value is certified whose choice is uncertain
    n = P
    settled = np.zeros(x.size, bool)
    for step in (100, 10, 1):
        cand, dist = _nearest(P, E, step)
        now = ~settled & (dist < h - _MARGIN)
        certified &= settled | now | (dist > h + _MARGIN)
        certified &= ~now | (np.abs(dist - 0.5 * step) >= _MARGIN)
        n = np.where(now, cand, n)
        settled |= now
    carry = n == 10 ** 17
    n = np.where(carry, 10 ** 16, n)
    certified &= (n >= 10 ** 16) & (n < 10 ** 17)
    decpt = 17 - _K_MIN - i + carry
    return (certified | (x == 0.0), np.where(certified, n, 10 ** 16),
            np.where(certified, decpt, 1))


def _format_chunk(x: np.ndarray, last: np.ndarray) -> bytes:
    """The text of the values x, each followed by "\\n" where `last` and ","
    elsewhere."""
    certified, n, decpt = _shortest(x)
    hi9, lo8 = np.divmod(n.astype(np.uint64), 10 ** 8)
    top, g2 = np.divmod(hi9.astype(np.uint32), 10000)
    top, g1 = np.divmod(top, 10000)
    g3, g4 = np.divmod(lo8.astype(np.uint32), 10000)
    src = np.empty((x.size, 7), np.uint32)
    digit_groups, trailing_zeros, exp_words = _digit_tables()
    src[:, 0] = digit_groups[g1]
    src[:, 1] = digit_groups[g2]
    src[:, 2] = digit_groups[g3]
    src[:, 3] = digit_groups[g4]
    src[:, 4] = _LEAD_WORDS[top]
    src[:, 5] = exp_words[decpt - 1 + _EXP_BIAS]
    src[:, 6] = _TAIL_WORDS[2 * np.signbit(x) + last]
    zeros = trailing_zeros[g4]
    all_zero = g4 == 0
    for g in (g3, g2, g1):
        zeros += all_zero * trailing_zeros[g]
        all_zero &= g == 0
    nd = 17 - zeros
    layout = np.where((decpt >= -3) & (decpt <= 16), (decpt + 3) * 17 + nd - 1,
                      _N_FIXED + 2 * (nd - 1) + (np.abs(decpt - 1) >= 100))
    layout[x == 0.0] = _ZERO_LAYOUT
    layouts, lengths = _layout_table()
    width = lengths[layout].max() if certified.all() else _WIDTH
    index = layouts[:, :width][layout] + (np.arange(x.size, dtype=np.int32) * 28)[:, None]
    out = src.view(np.uint8).ravel()[index]

    for j in np.flatnonzero(~certified).tolist():
        text = (repr(float(x[j])) + ("\n" if last[j] else ",")).encode()
        out[j] = 0
        out[j, :len(text)] = np.frombuffer(text, np.uint8)
    return out[out != 0].tobytes()


def format_rows(a) -> str:
    """The CSV body of `a`: one line per row, its values written by repr and
    joined by commas.  A 1-D array is one column."""
    return _format_body(a).decode("ascii")


def _format_body(a) -> bytes:
    """`format_rows(a)` as ASCII bytes."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.size < SMALL_ELEMENTS:
        return "".join(",".join(map(repr, row)) + "\n" for row in a.tolist()).encode()
    rows, cols = a.shape
    per = max(1, CHUNK_ELEMENTS // cols)
    last = np.tile(np.arange(cols) == cols - 1, min(per, rows))
    chunks = (a[lo:lo + per].ravel() for lo in range(0, rows, per))
    return b"".join(_format_chunk(x, last[:x.size]) for x in chunks)


def twin_path(path) -> Path:
    """The binary twin of the CSV at `path`: `.<name>.f64` beside it."""
    path = Path(path)
    return path.with_name(f".{path.name}.f64")


def write_rows(path, names, a) -> None:
    """The CSV of `a` at `path`, under the header `names`, and its twin.  A
    1-D array is one column; ValueError if `a` has not len(names) columns."""
    a = np.asarray(a, dtype=float)
    rows = a[:, None] if a.ndim == 1 else a
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise ValueError(f"{len(names)} names for rows of shape {a.shape}")
    text = (",".join(names) + "\n").encode() + _format_body(rows)
    # float() reads every nan's repr as this one nan
    twin = np.where(np.isnan(rows), np.nan, rows).astype("<f8", copy=False)
    digest = hashlib.sha256(text)
    digest.update(twin)
    Path(path).write_bytes(text)
    with open(twin_path(path), "wb") as f:
        f.write(digest.digest())
        f.write(twin)


def _twin_rows(path, k: int):
    """The rows of the twin of the CSV at `path`, or None unless the twin's
    digest is the SHA-256 of the CSV's bytes and its own rows, and they
    fill k columns."""
    try:
        with open(twin_path(path), "rb") as f:
            digest = f.read(32)
            rows = np.fromfile(f, "<f8")
        with open(path, "rb") as f:
            check = hashlib.sha256(f.read())
    except OSError:
        return None
    check.update(rows)
    if check.digest() != digest or rows.size % k:
        return None
    return rows.reshape(-1, k)


def read_rows(path, names, valid, invalid: str) -> np.ndarray:
    """The (rows, len(names)) body of the CSV at `path`, under the header
    `names`; each value must satisfy the vectorized predicate `valid`.
    ValueError, naming the file and its first bad line, otherwise: a wrong
    header, a row of another width, a field float() cannot read, or a value
    that fails `valid`, whose message is `invalid.format(field)`, or text
    that is not UTF-8.  The rows come from the CSV's twin where it is valid,
    and are the same bits either way."""
    k = len(names)
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if header != ",".join(names):
                raise ValueError(f"{path}: line 1: header {header!r}, "
                                 f"expected {','.join(names)!r}")
            rows = _twin_rows(path, k)
            if rows is not None and valid(rows).all():
                return rows
            try:
                with warnings.catch_warnings():
                    # a header-only file warns of no data
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                rows = None
        if rows is not None and (rows.shape[1] == k or not rows.size) and valid(rows).all():
            return rows.reshape(-1, k)
        return _walk(path, k, valid, invalid)
    except UnicodeDecodeError as exc:
        raise ValueError(not_utf8(path, exc)) from None


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The error message for the file at `path` that is not UTF-8 text."""
    return f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})"


def read_json(path) -> dict:
    """The JSON object in the file at `path`.  ValueError, naming the file,
    if its text is not UTF-8, not JSON or not an object; OSError passes."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(not_utf8(path, exc)) from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    return obj


def json_text(obj) -> str:
    """The package's JSON format: keys sorted, two-space indent, a final
    newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    """`obj` in the package's JSON format at `path`."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


def _walk(path, k: int, valid, invalid: str) -> np.ndarray:
    """`read_rows`' body read line by line with float(), or the ValueError
    that names its first bad line."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != k:
            raise ValueError(f"{path}: line {lineno}: expected {k} values, got {len(fields)}")
        row = []
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {field!r}") from None
            if not valid(value):
                raise ValueError(f"{path}: line {lineno}: {invalid.format(field)}")
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, k)
