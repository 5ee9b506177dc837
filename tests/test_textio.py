import hashlib

import numpy as np
import pytest

from tailfit import textio
from tailfit.bootstrap import BootstrapMatrix
from tailfit.cli import ConfigError, main, read_losses
from tailfit.generate import generate_losses
from tailfit.textio import (CHUNK_ELEMENTS, SMALL_ELEMENTS, _shortest, format_rows, read_rows,
                            twin_path, write_rows)


# The three writers that format_rows replaced, kept as its oracles: the text
# of cmd_generate, BootstrapMatrix.write and DensityOverlay.to_csv.
def generate_oracle(losses):
    return "loss\n" + "\n".join(map(repr, losses.tolist())) + "\n"


def matrix_oracle(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def overlay_oracle(grid, kde, normal_pdf):
    lines = ["grid,kde,normal_pdf"]
    for row in zip(grid.tolist(), kde.tolist(), normal_pdf.tolist()):
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def fallback_share(x):
    return 1.0 - _shortest(np.ravel(x))[0].mean()


def neighbours(x, steps=3):
    """x and its `steps` nearest doubles on either side, and their negatives."""
    out = [x]
    for toward in (np.inf, 0.0):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, toward)
            out.append(y)
    return np.concatenate([*out, -np.concatenate(out)])


def both_signs(x):
    return np.concatenate([x, -x])


def vectorized(x):
    """x repeated until format_rows takes its vectorized path."""
    return np.tile(x, -(-SMALL_ELEMENTS // x.size))


RNG = np.random.default_rng(20260823)
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny,
                    0.1, 1e-5, 3.2e-12, 1e16, 1e22, 1e23, 9007199254740993.0])
# 10^6 random doubles of both signs, then the cases the fast path must hand
# to repr or get right at its edges
CASES = {
    "random_bits": RNG.integers(0, 2**64, 600_000, dtype=np.uint64).view(np.float64),
    "log_uniform": np.exp(RNG.uniform(-745.0, 709.0, 400_000)) * RNG.choice([-1.0, 1.0], 400_000),
    "subnormals": both_signs(RNG.integers(1, 2**52, 2_000, dtype=np.uint64).view(np.float64)),
    "special": vectorized(both_signs(SPECIAL)),
    "powers_of_two": neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers_of_ten": neighbours(np.array([10.0 ** k for k in range(-323, 309)])),
    "short_decimals": np.round(RNG.uniform(-1e6, 1e6, 50_000) * 1e3) / 1e3,
    "large_integers": both_signs(RNG.integers(0, 10**17, 50_000).astype(float)),
}


class TestFormatRows:
    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_repr(self, name):
        x = CASES[name]
        assert "loss\n" + format_rows(x) == generate_oracle(x)

    def test_every_width_and_chunk_edge(self):
        x = CASES["log_uniform"][:3 * CHUNK_ELEMENTS + 7]
        for k in (1, 2, 3, 4, 7):
            rows = x[:x.size // k * k].reshape(-1, k)
            assert "h\n" + format_rows(rows) == matrix_oracle("h", rows), k

    def test_overlay_columns(self):
        grid = np.linspace(-3.0, 40.0, 512)
        kde = np.exp(-0.5 * grid**2)  # underflows to 0.0 in the tail
        pdf = np.exp(-0.5 * (grid - 1.0) ** 2) / 2.5
        text = "grid,kde,normal_pdf\n" + format_rows(np.column_stack([grid, kde, pdf]))
        assert text == overlay_oracle(grid, kde, pdf)

    def test_exponent_fix_up(self):
        # just below a power of ten, where log10 rounds up to it
        x = np.array([10.0 ** j * (1.0 - 2e-14) for j in range(-300, 300)])
        x = x[np.log10(x) == np.round(np.log10(x))]
        assert x.size > 300
        assert fallback_share(x) == 0.0
        assert "loss\n" + format_rows(vectorized(x)) == generate_oracle(vectorized(x))

    def test_small_and_empty(self):
        # below SMALL_ELEMENTS values the repr loop writes them
        x = CASES["log_uniform"][:SMALL_ELEMENTS - 1]
        assert "loss\n" + format_rows(x) == generate_oracle(x)
        assert format_rows(np.empty(0)) == ""
        assert format_rows(np.empty((0, 4))) == ""

    def test_fast_path_carries_generate_output(self):
        # the values repr formats itself are rare in real output, so the
        # equality above is the fast path's
        for seed in (1, 2, 3):
            assert fallback_share(generate_losses("uom1", 200_000, seed)) < 0.01
        losses = generate_losses("uom1", 50_000, 1)
        assert "loss\n" + format_rows(losses) == generate_oracle(losses)
        assert fallback_share(CASES["log_uniform"]) < 0.03  # its subnormals
        assert fallback_share(CASES["random_bits"]) < 0.01


# finite doubles of both signs in both of repr's forms: subnormals, zeros,
# exact powers of two, the ends of the range and random magnitudes
FINITE = np.concatenate([
    CASES["subnormals"][:500],
    [0.0, -0.0, 5e-324, -5e-324, 1e-5, -3.2e-12, 1e22, -1e23],
    both_signs(np.ldexp(1.0, np.arange(-1074, 1024, 7))),
    neighbours(np.array([1e308, 1e-308, np.finfo(float).tiny])),
    both_signs(np.array([np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0)])),
    CASES["log_uniform"][:3000],
])


class TestReadRows:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_round_trip(self, tmp_path, k):
        a = FINITE[:FINITE.size // k * k].reshape(-1, k)
        names = tuple(f"c{j}" for j in range(k))
        path = tmp_path / "m.csv"
        path.write_text(",".join(names) + "\n" + format_rows(a))
        got = read_rows(path, names, np.isfinite, "not a finite number: {!r}")
        assert got.shape == a.shape
        assert got.tobytes() == a.tobytes()  # bit for bit, -0.0 included

    def test_loss_round_trip(self, tmp_path):
        losses = np.concatenate([generate_losses("uom1", 20_000, 1),
                                 np.abs(FINITE[FINITE != 0.0])])
        path = tmp_path / "losses.csv"
        path.write_text("loss\n" + format_rows(losses))
        assert read_losses(path).tobytes() == losses.tobytes()

    # loss and matrix files read by one rule: blank and whitespace-only lines
    # skipped, CRLF endings, and what float() reads, where numpy's reader
    # refuses some of it
    @pytest.mark.parametrize("body,want", [
        ("2.5\n \t \n1.5\n", [2.5, 1.5]),
        ("2.5\r\n1.5\r\n", [2.5, 1.5]),
        ("2.5\n1_000\n", [2.5, 1000.0]),
        ("2.5\r\n\r\n 1_000 \r\n  \r\n", [2.5, 1000.0]),
    ])
    def test_one_rule(self, tmp_path, body, want):
        loss_path = tmp_path / "losses.csv"
        loss_path.write_bytes(("loss\r\n" + body).encode())
        base = tmp_path / "boot_pareto_n100"
        BootstrapMatrix("pareto", (1.1,), 1e5, 100, len(want), len(want),
                        np.ones((len(want), 1)), 7).write(base)
        BootstrapMatrix.files(base)[0].write_bytes(("shape\r\n" + body).encode())
        assert read_losses(loss_path).tolist() == want
        assert BootstrapMatrix.read(base).rows[:, 0].tolist() == want


def no_parse(monkeypatch):
    """Make any parse of a CSV body fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")
    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(textio, "_walk", refuse)


def outcome(read):
    """The bytes of what `read()` returns, or the message of its error."""
    try:
        return read().tobytes()
    except (ValueError, ConfigError) as exc:
        return str(exc)


# a CSV body edited in one byte, to another number or to no number; a twin
# cut short, garbled in its digest or its rows, or absent
def edit_value(csv, twin):
    data = bytearray(csv.read_bytes())
    data[-3] = ord("1") if data[-3] != ord("1") else ord("2")
    csv.write_bytes(bytes(data))


def edit_to_text(csv, twin):
    data = bytearray(csv.read_bytes())
    data[-3] = ord("x")
    csv.write_bytes(bytes(data))


def flip(twin, offset):
    data = bytearray(twin.read_bytes())
    data[offset] ^= 0x40
    twin.write_bytes(bytes(data))


DEFECTS = {
    "csv_value": edit_value,
    "csv_text": edit_to_text,
    "twin_truncated": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:-8]),
    "twin_digest_only": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:32]),
    "twin_short": lambda csv, twin: twin.write_bytes(twin.read_bytes()[:20]),
    "twin_digest_garbled": lambda csv, twin: flip(twin, 5),
    "twin_rows_garbled": lambda csv, twin: flip(twin, 40),
    "twin_of_another_csv": lambda csv, twin: twin.write_bytes(
        twin.read_bytes()[:32] + np.ones(twin.stat().st_size // 8 - 4).tobytes()),
    "no_twin": lambda csv, twin: twin.unlink(),
}


class TestTwin:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_read_skips_the_parse(self, tmp_path, monkeypatch, k):
        a = FINITE[:FINITE.size // k * k].reshape(-1, k)
        names = tuple(f"c{j}" for j in range(k))
        path = tmp_path / "m.csv"
        write_rows(path, names, a)
        assert path.read_text() == ",".join(names) + "\n" + format_rows(a)
        no_parse(monkeypatch)
        got = read_rows(path, names, np.isfinite, "not a finite number: {!r}")
        assert got.shape == a.shape
        assert got.tobytes() == a.tobytes()  # bit for bit, -0.0 included

    def test_generated_losses_skip_the_parse(self, tmp_path, monkeypatch):
        assert main(["generate", "--out", str(tmp_path), "--seed", "3", "--n", "5000"]) == 0
        want = generate_losses("uom1", 5000, 3)
        no_parse(monkeypatch)
        assert read_losses(tmp_path / "losses.csv").tobytes() == want.tobytes()

    def test_twin_holds_what_the_parse_returns(self, tmp_path):
        # nan of either sign or any payload is written "nan", which reads
        # back as numpy's one nan; inf and -0.0 read back as themselves
        odd_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(float)
        a = np.concatenate([odd_nan, [np.nan, np.inf, -np.inf, -0.0, 0.1]])
        path = tmp_path / "x.csv"
        write_rows(path, ("x",), a)

        def read():
            return read_rows(path, ("x",), lambda v: np.ones(np.shape(v), bool), "{}")
        with_twin = read().tobytes()
        twin_path(path).unlink()
        assert with_twin == read().tobytes()

    def test_layout_and_determinism(self, tmp_path):
        a = FINITE[:1000].reshape(-1, 4)
        path = tmp_path / "m.csv"
        write_rows(path, ("a", "b", "c", "d"), a)
        twin = twin_path(path)
        assert twin == tmp_path / ".m.csv.f64"
        first = twin.read_bytes()
        digest = hashlib.sha256(path.read_bytes() + a.astype("<f8").tobytes()).digest()
        assert first == digest + a.astype("<f8").tobytes()
        write_rows(path, ("a", "b", "c", "d"), a)
        assert twin.read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == [".m.csv.f64", "m.csv"]

    def test_names_must_fit_the_rows(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(tmp_path / "m.csv", ("a", "b"), np.ones((3, 3)))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("kind", ["matrix", "losses"])
    def test_defect_reads_as_the_csv_alone(self, tmp_path, defect, kind):
        # the read gives what parsing the CSV as it stands gives: its values,
        # or its error word for word
        rows = np.abs(FINITE[FINITE != 0.0][:600]).reshape(-1, 2 if kind == "matrix" else 1)
        if kind == "matrix":
            base = tmp_path / "boot_weibull_n100"
            BootstrapMatrix("weibull", (0.56, 212303.18), 1e5, 100, len(rows), len(rows),
                            rows, 7).write(base)
            csv = BootstrapMatrix.files(base)[0]

            def read():
                return BootstrapMatrix.read(base).rows
        else:
            csv = tmp_path / "losses.csv"
            write_rows(csv, ("loss",), rows)

            def read():
                return read_losses(csv)
        DEFECTS[defect](csv, twin_path(csv))
        got = outcome(read)
        twin_path(csv).unlink(missing_ok=True)
        assert got == outcome(read)
        if defect.startswith("twin") or defect == "no_twin":
            assert got == rows.ravel().tobytes()
        elif defect == "csv_text":
            assert "not a number" in got
