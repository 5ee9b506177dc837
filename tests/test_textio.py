import numpy as np
import pytest

from tailfit.generate import generate_losses
from tailfit.textio import CHUNK_ELEMENTS, SMALL_ELEMENTS, _shortest, format_rows


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
