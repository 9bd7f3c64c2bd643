"""Figure 3 — time to compute the SHA-256 hash and the Pedersen
commitment (secp256k1 and secp256r1) vs model size.

The paper sweeps the number of model parameters on a log scale and
observes: commitment time is linear in the parameter count, minutes-scale
for 5-10M-parameter models, and orders of magnitude above SHA-256; the
two curves behave almost identically.

We measure real multi-exponentiations (Pippenger) at sizes up to 16k
parameters, as two Pedersen series per curve:

- **gradient** — what the protocol commits to: an ``N(0, 1)`` vector
  quantised to 16 fractional bits.  The multi-exponentiation works on
  the centred lift of its scalars, so these cost their ≈ 18 magnitude
  bits (2 bucket windows) whatever their sign.
- **full-width** — uniform ``Z_n`` scalars, the paper's regime (its
  testbed exponentiates by full 256-bit values): ≈ 32 windows.

Both must be linear in the parameter count, near-identical across the
two curves and orders of magnitude above SHA-256; the paper's
minutes-scale claim for a 5M-parameter model is asserted on the
full-width series, the one that matches its exponents.  Built by
``repro.analysis.figures.fig3_table``, on the host's wall clock.
"""

from _helpers import save_table

from repro.analysis.figures import (
    EXTRAPOLATION_PARAMS,
    FIG3_SERIES,
    FIG3_SIZES,
    fig3_table,
)
from repro.obs import SYSTEM_WALL_CLOCK


def test_fig3_commitment_cost(benchmark):
    outcome = {}

    def experiment():
        outcome["rows"], outcome["table"] = fig3_table(FIG3_SIZES,
                                                       SYSTEM_WALL_CLOCK)

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = outcome["rows"]
    save_table("fig3_commitments", outcome["table"])

    # Per-parameter slope from the largest measurement (most amortized),
    # as the table's extrapolated row has it.
    slopes = {name: rows[-1][name] / rows[-1]["params"]
              for name in FIG3_SERIES}
    extrapolated_s = {name: slope * EXTRAPOLATION_PARAMS
                      for name, slope in slopes.items()}
    benchmark.extra_info.update({
        "slope_us_per_param_k1": round(slopes["secp256k1_s"] * 1e6, 3),
        "slope_us_per_param_k1_full":
            round(slopes["secp256k1_full_s"] * 1e6, 3),
        "extrapolated_5M_minutes_k1":
            round(extrapolated_s["secp256k1_s"] / 60.0, 2),
        "extrapolated_5M_minutes_k1_full":
            round(extrapolated_s["secp256k1_full_s"] / 60.0, 2),
    })

    size_ratio = rows[-1]["params"] / rows[0]["params"]
    for k1, r1 in (FIG3_SERIES[:2], FIG3_SERIES[2:]):
        for row in rows:
            # Commitments are orders of magnitude above SHA-256 at every
            # size, and the two curves within a small constant of each
            # other.
            assert row[k1] > 100 * row["sha256_s"]
            assert row[r1] > 100 * row["sha256_s"]
            assert 0.3 < row[k1] / row[r1] < 3.0
        # Cost grows roughly linearly with size (within 2.5x of
        # proportional — Pippenger's window choice makes it mildly
        # sublinear).
        ratio = rows[-1][k1] / rows[0][k1]
        assert size_ratio / 2.5 < ratio < size_ratio * 2.5

    # Short scalars are what the centred lift buys: the gradient series
    # scans ~2 windows where the full-width one scans ~32.
    assert slopes["secp256k1_full_s"] > 4 * slopes["secp256k1_s"]
    # The paper's bottleneck claim: minutes for a 5M-parameter model at
    # full-width exponents.  (Their Java testbed: ~4-9 minutes; any
    # pure-Python slope lands comfortably above one minute.)
    assert extrapolated_s["secp256k1_full_s"] / 60.0 > 1.0
