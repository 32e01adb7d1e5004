"""The benchmark's workloads: lists of gaussbath CLI calls, made from a seed.

A point is one CLI call: a ``solve``, a single-value ``sweep``, a ``modes``
or an ``oracle`` call, with its own generated config file and output CSV.
The seed shuffles the order of the points and multiplies every physical
parameter by a factor within 1e-6 of one.  That is far too small to change
how deep any point refines (the closest point stops at 0.89 of its
tolerance), so every seed does the same amount of work and still gives the
program inputs it has not seen before.
"""

import random

JITTER = 1e-6
# n, N, t_max, steps and tol stay exact: they select formulas and grid sizes
JITTERED = ("eta", "omega_c", "omega0", "g", "xi", "omega_C", "r")

_OHMIC = dict(model="ohmic", n=3.0, omega0=1.0, r=1.0, t_max=50.0, steps=2500, tol=1e-3)
_RING200 = dict(model="array", g=0.02, xi=0.05, omega_C=1.0, N=200, r=1.0)
_FIG4B = dict(_RING200, t_max=500.0, steps=10000, tol=1e-3)
_SHALLOW_ARRAY = dict(model="array", g=0.02, xi=0.05, omega_C=1.0, omega0=0.95, r=1.0,
                      t_max=200.0, steps=2000, tol=1e-3)

# (command, parameters, swept key or None)
WORKLOADS = {
    # Two super-Ohmic points that both refine to M=40000 with a closed-form
    # kernel: the O(M^2) Volterra history sum is nearly all of the time.
    "ohmic_deep": [
        ("solve", dict(_OHMIC, eta=1.0, omega_c=1.0), None),
        ("solve", dict(_OHMIC, eta=0.08, omega_c=2.0), None),
    ],
    # The fig4b sweep on the N=200 ring (M=20000): the finite-ring mode-sum
    # kernel is a quarter of the time, and every point has the lattice oracle.
    "array_fig4b": [
        ("sweep", dict(_FIG4B, omega0=w0), "omega0") for w0 in (0.8, 0.85, 0.9, 0.95)
    ],
    # Many small solves (M <= 10000): per-call overhead and small-M cost.
    "shallow_sweep": [
        ("sweep", dict(_OHMIC, eta=round(0.05 * k, 2), omega_c=1.0), "eta") for k in range(1, 8)
    ] + [
        ("solve", dict(_SHALLOW_ARRAY, N=N), None) for N in (4, 8, 16, None)
    ],
    # No Volterra solve at all: quadrature, root finding, lattice
    # diagonalisation and CSV formatting.  Five Ohmic modes calls of similar
    # cost put the median point inside one group instead of at its edge.
    "modes_oracle": [
        ("modes", dict(_RING200, omega0=w0), None) for w0 in (0.8, 0.85, 0.9, 0.95)
    ] + [
        ("modes", dict(model="ohmic", n=3.0, eta=1.0, omega_c=1.0, omega0=1.0), None),
        ("modes", dict(model="ohmic", n=3.0, eta=0.08, omega_c=2.0, omega0=1.0), None),
        ("modes", dict(model="ohmic", n=1.0, eta=0.5, omega_c=1.0, omega0=1.0), None),
        ("modes", dict(model="ohmic", n=1.0, eta=2.0, omega_c=1.0, omega0=1.0), None),
        ("modes", dict(model="ohmic", n=2.0, eta=1.5, omega_c=1.0, omega0=1.0), None),
        ("modes", dict(model="ohmic", n=0.5, eta=1.0, omega_c=1.0, omega0=1.0), None),
        ("oracle", dict(_FIG4B, omega0=0.8), None),
    ],
}


def _config_text(params, sweep):
    lines = []
    for key, value in params.items():
        if key == "N":
            value = "continuum" if value is None else str(value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
    if sweep is not None:
        lines.append(f"sweep={sweep}")
        lines.append(f"sweep_values={params[sweep]!r}")
    return "\n".join(lines) + "\n"


def make_points(workload, seed, workdir):
    """Write one config per point under ``workdir``; return the point records
    in the seed's order.  Each record holds the CLI argv and the jittered
    parameters the correctness checks need."""
    rng = random.Random(f"{workload}:{seed}")
    points = []
    for index, (command, base, sweep) in enumerate(WORKLOADS[workload]):
        params = {
            key: value * (1.0 + rng.uniform(-JITTER, JITTER)) if key in JITTERED else value
            for key, value in base.items()
        }
        config = workdir / f"p{index}.cfg"
        config.write_text(_config_text(params, sweep), encoding="utf-8")
        out = workdir / f"p{index}.csv"
        points.append({
            "name": f"p{index}:{command}",
            "command": command,
            "params": params,
            "sweep": sweep,
            "argv": [command, "--config", str(config), "--out", str(out)],
            "out": str(out),
        })
    rng.shuffle(points)
    return points
