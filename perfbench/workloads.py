"""The three benchmark workloads: seeded inputs, operations and references.

Every workload is a closed loop driven by one client in one process.  It
builds its models and input files once (the timed set-up), then runs a
fixed cycle of operation kinds over and over.  Each kind holds a few
seeded variants and takes the next one on every visit.  Each operation
is checked against a closed form or an oracle written here; sample
counts are also checked against the first run with the same seed.

The cycles weight the kinds so that the median and the p90 latency each
fall well inside one kind's cluster of latencies rather than on the
border between two kinds.  Whole cycles are measured, so the shares are
exact and the percentiles do not jump between kinds from run to run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


class Mismatch(Exception):
    """An operation returned a result that disagrees with its reference."""


@dataclass
class Variant:
    """One concrete operation: a timed call and the check of its output."""

    run: object
    check: object
    points: int


@dataclass
class OpKind:
    variants: list
    visits: int = 0

    def next_variant(self):
        variant = self.variants[self.visits % len(self.variants)]
        self.visits += 1
        return variant


@dataclass
class Workload:
    kinds: dict
    cycle: list
    notes: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# reference helpers


def expect_close(label, got, want, tol):
    """Raise Mismatch unless got matches want to tol relative to want's scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{label}: shape {got.shape}, want {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= tol * scale:
        raise Mismatch(f"{label}: off by {err:.3e} (tolerance {tol * scale:.1e})")


def expect_equal(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, want {want!r}")


def expect_phase(label, got, want, tol):
    err = abs(math.remainder(got - want, 2.0 * math.pi))
    if not err <= tol:
        raise Mismatch(f"{label}: phase {got!r} is {err:.3e} from {want!r}")


def cli_op(argv, check, points):
    """Variant that runs one in-process ``qestgeo`` command."""
    from qestgeo import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    return Variant(run=run, check=lambda res: check(json.loads(res.stdout)), points=points)


def write_json(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def theta_arg(points):
    return "--theta=" + ";".join(",".join(f"{v:.12g}" for v in p) for p in points)


def samples_arg(samples):
    return "--samples=" + ";".join(f"{s[0]:.12g}" for s in samples)


def grid_spec(name, n, lower=-10.0, upper=10.0, **params):
    params["grid"] = {"n": n, "lower": lower, "upper": upper}
    return {"kind": "catalog", "name": name, "params": params}


# closed forms of the catalog families used below (unit-width gaussian,
# hbar = 1)
PM_FISHER = np.diag([2.0, 2.0])
PM_CURVATURE = np.array([[0.0, 2.0], [-2.0, 0.0]])
GAUSS_SHIFT_FISHER = np.array([[2.0]])


def bloch_fisher(pol):
    return np.diag([1.0, math.sin(pol) ** 2])


def bloch_curvature(pol):
    return np.array([[0.0, math.sin(pol)], [-math.sin(pol), 0.0]])


# ---------------------------------------------------------------------------
# grid_scan: library analyze on n = 65536


def grid_scan(rng, workdir):
    import qestgeo

    grid = {"n": 65536, "lower": -10.0, "upper": 10.0}
    pm = qestgeo.catalog("position_momentum_shift", {"profile": "gaussian", "grid": grid})
    pm_fd = dataclasses.replace(pm, tangent_fn=None)
    chirp = float(rng.uniform(0.2, 0.5))
    chirped = qestgeo.catalog(
        "position_shift",
        {"profile": {"name": "chirped_gaussian", "chirp": chirp}, "grid": grid},
    )

    def analyze_op(model, theta, check):
        # looked up at call time so a traced run sees the wrapped function
        return Variant(run=lambda: qestgeo.analyze(model, theta),
                       check=check, points=1)

    def check_pm(rep):
        expect_close("J_S", rep.sld_fisher, PM_FISHER, 1e-6)
        expect_close("J~", rep.berry_curvature, PM_CURVATURE, 1e-6)
        expect_close("betas", rep.betas, [1.0], 1e-6)
        expect_close("cr_js", rep.cr_js, 4.0, 1e-6)
        expect_equal("rank_deficient", rep.rank_deficient, False)

    chirp_fisher = np.array([[2.0 + 8.0 * chirp * chirp]])

    def check_chirp(rep):
        expect_close("J_S", rep.sld_fisher, chirp_fisher, 1e-8)
        expect_close("J~", rep.berry_curvature, [[0.0]], 1e-8)
        expect_close("betas", rep.betas, [], 0.0)
        expect_close("cr_js", rep.cr_js, 1.0, 1e-12)

    def thetas(m):
        return [tuple(rng.uniform(-1.0, 1.0, m)) for _ in range(16)]

    kinds = {
        "analyze_pm": OpKind([analyze_op(pm, t, check_pm) for t in thetas(2)]),
        "analyze_pm_fd": OpKind([analyze_op(pm_fd, t, check_pm) for t in thetas(2)]),
        "analyze_chirped": OpKind([analyze_op(chirped, t, check_chirp) for t in thetas(1)]),
    }
    return Workload(kinds, ["analyze_pm", "analyze_pm_fd", "analyze_chirped"],
                    notes={"chirp": chirp})


# ---------------------------------------------------------------------------
# basis_scan: small dimension, many points, through the CLI


def octahedral_povm():
    """Six elements |v><v| / 3 along the +-x, +-y, +-z Bloch axes."""
    s = 1.0 / math.sqrt(2.0)
    kets = [(1, 0), (0, 1), (s, s), (s, -s), (s, 1j * s), (s, -1j * s)]
    elements = []
    for ket in kets:
        v = np.asarray(ket, dtype=complex)
        e = np.outer(v, v.conj()) / 3.0
        elements.append([[[z.real, z.imag] for z in row] for row in e])
    return {"kind": "matrices", "elements": elements}


def octahedral_fisher(pol, az):
    """Classical Fisher of the octahedral POVM on the Bloch family.

    Outcome pair (+-a) has p = (1 +- r_a) / 6, so each axis contributes
    d r_a d r_a^T / (3 (1 - r_a^2)).
    """
    r = np.array([math.sin(pol) * math.cos(az), math.sin(pol) * math.sin(az), math.cos(pol)])
    dr = np.array([
        [math.cos(pol) * math.cos(az), math.cos(pol) * math.sin(az), -math.sin(pol)],
        [-math.sin(pol) * math.sin(az), math.sin(pol) * math.cos(az), 0.0],
    ])
    return (dr / (3.0 * (1.0 - r * r))) @ dr.T


def basis_scan(rng, workdir):
    n_points, n_fisher, n_segments = 50, 80, 2000
    bloch = write_json(workdir, "bloch.json", {"kind": "catalog", "name": "bloch",
                                               "params": {}})
    amps = rng.uniform(0.2, 1.0, 6) * rng.choice([-1.0, 1.0], 6)
    spin = write_json(workdir, "spin.json", {"kind": "catalog", "name": "spin_jz",
                                             "params": {"amplitudes": amps.tolist()}})
    povm = write_json(workdir, "octahedral.json", octahedral_povm())

    probs = amps**2 / np.sum(amps**2)
    m_values = np.arange(6) - 2.5
    spin_fisher = 4.0 * (probs @ m_values**2 - (probs @ m_values) ** 2)

    def report_bloch(k):
        pts = [(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2.0 * math.pi))
               for _ in range(n_points)]

        def check(doc):
            for entry, (pol, _) in zip(doc["entries"], pts, strict=True):
                expect_close("J_S", entry["sld_fisher"], bloch_fisher(pol), 1e-10)
                expect_close("J~", entry["berry_curvature"], bloch_curvature(pol), 1e-10)
                expect_close("betas", entry["betas"], [1.0], 1e-8)
                expect_close("cr_js", entry["attainable_cr_js"], 4.0, 1e-6)
                expect_close("sld_bound_js", entry["sld_bound_js"], 2.0, 1e-10)
                expect_close("sld_bound_weight", entry["sld_bound_weight"], 2.0, 1e-10)

        return cli_op(["report", "--model", bloch, theta_arg(pts), "--weight", "js"],
                      check, n_points)

    def report_spin(k):
        pts = [(rng.uniform(-3.0, 3.0),) for _ in range(n_points)]

        def check(doc):
            expect_equal("entries", len(doc["entries"]), n_points)
            for entry in doc["entries"]:
                expect_close("J_S", entry["sld_fisher"], [[spin_fisher]], 1e-10)
                expect_close("J~", entry["berry_curvature"], [[0.0]], 1e-10)
                expect_close("cr_js", entry["attainable_cr_js"], 1.0, 1e-12)
                expect_equal("quasi_classical", entry["quasi_classical"], True)

        return cli_op(["report", "--model", spin, theta_arg(pts)], check, n_points)

    def holonomy_latitude(k):
        pol = float(rng.uniform(0.5, 2.5))
        loop = [[pol, 2.0 * math.pi * j / n_segments] for j in range(n_segments + 1)]
        path = write_json(workdir, f"latitude{k}.json", {"thetas": loop})
        # the 2000-segment chain is within 1e-5 of the continuum phase
        want = math.pi * (1.0 - math.cos(pol))

        def check(doc):
            expect_phase("gamma", doc["result"]["gamma"], want, 1e-4)
            expect_equal("n_segments", doc["result"]["n_segments"], n_segments)

        return cli_op(["holonomy", "--model", bloch, "--loop", path, "--closed"],
                      check, n_segments + 1)

    def fisher_octahedral(k):
        # keep |r_a| <= 0.93 so no outcome probability approaches zero
        pts = [(rng.uniform(0.4, 1.2), rng.uniform(0.0, 2.0 * math.pi))
               for _ in range(n_fisher)]

        def check(doc):
            for entry, (pol, az) in zip(doc["entries"], pts, strict=True):
                expect_close("J_C", entry["classical_fisher"], octahedral_fisher(pol, az), 1e-9)
                expect_close("J_S", entry["sld_fisher"], bloch_fisher(pol), 1e-10)

        return cli_op(["fisher", "--model", bloch, "--povm", povm, theta_arg(pts)],
                      check, n_fisher)

    factories = {"report_spin": report_spin, "report_bloch": report_bloch,
                "fisher_octahedral": fisher_octahedral,
                "holonomy_latitude": holonomy_latitude}
    kinds = {name: OpKind([build(k) for k in range(4)]) for name, build in factories.items()}
    cycle = ["report_spin", "report_bloch", "fisher_octahedral", "report_bloch",
             "holonomy_latitude"]
    return Workload(kinds, cycle, notes={"spin_amplitudes": amps.tolist()})


# ---------------------------------------------------------------------------
# grid_classify: CLI documents on mid-size grids, dense and edge paths


def ring_flux_phase(thetas, n, alpha=0.3):
    """Open transport phase of the ring_flux family, computed independently."""
    omega = 2.0 * math.pi * np.arange(n) / n
    th = np.asarray(thetas, dtype=float)[:, None]
    s = np.mod(omega - th, 2.0 * math.pi)
    states = (2.0 - np.cos(s)) * np.exp(1j * alpha * (s + th))
    overlaps = np.sum(states[:-1].conj() * states[1:], axis=1)
    direct = np.vdot(states[0], states[-1])
    chain = np.prod(overlaps / np.abs(overlaps)) * np.conj(direct) / abs(direct)
    return float(np.angle(chain))


def rectangle(x0, y0, a, b, per_side):
    corners = [(x0, y0), (x0 + a, y0), (x0 + a, y0 + b), (x0, y0 + b), (x0, y0)]
    pts = []
    for (p, q), (r, s) in zip(corners[:-1], corners[1:]):
        pts.extend([p + (r - p) * j / per_side, q + (s - q) * j / per_side]
                   for j in range(per_side))
    pts.append(list(corners[-1]))
    return pts


def spread_samples(rng, count):
    """Sorted seeded samples in [-1, 1], at least 0.2 apart."""
    gap = 0.2
    cuts = np.sort(rng.uniform(0.0, 2.0 - gap * (count - 1), count))
    return [(float(c - 1.0 + gap * j),) for j, c in enumerate(cuts)]


def grid_classify(rng, workdir):
    ps1024 = write_json(workdir, "ps1024.json", grid_spec("position_shift", 1024,
                                                          profile="gaussian"))
    ps4096 = write_json(workdir, "ps4096.json", grid_spec("position_shift", 4096,
                                                          profile="gaussian"))
    ps16384 = write_json(workdir, "ps16384.json", grid_spec("position_shift", 16384,
                                                            profile="gaussian"))
    pm4096 = write_json(workdir, "pm4096.json", grid_spec("position_momentum_shift", 4096,
                                                          profile="gaussian"))
    two_well = write_json(workdir, "two_well.json",
                          grid_spec("two_well", 2048, lower=-8.0, upper=8.0))
    ring = write_json(workdir, "ring.json", {
        "kind": "catalog", "name": "ring_flux",
        "params": {"grid": {"n": 1024, "lower": 0.0, "upper": 2.0 * math.pi,
                            "periodic": True}}})
    positions = -10.0 + 20.0 * np.arange(4096) / 4095.0

    def check_dense(k):
        samples = spread_samples(rng, 5)

        def check(doc):
            # real gaussian shifts: quasi-parallel, conjugation-invariant,
            # symmetric momentum density
            expect_equal("quasi_parallel", doc["quasi_parallel"]["flag"], True)
            expect_equal("raw_flag", doc["quasi_parallel"]["raw_flag"], True)
            expect_equal("constructed", doc["antiunitary"]["constructed"], True)
            expect_equal("invariant", doc["antiunitary"]["invariant"], True)
            expect_equal("momentum", doc["momentum_symmetry"]["flag"], True)
            expect_equal("consistent", doc["consistent"], True)

        return cli_op(["check", "--model", ps1024, samples_arg(samples)],
                      check, len(samples))

    def check_two_well(k):
        samples = spread_samples(rng, 5)

        def check(doc):
            # the phase step under the node makes the overlaps complex
            expect_equal("quasi_parallel", doc["quasi_parallel"]["flag"], False)
            expect_equal("constructed", doc["antiunitary"]["constructed"], False)
            expect_equal("momentum", doc["momentum_symmetry"]["flag"], False)
            expect_equal("consistent", doc["consistent"], True)

        return cli_op(["check", "--model", two_well, samples_arg(samples)],
                      check, len(samples))

    def loop_rectangle(k):
        x0, y0 = rng.uniform(-0.5, 0.5, 2)
        a, b = (float(v) for v in rng.uniform(0.2, 0.5, 2))
        pts = rectangle(x0, y0, a, b, per_side=8)
        path = write_json(workdir, f"rectangle{k}.json", {"thetas": pts})

        def check(doc):
            # phase-space displacements: the loop phase is the enclosed area
            expect_phase("gamma", doc["result"]["gamma"], a * b, 1e-9)

        return cli_op(["holonomy", "--model", pm4096, "--loop", path, "--closed"],
                      check, len(pts))

    def ring_open(k):
        start, length = rng.uniform(0.5, 2.0), rng.uniform(1.5, 2.5)
        pts = [[start + length * j / 200] for j in range(201)]
        path = write_json(workdir, f"ring{k}.json", {"thetas": pts})
        want = ring_flux_phase([p[0] for p in pts], 1024)

        def check(doc):
            expect_phase("gamma", doc["result"]["gamma"], want, 1e-9)
            expect_equal("n_segments", doc["result"]["n_segments"], 200)

        return cli_op(["holonomy", "--model", ring, "--loop", path], check, len(pts))

    def fisher(model, povm, count):
        def build(k):
            pts = [(float(t),) for t in np.sort(rng.uniform(-1.0, 1.0, count))]

            def check(doc):
                for entry in doc["entries"]:
                    expect_close("J_C", entry["classical_fisher"], GAUSS_SHIFT_FISHER, 1e-6)
                    expect_close("J_S", entry["sld_fisher"], GAUSS_SHIFT_FISHER, 1e-8)

            return cli_op(["fisher", "--model", model, "--povm", povm, theta_arg(pts)],
                          check, count)
        return build

    def sample(k):
        theta = float(rng.uniform(-1.0, 1.0))
        draws = 1_000_000
        seed = int(rng.integers(1, 2**31))
        first = {}

        def check(doc):
            counts = np.asarray(doc["counts"], dtype=np.int64)
            expect_equal("total", int(counts[:, 1].sum()), draws)
            # the position mean of 10^6 draws from |phi|^2 (variance 1/2)
            # lies within 6 sigma of theta
            mean = float(positions[counts[:, 0]] @ counts[:, 1]) / draws
            expect_close("mean", mean, theta, 6.0 * math.sqrt(0.5 / draws))
            key = doc["counts"]
            if first.setdefault("counts", key) != key:
                raise Mismatch("counts differ between runs with the same seed")

        return cli_op(["sample", "--model", ps4096, "--povm", "grid", f"--theta={theta!r}",
                       "--n", str(draws), "--seed", str(seed)], check, 1)

    factories = {
        "check_dense": check_dense,
        "check_two_well": check_two_well,
        "loop_rectangle": loop_rectangle,
        "ring_open": ring_open,
        "fisher_grid": fisher(ps4096, "grid", 21),
        "fisher_schmidt": fisher(ps4096, "schmidt", 21),
        "fisher_grid_fine": fisher(ps16384, "grid", 1),
        "sample": sample,
    }
    kinds = {name: OpKind([build(k) for k in range(2)]) for name, build in factories.items()}
    # 10 ops: the dense check is 2 in 10 so that the p90 sits mid-cluster,
    # the n = 4096 loop 1 in 10, and the median falls among the schmidt ops
    cycle = ["check_dense", "fisher_grid", "fisher_schmidt", "check_two_well",
             "loop_rectangle", "sample", "check_dense", "ring_open", "fisher_grid_fine",
             "fisher_schmidt"]
    return Workload(kinds, cycle)


WORKLOADS = {"grid_scan": grid_scan, "basis_scan": basis_scan,
             "grid_classify": grid_classify}
