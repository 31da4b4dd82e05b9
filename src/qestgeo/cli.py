"""Batch command-line driver.

Subcommands
-----------
report    geometry report (metric, curvature, spectrum, bounds) per theta
holonomy  transport phase of a curve given as an ordered theta list
check     quasi-parallel / antiunitary / momentum-symmetry classification
fisher    classical vs quantum Fisher comparison for a measurement
sample    Monte Carlo outcome draws from a measurement

Models are described by JSON documents, either a catalog entry

    {"kind": "catalog", "name": "position_shift",
     "params": {"profile": "gaussian", "grid": {"n": 512, "lower": -10, "upper": 10}}}

or a table of states on a uniform 1-parameter grid

    {"kind": "tabulated", "space": {"type": "grid", "n": 8, "lower": 0, "upper": 1},
     "thetas": [0.0, 0.1, 0.2],
     "amplitudes": [[[re, im], ...], ...]}

A catalog ``grid`` object that omits ``n`` takes it from the
QESTGEO_GRID_N environment variable (512 when unset); a spec without a
``grid`` object keeps the model's own default grid.  Output documents
are JSON with floats printed to 17 significant digits and keys in fixed
order, so identical invocations are byte-identical.  Every document opens
with ``tool`` and ``model`` (the normalized spec echo); :func:`main` reads
the model before any other input and each subcommand returns only the
keys that follow.

Exit codes: 0 success, 2 malformed input documents (including a loop
marked closed whose end ray differs from its start ray), 3
numerical-contract violations, 64 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, estimation, geometry, hilbert, holonomy, model, symmetry
from .errors import (
    AnchorError,
    ClosureError,
    DomainError,
    MeasurementDefinitionError,
    ModelDefinitionError,
    NonRealOverlapError,
    QestgeoError,
    RankDeficiencyError,
    RefinementError,
    SingularSupportError,
    SpecFormatError,
    SpectralConsistencyError,
    UndefinedPhaseError,
)
from .hilbert import BasisSpace, GridSpace, StateVector
from .model import Curve

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

_NUMERICAL_ERRORS = (
    RankDeficiencyError,
    SpectralConsistencyError,
    NonRealOverlapError,
    RefinementError,
    SingularSupportError,
    ModelDefinitionError,
    AnchorError,
    UndefinedPhaseError,
)

CONJUGATION_RESIDUAL_TOL = 1e-6
TABLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def _float_repr(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


_FLOATS, _INTS = {float}, {int}


def _encode(obj, newline, out, keys):
    """Append the JSON text of ``obj`` to ``out``, indented by two spaces.

    ``newline`` is the line break plus the indentation of the enclosing
    level, and ``keys`` maps each key met so far to its JSON text.  The
    bytes match ``json.dumps(obj, indent=2)`` except that floats go through
    :func:`_float_repr`.  A list of plain floats or of plain ints is one
    join; anything else in a list (``np.float64``, bools, a mix) takes the
    recursive path, so an unsupported value still raises ``TypeError``.
    """
    if isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep, kinds = "," + inner, set(map(type, obj))
        if kinds == _FLOATS:
            text = sep.join(["%.17g"] * len(obj)) % tuple(obj)
            if "n" in text:  # nan, inf or -inf: JSON spells them otherwise
                text = sep.join(map(_float_repr, obj))
            out.append("[" + inner + text + newline + "]")
        elif kinds == _INTS:
            out.append("[" + inner + sep.join(map(repr, obj)) + newline + "]")
        else:
            for k, value in enumerate(obj):
                out.append(("[" if k == 0 else ",") + inner)
                _encode(value, inner, out, keys)
            out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        for k, (key, value) in enumerate(obj.items()):
            text = keys.get(key)
            if text is None:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                text = keys[key] = json.dumps(key)
            out.append(("{" if k == 0 else ",") + inner + text + ": ")
            _encode(value, inner, out, keys)
        out.append(newline + "}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_document(doc):
    out = []
    _encode(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _matrix(a):
    return np.asarray(a, dtype=float).tolist()


# ---------------------------------------------------------------------------
# input documents


def _require(mapping, key, path):
    if key not in mapping:
        raise SpecFormatError("missing required field", path=f"{path}.{key}" if path else key)
    return mapping[key]


def _floats(value, path):
    """``value`` as a float array; a spec error names ``path`` when it is
    not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"not numeric: {value!r}", path=path) from exc


def default_grid_points():
    raw = os.environ.get("QESTGEO_GRID_N", "512")
    try:
        n = int(raw)
    except ValueError as exc:
        raise SpecFormatError(f"QESTGEO_GRID_N={raw!r} is not an integer") from exc
    if n < 2:
        raise SpecFormatError(f"QESTGEO_GRID_N={n} must be >= 2")
    return n


def parse_model_spec(doc):
    """Build a model from a spec mapping; returns (model, normalized echo)."""
    if not isinstance(doc, dict):
        raise SpecFormatError("model spec must be a JSON object")
    kind = _require(doc, "kind", "")
    if kind == "catalog":
        return _parse_catalog_spec(doc)
    if kind == "tabulated":
        return _parse_tabulated_spec(doc)
    raise SpecFormatError(f"unknown kind {kind!r}", path="kind")


def _parse_catalog_spec(doc):
    name = _require(doc, "name", "")
    if name not in model.CATALOG:
        raise SpecFormatError(
            f"unknown catalog model {name!r}; known: {sorted(model.CATALOG)}",
            path="name",
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecFormatError("must be an object", path="params")
    params = dict(params)
    if "grid" in params:
        if not isinstance(params["grid"], dict):
            raise SpecFormatError("must be an object", path="params.grid")
        grid = dict(params["grid"])
        grid.setdefault("n", default_grid_points())
        params["grid"] = grid
    try:
        built = model.catalog(name, params)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise SpecFormatError(f"invalid params for {name}: {exc}", path="params") from exc
    if "fd_step" in doc:
        step = _floats(doc["fd_step"], "fd_step")
        if step.shape or not 0.0 < step < np.inf:
            raise SpecFormatError(f"must be a positive number, got {doc['fd_step']!r}",
                                  path="fd_step")
        raise SpecFormatError("catalog families have closed-form tangents", path="fd_step")
    return built, {"kind": "catalog", "name": name, "params": params}


def _parse_space_spec(spec, path):
    if not isinstance(spec, dict):
        raise SpecFormatError("space must be an object", path=path)
    stype = _require(spec, "type", path)
    try:
        if stype == "grid":
            periodic = spec.get("periodic", False)
            if not isinstance(periodic, bool):
                raise SpecFormatError(f"must be true or false, got {periodic!r}",
                                      path=f"{path}.periodic")
            return GridSpace(
                int(_require(spec, "n", path)),
                float(_require(spec, "lower", path)),
                float(_require(spec, "upper", path)),
                periodic=periodic,
            )
        if stype == "basis":
            return BasisSpace(int(_require(spec, "dimension", path)),
                              labels=spec.get("labels"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecFormatError(f"invalid space: {exc}", path=path) from exc
    raise SpecFormatError(f"unknown space type {stype!r}", path=f"{path}.type")


def _parse_tabulated_spec(doc):
    space = _parse_space_spec(_require(doc, "space", ""), "space")
    thetas = _floats(_require(doc, "thetas", ""), "thetas")
    if thetas.ndim != 1 or thetas.size < 2:
        raise SpecFormatError("thetas must be a flat list of at least two values",
                              path="thetas")
    if not np.isfinite(thetas).all():
        raise SpecFormatError("thetas must be finite numbers", path="thetas")
    steps = np.diff(thetas)
    if np.max(np.abs(steps - steps[0])) > TABLE_TOL * max(1.0, abs(steps[0])):
        raise SpecFormatError("theta grid must be uniform", path="thetas")
    if steps[0] <= 0:
        raise SpecFormatError("thetas must be strictly increasing", path="thetas")
    rows = _require(doc, "amplitudes", "")
    if not isinstance(rows, list):
        raise SpecFormatError("must be a list of rows", path="amplitudes")
    if len(rows) != thetas.size:
        raise SpecFormatError(
            f"got {len(rows)} amplitude rows for {thetas.size} thetas",
            path="amplitudes",
        )
    table = []
    for r, row in enumerate(rows):
        arr = _floats(row, f"amplitudes[{r}]")
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] != space.dim:
            raise SpecFormatError(
                f"row {r} must be {space.dim} [re, im] pairs",
                path=f"amplitudes[{r}]",
            )
        amps = arr[:, 0] + 1j * arr[:, 1]
        nrm = np.sqrt(space.weight) * np.linalg.norm(amps)
        if abs(nrm - 1.0) >= model.NORM_DRIFT_TOL:
            raise SpecFormatError(f"row {r} has norm {nrm:.8f}, not 1",
                                  path=f"amplitudes[{r}]")
        table.append(StateVector._adopt(space, amps / nrm))
    built = _tabulated_model(space, thetas, table)
    echo = {
        "kind": "tabulated",
        "space": _space_echo(space),
        "thetas": [float(t) for t in thetas],
        "amplitudes": [np.stack((st.amplitudes.real, st.amplitudes.imag), -1).tolist()
                       for st in table],
    }
    return built, echo


def _tabulated_model(space, thetas, table):
    step = float(thetas[1] - thetas[0])
    rows = np.array([state.amplitudes for state in table])

    def fn(theta, cols, components):
        t = theta[..., 0]
        k = np.fmin(np.fmax(np.rint((t - thetas[0]) / step), 0), len(rows) - 1).astype(np.intp)
        off = ~(np.abs(thetas[k] - t) <= TABLE_TOL * max(1.0, step))  # not >: NaN is off
        if np.count_nonzero(off):
            raise DomainError("tabulated model is defined only at the table points; "
                              f"got {t.flat[np.argmax(off)]}")
        states = rows.take(k, axis=0)
        if not components:
            return states[..., cols], None
        if np.count_nonzero((k == 0) | (k == len(rows) - 1)):
            raise DomainError("finite differences need an interior table point")
        # take copies, for a 0-d k too: the difference is written into the neighbours
        up, dn = (rows.take(k + s, axis=0)[..., None, :] for s in (1, -1))
        tangents = model._transported_difference(space, np.conj(states)[..., None, :],
                                                 up, dn, step)
        return states[..., cols], tangents[..., cols]

    interior = tuple((float(t),) for t in thetas[1:-1])
    return model._Formula(fn).model(
        space=space, m=1, domain=((float(thetas[0]), float(thetas[-1])),), kind="tabulated",
        sample_grid=interior if interior else tuple((float(t),) for t in thetas))


def _space_echo(space):
    if isinstance(space, GridSpace):
        return {"type": "grid", "n": space.n_points, "lower": space.lower,
                "upper": space.upper, "periodic": space.periodic}
    return {"type": "basis", "dimension": space.dimension,
            "labels": list(space.labels) if space.labels else None}


def parse_theta_list(text, m):
    """Semicolon-separated points, comma-separated components."""
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.split(",") if p.strip()]
        if len(parts) != m:
            raise SpecFormatError(
                f"theta point {chunk!r} has {len(parts)} components, model expects {m}"
            )
        try:
            points.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise SpecFormatError(f"non-numeric theta component in {chunk!r}") from exc
    if not points:
        raise SpecFormatError("empty theta list")
    return points


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc


def _load_model(path):
    return parse_model_spec(_load_json(path))


def _parse_weight(text, m):
    if text is None:
        return None
    if text == "js":
        return {"kind": "js"}
    if text.startswith("diag:"):
        try:
            values = [float(v) for v in text[len("diag:"):].split(",") if v.strip()]
        except ValueError as exc:
            raise SpecFormatError(f"non-numeric diag weight in {text!r}") from exc
        if len(values) != m:
            raise SpecFormatError(
                f"diag weight has {len(values)} entries, model expects {m}"
            )
        if not all(0.0 <= v < np.inf for v in values):
            raise SpecFormatError(
                f"diag weight entries must be finite and >= 0 in {text!r}"
            )
        return {"kind": "diag", "values": values}
    raise SpecFormatError(f"unknown weight spec {text!r} (use js or diag:...)")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_report(args, built):
    thetas = parse_theta_list(args.theta, built.m)
    weight = _parse_weight(args.weight, built.m)
    reports = geometry.analyze_many(built, thetas)
    metrics = [rep.sld_fisher for rep in reports]
    js_bounds = geometry.sld_bounds(reports, metrics)
    if weight is not None:
        weighted = geometry.sld_bounds(
            reports, metrics if weight["kind"] == "js"
            else [np.diag(weight["values"])] * len(reports))
    entries = []
    for r, (theta, rep) in enumerate(zip(thetas, reports)):
        entry = {
            "theta": list(theta),
            "sld_fisher": _matrix(rep.sld_fisher),
            "berry_curvature": _matrix(rep.berry_curvature),
            "d_transform": None if rep.d_matrix is None else _matrix(rep.d_matrix),
            "betas": list(rep.betas),
            "sld_bound_js": js_bounds[r],
            "attainable_cr_js": rep.cr_js,
            "quasi_classical": rep.quasi_classical,
            "rank_deficient": rep.rank_deficient,
        }
        if weight is not None:
            entry["sld_bound_weight"] = weighted[r]
        entries.append(entry)
    return {
        "weight": weight,
        "tolerances": {
            "rank": geometry.RANK_TOL,
            "quasi_classical": geometry.QUASI_CLASSICAL_TOL,
            "quasi_parallel": holonomy.QUASI_PARALLEL_TOL,
            "beta_bound": geometry.BETA_BOUND_TOL,
        },
        "entries": entries,
        "summary": {
            "all_quasi_classical": all(e["quasi_classical"] for e in entries),
            "any_rank_deficient": any(e["rank_deficient"] for e in entries),
            "max_beta": max((b for rep in reports for b in rep.betas), default=None),
        },
    }


def _cmd_holonomy(args, built):
    loop_doc = _load_json(args.loop)
    if not isinstance(loop_doc, dict) or "thetas" not in loop_doc:
        raise SpecFormatError("loop document must contain a thetas list")
    raw = loop_doc["thetas"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise SpecFormatError("must be a list of at least two points", path="thetas")
    points = _loop_points(raw, built.m)
    closed = loop_doc.get("closed", False)
    if not isinstance(closed, bool):
        raise SpecFormatError(f"must be true or false, got {closed!r}", path="closed")
    closed = closed or args.closed
    curve = Curve(built, points, closed=closed)
    result = (holonomy.berry_phase_loop(curve) if closed
              else holonomy.berry_phase_open(curve))
    return {
        "loop": {"n_points": len(points), "closed": closed},
        "result": {
            "gamma": result.gamma,
            "n_segments": result.n_segments,
            "min_overlap": result.min_overlap,
        },
    }


def _loop_points(raw, m):
    """The loop points as one float array, ``(k, m)`` when well formed.

    Loops run to thousands of points, so they are converted in one call;
    only a list that does not convert to ``(k, m)`` is gone through point by
    point, for the spec error that names the first bad point.
    """
    try:
        points = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        points = None  # ragged or non-numeric
    else:
        if points.ndim == 1:  # scalar points of a one-parameter model
            points = points[:, None]
        if points.shape[1:] == (m,):
            return points
    try:
        per_point = [np.atleast_1d(np.asarray(p, dtype=float)) for p in raw]
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"not numeric: {exc}", path="thetas") from exc
    for k, p in enumerate(per_point):
        if len(p) != m:
            raise SpecFormatError(f"loop point {k} has {len(p)} components, "
                                  f"model expects {m}", path=f"thetas[{k}]")
    # points of m components that still differ in shape: transport names them
    return per_point if points is None else points


def _momentum_symmetry_section(built):
    applicable = built.kind in ("position_shift", "two_well") and isinstance(
        built.space, GridSpace
    )
    if not applicable:
        return {"applicable": False, "flag": None, "max_asymmetry": None}
    # the domain point nearest 0: translation leaves the momentum density as it is
    lo, hi = np.asarray(built.domain, dtype=float).T
    base = built.evaluate(np.clip(0.0, lo, hi))
    flag, asym = symmetry.momentum_symmetry_check(base)
    return {"applicable": True, "flag": flag, "max_asymmetry": asym}


def _cmd_check(args, built):
    samples = parse_theta_list(args.samples, built.m)
    thetas, states = holonomy.sample_states(built, samples)
    # two overlap matrices: the raw one aligns and gives the raw verdict,
    # the aligned one gives the verdict and the Gram-Schmidt precondition
    raw = hilbert.overlap_matrix(states)
    aligned = holonomy.align_phases(states, gram=raw)[0]
    gram = hilbert.overlap_matrix(aligned)
    qp_flag, witness = holonomy.quasi_parallel_states(thetas, aligned, gram=gram)
    raw_flag, _ = holonomy.quasi_parallel_states(thetas, states, gram=raw)
    anti = {"constructed": False, "invariant": None, "max_residual": None,
            "reason": None}
    try:
        basis = hilbert.gram_schmidt_real(aligned, gram=gram)
    except NonRealOverlapError as exc:
        anti["reason"] = str(exc)
    else:
        residual = float(np.max(hilbert.conjugation_residuals(basis, aligned)))
        anti.update(constructed=True, max_residual=residual,
                    invariant=bool(residual < CONJUGATION_RESIDUAL_TOL))
    momentum = _momentum_symmetry_section(built)
    # gram_schmidt_real passes exactly when qp_flag holds: one rule, one matrix
    consistent = not qp_flag or anti["invariant"]
    if momentum["applicable"]:
        # the momentum flag matches the overlap reality of the family as
        # given; alignment can only forgive non-horizontal phase twists
        consistent = consistent and (momentum["flag"] == raw_flag)
    return {
        "samples": [list(map(float, s)) for s in samples],
        "quasi_parallel": {
            "flag": qp_flag,
            "raw_flag": raw_flag,
            "witness": witness,
            "tolerance": holonomy.QUASI_PARALLEL_TOL,
        },
        "antiunitary": anti,
        "momentum_symmetry": momentum,
        "consistent": consistent,
    }


def _make_povm(spec, built, samples):
    if spec in ("grid", "basis"):
        return estimation.grid_pvm(built.space), {"kind": spec}
    if spec == "schmidt":
        povm = estimation.optimal_measurement_quasi_parallel(built, samples)
        return povm, {"kind": "schmidt", "n_samples": len(samples)}
    doc = _load_json(spec)
    if not isinstance(doc, dict) or doc.get("kind") != "matrices":
        raise SpecFormatError("POVM file must be {\"kind\": \"matrices\", ...}")
    raw = doc.get("elements", [])
    if not isinstance(raw, list):
        raise SpecFormatError("must be a list of matrices", path="elements")
    elements = []
    for k, element in enumerate(raw):
        arr = _floats(element, f"elements[{k}]")
        if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
            raise SpecFormatError(
                f"element {k} must be a square matrix of [re, im] pairs",
                path=f"elements[{k}]",
            )
        elements.append(arr[:, :, 0] + 1j * arr[:, :, 1])
    try:
        povm = estimation.MatrixPovm(elements, space=built.space)
    except MeasurementDefinitionError as exc:
        raise SpecFormatError(f"invalid POVM: {exc}") from exc
    return povm, {"kind": "matrices", "n_elements": len(elements)}


def _cmd_fisher(args, built):
    thetas = parse_theta_list(args.theta, built.m)
    samples = parse_theta_list(args.samples, built.m) if args.samples else thetas
    povm, povm_echo = _make_povm(args.povm, built, samples)
    j_c, j_s = estimation.fisher_many(povm, built, thetas)
    gaps = j_s - j_c
    rel_gaps = (np.max(np.abs(gaps), axis=(1, 2))
                / np.maximum(np.max(np.abs(j_s), axis=(1, 2)), 1e-300))
    min_eigs = np.min(np.linalg.eigvalsh(gaps), axis=1)
    entries = [{
        "theta": list(theta),
        "classical_fisher": _matrix(j_c[r]),
        "sld_fisher": _matrix(j_s[r]),
        "max_relative_gap": float(rel_gaps[r]),
        "min_psd_eigenvalue": float(min_eigs[r]),
    } for r, theta in enumerate(thetas)]
    return {"povm": povm_echo, "entries": entries}


def _cmd_sample(args, built):
    thetas = parse_theta_list(args.theta, built.m)
    if len(thetas) != 1:
        raise SpecFormatError("sample takes exactly one theta point")
    state = built.evaluate(thetas[0])  # schmidt's one construction sample too
    povm, povm_echo = ((estimation.schmidt_povm([state]), {"kind": "schmidt", "n_samples": 1})
                       if args.povm == "schmidt" else _make_povm(args.povm, built, thetas))
    counts = estimation.sample_counts(povm, state, args.n, args.seed)
    kept = np.flatnonzero(counts)
    return {
        "povm": povm_echo,
        "theta": list(thetas[0]),
        "n": int(args.n),
        "seed": int(args.seed),
        "counts": np.column_stack((kept, counts[kept])).tolist(),
    }


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def build_parser():
    parser = _Parser(prog="qestgeo",
                     description="estimation geometry of pure-state families")
    parser.add_argument("--version", action="version",
                        version=f"qestgeo {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="write the output document here instead of stdout")
    common.add_argument("--model", required=True, help="model spec JSON file")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    rep = sub.add_parser("report", help="geometry report over theta points",
                         parents=[common])
    rep.add_argument("--theta", required=True,
                     help="theta points, e.g. '0,0;0.5,0.2'")
    rep.add_argument("--weight", default=None,
                     help="extra bound weight: js or diag:g1,g2,...")
    rep.set_defaults(func=_cmd_report)

    hol = sub.add_parser("holonomy", help="transport phase of a curve",
                         parents=[common])
    hol.add_argument("--loop", required=True, help="loop spec JSON file")
    hol.add_argument("--closed", action="store_true",
                     help="treat the curve as closed regardless of the file flag")
    hol.set_defaults(func=_cmd_holonomy)

    chk = sub.add_parser("check", help="classification checks on samples",
                         parents=[common])
    chk.add_argument("--samples", required=True, help="sample theta list")
    chk.set_defaults(func=_cmd_check)

    fis = sub.add_parser("fisher", help="classical vs quantum Fisher comparison",
                         parents=[common])
    fis.add_argument("--povm", required=True,
                     help="basis | grid | schmidt | POVM JSON file")
    fis.add_argument("--theta", required=True)
    fis.add_argument("--samples", default=None,
                     help="construction samples for schmidt (default: --theta)")
    fis.set_defaults(func=_cmd_fisher)

    smp = sub.add_parser("sample", help="draw measurement outcomes",
                         parents=[common])
    smp.add_argument("--povm", required=True)
    smp.add_argument("--theta", required=True)
    smp.add_argument("--n", type=_int_at_least(1), required=True)
    smp.add_argument("--seed", type=_int_at_least(0), required=True)
    smp.set_defaults(func=_cmd_sample)
    return parser


@functools.cache
def _parser():
    """The one parser of the process: building one costs more than a parse."""
    return build_parser()


def main(argv=None):
    """Run one subcommand; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        built, echo = _load_model(args.model)
        doc = {"tool": {"name": "qestgeo", "version": __version__, "command": args.command},
               "model": echo, **args.func(args, built)}
    except (SpecFormatError, DomainError, ClosureError) as exc:
        print(f"qestgeo: spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except _NUMERICAL_ERRORS as exc:
        print(f"qestgeo: numerical contract violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QestgeoError as exc:
        print(f"qestgeo: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    text = render_document(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`| head`): let the exit flush go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
