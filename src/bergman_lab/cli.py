"""Command-line interface for the verification and experiment suites.

Four subcommands cover the library surface: ``verify`` runs lemma and
representation suites, ``distance`` runs the distance-functional
equivalence experiment, ``norms`` tabulates space norms over the
gallery, and ``whitney`` writes decomposition cube or cell lists with
a property-check summary.  Every run writes a JSON report (schema
version "1") that embeds the fully resolved configuration, plus CSV
summaries; ``distance --plots`` additionally writes gnuplot-ready
two-column profile files.

Options come from flags, optionally merged over a plain ``key=value``
file given with ``--config`` (flags win).  Identical configurations
produce byte-identical output files: floats are written in shortest
round-trip form, JSON keys are sorted, and no timestamps appear.
Exit codes: 0 all checks passed, 1 failure, 2 inconclusive, 64 usage
or rejected configuration.  ``BERGMAN_LAB_THREADS`` (or ``--threads``)
caps suite parallelism.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .distance import equivalence_experiment
from .errors import BergmanLabError, DivergenceDetected, DomainError
from .kernels import ball_kernel, halfspace_kernel
from .profiles import DIVERGENT, FINITE, INCONCLUSIVE
from .spaces import (
    bergman_norm,
    gallery,
    gallery_fn,
    halfspace_norm_profile,
    mixed_norm,
    s_weight,
    weighted_norm,
)
from .verify import (
    REPRESENTATION_THRESHOLD,
    default_suite,
    run_suite,
    verify_kernel_bounds,
    verify_qbeta,
    verify_qm,
    verify_representation,
    verify_rro,
)
from .whitney import (
    CUBE_CSV_HEADER,
    cube_rows,
    discrete_vs_integral,
    point_to_cell,
    point_to_cube,
    whitney_ball,
    whitney_halfspace,
)

__all__ = ["main", "SCHEMA_VERSION", "EXIT_PASS", "EXIT_FAIL",
           "EXIT_INCONCLUSIVE", "EXIT_USAGE"]

SCHEMA_VERSION = "1"
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Configuration rejected before or during dispatch."""


# ---------------------------------------------------------------------------
# Deterministic serialization


def _cell(x):
    """Shortest round-trip text for one CSV cell."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _csv_text(comments, header, rows):
    """CSV text with leading ``#`` convention lines and a header row."""
    buf = io.StringIO()
    for line in comments:
        buf.write("# " + line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    return buf.getvalue()


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _report_json(command, config, payload):
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "config": config}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_json_default) + "\n"


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _config_for_json(cfg):
    out = {}
    for key, value in cfg.items():
        if callable(value):
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Option handling: one converter table per subcommand; a key=value file
# is merged under the flags so that every option can come from either.


def _conv_str(s):
    return s


def _conv_float(s):
    return float(s)


def _conv_int(s):
    return int(s)


def _conv_bool(s):
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _conv_floats(s):
    vals = [float(tok) for tok in s.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _conv_ints(s):
    vals = [int(tok) for tok in s.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _conv_pair(s):
    toks = [float(tok) for tok in s.split(",")]
    if len(toks) != 2:
        raise ValueError("expected lo,hi")
    return (toks[0], toks[1])


def _conv_pairs(s):
    return [_conv_pair(chunk) for chunk in s.split(";") if chunk.strip()]


# dest -> (flag, converter, default, help); --lambda maps to dest "lam"
_COMMON_OPTS = {
    "out": ("--out", _conv_str, ".", "output directory"),
    "basename": ("--basename", _conv_str, None,
                 "output file prefix (default: the subcommand name)"),
    "threads": ("--threads", _conv_int, None,
                "cap worker threads (overrides BERGMAN_LAB_THREADS)"),
}

_VERIFY_OPTS = {
    "suite": ("--suite", _conv_str, None, "run a named suite ('all')"),
    "lemma": ("--lemma", _conv_str, None,
              "single suite: rro, qbeta, qm, bounds, representation"),
    "n": ("--n", _conv_int, None, "ambient dimension"),
    "alpha": ("--alpha", _conv_float, None, "weight exponent"),
    "lam": ("--lambda", _conv_float, None, "comparison exponent"),
    "delta": ("--delta", _conv_float, None, "moment weight exponent"),
    "gamma": ("--gamma", _conv_float, None, "kernel power"),
    "beta": ("--beta", _conv_float, None, "ball kernel parameter"),
    "m": ("--m", _conv_int, None, "half-space kernel order"),
    "domain": ("--domain", _conv_str, None, "ball or halfspace"),
    "f": ("--f", _conv_str, None, "gallery function label"),
    "p": ("--p", _conv_float, None, "integrability exponent"),
    "weight": ("--weight", _conv_str, None,
               "radial weight v(u), e.g. u^0.5 (ball representation)"),
    "order": ("--order", _conv_int, None, "quadrature order override"),
    "refinement": ("--refinement", _conv_int, None,
                   "boundary refinement override"),
    "window": ("--window", _conv_int, None, "octave window half-width"),
    "samples": ("--samples", _conv_int, None,
                "sample count for bound sups"),
}
_VERIFY_OPTS.update(_COMMON_OPTS)

_DISTANCE_OPTS = {
    "domain": ("--domain", _conv_str, "ball", "ball or halfspace"),
    "f": ("--f", _conv_str, None, "gallery function label (required)"),
    "n": ("--n", _conv_int, None, "ambient dimension"),
    "p": ("--p", _conv_float, 2.0, "integrability exponent"),
    "q": ("--q", _conv_float, None, "outer exponent for mixed targets"),
    "alpha": ("--alpha", _conv_float, 0.0, "weight exponent"),
    "beta": ("--beta", _conv_floats, None,
             "ball kernel sweep, comma list (default 2,3,4)"),
    "m": ("--m", _conv_ints, None,
          "half-space kernel sweep, comma list (default 1,2)"),
    "eps": ("--eps", _conv_floats, None, "explicit epsilon grid"),
    "levels": ("--levels", _conv_ints, None, "truncation levels j"),
    "method": ("--method", _conv_str, "auto",
               "s2 engine: auto, zonal, grid"),
    "target_width_frac": ("--target-width-frac", _conv_float, 0.05,
                          "bracket width target as a fraction of the sup"),
    "skip_decomposition": ("--skip-decomposition", _conv_bool, False,
                           "skip the s1 witness decomposition"),
    "plots": ("--plots", _conv_bool, False,
              "write gnuplot two-column profile files"),
}
_DISTANCE_OPTS.update(_COMMON_OPTS)

_NORMS_OPTS = {
    "domain": ("--domain", _conv_str, "ball", "ball or halfspace"),
    "f": ("--f", _conv_str, "all", "gallery label, or 'all'"),
    "n": ("--n", _conv_int, None, "ambient dimension"),
    "p": ("--p", _conv_float, 2.0, "integrability exponent"),
    "q": ("--q", _conv_float, None, "mixed-norm outer exponent"),
    "kind": ("--kind", _conv_str, "B",
             "mixed-norm order: B (shell means) or F (radial first)"),
    "alphas": ("--alphas", _conv_floats, [0.0, 1.0],
               "weight exponents, comma list"),
    "weight": ("--weight", _conv_str, None,
               "radial weight v(u)=u^t for a weighted column, e.g. u"),
}
_NORMS_OPTS.update(_COMMON_OPTS)

_WHITNEY_OPTS = {
    "domain": ("--domain", _conv_str, "halfspace", "halfspace or ball"),
    "n": ("--n", _conv_int, None, "ball ambient dimension (default 3)"),
    "levels": ("--levels", _conv_int, 3, "ball annulus level count"),
    "lateral": ("--lateral", _conv_pairs, [(0.0, 1.0)],
                "lateral box, 'a,b' per axis joined by ';'"),
    "heights": ("--heights", _conv_pair, (0.0625, 1.0),
                "height range 'lo,hi'"),
    "level_range": ("--level-range", _conv_pair, None,
                    "restrict cube levels to 'j_min,j_max'"),
    "seed": ("--seed", _conv_int, 0, "seed for net and cover sampling"),
    "field": ("--field", _conv_str, None,
              "gallery label for the discrete-vs-integral check"),
    "p": ("--p", _conv_float, 2.0, "field exponent |f|^p"),
    "alpha": ("--alpha", _conv_float, 0.0, "height weight exponent"),
    "order": ("--order", _conv_int, 4, "per-cube quadrature order"),
    "samples": ("--samples", _conv_int, 2048, "cover-check sample count"),
}
_WHITNEY_OPTS.update(_COMMON_OPTS)

_SUBCOMMANDS = {
    "verify": _VERIFY_OPTS,
    "distance": _DISTANCE_OPTS,
    "norms": _NORMS_OPTS,
    "whitney": _WHITNEY_OPTS,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed to exit code 64."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="bergman-lab",
                     description="harmonic Bergman space suites")
    sub = parser.add_subparsers(dest="command")
    for name, table in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file merged under the flags")
        for dest, (flag, conv, _default, help_text) in table.items():
            if conv is _conv_bool:
                p.add_argument(flag, dest=dest, type=str, default=None,
                               nargs="?", const="true", help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=str, default=None,
                               help=help_text)
    return parser


def load_config_file(path):
    """Parse a plain ``key = value`` file; ``#`` starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key == "lambda":
            key = "lam"
        out[key] = value.strip()
    return out


def _resolve(args, table):
    """Merge flags over the config file and convert every option."""
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - set(table))
    if unknown:
        raise UsageError(f"unknown config key: {unknown[0]}")
    resolved = {}
    for dest, (_flag, conv, default, _help) in table.items():
        raw = getattr(args, dest)
        if raw is None:
            raw = file_cfg.get(dest)
        if raw is None:
            resolved[dest] = default
            continue
        try:
            resolved[dest] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"invalid value for {dest}: {raw!r} ({exc})")
    return resolved


def _parse_weight(text):
    """'u' or 'u^t' (or a bare exponent) into a power-law weight."""
    if text is None or text.strip().lower() == "none":
        return None
    tok = text.strip()
    try:
        if tok == "u":
            t = 1.0
        elif tok.startswith("u^"):
            t = float(tok[2:])
        else:
            t = float(tok)
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}: expected "
                         "'u', 'u^t', or a bare exponent")
    if t <= 0.0:
        raise UsageError("weight exponent must be positive: v(u) = u^t "
                         "with t > 0")
    return s_weight(lambda u, t=t: u**t, 0.5, label=f"u^{t:g}")


# ---------------------------------------------------------------------------
# verify


def _report_status(report):
    if report.passed:
        return "pass"
    if any(note.startswith(INCONCLUSIVE) for note in report.notes):
        return "inconclusive"
    return "fail"


def _single_lemma(cfg):
    lemma = cfg["lemma"]
    kw = {}
    if lemma == "rro":
        for key in ("order", "refinement"):
            if cfg[key] is not None:
                kw[key] = cfg[key]
        alpha = 0.0 if cfg["alpha"] is None else cfg["alpha"]
        lam = 2.0 if cfg["lam"] is None else cfg["lam"]
        return verify_rro(alpha, lam, **kw)
    if lemma == "qbeta":
        n = cfg["n"] or 3
        delta = 0.0 if cfg["delta"] is None else cfg["delta"]
        gamma = n + 1.0 if cfg["gamma"] is None else cfg["gamma"]
        beta = 2.0 if cfg["beta"] is None else cfg["beta"]
        if cfg["order"] is not None:
            kw["order"] = cfg["order"]
        return verify_qbeta(n, delta, gamma, beta, **kw)
    if lemma == "qm":
        n = cfg["n"] or 1
        delta = 0.0 if cfg["delta"] is None else cfg["delta"]
        gamma = n + 2.0 if cfg["gamma"] is None else cfg["gamma"]
        m = 0 if cfg["m"] is None else cfg["m"]
        if cfg["order"] is not None:
            kw["order"] = cfg["order"]
        if cfg["window"] is not None:
            kw["window"] = cfg["window"]
        return verify_qm(n, delta, gamma, m, **kw)
    if lemma == "bounds":
        domain = cfg["domain"] or "ball"
        if domain == "ball":
            n = cfg["n"] or 3
            beta = 2.0 if cfg["beta"] is None else cfg["beta"]
            spec = ball_kernel(n, beta)
        else:
            n = cfg["n"] or 1
            m = 0 if cfg["m"] is None else cfg["m"]
            spec = halfspace_kernel(n, m)
        if cfg["samples"] is not None:
            kw["sample_count"] = cfg["samples"]
        return verify_kernel_bounds(spec, **kw)
    if lemma == "representation":
        domain = cfg["domain"] or "ball"
        p = 2.0 if cfg["p"] is None else cfg["p"]
        alpha = 0.0 if cfg["alpha"] is None else cfg["alpha"]
        weight = _parse_weight(cfg["weight"])
        if domain == "ball":
            n = cfg["n"] or 3
            beta = 1.0 if cfg["beta"] is None else cfg["beta"]
            label = cfg["f"] or "const_one"
            spec = ball_kernel(n, beta)
        else:
            n = cfg["n"] or 1
            m = 0 if cfg["m"] is None else cfg["m"]
            label = cfg["f"] or "hs_poisson"
            spec = halfspace_kernel(n, m)
        f = gallery_fn(label, domain, n)
        return verify_representation(f, spec, p=p, alpha=alpha,
                                     weight=weight)
    raise UsageError(f"unknown lemma suite: {lemma!r}")


def _param_text(parameter_point):
    parts = []
    for key in sorted(parameter_point):
        parts.append(f"{key}={_cell(parameter_point[key])}")
    return ";".join(parts)


def cmd_verify(cfg, out_dir, base):
    if cfg["lemma"] is None and cfg["suite"] is None:
        cfg = dict(cfg, suite="all")
    if cfg["suite"] is not None:
        if cfg["suite"] != "all":
            raise UsageError(f"unknown suite: {cfg['suite']!r}")
        jobs = default_suite(n_ball=cfg["n"] or 3)
        reports, _ = run_suite(jobs)
    else:
        reports = (_single_lemma(cfg),)

    rows = []
    statuses = []
    for r in reports:
        status = _report_status(r)
        statuses.append(status)
        rows.append((r.lemma_id, status, r.max_ratio,
                     r.grid_refinement_drift,
                     _param_text(r.parameter_point),
                     "; ".join(r.notes)))
        print(f"{r.lemma_id:<24s} {status:<13s} "
              f"ratio={_cell(r.max_ratio)} "
              f"drift={_cell(r.grid_refinement_drift)}")

    comments = [
        "ball weight (1-|x|^2)^alpha against normalized surface measure;"
        " half-space weight s^alpha against Lebesgue measure",
        "max_ratio is sup(left side / claimed bound);"
        " drift is its relative change under one grid refinement",
    ]
    header = ("lemma_id", "status", "max_ratio", "grid_refinement_drift",
              "parameters", "notes")
    _write(out_dir / f"{base}.csv", _csv_text(comments, header, rows))
    payload = {
        "reports": [dict(r.to_dict(), status=s)
                    for r, s in zip(reports, statuses)],
        "all_passed": all(s == "pass" for s in statuses),
    }
    _write(out_dir / f"{base}.json",
           _report_json("verify", _config_for_json(cfg), payload))

    if any(s == "fail" for s in statuses):
        return EXIT_FAIL
    if any(s == "inconclusive" for s in statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ---------------------------------------------------------------------------
# distance


def _at(seq, i):
    return seq[i] if i < len(seq) else None


def cmd_distance(cfg, out_dir, base):
    domain = cfg["domain"]
    if domain not in ("ball", "halfspace"):
        raise UsageError("domain must be 'ball' or 'halfspace'")
    if cfg["f"] is None:
        raise UsageError("distance needs a gallery function: --f LABEL")
    n = cfg["n"] or (3 if domain == "ball" else 1)
    f = gallery_fn(cfg["f"], domain, n)
    if domain == "ball":
        sweep = cfg["beta"] if cfg["beta"] is not None else [2.0, 3.0, 4.0]
    else:
        sweep = cfg["m"] if cfg["m"] is not None else [1, 2]

    report = equivalence_experiment(
        f, cfg["p"], cfg["alpha"], sweep, q=cfg["q"],
        eps_grid=cfg["eps"], j_levels=cfg["levels"],
        target_width_frac=cfg["target_width_frac"], method=cfg["method"],
        skip_decomposition=cfg["skip_decomposition"])

    rows = []
    flags = []
    worst = EXIT_PASS
    limit = REPRESENTATION_THRESHOLD[domain]
    for entry in report.entries:
        br = entry.bracket
        print(f"kernel_param={_cell(entry.kernel_param)} "
              f"bracket=[{_cell(br.lower)}, {_cell(br.upper)}] "
              f"resolved={br.resolved} s2~{_cell(entry.s2_estimate)}")
        # f1 + f2 must reproduce f before the s1 witnesses mean anything
        bad_repro = entry.repro_error > limit
        if bad_repro:
            flags.append(
                f"INCONCLUSIVE: kernel_param={_cell(entry.kernel_param)} "
                f"reconstruction error {_cell(entry.repro_error)} exceeds "
                f"the representation threshold {limit:g}")
            print("note: " + flags[-1], file=sys.stderr)
        if not entry.coherence_ok:
            worst = EXIT_FAIL
        classes = [pr.classification for pr in entry.profiles]
        if worst != EXIT_FAIL and (INCONCLUSIVE in classes
                                   or not br.resolved or bad_repro):
            worst = EXIT_INCONCLUSIVE
        for i, (eps, pr) in enumerate(zip(entry.eps_grid, entry.profiles)):
            rows.append((
                entry.kernel_param, float(eps), pr.classification,
                pr.fitted_exponent, _at(entry.s1_upper, i),
                _at(entry.f1_weighted_sup, i), _at(entry.c_over_eps, i),
                _at(entry.f2_mixed_norm, i), br.lower, br.upper,
                br.resolved, entry.s2_estimate, entry.repro_error,
                entry.coherence_ok,
            ))

    comments = [
        "weighted sup convention: sup |f(x)| (1-|x|)^lambda on the ball,"
        " sup |f(z)| s^lambda on the half-space",
        f"f={report.f_label} domain={report.domain} n={report.n}"
        f" p={_cell(report.p)} alpha={_cell(report.alpha)}"
        f" lambda={_cell(report.lam)} weighted_sup="
        + _cell(report.weighted_sup),
    ]
    header = ("kernel_param", "eps", "classification", "fitted_exponent",
              "s1_upper", "f1_weighted_sup", "c_over_eps", "f2_norm",
              "bracket_lower", "bracket_upper", "bracket_resolved",
              "s2_estimate", "repro_error", "coherence_ok")
    _write(out_dir / f"{base}.csv", _csv_text(comments, header, rows))
    doc = report.to_dict()
    doc["notes"].extend(flags)
    _write(out_dir / f"{base}.json",
           _report_json("distance", _config_for_json(cfg), {"report": doc}))

    if cfg["plots"]:
        _write_profiles(report, out_dir, base)
    return worst


def _write_profiles(report, out_dir, base):
    """One gnuplot file per (kernel parameter, eps) profile.

    Columns are ``x = -cut_param`` (that is ``log(1 - R)`` on the ball
    and ``-j log 2`` on the half-space) and ``y = log I`` of the
    truncated level-set integral; vanished truncations are skipped.
    """
    for entry in report.entries:
        for i, pr in enumerate(entry.profiles):
            lines = [
                f"# f={report.f_label} domain={report.domain}"
                f" kernel_param={_cell(entry.kernel_param)}"
                f" eps={_cell(float(entry.eps_grid[i]))}",
                "# columns: -cut_param, log(truncated integral);"
                " classification " + pr.classification,
            ]
            for c, v in zip(pr.cut_param, pr.values):
                if v > 0.0:
                    lines.append(f"{_cell(-float(c))} "
                                 f"{_cell(math.log(float(v)))}")
            name = f"{base}_k{_cell(entry.kernel_param)}_e{i}.dat"
            _write(out_dir / name, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# norms


def _norm_cell(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DivergenceDetected:
        return "DIV"


def cmd_norms(cfg, out_dir, base):
    domain = cfg["domain"]
    if domain not in ("ball", "halfspace"):
        raise UsageError("domain must be 'ball' or 'halfspace'")
    n = cfg["n"] or (3 if domain == "ball" else 1)
    p, q = cfg["p"], cfg["q"]
    weight = _parse_weight(cfg["weight"])
    if domain == "halfspace" and (q is not None or weight is not None):
        raise UsageError("mixed and weighted norms are ball operations")
    if q is not None and cfg["kind"] not in ("B", "F"):
        raise UsageError("kind must be 'B' or 'F'")
    fns = (gallery(domain, n) if cfg["f"] in (None, "all")
           else [gallery_fn(cfg["f"], domain, n)])

    header = ["f", "alpha", "norm"]
    if q is not None:
        header.append(f"mixed_{cfg['kind']}")
    if weight is not None:
        header.append(f"weighted_{weight.label}")

    rows = []
    inconclusive = False
    for f in fns:
        for alpha in cfg["alphas"]:
            if domain == "ball":
                row = [f.label, alpha,
                       _norm_cell(bergman_norm, f, p, alpha)]
                if q is not None:
                    row.append(_norm_cell(mixed_norm, f, p, q, alpha,
                                          cfg["kind"]))
                if weight is not None:
                    row.append(_norm_cell(weighted_norm, f, p, weight.v))
            else:
                prof = halfspace_norm_profile(f, p, alpha, n=n)
                if prof.classification == DIVERGENT:
                    value = "DIV"
                elif prof.classification == FINITE:
                    value = float(prof.values[-1]) ** (1.0 / p)
                else:
                    value = "INC"
                    inconclusive = True
                row = [f.label, alpha, value]
            rows.append(tuple(row))

    widths = [max(len(h), max((len(_cell(r[i])) for r in rows),
                              default=0))
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_cell(c).ljust(w) for c, w in zip(row, widths)))

    comments = [
        "ball norm: (integral of |f|^p (1-|x|^2)^alpha over the ball,"
        " normalized volume) ^ (1/p); DIV marks detected divergence",
        "half-space norm: windowed integral with weight s^alpha against"
        " Lebesgue measure, window |y_i| <= 2^8, 2^-8 <= s <= 2^8",
    ]
    if weight is not None:
        comments.append("weighted column uses v(1-|x|) with the plain"
                        " 1-|x| argument")
    _write(out_dir / f"{base}.csv", _csv_text(comments, header, rows))
    payload = {"table": {"header": header,
                         "rows": [list(row) for row in rows]}}
    _write(out_dir / f"{base}.json",
           _report_json("norms", _config_for_json(cfg), payload))
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS


# ---------------------------------------------------------------------------
# whitney


def _halfspace_region_checks(cfg, cubes):
    """Exact disjointness, sampled cover, and the side/height band."""
    keys = {(c.level, c.lattice_index) for c in cubes}
    disjoint = len(keys) == len(cubes)

    lo_band = min((c.heights[0] / c.side for c in cubes), default=1.0)
    hi_band = max((c.heights[1] / c.side for c in cubes), default=2.0)

    s_lo, s_hi = cfg["heights"]
    if cfg["level_range"] is not None:
        j_min, j_max = cfg["level_range"]
        s_lo = max(s_lo, 2.0 ** j_min)
        s_hi = min(s_hi, 2.0 ** (j_max + 1))
    rng = np.random.default_rng(cfg["seed"])
    hits = 0
    count = cfg["samples"]
    if cubes and count > 0:
        for _ in range(count):
            y = [rng.uniform(a, b) for a, b in cfg["lateral"]]
            s = rng.uniform(s_lo, s_hi)
            cube = point_to_cube(y, s)
            if (cube.level, cube.lattice_index) in keys:
                hits += 1
        cover = hits / count
    else:
        cover = 1.0
    return disjoint, cover, (lo_band, hi_band)


def cmd_whitney(cfg, out_dir, base):
    domain = cfg["domain"]
    if domain == "halfspace":
        level_range = cfg["level_range"]
        if level_range is not None:
            level_range = (int(level_range[0]), int(level_range[1]))
        cubes = whitney_halfspace(cfg["lateral"], cfg["heights"],
                                  level_range)
        comments = [
            "Whitney cubes on the upper half-space: height band"
            " [2^level, 2^(level+1)), side 2^level, corners dyadic",
        ]
        _write(out_dir / f"{base}_cubes.csv",
               "\n".join(["# " + comments[0], CUBE_CSV_HEADER]
                         + cube_rows(cubes)) + "\n")

        disjoint, cover, band = _halfspace_region_checks(cfg, cubes)
        summary = [
            ("cube_count", len(cubes), None, True),
            ("disjoint", disjoint, True, disjoint),
            ("cover_fraction", cover, 1.0, cover == 1.0 or not cubes),
            ("band_low", band[0], 1.0, band[0] == 1.0),
            ("band_high", band[1], 2.0, band[1] == 2.0),
        ]
        extra = {}
        if cfg["field"] is not None and cubes:
            f = gallery_fn(cfg["field"], "halfspace", len(cfg["lateral"]))
            p_exp = cfg["p"]

            def field(Y, S):
                return np.abs(f(np.atleast_2d(Y), S)) ** p_exp

            total, integral, ratio = discrete_vs_integral(
                field, cfg["alpha"], cubes, order=cfg["order"])
            summary.extend([
                ("discrete_sum", total, None, True),
                ("integral", integral, None, True),
                ("ratio", ratio, "within [0.5, 2]",
                 0.5 <= ratio <= 2.0),
            ])
            extra = {"discrete_sum": total, "integral": integral,
                     "ratio": ratio}
        payload = {
            "cube_count": len(cubes),
            "disjoint": disjoint,
            "cover_fraction": cover,
            "band": list(band),
        }
        payload.update(extra)
    elif domain == "ball":
        n = cfg["n"] or 3
        fam = whitney_ball(n, cfg["levels"], seed=cfg["seed"])
        comments = [
            "ball cells: annulus 1-2^-j <= |x| < 1-2^-(j+1) at level j,"
            " spherical cap of angular radius cap_radius about"
            " cap_center",
        ]
        rows = ["# " + comments[0], "annulus_level,cap_center,cap_radius"]
        for c in fam.cells:
            center = ";".join(repr(float(v)) for v in c.cap_center)
            rows.append(f"{c.annulus_level},{center},"
                        + repr(float(c.cap_radius)))
        _write(out_dir / f"{base}_cells.csv", "\n".join(rows) + "\n")

        rng = np.random.default_rng(cfg["seed"])
        hits, count = 0, cfg["samples"]
        r_hi = 1.0 - 2.0 ** -(fam.level_max + 1)
        for _ in range(count):
            x = rng.normal(size=n)
            x *= rng.uniform(0.5, r_hi) / np.linalg.norm(x)
            if point_to_cell(fam, x) is not None:
                hits += 1
        cover = hits / count if count else 1.0
        summary = [
            ("cell_count", len(fam.cells), None, True),
            ("level_counts", ";".join(str(k) for k in fam.level_counts),
             None, True),
            ("cover_fraction", cover, 1.0, cover == 1.0),
            ("overlap_bound", fam.overlap_bound, 1, fam.overlap_bound == 1),
            ("diam_over_dist_low", fam.c1, None, fam.c1 > 0.0),
            ("diam_over_dist_high", fam.c2, None,
             math.isfinite(fam.c2)),
        ]
        payload = {
            "cell_count": len(fam.cells),
            "level_counts": list(fam.level_counts),
            "cover_fraction": cover,
            "overlap_bound": fam.overlap_bound,
            "c1": fam.c1,
            "c2": fam.c2,
        }
    else:
        raise UsageError("domain must be 'halfspace' or 'ball'")

    rows = [(name, value, "" if expected is None else expected, ok)
            for name, value, expected, ok in summary]
    header = ("property", "value", "expected", "ok")
    _write(out_dir / f"{base}_summary.csv",
           _csv_text(["property checks; band compares cube heights"
                      " against sides (distance to the boundary)"],
                     header, rows))
    ok_all = all(ok for _name, _value, _expected, ok in summary)
    payload["all_ok"] = ok_all
    _write(out_dir / f"{base}.json",
           _report_json("whitney", _config_for_json(cfg), payload))
    for name, value, _expected, ok in summary:
        print(f"{name:<22s} {_cell(value):<24s} "
              f"{'ok' if ok else 'FAIL'}")
    return EXIT_PASS if ok_all else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "verify": cmd_verify,
    "distance": cmd_distance,
    "norms": cmd_norms,
    "whitney": cmd_whitney,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand: verify, distance, "
                             "norms, or whitney")
        cfg = _resolve(args, _SUBCOMMANDS[args.command])
        if cfg["threads"] is not None:
            if cfg["threads"] < 1:
                raise UsageError("threads must be at least 1")
            os.environ["BERGMAN_LAB_THREADS"] = str(cfg["threads"])
        out_dir = Path(cfg["out"])
        base = cfg["basename"] or args.command
        return _DISPATCH[args.command](cfg, out_dir, base)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: rejected configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BergmanLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
