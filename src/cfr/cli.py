"""Command-line front end: oracle generation, indicators, fitting, reconstruction.

All floating output is serialized with 17 significant digits and fixed key
order, so repeated runs with the same configuration are byte-identical.
Validation failures exit 1, numerical failures exit 2; both write a
machine-readable error object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from itertools import chain

import numpy as np
from numpy.polynomial import polynomial as P

from . import genus, green, indicators, infinity, linsys, oracles, reconstruct, shock, symmetric
from .geometry import boundary_to_json, load_boundary, m_of_y, read_json, rho


class ValidationError(Exception):
    code = "E_VALIDATION"


class IOValidationError(ValidationError):
    code = "E_IO"


class FitNotAccepted(ValueError):
    """--p auto found no fit under --tol with B confined; its p would be a guess."""


class GermsRequired(ValueError):
    """--p auto found points at infinity and p >= 2: P_k for k >= 2 needs --germs."""


# -- deterministic JSON ---------------------------------------------------------


def _real(x) -> str:
    if not math.isfinite(x):        # JSON has no inf or nan
        raise ValueError(f"non-finite number {x} in the output")
    return format(x, ".17g")


def _fmt(v) -> str:
    t = type(v)         # exact types first: they make up nearly all of a report
    if t is float:
        return _real(v)
    if t is list or t is tuple:
        return "[" + ",".join(map(_fmt, v)) + "]"
    if t is complex:
        return f"[{_real(v.real)},{_real(v.imag)}]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _real(float(v))
    if isinstance(v, (complex, np.complexfloating)):
        return _fmt([float(v.real), float(v.imag)])
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_fmt(x)}" for k, x in v.items()) + "}"
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v)}")


def dumps(obj) -> str:
    return _fmt(obj) + "\n"


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path):
    if not os.path.exists(path):
        raise IOValidationError(f"input file not found: {path}")
    try:
        return read_json(path)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError(f"malformed JSON in {path}: {e}") from e


def _boundary(path):
    if not os.path.exists(path):
        raise IOValidationError(f"boundary file not found: {path}")
    try:
        return load_boundary(path)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"malformed boundary file: {e}") from e


def _parse(what, fn, value):
    """fn(value) for a parser of outside input; a malformed value is a ValidationError."""
    try:
        return fn(value)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed {what}: {e!r}") from e


def _numbers(kind):
    return lambda text: tuple(kind(t) for t in text.split(","))


def _finite(what, vals):
    """vals when every number in it is finite; else a ValidationError."""
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{what} must be finite, got {vals}")
    return vals


def _pair(p):
    return complex(p[0], p[1])


def _check_options(args):
    """A numeric option outside its range is a ValidationError; argparse checks only types."""
    rules = (("kmax", "in 0..12", lambda v: 0 <= v <= 12),     # laurent_extract's caps
             ("mmax", "in 0..12", lambda v: 0 <= v <= 12),
             ("dmu", ">= 0", lambda v: v >= 0),
             ("rmax", ">= 0", lambda v: v >= 0),
             ("tol", "finite and > 0", lambda v: 0 < v < np.inf),
             ("angles", ">= 1", lambda v: v >= 1),
             ("step", "finite and > 0", lambda v: 0 < v < np.inf),
             ("gridn", ">= 5", lambda v: v >= 5),
             ("samples", ">= 16", lambda v: v >= 16),
             ("rin", "in (0, 1)", lambda v: 0 < v < 1),      # the annulus's r_out is 1
             ("a", "finite", np.isfinite),
             ("b", "finite", np.isfinite),
             ("genus_known", ">= 0", lambda v: v >= 0))
    for name, rule, ok in rules:
        v = getattr(args, name, None)
        if v is not None and not ok(v):
            raise ValidationError(f"--{name.replace('_', '-')} must be {rule}, got {v}")


def _sheets(text):
    """--p: 'auto' or a sheet count >= 0."""
    if text == "auto":
        return text
    p = _parse("--p", int, text)
    if p < 0:
        raise ValidationError(f"--p must be 'auto' or an integer >= 0, got {p}")
    return p


# -- subcommands ----------------------------------------------------------------


def cmd_make_oracle(args):
    if args.name not in oracles.ORACLES:
        raise ValidationError(f"unknown oracle {args.name!r}; "
                              f"choose from {sorted(oracles.ORACLES)}")
    kw = {"n": args.samples}
    if args.name in ("interior-line", "exterior-line"):
        kw["a"] = args.a
    if args.name == "two-line":
        kw["a"], kw["b"] = args.a, args.b
    b = oracles.ORACLES[args.name](**kw)
    _write(dumps(boundary_to_json(b)), args.out)
    return 0


def cmd_indicators(args):
    b = _boundary(args.boundary)
    lt = indicators.laurent_extract(b, kmax=args.kmax, mmax=args.mmax)
    g0 = indicators.G_lines(b, [0.0], [2.5 * rho(b)], [0])[0, 0]
    laurent = {f"{k},{m},{n}": complex(lt.coeffs[k, m, n])
               for k in range(lt.kmax + 1) for m in range(lt.mmax + 1) for n in range(m + 1)
               if abs(lt.coeffs[k, m, n]) > 1e-14}
    out = {"delta": lt.delta, "G0": complex(g0), "laurent": laurent}
    _write(dumps(out), args.out)
    return 0


def _fit(b, args, table=None):
    return linsys.fit_infinity(b, dmu=args.dmu, r_max=args.rmax, accept_tol=args.tol,
                               mmax=args.mmax, table=table)


def _fit_report(fit, h):
    return {
        "r": fit.r,
        "B": [complex(c) for c in fit.B],
        "A": [complex(c) for c in fit.A],
        "residual": fit.residual,
        "confined": fit.confined,
        "delta": h.delta,
        "cond": fit.cond if math.isfinite(fit.cond) else None,     # inf: a singular value is 0
    }


def cmd_fit_infinity(args):
    b = _boundary(args.boundary)
    fit, h, _ = _fit(b, args)
    _write(dumps(_fit_report(fit, h)), args.out)
    return 0


CSV_HEADER = "w0_re,w0_im,w1_re,w1_im,w2_re,w2_im,src_x_re,src_x_im,src_y_re,src_y_im"
CSV_ROW = ",".join(["%.17g"] * 10) + "\n"
POINT_JSON = ('{"w":[[%.17g,%.17g],[%.17g,%.17g],[%.17g,%.17g]],'
              '"src":[[%.17g,%.17g],[%.17g,%.17g]],"multiplicity":%d}')


def _write_cloud(cloud, path):
    """Per point w0, w1, w2 and the source x, y, as '.17g' real and imaginary parts, in one pass."""
    rows = np.array([(p.w0, p.w1, p.w2, z.x, z.y) for p, z in zip(cloud.points, cloud.source)],
                    dtype=complex).reshape(-1, 5).view(float).tolist()
    if path and path.endswith(".csv"):
        _write(CSV_HEADER + "\n" + CSV_ROW * len(rows) % tuple(chain.from_iterable(rows)), path)
        return
    points = ",".join([POINT_JSON] * len(rows)) % tuple(
        chain.from_iterable(r + [m] for r, m in zip(rows, cloud.multiplicity)))
    skipped = _fmt([{"z": [complex(z.x), complex(z.y)], "reason": m} for z, m in cloud.skipped])
    _write(f'{{"points":[{points}],"skipped":{skipped}}}\n', path)


def _sheets_and_family(b, args, fit=None, h=None):
    """--p (from a fit of b accepted under --tol when 'auto') and the P_k family of --germs.

    With an accepted fit at hand (always for 'auto', and for any --p in pipeline), r > 0 and no
    germs, P_1 is the fit's rational part R = (A + x B') / B, the k = 1 residue sum over one
    germ per root of B; P_k for k >= 2 needs the germs' jets.
    """
    auto = args.p == "auto"
    p = _sheets(args.p)
    if auto and fit is None:
        fit, h, _ = _fit(b, args)
    accepted = fit is not None and fit.accepted
    if auto:
        if not accepted:
            raise FitNotAccepted(f"no fit accepted for --p auto: the best, r = {fit.r}, has "
                                 f"residual {fit.residual:.3e} (--tol {args.tol:g}) and "
                                 f"confined = {str(fit.confined).lower()}")
        p = h.delta + fit.r         # >= 0: fit_infinity scans r >= max(0, -delta)
    germs = []
    if args.germs:
        germs = _parse("germs file", infinity.germs_from_json, _load(args.germs))
        _finite("germs file", [c for g in germs for c in (g.b, *g.taylor)])
    fam = infinity.Pk_family(germs, max(p, 1))
    if accepted and fit.r > 0 and p >= 1 and not germs:
        if p >= 2:
            raise GermsRequired(f"the fit has r = {fit.r} points at infinity and p = {p} "
                                "sheets; P_k for k >= 2 needs --germs")
        dB = P.polyder(fit.B)
        fam[1] = lambda x, y: (P.polyval(y, fit.A) + x * P.polyval(y, dB)) / P.polyval(y, fit.B)
    return p, fam


def _do_reconstruct(b, args, fit=None, h=None):
    radii = _finite("--radii", _parse("--radii", _numbers(float), args.radii))
    xfracs = _finite("--xfrac", _parse("--xfrac", _numbers(complex), args.xfrac))
    if np.any(np.abs(radii) <= 1) or np.any(np.abs(xfracs) >= 1):   # the line is outside Z
        raise ValidationError(f"need |--radii| > 1 and |--xfrac| < 1, got {radii}, {xfracs}")
    p, fam = _sheets_and_family(b, args, fit, h)
    cloud = reconstruct.sweep(b, p, fam, radii=radii, angles=args.angles, xfracs=xfracs)
    return cloud, p


def cmd_reconstruct(args):
    b = _boundary(args.boundary)
    cloud, _ = _do_reconstruct(b, args)
    _write_cloud(cloud, args.out)
    return 0


def cmd_pipeline(args):
    b = _boundary(args.boundary)
    lt = indicators.laurent_extract(b, kmax=2, mmax=args.mmax)
    fit, h, _ = _fit(b, args, table=lt)
    cloud, p = _do_reconstruct(b, args, fit, h)
    report = {
        "delta": lt.delta,
        "fit": _fit_report(fit, h),
        "p": p,
        "points": len(cloud.points),
        "skipped": len(cloud.skipped),
    }
    if args.out and args.out not in ("-",):
        base, _ = os.path.splitext(args.out)
        _write_cloud(cloud, base + ".cloud" + (".csv" if args.csv else ".json"))
    _write(dumps(report), args.out)
    return 0


def cmd_shock_verify(args):
    b = _boundary(args.boundary)
    y0 = _finite("--y0", _parse("--y0", complex, args.y0)) if args.y0 else 2.5 * rho(b)
    n, step = args.gridn, args.step
    xs = (np.arange(n) - n // 2) * step
    ys = y0 + xs
    if not (np.min(np.abs(ys)) > rho(b) and np.max(np.abs(xs)) < np.min(m_of_y(b, ys))):
        raise ValidationError(f"need |y| > rho = {rho(b):g} and |x| < m(y) at every grid node")
    p, fam = _sheets_and_family(b, args)
    if p < 1:
        raise ValidationError("shock-verify needs p >= 1")
    N = reconstruct.N_Qk(b, np.repeat(xs, n), np.tile(ys, n), p, fam)
    S = symmetric.power_to_elementary(N).reshape(p, n, n)      # S[k - 1][i, j] at (xs[i], ys[j])
    res = shock.system_residual(S, step, step)
    _write(dumps({"p": p, "grid": n, "step": args.step, "residual": res}), args.out)
    return 0


def _patch(text):
    center, radius = text.split(",")
    center, radius = complex(center), float(radius)
    if not (np.isfinite(center) and 0 < radius < np.inf):
        raise ValueError(f"need a finite center and 0 < radius < inf, got {text!r}")
    return center, radius


def _phi(rows):
    phi = np.array([[_pair(p) for p in row] for row in rows])
    if phi.ndim != 2 or 0 in phi.shape or not phi[:, 1:].any():
        raise ValueError("not a graph over the z1 chart: need a 2-D table with a z2 term")
    return _finite("phi file", phi)


def _targets(spec):
    return _pair(spec["q_star"]), [_pair(p) for p in spec["points"]]


def cmd_green(args):
    phi = _parse("phi file", _phi, _load(args.phi))
    center, radius = _parse("--patch", _patch, args.patch)
    qs, pts = _parse("targets file", _targets, _load(args.targets))
    if not all(abs(q - center) < radius for q in _finite("targets file", [qs, *pts])):
        raise ValidationError(f"q_star and every point need |q - center| < radius = {radius:g}")
    model = green.CurveModel(phi, center=center, radius=radius)
    vals = green._green_values(qs, pts, model)
    _write(dumps({"q_star": qs, "values": vals}), args.out)
    return 0


def _omega_from_spec(spec):
    if spec == "dz":
        return lambda z: np.ones_like(z)
    if spec == "zdz":
        return lambda z: z
    if spec.startswith("z^") and spec.endswith("dz"):
        k = _parse("--omega exponent", int, spec[2:-2])
        return lambda z: z ** k
    raise ValidationError(f"cannot parse omega spec {spec!r}")


def _density(spec):
    num, den = (np.asarray(c, dtype=float) for c in (spec["num"], spec.get("den", [1.0])))
    return _finite("lambda file", num), _finite("lambda file", den)


def _lambda_from_file(path):
    """Radial rational density: {"num": [...], "den": [...]} in powers of |z|^2."""
    num, den = _parse("lambda file", _density, _load(path))
    return lambda z: P.polyval(np.abs(z) ** 2, num) / P.polyval(np.abs(z) ** 2, den)


def cmd_genus(args):
    model = genus.SurfaceModel(kind=args.model, r_in=args.rin)
    if args.lam in genus.LAMBDAS:
        lam = genus.LAMBDAS[args.lam]
    elif os.path.exists(args.lam):
        lam = _lambda_from_file(args.lam)
    else:
        raise ValidationError(f"unknown lambda {args.lam!r}")
    omega = _omega_from_spec(args.omega)
    with np.errstate(all="ignore"):     # a non-finite result is the typed error below
        integral = genus.chern_boundary_integral(omega, lam, model)
        defect = model.tangency_certificate(lam)
    if not np.isfinite([integral, defect]).all():
        raise ValueError(f"non-finite integral {integral}, tangency defect {defect}")
    out = {"model": args.model, "integral": integral, "tangency_defect": defect}
    if args.genus_known is not None:
        out["q_inf"] = genus.q_infinity_estimate(integral, args.genus_known, model.n_components)
    _write(dumps(out), args.out)
    return 0


# -- argument parsing -----------------------------------------------------------


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="cfr",
        description="Reconstruction of bordered curves in CP2 from boundary data",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--boundary", required=True, help="boundary JSON file")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.add_argument("--mmax", type=int, default=12)
        p.add_argument("--dmu", type=int, default=10)
        p.add_argument("--rmax", type=int, default=6)
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("make-oracle", help="write an analytic boundary fixture")
    p.add_argument("--name", required=True)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=-1.0 / 3.0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_make_oracle)

    p = sub.add_parser("indicators", help="winding integer and Laurent table")
    common(p)
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(fn=cmd_indicators)

    p = sub.add_parser("fit-infinity", help="recover (r, A, B) from boundary data")
    common(p)
    p.set_defaults(fn=cmd_fit_infinity)

    def recon_opts(p):
        p.add_argument("--p", default="auto", help="sheet count, or 'auto' from the fit; a "
                       "number takes points at infinity from --germs, or from pipeline's fit")
        p.add_argument("--radii", default="2.0,2.5,3.0", help="y radii / rho")
        p.add_argument("--angles", type=int, default=16)
        p.add_argument("--xfrac", default="0.0,0.2,-0.35", help="x as fractions of m(y)")
        p.add_argument("--germs", default=None, help="optional germ JSON")

    p = sub.add_parser("reconstruct", help="sweep lines and emit the point cloud")
    common(p)
    recon_opts(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("pipeline", help="indicators -> fit-infinity -> reconstruct")
    common(p)
    recon_opts(p)
    p.add_argument("--csv", action="store_true", help="emit the cloud as CSV")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("shock-verify", help="finite-difference shock-system residual")
    common(p)
    p.add_argument("--p", default="auto")
    p.add_argument("--germs", default=None)
    p.add_argument("--y0", default=None)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--gridn", type=int, default=9)
    p.set_defaults(fn=cmd_shock_verify)

    p = sub.add_parser("green", help="Green values of a plane-curve patch")
    p.add_argument("--phi", required=True, help="JSON 2-D coefficient array")
    p.add_argument("--patch", default="0,1.0", help="center,radius in the z1 chart")
    p.add_argument("--targets", required=True, help='JSON {"q_star":..,"points":[..]}')
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("genus", help="Chern boundary integral on disc/annulus models")
    p.add_argument("--model", choices=("disc", "annulus"), default="disc")
    p.add_argument("--lambda", dest="lam", default="flat",
                   help="flat | fs | JSON file with radial rational density")
    p.add_argument("--omega", default="dz", help="dz | zdz | z^K dz")
    p.add_argument("--rin", type=float, default=0.5)
    p.add_argument("--genus-known", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_genus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # stderr carries only error objects; the report's cond covers a rank-deficient fit
            warnings.simplefilter("ignore", linsys.RankDeficient)
            _check_options(args)
            return args.fn(args)
    except ValidationError as e:
        sys.stderr.write(dumps({"error": e.code, "detail": str(e)}))
        return 1
    except (ValueError, RuntimeError, ZeroDivisionError, np.linalg.LinAlgError) as e:
        sys.stderr.write(dumps({"error": "E_NUMERIC",
                                "type": type(e).__name__, "detail": str(e)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
