"""Command-line front door.

Subcommands:
  green        Green-function bundle {G, c, cdot, dG/dalpha} at one point
  diagram      envelope table over [-1, 0] as CSV / JSON / SVG
  extremal     LP oracle M_n(x0, E) for an arbitrary interval set
  andrievskii  best configuration value L_n(x0, delta)
  verify       self-check suites (closed forms, brute force, residuals)

Every subcommand takes --stats, which prints the work counters (LP solves
and pivots, quadrature panels, search evaluations; see chebgap._stats) as
one JSON object to stderr, after the command has run or failed.

Exit codes: 0 success, 2 argument/domain error, 3 numerical failure,
4 verification failure.  CSV output uses '.' decimals, ',' separators and
LF line endings; all output is buffered and written in one piece.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, _stats
from .andrievskii import (
    L_n_delta,
    brute_force_theorem1,
    residual_tail_slope,
    totik_widom_residuals,
)
from .chebyshev import akhiezer_even_value, cheb_T, remez_constant
from .envelope import (
    akhiezer_curve,
    delta_star,
    diagram,
    diagram_to_csv,
    diagram_to_json,
    x0_of_alpha,
)
from .errors import ConsistencyError, DomainError, QuadratureError, SolverError
from .extremal import solve_extremal
from .green import green_eval, green_two_interval
from .intervals import CompactSet, GapParams, make_gap_set


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.12g}"


# ----------------------------------------------------------------------
# green
# ----------------------------------------------------------------------


def cmd_green(args) -> int:
    ev = green_eval(args.alpha, args.delta, args.x)
    if args.format == "csv":
        lines = [
            "alpha,delta,x,g,dg_dalpha,c,c_dot,err_estimate",
            f"{_fmt(args.alpha)},{_fmt(args.delta)},{_fmt(args.x)},{_fmt(ev.g)},"
            f"{_fmt(ev.dg_dalpha)},{_fmt(ev.c)},{_fmt(ev.c_dot)},{_fmt(ev.err_estimate)}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = json.loads(ev.to_json())
        payload.update({"alpha": args.alpha, "delta": args.delta, "x": args.x})
        _emit(args, json.dumps(payload) + "\n")
    return 0


# ----------------------------------------------------------------------
# diagram + SVG
# ----------------------------------------------------------------------

_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 20, 45


def _svg_xy(x, y, ymax):
    px = _MARGIN_L + (x + 1.0) * (_SVG_W - _MARGIN_L - _MARGIN_R)
    py = _SVG_H - _MARGIN_B - (y / ymax) * (_SVG_H - _MARGIN_T - _MARGIN_B)
    return px, py


def _polyline(points, ymax, color):
    coords = " ".join(
        f"{_svg_xy(x, y, ymax)[0]:.2f},{_svg_xy(x, y, ymax)[1]:.2f}" for x, y in points
    )
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>')


def render_svg(result, curve_pts) -> str:
    """Hand-emitted SVG: both branch curves as polylines, the envelope as a
    path, and vertical marker lines at x_*, x_s and the gap edge."""
    phis = [r.phi for r in result.rows]
    ymax = max(max(phis), 1e-9) * 1.08

    remez_pts = [(r.x, r.g_remez) for r in result.rows if r.g_remez is not None]
    env_path = " ".join(
        ("M" if i == 0 else "L") + f"{_svg_xy(r.x, r.phi, ymax)[0]:.2f},"
        f"{_svg_xy(r.x, r.phi, ymax)[1]:.2f}"
        for i, r in enumerate(result.rows)
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" '
        f'width="{_SVG_W - _MARGIN_L - _MARGIN_R}" '
        f'height="{_SVG_H - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>',
    ]

    ticks = []
    labels = []
    x = -1.0
    while x <= 0.0 + 1e-12:
        px, _ = _svg_xy(x, 0.0, ymax)
        y0 = _SVG_H - _MARGIN_B
        ticks.append(f"M{px:.2f},{y0:.2f} l0,6")
        labels.append(
            f'<text x="{px:.2f}" y="{y0 + 20:.2f}" font-size="11" '
            f'text-anchor="middle">{x:.1f}</text>'
        )
        x += 0.1
    parts.append(f'<path d="{" ".join(ticks)}" stroke="black" fill="none"/>')
    parts.extend(labels)

    parts.append(_polyline(remez_pts, ymax, "#1f77b4"))
    parts.append(_polyline(curve_pts, ymax, "#d62728"))
    parts.append(f'<path d="{env_path}" fill="none" stroke="black" '
                 f'stroke-width="0.8" stroke-dasharray="4,3"/>')

    markers = [m for m in (result.x_star, result.x_switch, result.gap_edge)
               if m is not None and -1.0 <= m <= 0.0]
    for m in markers:
        px, _ = _svg_xy(m, 0.0, ymax)
        parts.append(
            f'<line class="marker" x1="{px:.2f}" y1="{_MARGIN_T}" '
            f'x2="{px:.2f}" y2="{_SVG_H - _MARGIN_B}" stroke="#999" '
            f'stroke-dasharray="2,2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_diagram(args) -> int:
    result = diagram(args.delta, args.points)
    if result.degenerate:
        print(
            f"warning: delta={args.delta} >= 0.5, the four-region taxonomy "
            f"degenerates; regions are left unset",
            file=sys.stderr,
        )
    if args.format == "csv":
        _emit(args, diagram_to_csv(result))
    elif args.format == "json":
        _emit(args, diagram_to_json(result) + "\n")
    else:
        lo = args.delta - 1.0 + 1e-6
        alpha_grid = np.concatenate([
            lo + (0.0 - lo) * np.linspace(0.0, 1.0, 49) ** 2.0,
            np.linspace(lo, 0.0, 17)[1:-1],
        ])
        pts = [p for p in akhiezer_curve(args.delta, np.unique(alpha_grid))
               if p is not None]
        pts.sort()
        _emit(args, render_svg(result, pts))
    return 0


# ----------------------------------------------------------------------
# extremal / andrievskii
# ----------------------------------------------------------------------


def _parse_set(args) -> CompactSet:
    if getattr(args, "set_file", None):
        with open(args.set_file, encoding="utf-8") as fh:
            return CompactSet.from_json(fh.read())
    if getattr(args, "set", None):
        return CompactSet.from_json(args.set)
    raise DomainError("provide the interval set via --set or --set-file")


def cmd_extremal(args) -> int:
    E = _parse_set(args)
    res = solve_extremal(E, args.x0, args.n, extension=not args.no_extension)
    if args.format == "csv":
        lines = [
            "value,case_tag,degree,degree_deficient",
            f"{_fmt(res.value)},{res.case_tag},{res.poly.degree},"
            f"{str(res.poly.degree_deficient).lower()}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, res.to_json() + "\n")
    return 0


def cmd_andrievskii(args) -> int:
    res = L_n_delta(args.x0, args.delta, args.n)
    if args.format == "csv":
        lines = [
            "x0,delta,n,value,best,best_alpha",
            f"{_fmt(args.x0)},{_fmt(args.delta)},{args.n},{_fmt(res.value)},"
            f"{res.best},{_fmt(res.best_alpha)}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = json.loads(res.to_json())
        payload.update({"x0": args.x0, "delta": args.delta, "n": args.n})
        _emit(args, json.dumps(payload) + "\n")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _suite_closed_forms(checks):
    ds = delta_star(1e-8)
    checks.append(("delta_star", abs(ds - 0.543689) <= 1e-5, f"{ds:.8f}"))
    worst = max(
        abs(green_two_interval(0.0, d, 0.0) - 0.5 * math.log((1 + d) / (1 - d)))
        for d in (0.2, 0.5, 0.8)
    )
    checks.append(("symmetric_green", worst <= 1e-8, f"max dev {worst:.2e}"))
    checks.append(
        ("remez_constant_identity",
         remez_constant(2, 1.0 / 3.0) == cheb_T(2, 2.0)
         and abs(remez_constant(2, 1.0 / 3.0) - 7.0) < 1e-12,
         f"{remez_constant(2, 1.0/3.0):.12g}")
    )
    checks.append(
        ("akhiezer_even_identity",
         abs(akhiezer_even_value(4, 0.5, 0.0) - cheb_T(4, 5.0 / 3.0)) < 1e-12,
         f"{akhiezer_even_value(4, 0.5, 0.0):.12g}")
    )
    E1 = CompactSet.from_json("[[-0.2, 1.0]]")
    worst = max(
        abs(solve_extremal(E1, -1.0, n, extension=False).value - remez_constant(n, 0.4))
        / remez_constant(n, 0.4)
        for n in (4, 8)
    )
    checks.append(("lp_vs_remez", worst <= 1e-9, f"max rel {worst:.2e}"))
    E2 = make_gap_set(GapParams(0.0, 0.5))
    worst = max(
        abs(solve_extremal(E2, 0.0, 2 * m, extension=False).value - cheb_T(m, 5.0 / 3.0))
        / cheb_T(m, 5.0 / 3.0)
        for m in (2, 4)
    )
    checks.append(("lp_vs_akhiezer", worst <= 1e-9, f"max rel {worst:.2e}"))
    x00 = x0_of_alpha(0.0, 0.5)
    checks.append(("symmetric_stationary_point", abs(x00) <= 1e-8, f"{x00:.2e}"))


def _suite_brute_force(checks, args):
    rep = brute_force_theorem1(args.x0, args.delta, args.n, args.trials, args.seed)
    checks.append(
        ("brute_force_structure",
         rep.ok,
         f"{rep.trials} trials, max ratio {rep.max_ratio:.6f}, "
         f"{len(rep.violations)} violations")
    )


def _suite_residuals(checks, args):
    series = totik_widom_residuals(-0.95, 0.4, [25, 50, 100, 200], method="remez")
    rs = [r for _, _, r in series.entries]
    ok = all(abs(b) < abs(a) for a, b in zip(rs, rs[1:])) and abs(rs[-1]) < 0.05
    checks.append(("residuals_boundary_branch", ok,
                   f"|r| = {', '.join(f'{abs(r):.2e}' for r in rs)}"))
    series = totik_widom_residuals(args.x0, args.delta, range(6, 37, 6), method="lp")
    slope = residual_tail_slope(series, 18)
    spread = max(r for _, _, r in series.entries) - min(r for _, _, r in series.entries)
    checks.append(
        ("residuals_interior_branch",
         abs(slope) < 1e-2 and spread < 1.0,
         f"tail slope {slope:.2e}, spread {spread:.3f}")
    )


def cmd_verify(args) -> int:
    checks = []
    if args.suite in ("closed-forms", "all"):
        _suite_closed_forms(checks)
    if args.suite in ("brute-force", "all"):
        _suite_brute_force(checks, args)
    if args.suite in ("residuals", "all"):
        _suite_residuals(checks, args)
    width = max(len(name) for name, _, _ in checks)
    lines = []
    for name, ok, detail in checks:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name:<{width}}  {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 4 if failed else 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--output", help="write to this file instead of stdout")
    p.add_argument("--stats", action="store_true",
                   help="print the work counters as JSON to stderr")


COMMANDS = ("green", "diagram", "extremal", "andrievskii", "verify")


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand, or `command` alone, parsed and reported alike."""
    p = argparse.ArgumentParser(
        prog="chebgap",
        description="Extremal polynomials on gapped subsets of [-1,1]: "
                    "two-interval Green functions, upper envelopes, and the "
                    "finite-degree LP oracle.",
    )
    p.add_argument("--version", action="version", version=f"chebgap {__version__}")
    sub = p.add_subparsers(dest="command", required=True,
                           metavar=command and "{" + ",".join(COMMANDS) + "}")

    if command in (None, "green"):
        g = sub.add_parser("green", help="Green-function bundle at one point")
        g.add_argument("--alpha", type=float, required=True)
        g.add_argument("--delta", type=float, required=True)
        g.add_argument("--x", type=float, required=True)
        g.add_argument("--format", choices=["json", "csv"], default="json")
        _add_common(g)
        g.set_defaults(func=cmd_green)

    if command in (None, "diagram"):
        d = sub.add_parser("diagram", help="envelope table / figure over [-1, 0]")
        d.add_argument("--delta", type=float, required=True)
        d.add_argument("--points", type=int, default=400)
        d.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
        _add_common(d)
        d.set_defaults(func=cmd_diagram)

    if command in (None, "extremal"):
        e = sub.add_parser("extremal", help="LP oracle M_n(x0, E)")
        e.add_argument("--set", help='JSON interval list, e.g. "[[-1,-0.5],[0.5,1]]"')
        e.add_argument("--set-file", dest="set_file", help="file holding the JSON set")
        e.add_argument("--x0", type=float, required=True)
        e.add_argument("--n", type=int, required=True)
        e.add_argument("--no-extension", action="store_true",
                       help="skip the n-extension computation")
        e.add_argument("--format", choices=["json", "csv"], default="json")
        _add_common(e)
        e.set_defaults(func=cmd_extremal)

    if command in (None, "andrievskii"):
        a = sub.add_parser("andrievskii", help="best configuration value L_n(x0, delta)")
        a.add_argument("--x0", type=float, required=True)
        a.add_argument("--delta", type=float, required=True)
        a.add_argument("--n", type=int, required=True)
        a.add_argument("--format", choices=["json", "csv"], default="json")
        _add_common(a)
        a.set_defaults(func=cmd_andrievskii)

    if command in (None, "verify"):
        v = sub.add_parser("verify", help="run self-check suites")
        v.add_argument("--suite", choices=["closed-forms", "brute-force", "residuals", "all"],
                       default="all")
        v.add_argument("--trials", type=int, default=200)
        v.add_argument("--n", type=int, default=6)
        v.add_argument("--delta", type=float, default=0.4)
        v.add_argument("--x0", type=float, default=-0.1)
        v.add_argument("--seed", type=int, default=20250808)
        _add_common(v)
        v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading subcommand needs only its own parser, a third of a short job
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if not args.stats:
        return _run(args)
    with _stats.collect() as counts:
        rc = _run(args)
    print(json.dumps(counts, sort_keys=True), file=sys.stderr)
    return rc


def _run(args) -> int:
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SolverError, ConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
