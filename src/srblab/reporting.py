"""CSV and SVG artifact emission.

All writers are pure functions of their inputs: reals are rendered with
17 significant digits, rows end with a plain newline, and header comment
lines are prefixed with ``#`` ahead of the column-name row.  Running the
same experiment twice therefore produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import asdict, astuple, fields

import numpy as np

from .entropy import Route
from .errors import ArgumentError
from .measures import Grid1D, Grid2D, GridDensity
from .towers import CELL_SAMPLES, cell_samples


def format_real(x) -> str:
    """17-significant-digit decimal rendering (empty string for None/NaN)."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return f"{x:.17g}"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format_real(v)
    return str(v)


def write_csv(path: str, comments: list[str], header: list[str], rows) -> None:
    """Write comment lines, a header row and data rows.

    Fields are escaped RFC-4180 style (quotes doubled, quoting only when
    needed); floats go through :func:`format_real`.  Comments are single
    lines, and the header must not start with ``#``: either would not
    read back.
    """
    if any("\n" in c or "\r" in c for c in comments):
        raise ArgumentError("CSV comment lines cannot hold a line break")
    if header and str(header[0]).startswith("#"):
        raise ArgumentError("a CSV header cannot start with '#'")
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    plain = csv.writer(buf, lineterminator="\n")
    # the writer quotes only the characters of its line terminator, so a
    # row with a bare \r in some field is written fully quoted
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for cells in itertools.chain([header], ([_cell(v) for v in row] for row in rows)):
        (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back a file produced by :func:`write_csv`.

    Returns (comment lines without the marker, header, data rows).  Only
    the leading block of ``#`` lines is comments; the rest is parsed as
    one CSV stream, so a quoted field may hold line breaks and ``#``.
    """
    comments = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line[1:].strip())
            line = fh.readline()
        rows = list(csv.reader(itertools.chain([line], fh))) if line else []
    if not rows:
        raise ArgumentError(f"{path} has no header row")
    return comments, rows[0], rows[1:]


def write_tail_csv(path: str, profile, fits: dict | None = None) -> None:
    """Emit a slow-orbit tail profile (one row per time n)."""
    p = profile.params
    comments = [
        f"lam = {format_real(p.lam)}",
        f"eps = {format_real(p.eps)}",
        f"delta = {format_real(p.delta)}",
        f"n_max = {p.n_max}",
        f"sample_size = {p.sample_size}",
        f"seed = {profile.seed}",
    ]
    for name, fit in (fits or {}).items():
        if isinstance(fit, str):
            comments.append(f"fit.{name} = {fit}")
        else:
            comments.append(
                f"fit.{name}: C = {format_real(fit.C)}, gamma = {format_real(fit.gamma)}, "
                f"residual = {format_real(fit.residual)}, points = {fit.n_points}")
    header = ["n", "frac_expansion", "frac_recurrence", "frac_union", "censored_count"]
    rows = [
        [int(n), fe, fr, fu, profile.censored_count]
        for n, fe, fr, fu in zip(profile.n, profile.frac_expansion,
                                 profile.frac_recurrence, profile.frac_union)
    ]
    write_csv(path, comments, header, rows)


def write_tower_csv(path: str, F) -> None:
    """Emit the cell table of an induced map with per-cell derivative ranges."""
    rep = F.verification
    comments = [
        f"family = {F.base.family}",
        f"delta = [{format_real(F.delta.lo)}, {format_real(F.delta.hi)})",
        f"tau_max = {F.tau_max}",
        f"deficit = {format_real(F.deficit)}",
        f"partial_mass = {format_real(F.partial_mass)}",
    ]
    if rep is not None:
        comments += [
            f"kappa = {format_real(rep.kappa)}",
            f"distortion = {format_real(rep.distortion)}",
            f"comparison_constant = {format_real(rep.comparison_constant)}",
            f"axioms_ok = {rep.all_ok}",
        ]
    header = ["cell_index", "left", "right", "tau", "deriv_min", "deriv_max"]
    low, high = np.empty(len(F.cells)), np.empty(len(F.cells))
    for cells, first, rows, xs in cell_samples(F, np.full(len(F.cells), CELL_SAMPLES)):
        d = np.abs(F.evaluate(rows, xs, jacobian=True)[2])
        low[cells] = np.minimum.reduceat(d, first)
        high[cells] = np.maximum.reduceat(d, first)
    columns = (F.cells.lo, F.cells.hi, F.cells.tau, low, high)
    rows = [[i, *row] for i, row in enumerate(zip(*(c.tolist() for c in columns)))]
    write_csv(path, comments, header, rows)


def write_density_csv(path: str, density: GridDensity) -> None:
    """Emit a grid density (1D: one bin per row; 2D: one cylinder cell per row)."""
    grid = density.grid
    comments = [
        f"provenance = {density.provenance}",
        f"mass = {format_real(density.mass)}",
        f"truncation_bound = {format_real(density.truncation_bound)}",
        f"iterations = {density.iterations}",
        f"residual = {format_real(density.residual)}",
    ]
    if isinstance(grid, Grid1D):
        # a graded mesh says so; its bin edges are in the left/right columns
        mesh = "" if grid.regular else " graded"
        comments.insert(0, f"grid = 1d [{format_real(grid.lo)}, {format_real(grid.hi)}] "
                           f"n={grid.n}{mesh}")
        header = ["bin_index", "left", "right", "value"]
        edges = grid.edges
        rows = [[i, edges[i], edges[i + 1], density.values[i]] for i in range(grid.n)]
    elif isinstance(grid, Grid2D):
        t, x = grid.theta, grid.x
        comments.insert(0, (f"grid = cylinder theta_n={t.n} "
                            f"x=[{format_real(x.lo)}, {format_real(x.hi)}] n={x.n}"))
        header = ["bin_index", "theta_left", "theta_right", "x_left", "x_right", "value"]
        it, ix = np.divmod(np.arange(t.n * x.n), x.n)
        columns = (t.edges[it], t.edges[it + 1], x.edges[ix], x.edges[ix + 1], density.values)
        rows = [[i, *row] for i, row in enumerate(zip(*(c.tolist() for c in columns)))]
    else:
        raise ArgumentError("unsupported grid type")
    if density.excluded is not None and density.excluded.any():
        comments.append(f"excluded_bins = {int(density.excluded.sum())}")
    write_csv(path, comments, header, rows)


def write_entropy_csv(path: str, report) -> None:
    """Emit an entropy report, one row per route record; the columns are
    the fields of :class:`~srblab.entropy.Route`."""
    comments = [f"family = {report.family}"]
    for k in sorted(report.params):
        comments.append(f"param.{k} = {_cell(report.params[k])}")
    for k, gap in sorted(report.discrepancies.items()):
        comments.append(f"discrepancy.{k} = {format_real(gap)}")
    for k in sorted(report.errors):
        comments.append(f"error.{k} = {report.errors[k]}")
    header = [f.name for f in fields(Route)]
    write_csv(path, comments, header, (astuple(r) for r in report.routes.values()))


def report_columns(report) -> dict:
    """The sweep-row columns of an entropy report, route by route: the
    route's ``name`` (``h_<method>``, or ``kac_mass``) holds its estimate,
    NaN included; ``<method>_<field>`` each other :class:`~srblab.entropy.Route`
    field that is set; and ``error_<method>`` why the route failed."""
    columns = {}
    for route in report.routes.values():
        columns[route.name] = route.estimate
        columns.update((f"{route.method}_{k}", v) for k, v in asdict(route).items()
                       if k not in ("method", "estimate") and v is not None)
        if route.name in report.errors:
            columns[f"error_{route.method}"] = report.errors[route.name]
    return columns


def write_sweep_csv(path: str, table) -> None:
    """Emit a parameter sweep, one row per parameter value.

    The columns are the keys of the rows, ``parameter`` first and the
    rest in the order the rows first hold them; the row index, tower and
    density are not written, and a key a row lacks leaves its cell blank.
    ``error`` is the row's own failure, ``error_<method>`` a route's
    (:func:`report_columns`)."""
    comments = [
        f"family = {table.family}",
        f"parameter = {table.parameter}",
        f"steps = {len(table.rows)}",
        f"seed = {table.seed}",
    ]
    keys = dict.fromkeys(["parameter", *(k for r in table.rows for k in r)])
    header = [k for k in keys if k not in ("index", "tower", "density")]
    write_csv(path, comments, header, ([r.get(k) for k in header] for r in table.rows))


# ---------------------------------------------------------------------------
# SVG


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56


def emit_svg(path: str, x, series: dict, xlabel: str = "", ylabel: str = "",
             title: str = "") -> None:
    """Write a minimal standalone SVG line plot.

    Parameters
    ----------
    path : str
        Output file.
    x : array_like
        Shared abscissae.
    series : dict
        Mapping label -> array of ordinates (NaN entries are skipped).
    xlabel, ylabel, title : str
        Axis and figure annotations.

    Raises
    ------
    ArgumentError
        If ``series`` is empty or holds no finite point.
    """
    x = np.asarray(x, dtype=float)
    if not series or x.size == 0:
        raise ArgumentError("nothing to plot")
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    finite_y = np.concatenate([v[np.isfinite(v)] for v in ys.values()]) \
        if any(np.isfinite(v).any() for v in ys.values()) else np.empty(0)
    if finite_y.size == 0:
        raise ArgumentError("no finite data points to plot")
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(finite_y.min()), float(finite_y.max())
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        pad = max(abs(ylo), 1.0) * 0.1
        ylo, yhi = ylo - pad, yhi + pad
    else:
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

    def sx(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tv in np.linspace(xlo, xhi, 5):
        X = sx(tv)
        parts.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{X:.2f}" y="{_H - _MB + 20}" font-size="11" '
                     f'text-anchor="middle">{tv:.4g}</text>')
    for tv in np.linspace(ylo, yhi, 5):
        Y = sy(tv)
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                     f'y2="{Y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{tv:.4g}</text>')
    if title:
        parts.append(f'<text x="{_W / 2}" y="{_MT - 12}" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 14}" '
                     f'font-size="12" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 16 '
                     f'{(_MT + _H - _MB) / 2})">{ylabel}</text>')
    legend_y = _MT + 6
    for idx, (label, v) in enumerate(ys.items()):
        colour = _PALETTE[idx % len(_PALETTE)]
        keep = np.isfinite(v)
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x[keep], v[keep]))
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{colour}" '
                         'stroke-width="1.5"/>')
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{legend_y}" '
                     f'x2="{_W - _MR - 106}" y2="{legend_y}" stroke="{colour}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 100}" y="{legend_y + 4}" '
                     f'font-size="11">{label}</text>')
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
