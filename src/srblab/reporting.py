"""CSV and SVG artifact emission.

All writers are pure functions of their inputs: reals are rendered with
17 significant digits, rows end with a plain newline, and header comment
lines are prefixed with ``#`` ahead of the column-name row.  Running the
same experiment twice therefore produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .errors import ArgumentError
from .measures import Grid1D, Grid2D, GridDensity
from .towers import cell_samples


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
    needed); floats go through :func:`format_real`.
    """
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back a file produced by :func:`write_csv`.

    Returns (comment lines without the marker, header, data rows).
    """
    comments = []
    body = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                body.append(line)
    rows = list(csv.reader(body))
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


def write_tower_csv(path: str, F, samples_per_cell: int = 64) -> None:
    """Emit the cell table of an induced map with per-cell derivative ranges."""
    rep = F.verification
    comments = [
        f"family = {F.base.family}",
        f"delta = [{format_real(F.delta.lo)}, {format_real(F.delta.hi)})",
        f"tau_max = {F.tau_max}",
        f"deficit = {format_real(F.deficit)}",
        f"partial_mass = {format_real(F.partial_mass)}",
        f"provenance = {F.provenance}",
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
    for cells, first, rows, xs in cell_samples(F, np.full(len(F.cells), samples_per_cell)):
        d = np.abs(F.evaluate(rows, xs, jacobian=True)[2])
        low[cells] = np.minimum.reduceat(d, first)
        high[cells] = np.maximum.reduceat(d, first)
    rows = [[i, cell.lo, cell.hi, cell.tau, lo, hi]
            for i, (cell, lo, hi) in enumerate(zip(F.cells, low.tolist(), high.tolist()))]
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
        comments.insert(0, (f"grid = cylinder theta_n={grid.n_theta} "
                            f"x=[{format_real(grid.x_lo)}, {format_real(grid.x_hi)}] n={grid.n_x}"))
        header = ["bin_index", "theta_left", "theta_right", "x_left", "x_right", "value"]
        te, xe = grid.theta_edges, grid.x_edges
        rows = []
        for it in range(grid.n_theta):
            for ix in range(grid.n_x):
                flat = it * grid.n_x + ix
                rows.append([flat, te[it], te[it + 1], xe[ix], xe[ix + 1],
                             density.values[flat]])
    else:
        raise ArgumentError("unsupported grid type")
    if density.excluded is not None and density.excluded.any():
        comments.append(f"excluded_bins = {int(density.excluded.sum())}")
    write_csv(path, comments, header, rows)


def write_entropy_csv(path: str, report) -> None:
    """Emit an entropy report, one row per estimation method."""
    comments = [f"family = {report.family}"]
    for k in sorted(report.params):
        comments.append(f"param.{k} = {_cell(report.params[k])}")
    for k in sorted(report.discrepancies):
        comments.append(f"discrepancy.{k} = {format_real(report.discrepancies[k])}")
    for k in sorted(report.errors):
        comments.append(f"error.{k} = {report.errors[k]}")
    header = ["method", "estimate", "std_error", "truncation_bound",
              "n_orbits", "n_iters", "bins", "tau_cap"]
    tau_cap = report.tau_cap if report.tau_cap else None
    rows = [
        ["lyapunov", report.h_lyapunov, report.lyapunov_se, None,
         report.n_orbits, report.n_iters, None, None],
        ["pesin", report.h_pesin, None, report.pesin_clip_mass,
         None, None, report.bins, None],
        ["induced", report.h_induced, None, report.truncation_bound,
         None, None, report.bins, tau_cap],
        ["abramov", report.h_abramov, None, report.truncation_bound,
         None, None, report.bins, tau_cap],
        ["smb", report.h_smb, None, None, None, None, None, tau_cap],
        ["kac_mass", report.kac, None, None, None, None, report.bins, tau_cap],
    ]
    write_csv(path, comments, header, rows)


def write_sweep_csv(path: str, table) -> None:
    """Emit a parameter sweep, one row per parameter value."""
    comments = [
        f"family = {table.family}",
        f"parameter = {table.parameter}",
        f"steps = {len(table.rows)}",
        f"seed = {table.seed}",
    ]
    header = ["parameter", "h_lyapunov", "lyapunov_se", "h_pesin", "h_induced",
              "h_abramov", "kac_mass", "kappa", "distortion",
              "density_l1_prev", "tau_l1_prev", "error"]
    rows = []
    for r in table.rows:
        rows.append([
            r["parameter"], r.get("h_lyapunov"), r.get("lyapunov_se"),
            r.get("h_pesin"), r.get("h_induced"), r.get("h_abramov"),
            r.get("kac_mass"), r.get("kappa"), r.get("distortion"),
            r.get("density_l1_prev"), r.get("tau_l1_prev"), r.get("error"),
        ])
    write_csv(path, comments, header, rows)


# ---------------------------------------------------------------------------
# SVG


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 36, 56


def _ticks(lo: float, hi: float, k: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, k)


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
    for tv in _ticks(xlo, xhi):
        X = sx(tv)
        parts.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{X:.2f}" y="{_H - _MB + 20}" font-size="11" '
                     f'text-anchor="middle">{tv:.4g}</text>')
    for tv in _ticks(ylo, yhi):
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
