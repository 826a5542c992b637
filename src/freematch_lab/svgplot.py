"""Minimal deterministic SVG emission: polyline charts, point scatters, and
class-region rasters drawn as run-length rectangles. No plotting deps; every
file is written to a temp path and atomically renamed. A chart's text is
written as it is formatted, one polyline point or element at a time, so its
memory does not grow with the number of points."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .atomic import atomic_open

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 30, 45  # margins

_REGION_COLORS = ["#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5", "#c49c94"]
_LINE_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def _scale(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=np.float64)
    span = hi - lo if hi > lo else 1.0
    return out_lo + (vals - lo) / span * (out_hi - out_lo)


def _axes(title: str, xlo, xhi, ylo, yhi) -> Iterator[str]:
    yield (f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
           'fill="none" stroke="#333" stroke-width="1"/>\n')
    yield (f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="13" '
           f'font-family="sans-serif">{title}</text>\n')
    for frac in (0.0, 0.5, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        xp = _ML + frac * (_W - _ML - _MR)
        yp = _H - _MB - frac * (_H - _MT - _MB)
        yield (f'<text x="{xp:.1f}" y="{_H - _MB + 16}" text-anchor="middle" font-size="10" '
               f'font-family="sans-serif">{xv:.3g}</text>\n')
        yield (f'<text x="{_ML - 6}" y="{yp + 3:.1f}" text-anchor="end" font-size="10" '
               f'font-family="sans-serif">{yv:.3g}</text>\n')


def _write_svg(body: Iterable[str], path: str) -> None:
    """One SVG document on a white background around `body`, whose text is
    written as it comes: each element ends its own line."""
    with atomic_open(path) as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}">\n<rect width="100%" height="100%" fill="white"/>\n')
        fh.writelines(body)
        fh.write("</svg>\n")


def _points(px: np.ndarray, py: np.ndarray) -> Iterator[str]:
    """A polyline's space-separated "x,y" pairs, one pair at a time; the
    arrays go when the last pair is out."""
    sep = ""
    for x, y in zip(px, py):
        yield f"{sep}{x:.2f},{y:.2f}"
        sep = " "


def line_chart(title: str, series: list[tuple[str, np.ndarray, np.ndarray]], path: str) -> None:
    """Polyline chart; series is a list of (label, xs, ys)."""
    finite = [(xs, ys) for _, xs, ys in series if len(xs)]
    xlo = min(float(np.min(xs)) for xs, _ in finite)
    xhi = max(float(np.max(xs)) for xs, _ in finite)
    ylo = min(float(np.min(ys)) for _, ys in finite)
    yhi = max(float(np.max(ys)) for _, ys in finite)
    if ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def body():
        yield from _axes(title, xlo, xhi, ylo, yhi)
        for i, (label, xs, ys) in enumerate(series):
            color = _LINE_COLORS[i % len(_LINE_COLORS)]
            yield '<polyline points="'
            yield from _points(_scale(xs, xlo, xhi, _ML, _W - _MR), _scale(ys, ylo, yhi, _H - _MB, _MT))
            yield f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
            yield (f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * i}" text-anchor="end" font-size="11" '
                   f'font-family="sans-serif" fill="{color}">{label}</text>\n')

    _write_svg(body(), path)


def boundary_chart(
    title: str,
    grid_classes: np.ndarray,
    extent: tuple[float, float, float, float],
    scatters: list[tuple[np.ndarray, str, float]],
    path: str,
) -> None:
    """Class-region raster with point overlays.

    grid_classes is [ny, nx] of integer class ids with row 0 at the bottom of
    the data extent; each row is emitted as run-length rectangles. scatters is
    a list of ([N, 2] points, fill color, radius).
    """
    x0, x1, y0, y1 = extent
    ny, nx = grid_classes.shape
    cw = (_W - _ML - _MR) / nx
    ch = (_H - _MT - _MB) / ny

    def body():
        for iy in range(ny):
            yp = _H - _MB - (iy + 1) * ch
            row = grid_classes[iy]
            start = 0
            for ix in range(1, nx + 1):
                if ix == nx or row[ix] != row[start]:
                    color = _REGION_COLORS[int(row[start]) % len(_REGION_COLORS)]
                    xp = _ML + start * cw
                    yield (f'<rect x="{xp:.2f}" y="{yp:.2f}" width="{(ix - start) * cw + 0.5:.2f}" '
                           f'height="{ch + 0.5:.2f}" fill="{color}"/>\n')
                    start = ix
        for pts, color, radius in scatters:
            px = _scale(pts[:, 0], x0, x1, _ML, _W - _MR)
            py = _scale(pts[:, 1], y0, y1, _H - _MB, _MT)
            for x, y in zip(px, py):
                yield (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" fill="{color}" '
                       'stroke="#222" stroke-width="0.4"/>\n')
        yield from _axes(title, x0, x1, y0, y1)

    _write_svg(body(), path)
