"""Deterministic SVG rendering of bundle root curves.

Two stacked panels (real and imaginary part against the base coordinate)
with one polyline per sheet chain, colored by the connected chain the
sheet belongs to.  Output is byte-stable: fixed viewport, fixed palette,
no timestamps, floats printed with a fixed format.
"""

from __future__ import annotations

import numpy as np

from .bundle import RootBundle

WIDTH, HEIGHT = 960, 720
MARGIN = 54
PANEL_GAP = 40
PALETTE = ("#1f6fb2", "#d1495b", "#3e8e41", "#8e6bbf", "#e08f2c",
           "#4aa3a2", "#a3585c", "#666666")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _sheet_chains(bundle: RootBundle):
    """Follow each starting slot once around/along the base sample path.

    Works for interval and circle bases, where samples are laid out in
    index order along the coordinate.
    """
    base = bundle.base
    S = base.n_samples
    xs = base.coords.tolist()
    fibers = bundle.fibers.tolist()
    perms = bundle.edge_perms.tolist()
    closed = base.kind == "circle"
    if closed:
        xs.append(2.0 * np.pi)
    chains = []
    for start in range(bundle.degree):
        slot = start
        ys = [fibers[0][slot]]
        for e in range(S - 1):
            slot = perms[e][slot]
            ys.append(fibers[e + 1][slot])
        if closed:
            slot = perms[S - 1][slot]
            ys.append(fibers[0][slot])
        chains.append((xs, np.array(ys)))
    return chains


def emit_bundle_svg(bundle: RootBundle, path, title: str = "") -> None:
    if bundle.base.kind not in ("interval", "circle"):
        raise ValueError("figures are drawn for interval and circle bases")
    chains = _sheet_chains(bundle)
    xmin = min(min(xs) for xs, _ in chains)
    xmax = max(max(xs) for xs, _ in chains)
    panel_h = (HEIGHT - 2 * MARGIN - PANEL_GAP) / 2
    # the characters XML text may not hold raw; xml.sax.saxutils.escape does
    # the same, but imports urllib.request and ssl: 2 MB more peak RSS
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="26" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
    ]

    # sx and sy take floats and arrays alike, with the same operations in the
    # same order, so an array point and a scalar one print the same digits
    def sx(x):
        return MARGIN + (x - xmin) / (xmax - xmin) * (WIDTH - 2 * MARGIN)

    xs = chains[0][0]             # every chain runs over the same coordinates
    points = " ".join(["%.3f,%.3f"] * len(xs))
    xy = np.empty(2 * len(xs))    # x0, y0, x1, y1, …
    xy[0::2] = sx(np.array(xs))
    for panel, part in enumerate(("re", "im")):
        values = [ys.real if part == "re" else ys.imag for _, ys in chains]
        vmin = min(float(np.min(v)) for v in values)
        vmax = max(float(np.max(v)) for v in values)
        if vmax - vmin < 1e-9:
            vmin, vmax = vmin - 1.0, vmax + 1.0
        pad = 0.05 * (vmax - vmin)
        vmin, vmax = vmin - pad, vmax + pad
        top = MARGIN + panel * (panel_h + PANEL_GAP)

        def sy(v):
            return top + (vmax - v) / (vmax - vmin) * panel_h

        parts.append(
            f'<rect x="{MARGIN}" y="{_fmt(top)}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{_fmt(panel_h)}" fill="none" stroke="#999"/>')
        parts.append(
            f'<text x="{MARGIN}" y="{_fmt(top - 8)}" font-family="monospace" '
            f'font-size="12">{part} part</text>')
        if vmin < 0 < vmax:
            y0 = sy(0.0)
            parts.append(
                f'<line x1="{MARGIN}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN}" '
                f'y2="{_fmt(y0)}" stroke="#ddd"/>')
        for k, vals in enumerate(values):
            xy[1::2] = sy(vals)
            color = PALETTE[k % len(PALETTE)]
            parts.append(
                f'<polyline points="{points % tuple(xy.tolist())}" fill="none" '
                f'stroke="{color}" stroke-width="1.2"/>')
            parts.append(
                f'<text x="{_fmt(sx(xs[0]) + 4)}" y="{_fmt(sy(vals[0]) - 4)}" '
                f'font-family="monospace" font-size="11" fill="{color}">'
                f's{k + 1}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
