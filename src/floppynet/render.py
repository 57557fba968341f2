"""Static SVG rendering of networks with data overlays.

Overlays: mode arrows (length proportional to the entry magnitude), node
colouring by a scalar such as globality, edge colouring by extension
(dark to bright for more stretching), and binary loaded/unloaded edge
marking.  Output is deterministic text, suitable for golden-file tests.
"""

from __future__ import annotations

import numpy as np

from .networks import Network

_MARGIN = 0.7
_SCALE = 80.0          # SVG user units per length unit

EDGE_COLOUR = "#707070"
NODE_COLOUR = "#3a6ea5"
FIXED_COLOUR = "#1d3651"
ARROW_COLOUR = "#2e8b57"
LOADED_COLOUR = "#f5c542"
UNLOADED_COLOUR = "#7a1f1f"


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _lerp_colour(lo: tuple, hi: tuple, u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    rgb = tuple(int(round(a + u * (b - a))) for a, b in zip(lo, hi))
    return "#%02x%02x%02x" % rgb


def _edge_gradient(u: float) -> str:
    # dark red to bright yellow, brighter meaning more stretched
    return _lerp_colour((0x58, 0x10, 0x10), (0xff, 0xd2, 0x4d), u)


def _transform(network: Network):
    lo = network.positions.min(axis=0) - _MARGIN
    hi = network.positions.max(axis=0) + _MARGIN
    size = (hi - lo) * _SCALE

    def to_svg(p):
        x = (p[0] - lo[0]) * _SCALE
        y = (hi[1] - p[1]) * _SCALE      # flip: SVG y grows downward
        return x, y

    return to_svg, size


def render_network(network: Network,
                   mode_vector: np.ndarray | None = None,
                   node_values: dict[int, float] | None = None,
                   edge_values: dict[tuple[int, int], float] | None = None,
                   marked_edges: set[tuple[int, int]] | None = None,
                   colour_bounds: tuple[float, float] | None = None) -> str:
    """Build the SVG document for one network with at most one overlay."""
    to_svg, size = _transform(network)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size[0])}" '
        f'height="{_fmt(size[1])}" viewBox="0 0 {_fmt(size[0])} {_fmt(size[1])}">',
        f'<rect width="{_fmt(size[0])}" height="{_fmt(size[1])}" fill="white"/>',
    ]

    if edge_values is not None:
        vals = [abs(edge_values.get((e.a, e.b), 0.0)) for e in network.edges]
        lo, hi = colour_bounds or (min(vals, default=0.0), max(vals, default=1.0))
        span = (hi - lo) or 1.0

    for e in network.edges:
        x1, y1 = to_svg(network.positions[e.a])
        x2, y2 = to_svg(network.positions[e.b])
        colour = EDGE_COLOUR
        width = 2.0
        if edge_values is not None:
            u = (abs(edge_values.get((e.a, e.b), 0.0)) - lo) / span
            colour = _edge_gradient(u)
            width = 3.0
        elif marked_edges is not None:
            loaded = (e.a, e.b) in marked_edges or (e.b, e.a) in marked_edges
            colour = LOADED_COLOUR if loaded else UNLOADED_COLOUR
            width = 3.5 if loaded else 2.0
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{colour}" stroke-width="{_fmt(width)}"/>')

    if node_values is not None:
        vals = list(node_values.values())
        lo_n, hi_n = colour_bounds or (min(vals, default=0.0),
                                       max(vals, default=1.0))
        span_n = (hi_n - lo_n) or 1.0

    for i in range(network.n_nodes):
        x, y = to_svg(network.positions[i])
        if node_values is not None and i in node_values:
            fill = _edge_gradient((node_values[i] - lo_n) / span_n)
        else:
            fill = FIXED_COLOUR if network.fixed[i] else NODE_COLOUR
        if network.fixed[i]:
            half = 5.5
            lines.append(
                f'<rect x="{_fmt(x - half)}" y="{_fmt(y - half)}" '
                f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}" '
                f'fill="{fill}"/>')
        else:
            lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" '
                         f'fill="{fill}"/>')

    if mode_vector is not None:
        v = np.asarray(mode_vector, float).reshape(-1, 2)
        maxlen = np.linalg.norm(v, axis=1).max()
        if maxlen > 0:
            arrow_scale = 0.9 * _SCALE / maxlen * 0.5
            for i in range(network.n_nodes):
                if np.linalg.norm(v[i]) < 1e-12:
                    continue
                x, y = to_svg(network.positions[i])
                dx = v[i, 0] * arrow_scale
                dy = -v[i, 1] * arrow_scale
                tip_x, tip_y = x + dx, y + dy
                lines.append(
                    f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(tip_x)}" '
                    f'y2="{_fmt(tip_y)}" stroke="{ARROW_COLOUR}" '
                    f'stroke-width="2.500"/>')
                norm = np.hypot(dx, dy)
                ux, uy = dx / norm, dy / norm
                px, py = -uy, ux
                for sx in (1.0, -1.0):
                    bx = tip_x - 6.0 * ux + sx * 3.5 * px
                    by = tip_y - 6.0 * uy + sx * 3.5 * py
                    lines.append(
                        f'<line x1="{_fmt(tip_x)}" y1="{_fmt(tip_y)}" '
                        f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                        f'stroke="{ARROW_COLOUR}" stroke-width="2.500"/>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(svg: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(svg)
