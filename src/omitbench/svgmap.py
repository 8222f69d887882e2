"""Self-contained SVG rendering for sweep maps and line traces.

No plotting dependency: the heatmap raster is an RGB PNG built with zlib and
struct, embedded base64 in the SVG; line cuts are polylines.  The colormap
is a fixed perceptually uniform ramp (viridis anchor points, linearly
interpolated).  Output is deterministic for identical input.
"""

from __future__ import annotations

import base64
import struct
import zlib

import numpy as np

from .model import TWO_PI
from .sweeps import SweepMap, SweepTrace

__all__ = ["render_heatmap", "render_line"]

# Anchor stops of the fixed colormap (fraction, R, G, B).
_COLOR_STOPS = np.array([
    [0.000, 68, 1, 84],
    [0.125, 71, 44, 122],
    [0.250, 59, 81, 139],
    [0.375, 44, 113, 142],
    [0.500, 33, 144, 141],
    [0.625, 39, 173, 129],
    [0.750, 92, 200, 99],
    [0.875, 170, 220, 50],
    [1.000, 253, 231, 37],
])


def _colormap(frac: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to uint8 RGB via the anchor table."""
    frac = np.clip(frac, 0.0, 1.0)
    stops = _COLOR_STOPS[:, 0]
    rgb = np.empty(frac.shape + (3,), dtype=np.uint8)
    for c in range(3):
        rgb[..., c] = np.rint(np.interp(frac, stops, _COLOR_STOPS[:, c + 1]))
    return rgb


def _encode_png(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG byte string."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 array")
    height, width = rgb.shape[:2]

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    # Each scanline is prefixed with filter type 0 (None).
    raw = b"".join(b"\x00" + rgb[y].tobytes() for y in range(height))
    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 9))
            + chunk(b"IEND", b""))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _axis_svg(x0, y0, w, h, xlo, xhi, ylo, yhi, xlabel, ylabel):
    parts = [f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" '
             f'fill="none" stroke="#333" stroke-width="1"/>']
    for t in np.linspace(xlo, xhi, 5):
        px = x0 + (t - xlo) / (xhi - xlo) * w
        parts.append(f'<line x1="{px:.1f}" y1="{y0 + h}" x2="{px:.1f}" '
                     f'y2="{y0 + h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + h + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#333">{_fmt(t)}</text>')
    for t in np.linspace(ylo, yhi, 5):
        py = y0 + h - (t - ylo) / (yhi - ylo) * h
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="11" '
                     f'text-anchor="end" fill="#333">{_fmt(t)}</text>')
    parts.append(f'<text x="{x0 + w / 2}" y="{y0 + h + 36}" font-size="13" '
                 f'text-anchor="middle" fill="#111">{xlabel}</text>')
    parts.append(f'<text x="{x0 - 72}" y="{y0 + h / 2}" font-size="13" '
                 f'text-anchor="middle" fill="#111" '
                 f'transform="rotate(-90 {x0 - 72} {y0 + h / 2})">{ylabel}</text>')
    return parts


def _to_db(mag: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(mag, 1e-12))


def render_heatmap(smap: SweepMap, db: bool = False) -> str:
    """Render a sweep map as a standalone SVG heatmap (string).

    Axes are in Hz (detuning vertical, probe offset horizontal); the raster
    is one PNG pixel per matrix cell.  ``db`` switches the color scale to
    20*log10 of the magnitude for display only.  The title names the
    scheme and the photon number recorded in the map metadata.
    """
    values = _to_db(smap.s21_mag) if db else smap.s21_mag.copy()
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin if vmax > vmin else 1.0
    frac = (values - vmin) / span
    # Row 0 holds the lowest detuning; PNG rows run top to bottom.
    png = _encode_png(_colormap(frac[::-1]))
    uri = "data:image/png;base64," + base64.b64encode(png).decode("ascii")

    x0, y0, w, h = 100, 40, 520, 420
    xlo, xhi = smap.omega[0] / TWO_PI, smap.omega[-1] / TWO_PI
    ylo, yhi = smap.delta[0] / TWO_PI, smap.delta[-1] / TWO_PI
    width, height = x0 + w + 120, y0 + h + 60

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
             f'<image x="{x0}" y="{y0}" width="{w}" height="{h}" '
             f'preserveAspectRatio="none" style="image-rendering:pixelated" '
             f'href="{uri}"/>']
    parts += _axis_svg(x0, y0, w, h, xlo, xhi, ylo, yhi,
                       "probe offset (Hz)", "pump detuning (Hz)")
    bits = []
    if "scheme" in smap.meta:
        bits.append(str(smap.meta["scheme"]))
    if "n_cav" in smap.meta:
        bits.append(f'n_cav={_fmt(float(smap.meta["n_cav"]))}')
    title = " ".join(bits)
    if title:
        parts.append(f'<text x="{x0 + w / 2}" y="24" font-size="15" '
                     f'text-anchor="middle" fill="#111">{title}</text>')
    # Colorbar: stacked sample rects plus end labels.
    cb_x, cb_n = x0 + w + 30, 48
    seg = h / cb_n
    for i in range(cb_n):
        f = 1.0 - i / (cb_n - 1)
        r, g, b = _colormap(np.array(f)).tolist()
        parts.append(f'<rect x="{cb_x}" y="{y0 + i * seg:.2f}" width="16" '
                     f'height="{seg + 0.5:.2f}" fill="rgb({r},{g},{b})"/>')
    unit = "dB" if db else "|S21|"
    parts.append(f'<text x="{cb_x + 22}" y="{y0 + 10}" font-size="11" '
                 f'fill="#333">{_fmt(vmax)}</text>')
    parts.append(f'<text x="{cb_x + 22}" y="{y0 + h}" font-size="11" '
                 f'fill="#333">{_fmt(vmin)}</text>')
    parts.append(f'<text x="{cb_x + 8}" y="{y0 - 8}" font-size="11" '
                 f'fill="#333">{unit}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_line(trace: SweepTrace, db: bool = False) -> str:
    """Render a trace magnitude as a standalone SVG line plot (string),
    titled with the scheme recorded in the trace metadata."""
    mag = trace.magnitude()
    y = _to_db(mag) if db else mag
    x_hz = trace.omega / TWO_PI

    x0, y0, w, h = 90, 40, 560, 360
    xlo, xhi = float(x_hz[0]), float(x_hz[-1])
    ylo, yhi = float(y.min()), float(y.max())
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    width, height = x0 + w + 40, y0 + h + 60

    px = x0 + (x_hz - xlo) / (xhi - xlo) * w
    py = y0 + h - (y - ylo) / (yhi - ylo) * h
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))

    ylabel = "|S21| (dB)" if db else "|S21|"
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    parts += _axis_svg(x0, y0, w, h, xlo, xhi, ylo, yhi, "probe offset (Hz)", ylabel)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.2"/>')
    title = str(trace.meta.get("scheme", ""))
    if title:
        parts.append(f'<text x="{x0 + w / 2}" y="24" font-size="15" '
                     f'text-anchor="middle" fill="#111">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
