"""Output emission: CSV tables, JSON summaries, SVG plots, run manifests.

There is one writer per format.  ``write_csv`` writes a table from its
columns, RFC-4180 style with a header row, '.' decimal separator and LF line
endings: floats as ``repr``, ints as ``str``, bools as ``true``/``false``.
``write_json`` writes UTF-8 with a stable key order, atomically (a temporary
file, then a rename); the run manifest goes through it.  SVG plots are
generated directly as line paths and histogram rectangles; CSV remains the
canonical output, the plots are conveniences.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "to_jsonable",
    "write_json",
    "write_csv",
    "RunManifest",
    "line_plot_svg",
    "histogram_svg",
]

ARTIFACT_VERSION = "0.1.0"


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and report objects for json."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if hasattr(obj, "as_dict"):
        return to_jsonable(obj.as_dict())
    return obj


def write_json(path, obj):
    """``obj`` as sorted, indented JSON, written to a temporary file and renamed onto ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


_CHUNK_ROWS = 2048
_BOOL = {True: "true", False: "false"}
_KIND_FORMAT = {"b": _BOOL.__getitem__, "i": str, "f": repr}


def _format_column(col) -> list:
    """Each value's cell, with the format picked once from the dtype."""
    values = np.asarray(col)
    return list(map(_KIND_FORMAT[values.dtype.kind], values.tolist()))


def write_csv(path, header, columns):
    """A header row, then the rows of ``columns``: one column of numbers or
    bools per header entry.

    Rows are formatted and written in chunks of ``_CHUNK_ROWS``, each column
    of a chunk at once; no chunk's strings outlive its write.
    """
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, n, _CHUNK_ROWS):
            writer.writerows(zip(*(_format_column(col[lo : lo + _CHUNK_ROWS]) for col in columns)))


@dataclass
class RunManifest:
    """Provenance record for one CLI run; written at run end."""

    command: str
    config_hash: str
    master_seed: int
    threads: int
    outputs: list = field(default_factory=list)
    started_at: float = field(default_factory=time.time)
    version: str = ARTIFACT_VERSION

    def add_output(self, path):
        self.outputs.append(os.path.basename(str(path)))

    def write(self, out_dir):
        payload = {
            "command": self.command,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "threads": self.threads,
            "artifact_version": self.version,
            "outputs": sorted(self.outputs),
            "wall_time_seconds": time.time() - self.started_at,
        }
        os.makedirs(out_dir, exist_ok=True)  # a run that failed early made no directory yet
        write_json(os.path.join(out_dir, "manifest.json"), payload)


# ---------------------------------------------------------------------------
# Minimal hand-rolled SVG plots (line series and histograms).

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_N_BINS = 40


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _scale(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim, logx=False):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]
        self.logx = logx
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if logx:
            self.x0, self.x1 = np.log10(self.x0), np.log10(self.x1)
        self._axes(xlabel, ylabel)

    def px(self, x):
        if self.logx:
            x = np.log10(x)
        frac = (x - self.x0) / (self.x1 - self.x0)
        return _ML + frac * (_W - _ML - _MR)

    def py(self, y):
        frac = (y - self.y0) / (self.y1 - self.y0)
        return _H - _MB - frac * (_H - _MT - _MB)

    def _axes(self, xlabel, ylabel):
        self.parts.append(
            f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
            f'height="{_H - _MT - _MB}" fill="none" stroke="#888"/>'
        )
        for xv in _ticks(self.x0, self.x1):
            raw = 10**xv if self.logx else xv
            px = _ML + (xv - self.x0) / (self.x1 - self.x0) * (_W - _ML - _MR)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" '
                f'y2="{_H - _MB + 4}" stroke="#444"/>'
            )
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{_H - _MB + 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{_fmt(raw)}</text>'
            )
        for yv in _ticks(self.y0, self.y1):
            py = self.py(yv)
            self.parts.append(
                f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" '
                f'y2="{_fmt(py)}" stroke="#444"/>'
            )
            self.parts.append(
                f'<text x="{_ML - 6}" y="{_fmt(py + 3)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{_fmt(yv)}</text>'
            )
        self.parts.append(
            f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
        self.parts.append(
            f'<text x="14" y="{_H / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {_H / 2})">{ylabel}</text>'
        )

    def polyline(self, xs, ys, color, width=1.5, dash=None):
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{extra}/>'
        )

    def band(self, x_lo, x_hi, y_lo, y_hi, color, opacity=0.15):
        x0, x1 = self.px(x_lo), self.px(x_hi)
        y0, y1 = self.py(y_hi), self.py(y_lo)
        self.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="{color}" opacity="{opacity}"/>'
        )

    def rect(self, x_lo, x_hi, y_val, color):
        x0, x1 = self.px(x_lo), self.px(x_hi)
        y0 = self.py(y_val)
        ybase = self.py(0.0)
        self.parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(ybase - y0)}" fill="{color}" opacity="0.7"/>'
        )

    def legend(self, entries):
        y = _MT + 14
        for label, color in entries:
            self.parts.append(
                f'<line x1="{_ML + 10}" y1="{y - 4}" x2="{_ML + 34}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{_ML + 40}" y="{y}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
            y += 16

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts))
            fh.write("\n")


def line_plot_svg(
    path,
    series,
    title="",
    xlabel="t",
    ylabel="value",
    hline=None,
    hband=None,
    logx=False,
):
    """series: list of (label, xs, ys).  hline/hband draw a reference level."""
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    ref_vals = []
    if hline is not None:
        ref_vals.append(hline)
    if hband is not None:
        ref_vals.extend(hband)
    y_all = np.concatenate([all_y, np.asarray(ref_vals)]) if ref_vals else all_y
    xlim = (float(np.min(all_x)), float(np.max(all_x)))
    if not logx:
        xlim = _scale(*xlim)
    ylim = _scale(float(np.min(y_all)), float(np.max(y_all)))
    canvas = _Canvas(title, xlabel, ylabel, xlim, ylim, logx=logx)
    if hband is not None:
        canvas.band(
            10 ** canvas.x0 if logx else canvas.x0,
            10 ** canvas.x1 if logx else canvas.x1,
            hband[0],
            hband[1],
            "#d62728",
        )
    if hline is not None:
        canvas.polyline(
            [10 ** canvas.x0 if logx else canvas.x0, 10 ** canvas.x1 if logx else canvas.x1],
            [hline, hline],
            "#d62728",
            width=1.0,
            dash="4,3",
        )
    entries = []
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        canvas.polyline(xs, ys, color)
        entries.append((label, color))
    if len(entries) > 1:
        canvas.legend(entries[:6])
    canvas.save(path)


def histogram_svg(path, samples, title="", xlabel="value", overlay_pdf=None):
    """Histogram of samples (density scale, _N_BINS bins) with an optional pdf overlay."""
    samples = np.asarray(samples, dtype=float)
    counts, edges = np.histogram(samples, bins=_N_BINS, density=True)
    y_max = float(np.max(counts)) if counts.size else 1.0
    xs_pdf = np.linspace(edges[0], edges[-1], 200)
    if overlay_pdf is not None:
        ys_pdf = np.asarray([overlay_pdf(x) for x in xs_pdf])
        y_max = max(y_max, float(np.max(ys_pdf)))
    canvas = _Canvas(
        title, xlabel, "density", _scale(float(edges[0]), float(edges[-1])),
        (0.0, y_max * 1.08),
    )
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        canvas.rect(lo, hi, float(c), "#1f77b4")
    if overlay_pdf is not None:
        canvas.polyline(xs_pdf, ys_pdf, "#d62728", width=1.8)
    canvas.save(path)
