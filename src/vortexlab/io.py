"""Report writers: CSV with 17 significant digits (lossless doubles) and JSON."""

import json

import numpy as np


def format_float(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header, rows, footer_lines=()):
    """rows: iterables of values; floats are written with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            ]
            fh.write(",".join(cells) + "\n")
        for line in footer_lines:
            fh.write(line + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
