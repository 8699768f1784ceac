"""Fixed-width table rendering in the paper's style."""

from __future__ import annotations


def format_table(headers, rows, *, title=None):
    """Render a list-of-lists as a fixed-width text table.

    Numbers are pre-formatted by the caller; this function only aligns.
    """
    cells = [[str(h) for h in headers]] + \
        [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _numeric(text):
    return bool(text) and text.replace(",", "").replace(".", "") \
        .replace("-", "").replace("x", "").replace("%", "").isdigit()


def ratio_note(measured, reference):
    """'measured (paper: reference, ×ratio)' comparison strings."""
    if reference in (None, 0):
        return f"{measured:,.1f}"
    return (f"{measured:,.1f} (paper {reference:,.1f}, "
            f"×{measured / reference:.2f})")
