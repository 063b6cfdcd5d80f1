"""Markdown rendering/writing for table harness outputs."""
from __future__ import annotations

import os
from typing import Any

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")

# the heading of ``results/<name>.md``, whichever writer makes it
TITLES = {
    "table2": "Table 2",
    "table3": "Table 3 — GPO/LPO impact on peeling rounds (la)",
    "table4": "Table 4 — dataset statistics (synth vs paper)",
    "table5": "Table 5 — runtime (s), DG/DW/FD, 128 threads",
    "table6": "Table 6 — runtime (s), TDS/kCLiDS",
    "table7": "Table 7 — density, DG/DW/FD",
    "table8": "Table 8 — density, TDS/kCLiDS",
    "table9": "Table 9 — latency vs prevention ratio",
    "table10": "Table 10 — hardware platforms (soc)",
}


def render_markdown(rows: list[dict[str, Any]], title: str = "") -> str:
    """Render list-of-dicts as a GitHub markdown table (column order from
    the first row)."""
    if not rows:
        return f"## {title}\n\n(no rows)\n"
    cols = list(rows[0].keys())
    out = [f"## {title}", "", "| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        out.append("| " + " | ".join(_fmt(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out) + "\n"


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.2f}"
        return f"{v:.3f}"
    return str(v)


def write_table(name: str, rows: list[dict[str, Any]], title: str = "") -> str:
    """Write ``results/<name>.md`` under ``title``, by default the table's
    own (``TITLES``); returns the rendered markdown."""
    md = render_markdown(rows, title or TITLES[name])
    path = os.path.abspath(os.path.join(RESULTS_DIR, f"{name}.md"))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(md)
    return md
