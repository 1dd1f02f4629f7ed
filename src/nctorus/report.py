"""Deterministic experiment reports: one JSON schema for every command, plus
CSV flattening for sweep tables."""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field


@dataclass
class ModelReport:
    model: str
    theta: float
    inputs: dict
    energy: float | None = None
    residuals: dict = field(default_factory=dict)
    chern: float | None = None
    tolerances: dict = field(default_factory=dict)
    convergence: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Flatten the convergence rows; header from the union of row keys."""
        rows = self.convergence
        keys: list[str] = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        out = io.StringIO()
        out.write(",".join(keys) + "\n")
        for row in rows:
            out.write(",".join(_csv_cell(row.get(k)) for k in keys) + "\n")
        return out.getvalue()


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)

