"""Schema-versioned, consolidated fingerprint baselines.

The accepted findings of every analysis family live in **one**
schema-versioned document keyed by tool::

    {
      "version": 2,
      "tools": {
        "specflow":  {"fingerprints": ["..."]},
        "specperf":  {"fingerprints": ["..."]},
        "spectaint": {"fingerprints": ["..."]}
      }
    }

:func:`baseline_for` is the read path and :func:`set_baseline` the
write path every ``--baseline``/``--write-baseline`` flag goes
through.  Fingerprints are :func:`repro.analysis.sarif.fingerprint`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.reporting import stable_json

#: Canonical location of the consolidated baseline document.
DEFAULT_BASELINES = Path(".speclint/baselines.json")

#: Current schema version of the consolidated document.
SCHEMA_VERSION = 2


def load_baselines(path: str | Path) -> dict[str, frozenset[str]]:
    """``tool -> accepted fingerprints`` from a consolidated v2 file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"baseline file {path} has version {version!r}, expected "
            f"{SCHEMA_VERSION}; the per-tool version-1 format is no longer "
            "read — delete the file and rewrite it with `--write-baseline`"
        )
    tools = payload.get("tools", {})
    if not isinstance(tools, dict):  # pragma: no cover - defensive
        raise ValueError(f"malformed baseline file {path}")
    return {
        tool: frozenset(str(fp) for fp in entry.get("fingerprints", []))
        for tool, entry in tools.items()
    }


def save_baselines(
    accepted: dict[str, frozenset[str]], path: str | Path
) -> None:
    """Write the consolidated v2 document (deterministic bytes)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": SCHEMA_VERSION,
        "tools": {
            tool: {"fingerprints": sorted(prints)}
            for tool, prints in sorted(accepted.items())
        },
    }
    target.write_text(stable_json(payload), encoding="utf-8")


def baseline_for(
    tool: str, path: str | Path | None = None
) -> frozenset[str]:
    """The accepted fingerprint set of one tool (empty when the file
    does not exist or has no entry for ``tool``)."""
    target = Path(path) if path is not None else DEFAULT_BASELINES
    if not target.exists():
        return frozenset()
    return load_baselines(target).get(tool, frozenset())


def set_baseline(
    tool: str, fingerprints: frozenset[str], path: str | Path | None = None
) -> None:
    """Replace one tool's accepted set in the consolidated file."""
    target = Path(path) if path is not None else DEFAULT_BASELINES
    accepted = load_baselines(target) if target.exists() else {}
    accepted[tool] = fingerprints
    save_baselines(accepted, target)
