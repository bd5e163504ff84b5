"""Deterministic report rendering for command output.

Reports are plain dicts with a fixed key order: command, input, result,
version, exact.  Values are limited to strings, integers, booleans,
lists and nested dicts so both renderers stay trivial and stable.
"""

import json
from itertools import repeat

from . import __version__


def build_report(command, inputs, result):
    return {
        "command": command,
        "input": inputs,
        "result": result,
        "version": __version__,
        "exact": True,
    }


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    elif not isinstance(value, (list, tuple)):
        out.append(f"{prefix} = {_scalar(value)}")
    elif any(map(isinstance, value, repeat((dict, list, tuple)))):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append(f"{prefix} = [{', '.join(map(_scalar, value))}]")


def _scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def to_text(report):
    """Render as `dotted.key = value` lines in insertion order."""
    lines = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def to_json(report):
    return json.dumps(report, indent=2) + "\n"


def render_report(report, fmt):
    if fmt == "json":
        return to_json(report)
    return to_text(report)
