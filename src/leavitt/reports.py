"""Uniform reports with text and machine-readable renderings.

Every CLI command answers with one Report: a check carries a verdict, a
plain value (a normal form, a decomposition, X_g) carries none. Structured
output is a plain dict of JSON-ready values with stable field names (kind,
verdict, degree, bound, witness, certificate, ...); the text rendering is
line oriented for humans, either the report's own lines or its fields. The
verdict alone decides the exit code. Reports never contain live algebra
objects, only their rendered forms, so they are safe to serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Report"]

PASS_VERDICTS = frozenset({"PASS", "EPSILON_STRONG", "STRONG", "PRESENT"})
FAIL_VERDICTS = frozenset({"FAIL", "NOT_EPSILON_STRONG", "NOT_STRONG", "ABSENT", "DISAGREEMENT"})


@dataclass
class Report:
    kind: str
    verdict: str = None  # None for a plain value
    fields: dict = field(default_factory=dict)
    lines: list = None  # the text rendering, when not the fields

    def structured(self):
        if self.verdict is None:
            return {"kind": self.kind, **self.fields}
        return {"kind": self.kind, "verdict": self.verdict, **self.fields}

    def text(self):
        if self.lines is not None:
            return "\n".join(self.lines)
        lines = [f"{self.kind}: {self.verdict}"]
        for key, value in self.fields.items():
            lines.extend(_format_field(key, value, "  "))
        return "\n".join(lines)

    def exit_code(self):
        """0 for a plain value or a pass, 1 for a failure, 2 otherwise
        (undetermined at the bound)."""
        if self.verdict is None or self.verdict in PASS_VERDICTS:
            return 0
        if self.verdict in FAIL_VERDICTS:
            return 1
        return 2


def _format_field(key, value, indent):
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for k, v in value.items():
            lines.extend(_format_field(k, v, indent + "  "))
        return lines
    if isinstance(value, (list, tuple)):
        if not value:
            return [f"{indent}{key}: []"]
        lines = [f"{indent}{key}:"]
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{indent}  -")
                for k, v in item.items():
                    lines.extend(_format_field(k, v, indent + "    "))
            elif isinstance(item, (list, tuple)):
                lines.append(f"{indent}  - {', '.join(str(x) for x in item)}")
            else:
                lines.append(f"{indent}  - {item}")
        return lines
    return [f"{indent}{key}: {value}"]
