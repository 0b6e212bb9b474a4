"""Check rows and deterministic report emission (JSON and Markdown).

JSON output is byte-identical across identical invocations: rows carry no
timing, ordering is stable by claim id, and the wall-clock footer is
printed separately so it can be detached.
"""

from __future__ import annotations

import json

from . import Value, set_field

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class CheckResult(Value):
    __slots__ = ("claim_id", "computed", "expected", "status", "millis", "note")

    def __init__(
        self, claim_id: str, computed: str, expected: str, status: str, millis: int = 0, note: str = ""
    ):
        if status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError("bad status %r" % (status,))
        if status != INCONCLUSIVE and ((status == PASS) != (computed == expected)):
            raise ValueError("status must be PASS exactly when computed == expected")
        set_field(self, "claim_id", claim_id)
        set_field(self, "computed", computed)
        set_field(self, "expected", expected)
        set_field(self, "status", status)
        set_field(self, "millis", millis)
        set_field(self, "note", note)


def check(claim_id: str, computed, expected, millis: int = 0, note: str = "") -> CheckResult:
    computed, expected = str(computed), str(expected)
    status = PASS if computed == expected else FAIL
    return CheckResult(claim_id, computed, expected, status, millis, note)


def informational(claim_id: str, computed, millis: int = 0, note: str = "") -> CheckResult:
    return CheckResult(claim_id, str(computed), "(informational)", INCONCLUSIVE, millis, note)


def summarize(rows) -> dict:
    return {
        "pass": sum(r.status == PASS for r in rows),
        "fail": sum(r.status == FAIL for r in rows),
        "inconclusive": sum(r.status == INCONCLUSIVE for r in rows),
    }


def emit_json(rows, tool_version: str, invocation: dict) -> str:
    ordered = sorted(rows, key=lambda r: r.claim_id)
    doc = {
        "tool_version": tool_version,
        "invocation": {k: invocation[k] for k in sorted(invocation)},
        "rows": [
            {
                "claim_id": r.claim_id,
                "computed": r.computed,
                "expected": r.expected,
                "status": r.status,
                **({"note": r.note} if r.note else {}),
            }
            for r in ordered
        ],
        "summary": summarize(rows),
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_markdown(rows, tool_version: str, invocation: dict) -> str:
    ordered = sorted(rows, key=lambda r: r.claim_id)
    inv = " ".join("%s=%s" % (k, invocation[k]) for k in sorted(invocation))
    lines = [
        "# verification report (v%s)" % tool_version,
        "",
        "invocation: `%s`" % inv,
        "",
        "| claim | computed | expected | status | ms | note |",
        "|---|---|---|---|---:|---|",
    ]
    for r in ordered:
        lines.append(
            "| %s | %s | %s | %s | %d | %s |"
            % (r.claim_id, r.computed, r.expected, r.status, r.millis, r.note)
        )
    s = summarize(rows)
    lines += [
        "",
        "summary: %d pass, %d fail, %d inconclusive"
        % (s["pass"], s["fail"], s["inconclusive"]),
        "",
    ]
    return "\n".join(lines)
