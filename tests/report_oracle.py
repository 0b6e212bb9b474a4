"""The JSON report as `json.dumps(doc, indent=2)` writes it.  `igq.report`
writes the same bytes in that layout directly; this is its oracle."""

import json

from igq.report import summarize


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
