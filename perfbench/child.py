"""One cold benchmark child: import ``igq.cli``, run the argv lists it is sent.

Usage (by run.py only): ``python3 perfbench/child.py SRC_DIR`` with a JSON
request on stdin::

    {"argvs": [[...], ...], "trace": null | {"run_id": ..., "spans_path": ...}}

The first thing the child does is import ``igq.cli``, so the monotonic
time it reports for that (``import_done``) minus the parent's spawn time is
the program's set-up time.  Each invocation's stdout is captured and hashed;
its stderr (the wall-clock footer) is discarded.  The reply is one JSON
object on the real stdout.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import igq.cli  # noqa: E402

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def run_one(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"argv": argv, "rc": None, "sha256": None, "fail_rows": None, "error": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["rc"] = igq.cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - each failure is counted
        result["error"] = "%s: %s" % (type(exc).__name__, str(exc)[:200])
    text = out.getvalue()
    result["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    try:
        rows = json.loads(text)["rows"]
        result["fail_rows"] = sum(r["status"] == "FAIL" for r in rows)
    except (ValueError, KeyError, TypeError) as exc:
        result["error"] = result["error"] or "unparsable output: %s" % exc
    return result


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        from tracer import Tracer  # found beside this script

        tracer = Tracer(request["trace"]["run_id"])
        tracer.install()
    results = [run_one(argv) for argv in request["argvs"]]
    reply = {"import_done": IMPORT_DONE, "results": results}
    if tracer is not None:
        tracer.write_spans(request["trace"]["spans_path"])
        reply["layers"] = tracer.layer_stats()
        reply["missing"] = tracer.missing
        reply["spans"] = len(tracer.spans)
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
