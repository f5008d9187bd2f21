"""Exit 0 if a benchmark result is correct and meets every given condition.

usage: python3 .github/check_bench.py RESULT [CONDITION ...]

RESULT holds the output of perfbench/run.py: a report line, then the
result document.  A CONDITION is KEY>=VALUE or KEY==VALUE, where KEY is a
top-level field of that document (such as ``failed``) or one of its
metrics (such as ``answered_frac``).  A traced run's result has no
``decided_frac``; there it is the share of the report's ops whose status
is ``decided``.  Quote each condition in a shell.
"""

import json
import operator
import re
import sys

OPS = {">=": operator.ge, "==": operator.eq}


def main(path: str, *conditions: str) -> int:
    with open(path, encoding="utf-8") as fh:
        report, result = map(json.loads, fh.read().splitlines()[-2:])
    if "decided_frac" not in result["metrics"]:
        ops = report["report"]["ops"]
        result["decided_frac"] = sum(op["status"] == "decided" for op in ops) / len(ops)
    ok = result["correct"]
    if not ok:
        print("result is not correct", file=sys.stderr)
    for condition in conditions:
        key, op, value = re.fullmatch(r"(\w+)(>=|==)(.+)", condition).groups()
        actual = result[key] if key in result else result["metrics"][key]["value"]
        if not OPS[op](actual, float(value)):
            print(f"{key} is {actual}, need {op} {value}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
