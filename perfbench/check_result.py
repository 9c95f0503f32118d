#!/usr/bin/env python3
"""Result checker of the repo benchmark.

`check(spec, result, trace)` validates one raw `perfbench` result against
the metric declarations of BENCHMARK.json and returns a list of problems
(empty when the result is acceptable):

* every declared metric name matches ``[A-Za-z0-9_.-]+`` and carries a
  unit and a direction (``better`` is ``higher`` or ``lower``);
* the result reports exactly the declared metrics of its mode
  (``end_to_end`` untraced, ``per_layer`` traced) -- a missing or an
  undeclared metric fails;
* every value is a finite number and every unit matches its declaration;
* the run's provenance is complete (seed, hardware concurrency, thread
  and worker counts, build type, compiler, commit), so a result cannot
  hide the machine it was measured on.

Run ``python3 perfbench/check_result.py --self-test`` to exercise the
checker on embedded passing and failing cases.
"""

import copy
import math
import re
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
PROVENANCE_KEYS = ("seed", "hardware_concurrency", "search_threads",
                   "isolate_workers", "build_type", "compiler", "commit")


def declared(spec, trace):
    """The metric declarations a run in this mode must report."""
    return spec.get("per_layer" if trace else "end_to_end", [])


def check_spec(spec):
    problems = []
    for section in ("end_to_end", "per_layer"):
        names = set()
        for m in spec.get(section, []):
            name = m.get("name")
            if not isinstance(name, str) or not NAME_RE.match(name):
                problems.append(f"{section}: bad metric name {name!r}")
                continue
            if name in names:
                problems.append(f"{section}: duplicate metric {name}")
            names.add(name)
            if not m.get("unit"):
                problems.append(f"{section}: {name} has no unit")
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"{section}: {name} has no direction")
    return problems


def check(spec, result, trace):
    problems = check_spec(spec)
    prov = result.get("provenance")
    if not isinstance(prov, dict):
        problems.append("no provenance")
    else:
        for key in PROVENANCE_KEYS:
            if prov.get(key) in (None, ""):
                problems.append(f"provenance lacks {key}")
        hc = prov.get("hardware_concurrency")
        if isinstance(hc, int) and hc < 1:
            problems.append("provenance: hardware_concurrency < 1")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["no metrics"]
    want = {m["name"]: m for m in declared(spec, trace) if "name" in m}
    for name, decl in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"missing metric {name}")
            continue
        value = got.get("value") if isinstance(got, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not finite")
        if got.get("unit") != decl.get("unit"):
            problems.append(f"{name}: unit {got.get('unit')!r} is not "
                            f"{decl.get('unit')!r}")
    for name in metrics:
        if name not in want:
            problems.append(f"undeclared metric {name}")
    return problems


def _self_test():
    spec = {
        "end_to_end": [
            {"name": "tune_s_p50", "unit": "s", "better": "lower",
             "bound": 0.1},
            {"name": "ok_frac", "unit": "fraction", "better": "higher",
             "bound": 0.05},
        ],
        "per_layer": [
            {"name": "vm.compile_us", "unit": "us", "better": "lower"},
        ],
    }
    good = {
        "provenance": {"seed": 3, "hardware_concurrency": 4,
                       "search_threads": 4, "isolate_workers": 0,
                       "build_type": "RelWithDebInfo", "compiler": "GNU 12",
                       "commit": "abc"},
        "attempted": 100, "failed": 0,
        "metrics": {"tune_s_p50": {"value": 0.12, "unit": "s"},
                    "ok_frac": {"value": 1, "unit": "fraction"}},
    }
    traced = copy.deepcopy(good)
    traced["metrics"] = {"vm.compile_us": {"value": 52.0, "unit": "us"}}

    def mutate(fn, base=good, s=spec):
        r, sp = copy.deepcopy(base), copy.deepcopy(s)
        fn(r, sp)
        return r, sp

    cases = [
        ("valid untraced result", good, spec, False, True),
        ("valid traced result", traced, spec, True, True),
        ("untraced metrics in a traced run", good, spec, True, False),
    ]
    bad = [
        ("missing metric",
         lambda r, s: r["metrics"].pop("ok_frac")),
        ("undeclared metric",
         lambda r, s: r["metrics"].update(x={"value": 1, "unit": "s"})),
        ("NaN value",
         lambda r, s: r["metrics"]["tune_s_p50"].update(value=float("nan"))),
        ("infinite value",
         lambda r, s: r["metrics"]["tune_s_p50"].update(value=math.inf)),
        ("null value",
         lambda r, s: r["metrics"]["tune_s_p50"].update(value=None)),
        ("boolean value",
         lambda r, s: r["metrics"]["ok_frac"].update(value=True)),
        ("wrong unit",
         lambda r, s: r["metrics"]["tune_s_p50"].update(unit="ms")),
        ("bad metric name",
         lambda r, s: s["end_to_end"][0].update(name="tune s/p50")),
        ("metric without unit",
         lambda r, s: s["end_to_end"][0].pop("unit")),
        ("metric without direction",
         lambda r, s: s["end_to_end"][1].pop("better")),
        ("unknown direction",
         lambda r, s: s["end_to_end"][1].update(better="up")),
        ("duplicate metric",
         lambda r, s: s["end_to_end"].append(dict(s["end_to_end"][0]))),
        ("no provenance", lambda r, s: r.pop("provenance")),
        ("provenance without commit",
         lambda r, s: r["provenance"].pop("commit")),
        ("provenance without hardware_concurrency",
         lambda r, s: r["provenance"].pop("hardware_concurrency")),
        ("zero hardware_concurrency",
         lambda r, s: r["provenance"].update(hardware_concurrency=0)),
        ("nothing attempted", lambda r, s: r.update(attempted=0)),
        ("fractional failed count", lambda r, s: r.update(failed=0.5)),
    ]
    for label, fn in bad:
        r, s = mutate(fn)
        cases.append((label, r, s, False, False))

    failures = 0
    for label, result, s, trace, should_pass in cases:
        problems = check(s, result, trace)
        if (not problems) != should_pass:
            failures += 1
            print(f"FAIL {label}: expected "
                  f"{'pass' if should_pass else 'failure'}, got {problems}")
    print(f"check_result self-test: {len(cases) - failures}/{len(cases)} "
          "cases ok")
    return 1 if failures else 0


def main(argv):
    if argv[1:] != ["--self-test"]:
        print("usage: check_result.py --self-test (run.py imports check())",
              file=sys.stderr)
        return 2
    return _self_test()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
