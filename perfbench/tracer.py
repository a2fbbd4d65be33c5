"""Spans around circenum's public functions, recorded from outside the program.

``install()`` wraps every public function of the six modules, the
``UniPoly``/``SymPoly`` arithmetic methods, the oracle's survey constructor
and the CLI entry point.  Modules import each other's functions by name
(``identities`` and ``cli`` hold their own references to the enumerators and
to ``verify_range``), so each wrapper is bound in every circenum namespace
that holds the wrapped object, not only where it is defined.

A span is ``[name, start, end, parent, detail]``; spans stay in memory and
are written out once the query ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from statistics import median

ENUMERATORS = ("counting.prime_enumerator", "counting.twice_prime_enumerator",
               "counting.prime_squared_enumerator")
# Undivided sums carry the largest coefficients a formula query builds.
_SIZED = ("algebra.power_sum", "algebra.paired_power_sum")
_RENAMED = {"oracle.canonical_form": "oracle.cert"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, detail=None):
        """fn with a span around each call; detail(args, result) is stored."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if detail is not None:
                span[4] = detail(args, result)
            return result

        return traced

    def install(self) -> None:
        from circenum import algebra, cli, counting, identities, numtheory, oracle
        modules = {"numtheory": numtheory, "algebra": algebra,
                   "counting": counting, "identities": identities,
                   "oracle": oracle, "cli": cli}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "circenum" or name.startswith("circenum.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = _RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                if name in ENUMERATORS:
                    detail = _enumerator_args
                elif name in _SIZED:
                    detail = _poly_size
                else:
                    detail = None
                wrapper = self.wrap(name, obj, detail)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapper)
        for cls, method, name in (
                (algebra.UniPoly, "__mul__", "algebra.unipoly_mul"),
                (algebra.UniPoly, "__pow__", "algebra.unipoly_pow"),
                (algebra.SymPoly, "__add__", "algebra.sympoly_add"),
                (algebra.SymPoly, "__sub__", "algebra.sympoly_sub"),
                (algebra.SymPoly, "__mul__", "algebra.sympoly_mul"),
                (algebra.SymPoly, "__pow__", "algebra.sympoly_pow"),
                (algebra.SymPoly, "scale", "algebra.sympoly_scale"),
                (oracle._Survey, "__init__", "oracle.survey")):
            detail = _survey_classes if name == "oracle.survey" else None
            setattr(cls, method, self.wrap(name, getattr(cls, method), detail))

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the details the
        per-layer metrics need."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        enumerator_args = set()
        cert_ms = []
        cells = classes = bits = degree = 0
        for i, (name, start, end, parent, detail) in enumerate(self.spans):
            entry = by_name[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if name in ENUMERATORS:
                enumerator_args.add((name, detail))
            elif name in ("identities.check", "identities.check_lemma"):
                # check() hands lemma keys on to check_lemma: one cell
                cells += parent < 0 or self.spans[parent][0] != "identities.check"
            elif name == "oracle.cert":
                cert_ms.append(1000.0 * (end - start))
            elif name == "oracle.survey":
                classes += detail
            elif name in _SIZED:
                bits = max(bits, detail[0])
                degree = max(degree, detail[1])
        return {"by_name": dict(by_name), "enumerator_distinct": len(enumerator_args),
                "cert_ms": cert_ms, "cells": cells, "classes": classes,
                "max_coeff_bits": bits, "max_degree": degree}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _enumerator_args(args, result):
    return repr(args)


def _poly_size(args, result):
    bits = max((abs(c).bit_length() for c in result.coeffs), default=0)
    return bits, result.degree


def _survey_classes(args, result):
    return len(args[0].classes)


def layer_metrics(summaries: list[dict], output_bytes: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced round, name -> (value, unit), from the
    summaries of its queries."""
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    cert_ms: list[float] = []
    distinct = cells = classes = bits = degree = 0
    for s in summaries:
        for name, (calls, total, self_s) in s["by_name"].items():
            entry = by_name[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        cert_ms += s["cert_ms"]
        distinct += s["enumerator_distinct"]
        cells += s["cells"]
        classes += s["classes"]
        bits = max(bits, s["max_coeff_bits"])
        degree = max(degree, s["max_degree"])

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def self_s(match):
        return sum(v[2] for k, v in by_name.items() if match(k))

    def named(name):
        return self_s(lambda k: k == name)

    def prefixed(prefix):
        return self_s(lambda k: k.startswith(prefix))

    enumerator_calls = sum(calls(n) for n in ENUMERATORS)
    certs = calls("oracle.cert")
    cert_ms.sort()
    return {
        "numtheory.is_prime.calls": (calls("numtheory.is_prime"), "count"),
        "numtheory.is_prime.self_s": (named("numtheory.is_prime"), "s"),
        "numtheory.self_s": (prefixed("numtheory."), "s"),
        "algebra.unipoly_mul.calls": (calls("algebra.unipoly_mul"), "count"),
        "algebra.unipoly_mul.self_s": (named("algebra.unipoly_mul"), "s"),
        "algebra.unipoly_pow.calls": (calls("algebra.unipoly_pow"), "count"),
        "algebra.power_sum.self_s": (named("algebra.power_sum"), "s"),
        "algebra.max_coeff_bits": (bits, "bits"),
        "algebra.max_degree": (degree, "count"),
        "algebra.sympoly_mul.calls": (calls("algebra.sympoly_mul"), "count"),
        "algebra.sympoly.self_s": (prefixed("algebra.sympoly_"), "s"),
        "counting.enumerator.calls": (enumerator_calls, "count"),
        "counting.enumerator.distinct": (distinct, "count"),
        "counting.enumerator.useful_ratio": (distinct / enumerator_calls if enumerator_calls else 0.0, "ratio"),
        "counting.self_s": (prefixed("counting."), "s"),
        "identities.cells": (cells, "count"),
        "identities.check.self_s": (named("identities.check"), "s"),
        "identities.check_lemma.self_s": (named("identities.check_lemma"), "s"),
        "oracle.surveys": (calls("oracle.survey"), "count"),
        "oracle.certs": (certs, "count"),
        "oracle.classes_per_cert": (classes / certs if certs else 0.0, "ratio"),
        "oracle.cert_s": (by_name["oracle.cert"][1] if certs else 0.0, "s"),
        "oracle.cert_ms.p50": (median(cert_ms) if cert_ms else 0.0, "ms"),
        # a tail needs at least ten samples beyond it
        "oracle.cert_ms.p99": (cert_ms[int(0.99 * len(cert_ms))] if len(cert_ms) >= 1000 else 0.0, "ms"),
        "oracle.orbit_s": (named("oracle.survey"), "s"),
        "cli.queries": (calls("cli.main"), "count"),
        "cli.self_s": (prefixed("cli."), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
