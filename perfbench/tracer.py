"""Traced runs: per-layer spans and counts, recorded from the benchmark's side.

``Tracer.install`` rebinds public names of the ``abelpell`` modules (for
example ``geometry.branch_polynomial`` or ``UniPoly.__mul__``) to wrappers and
``uninstall`` puts the originals back; the package source is never edited.  A
span is (name, start, end, parent) kept in memory; a layer's self time is its
spans' duration minus the time covered by their child spans.  ``perms`` is too
fine-grained to wrap and is covered by the ``components`` spans.
"""
from __future__ import annotations

import math
import random
import statistics
import sys
import time
from collections import Counter

from abelpell import cli, components, geometry, pell, strata, unipoly
from abelpell.unipoly import UniPoly

#: (module, attribute, span name).  Names bound by ``from x import y`` are
#: wrapped in every module that looks them up.
SPANS = (
    (UniPoly, "__mul__", "unipoly.mul"),
    (UniPoly, "__rmul__", "unipoly.mul"),
    (UniPoly, "__divmod__", "unipoly.divmod"),
    (unipoly, "resultant", "unipoly.resultant"),
    (geometry, "resultant", "unipoly.resultant"),
    (unipoly, "squarefree_decomposition", "unipoly.squarefree"),
    (geometry, "squarefree_decomposition", "unipoly.squarefree"),
    (unipoly, "is_squarefree", "unipoly.squarefree"),
    (pell, "is_squarefree", "unipoly.squarefree"),
    (pell, "pell_solve", "pell.solve"),
    (pell, "pell_verify", "pell.verify"),
    (geometry, "branch_polynomial", "geometry.branch_poly"),
    (geometry, "ramspec_of", "geometry.ramspec"),
    (geometry, "hurwitz_report", "geometry.hurwitz"),
    (geometry, "factor_rational", "factorization"),
    (geometry, "multiplicity_partition", "extfield.partition"),
    (strata, "tangent_rank", "strata.tangent_rank"),
    (strata, "weighted_sigma", "strata.sigma"),
    (strata, "nilpotence_identity_check", "strata.sigma"),
    (components, "enumerate_m_with_cycle", "components.enum"),
    (components, "component_count", "components.orbit"),
    (cli, "parse_poly", "cli.parse"),
)

#: Span names of the CLI handlers, the functions ``cli._cmd_*``.
CLI_HANDLER = "cli.handler"


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.first: dict[str, float] = {}
        self.tag = ""
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if name not in self.first:
                    self.first[name] = record[2] - record[1]

        return wrapper

    def _factor(self, fn):
        """factor_rational imports sympy lazily; the import becomes its own span."""
        importer = self._span("sympy.import", lambda: __import__("sympy"))

        def wrapper(p):
            if "sympy" not in sys.modules:
                importer()
            return fn(p)

        return self._span("factorization", wrapper)

    def _cf_step(self, cls):
        counts = self.counts

        def wrapper(*args, **kwargs):
            step = cls(*args, **kwargs)
            counts[f"cf_steps.{self.tag}"] += 1
            bits = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length())
                 for c in step.p.coeffs + step.q.coeffs),
                default=0,
            )
            if bits > counts["cf_max_bits"]:
                counts["cf_max_bits"] = bits
            return step

        return wrapper

    def _solve(self, fn):
        counts = self.counts

        def wrapper(r, n_max):
            out = fn(r, n_max)
            counts["solves"] += 1
            counts["solve_hits"] += out is not None
            return out

        return wrapper

    def _branch(self, fn):
        def wrapper(t):
            if any(self.spans[i][0] == "geometry.hurwitz" for i in self.stack):
                self.counts["branch_poly_in_hurwitz"] += 1
            return fn(t)

        return wrapper

    def _enum(self, fn):
        counts = self.counts

        def wrapper(g, n, base_cycle):
            keys = fn(g, n, base_cycle)
            counts["enum_keys"] += len(keys)
            counts["enum_candidates"] += components.count_involutions(n) * math.comb(n, 2) ** g
            return keys

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every hooked name; names a later version dropped are skipped."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        special = {
            "factorization": self._factor,
            "pell.solve": lambda fn: self._span("pell.solve", self._solve(fn)),
            "geometry.branch_poly": lambda fn: self._span("geometry.branch_poly", self._branch(fn)),
            "components.enum": lambda fn: self._span("components.enum", self._enum(fn)),
        }
        for owner, attr, name in SPANS:
            if attr not in owner.__dict__:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrap = special.get(name) or (lambda fn, name=name: self._span(name, fn))
            self._set(owner, attr, wrap(owner.__dict__[attr]))
        for owner, attr, key, make in (
            (pell, "CFStep", None, self._cf_step),
            (components, "apply_move", "moves_applied", None),
            (components, "canonical_key", "canonical_key_calls", None),
        ):
            if attr not in owner.__dict__:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            fn = owner.__dict__[attr]
            self._set(owner, attr, make(fn) if make else self._count(key, fn))
        for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
            self._set(cli, attr, self._span(CLI_HANDLER, getattr(cli, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        """Drop spans and counts; first-call durations are kept."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- results ------------------------------------------------------------------

    def stats(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return out

    def export(self) -> dict:
        return {"stats": self.stats(), "counts": dict(self.counts), "first": dict(self.first),
                "missing": list(self.missing)}


def write_spans(path, groups: list[list]) -> None:
    """Spans of one or more processes as tab-separated lines; times are
    seconds from each process's first span."""
    with open(path, "w") as handle:
        handle.write("process\tindex\tname\tstart_s\tend_s\tparent\n")
        for process, spans in enumerate(groups):
            origin = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                handle.write(f"{process}\t{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")


def merge(exports: list[dict]) -> dict:
    """Sum the exports of several processes; first-call times become lists."""
    stats: dict[str, list[float]] = {}
    counts: Counter = Counter()
    first: dict[str, list[float]] = {}
    for ex in exports:
        for name, (calls, total, own) in ex["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key, value in ex["counts"].items():
            counts[key] = max(counts[key], value) if key == "cf_max_bits" else counts[key] + value
        for name, value in ex["first"].items():
            first.setdefault(name, []).append(value)
        if "import_s" in ex:
            first.setdefault("import_s", []).append(ex["import_s"])
    return {"stats": stats, "counts": dict(counts), "first": first}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(data: dict, busy_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from merged trace data; ``busy_s`` is the traced
    pass's total operation time."""
    stats, counts, first = data["stats"], data["counts"], data["first"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def first_call(name):
        values = first.get(name, [])
        return statistics.median(values) if values else 0.0

    out = {}
    for short in ("mul", "divmod", "resultant"):
        out[f"unipoly.{short}_calls"] = (calls(f"unipoly.{short}"), "count")
        out[f"unipoly.{short}_self_s"] = (own(f"unipoly.{short}"), "s")
    out["unipoly.squarefree_self_s"] = (own("unipoly.squarefree"), "s")
    out["pell.solves"] = (counts.get("solves", 0), "count")
    out["pell.hit_ratio"] = (_ratio(counts.get("solve_hits", 0), counts.get("solves", 0)), "ratio")
    out["pell.cf_steps.hit"] = (counts.get("cf_steps.hit", 0), "count")
    out["pell.cf_steps.miss"] = (counts.get("cf_steps.miss", 0), "count")
    out["pell.cf_max_bits"] = (counts.get("cf_max_bits", 0), "bits")
    out["pell.solve_self_s"] = (own("pell.solve"), "s")
    out["pell.verify_self_s"] = (own("pell.verify"), "s")
    out["geometry.branch_poly_calls"] = (calls("geometry.branch_poly"), "count")
    out["geometry.branch_poly_self_s"] = (own("geometry.branch_poly"), "s")
    out["geometry.branch_poly_per_triple"] = (
        _ratio(counts.get("branch_poly_in_hurwitz", 0), calls("geometry.hurwitz")), "ratio")
    out["geometry.ramspec_self_s"] = (own("geometry.ramspec"), "s")
    out["geometry.hurwitz_self_s"] = (own("geometry.hurwitz"), "s")
    out["factorization.calls"] = (calls("factorization"), "count")
    out["factorization.self_s"] = (own("factorization"), "s")
    out["factorization.first_call_s"] = (first_call("factorization"), "s")
    out["extfield.partition_calls"] = (calls("extfield.partition"), "count")
    out["extfield.partition_self_s"] = (own("extfield.partition"), "s")
    out["strata.tangent_rank_self_s"] = (own("strata.tangent_rank"), "s")
    out["strata.sigma_self_s"] = (own("strata.sigma"), "s")
    out["components.enum_calls"] = (calls("components.enum"), "count")
    out["components.enum_self_s"] = (own("components.enum"), "s")
    out["components.orbit_self_s"] = (own("components.orbit"), "s")
    out["components.keys"] = (counts.get("enum_keys", 0), "count")
    out["components.kept_ratio"] = (
        _ratio(counts.get("enum_keys", 0), counts.get("enum_candidates", 0)), "ratio")
    out["components.moves_applied"] = (counts.get("moves_applied", 0), "count")
    out["components.canonical_key_calls"] = (counts.get("canonical_key_calls", 0), "count")
    out["cli.import_s"] = (first_call("import_s"), "s")
    out["cli.parse_self_s"] = (own("cli.parse"), "s")
    out["cli.handler_self_s"] = (own(CLI_HANDLER), "s")
    out["cli.sympy_import_share"] = (_ratio(stats.get("sympy.import", [0, 0.0])[1], busy_s), "ratio")
    return out


# -- kernel probes ---------------------------------------------------------------------

PROBE_DEGREE = 8


def _operand(rng: random.Random, bits: int, degree: int = PROBE_DEGREE) -> UniPoly:
    """Degree-``degree`` polynomial with integer coefficients of exactly ``bits`` bits."""
    def coeff():
        value = rng.getrandbits(bits) | (1 << (bits - 1))
        return -value if rng.random() < 0.5 else value

    return UniPoly([coeff() for _ in range(degree + 1)])


def _median_us(fn) -> float:
    """Median of at least 3 and at most 15 calls, stopping after 0.2 s."""
    times: list[float] = []
    while len(times) < 3 or (len(times) < 15 and sum(times) < 0.2):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def kernel_probes(seed: int) -> dict[str, tuple[float, str]]:
    """UniPoly kernels on seeded degree-8 operands at fixed coefficient bit heights."""
    rng = random.Random(f"probes:{seed}")
    out = {}
    for bits in (64, 1024, 4096):
        a, b = _operand(rng, bits), _operand(rng, bits)
        out[f"unipoly.mul_us.b{bits}"] = (_median_us(lambda: a * b), "us")
    a, b, c = _operand(rng, 1024), _operand(rng, 1024), _operand(rng, 1024, PROBE_DEGREE - 1)
    dividend = a * b + c
    out["unipoly.divmod_us.b1024"] = (_median_us(lambda: divmod(dividend, b)), "us")
    out["unipoly.gcd_us.b1024"] = (_median_us(lambda: unipoly.gcd(a, b)), "us")
    return out

