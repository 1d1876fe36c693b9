"""Per-layer tracing of anylie from outside the package.

`Tracer.install` wraps the public entry points of each module and patches
every name under which a caller looks them up: module globals wherever
the function was imported, methods on their class.  Nothing under `src/`
changes.  Layer boundaries (commands, checks, rewriting, search, parsing)
record spans; the scalar operators (about 600k multiplies in a
criterion-01-sized run) record only a call count and summed time.  Both
kinds sit on one stack, so every wrapped call's self time is its duration
minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import json
import time
import types

# per_layer metric name -> (unit, better)
METRICS = {}
for _name, _unit, _better in [
    ("cyclotomic.mul.calls", "count", "lower"),
    ("cyclotomic.mul.mixed_calls", "count", "lower"),
    ("cyclotomic.mixed_ratio", "ratio", "lower"),
    ("cyclotomic.mul.self_s", "s", "lower"),
    ("cyclotomic.mul.us_per_call", "us", "lower"),
    ("cyclotomic.add.calls", "count", "lower"),
    ("cyclotomic.add.self_s", "s", "lower"),
    ("cyclotomic.eq.calls", "count", "lower"),
    ("cyclotomic.eq.self_s", "s", "lower"),
    ("cyclotomic.lift.calls", "count", "lower"),
    ("cyclotomic.inverse.calls", "count", "lower"),
    ("cyclotomic.inverse.self_s", "s", "lower"),
    ("grading.phase.calls", "count", "lower"),
    ("grading.phase.self_s", "s", "lower"),
    ("algebra.spec_build.calls", "count", "lower"),
    ("algebra.spec_build.self_s", "s", "lower"),
    ("algebra.verify.calls", "count", "lower"),
    ("algebra.verify.s", "s", "lower"),
    *[(f"algebra.check.{c}.s", "s", "lower") for c in (
        "grading", "coalgebra", "bracket_counit", "delta_bracket", "cocommutation",
        "braided_jacobi", "antisymmetry")],
    ("algebra.witnesses", "count", "lower"),
    ("algebra.tensor_nnz", "count", "lower"),
    ("constructions.build.s", "s", "lower"),
    ("envelope.relations.s", "s", "lower"),
    ("envelope.rewrite_build.s", "s", "lower"),
    ("envelope.rules", "count", "lower"),
    ("envelope.nf.calls", "count", "lower"),
    ("envelope.nf.self_s", "s", "lower"),
    ("envelope.nf_cache.entries", "count", "lower"),
    ("envelope.confluence.s", "s", "lower"),
    ("envelope.confluence.words", "count", "lower"),
    ("envelope.confluence.divergences", "count", "lower"),
    ("envelope.quotient.s", "s", "lower"),
    ("envelope.quotient.confluence_calls", "count", "lower"),
    ("anyspace.parse.s", "s", "lower"),
    ("anyspace.mul.calls", "count", "lower"),
    ("anyspace.mul.self_s", "s", "lower"),
    ("anyspace.terms", "count", "lower"),
    ("cli.load_spec.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.search.s", "s", "lower"),
    ("cli.search.candidates", "count", "lower"),
    ("cli.search.specs_built", "count", "lower"),
    ("cli.search.solutions", "count", "lower"),
    ("cli.search.useful_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]:
    METRICS[_name] = (_unit, _better)

_MISSING = object()


class Tracer:
    def __init__(self):
        self.stats = {}     # key -> [calls, inclusive seconds, self seconds]
        self.counts = {}    # counter name -> value
        self.depth = {}     # key -> number of active calls
        self.stack = []     # one [child seconds] cell per active call
        self.span_stack = []
        self.spans = []     # (name, start, end, parent span, command)
        self.commands = []  # per-command summaries
        self.command = -1
        self.nf_cache_max = 0
        self.t0 = time.perf_counter()
        self._patches = []

    def bump(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def active(self, key: str) -> bool:
        return self.depth.get(key, 0) > 0

    # -- wrappers ----------------------------------------------------------

    def wrap(self, key: str, fn, span: bool = False, hook=None):
        """Count and time `fn` under `key`; with `span`, also record a span.
        `hook(args, result)` runs after each successful call."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        spans, span_stack, t0 = self.spans, self.span_stack, self.t0

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            d = depth.get(key, 0)
            depth[key] = d + 1
            if span:
                index = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[key] = d
                stats[0] += 1
                stats[2] += elapsed - cell[0]
                if d == 0:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    span_stack.pop()
                    spans[index] = (key, start - t0, end - t0, parent, self.command)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_function(self, modules, home, name, key, **kw):
        """Replace the function `home.name` under every module-global name
        bound to it.  An entry point that no longer exists is skipped, and
        its metrics read 0."""
        fn = getattr(home, name, None)
        if fn is None:
            return
        wrapped = self.wrap(key, fn, **kw)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def patch_method(self, cls, attr, key, **kw):
        if attr in cls.__dict__:
            self._set(cls, attr, self.wrap(key, cls.__dict__[attr], **kw))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- the anylie layers --------------------------------------------------

    def install(self):
        import anylie
        from anylie import algebra, anyspace, cli, constructions, cyclotomic, envelope, grading
        modules = [anylie, algebra, anyspace, cli, constructions, cyclotomic, envelope, grading]
        CycNum = cyclotomic.CycNum

        def mul_hook(args, result):
            a, b = args
            if a.order != getattr(b, "order", 1):
                self.bump("mul.mixed")
        for attr in ("__mul__", "__rmul__"):
            self.patch_method(CycNum, attr, "cyclotomic.mul", hook=mul_hook)
        for attr in ("__add__", "__radd__", "__sub__"):
            self.patch_method(CycNum, attr, "cyclotomic.add")
        self.patch_method(CycNum, "__eq__", "cyclotomic.eq")
        self.patch_method(CycNum, "lifted", "cyclotomic.lift")
        self.patch_method(CycNum, "inverse", "cyclotomic.inverse")
        for attr in ("phase", "phase_power"):
            self.patch_method(grading.Bicharacter, attr, "grading.phase")

        def spec_hook(args, result):
            if self.active("cli.search"):
                self.bump("search.specs_built")
        self.patch_method(algebra.AlgebraSpec, "__init__", "algebra.spec_build", hook=spec_hook)

        def verify_hook(args, report):
            spec = args[0]
            self.bump("witnesses", sum(len(ch.witnesses) for ch in report.checks))
            self.bump("tensor_nnz", len(spec.eps) + len(spec.d) + len(spec.c))
            if self.active("cli.search"):
                self.bump("search.verified")
        self.patch_function(modules, algebra, "verify_all", "algebra.verify", span=True,
                            hook=verify_hook)
        for name in ("grading", "coalgebra", "bracket_counit", "delta_bracket",
                     "cocommutation", "braided_jacobi"):
            self.patch_function(modules, algebra, f"check_{name}", f"algebra.check.{name}")
        self.patch_function(modules, algebra, "check_antisymmetry_info",
                            "algebra.check.antisymmetry")
        for name in ("build_matrix_type", "build_ansatz"):
            self.patch_function(modules, constructions, name, "constructions.build", span=True)

        self.patch_function(modules, envelope, "generate_relations", "envelope.relations",
                            span=True)
        self.patch_function(modules, envelope, "build_rewrite_system", "envelope.rewrite_build",
                            span=True, hook=lambda a, rs: self.bump("rules", len(rs.rules)))

        def nf_hook(args, result):
            cache = getattr(args[0], "_nf_cache", ())
            self.nf_cache_max = max(self.nf_cache_max, len(cache))
        self.patch_method(envelope.RewriteSystem, "normal_form", "envelope.nf", hook=nf_hook)

        def confluence_hook(args, report):
            self.bump("confluence.words", getattr(report, "words_checked", 0))
            self.bump("confluence.divergences", len(getattr(report, "divergences", ())))
            if self.active("envelope.quotient"):
                self.bump("quotient.confluence_calls")
        self.patch_method(envelope.RewriteSystem, "check_local_confluence",
                          "envelope.confluence", span=True, hook=confluence_hook)
        self.patch_function(modules, envelope, "quotient_by_central_grouplike",
                            "envelope.quotient", span=True)

        self.patch_function(modules, anyspace, "parse_theta_expr", "anyspace.parse", span=True,
                            hook=lambda a, poly: self.bump("anyspace.terms", len(poly.terms)))
        self.patch_method(anyspace.ThetaPoly, "__mul__", "anyspace.mul")

        self.patch_function(modules, cli, "_load_spec", "cli.load_spec", span=True)
        run_search = cli.run_search

        def search_all(space):
            return list(run_search(space))

        def search_hook(args, solutions):
            self.bump("search.candidates", args[0].candidate_count())
            self.bump("search.solutions", len(solutions))
        collect = self.wrap("cli.search", search_all, span=True, hook=search_hook)

        def traced_search(space):
            yield from collect(space)
        self._set(cli, "run_search", traced_search)

        # rendering: everything that turns results into text
        for cls, attrs in ((algebra.AxiomReport, ("__str__", "to_json")),
                           (algebra.AlgebraSpec, ("to_json",)),
                           (envelope.NCPoly, ("render",)),
                           (envelope.ConfluenceReport, ("__str__",)),
                           (anyspace.ThetaPoly, ("render",)),
                           (CycNum, ("__str__", "to_json"))):
            for attr in attrs:
                self.patch_method(cls, attr, "cli.render")
        self.patch_function(modules, cli, "_emit", "cli.render")
        self._set(cli, "print", self.wrap("cli.render", print))
        proxy = types.SimpleNamespace(**{k: v for k, v in vars(cli.json).items()
                                         if not k.startswith("__")})
        proxy.dumps = self.wrap("cli.render", cli.json.dumps)
        self._set(cli, "json", proxy)

    # -- commands ------------------------------------------------------------

    def run_command(self, label: str, call):
        """Run one CLI command under a root span and record its summary."""
        self.command += 1
        self.nf_cache_max = 0
        mul = self.stats.get("cyclotomic.mul", [0])[0]
        mixed = self.counts.get("mul.mixed", 0)
        result = self.wrap("cli.command", call, span=True)()
        mul_calls = self.stats.get("cyclotomic.mul", [0])[0] - mul
        mixed_calls = self.counts.get("mul.mixed", 0) - mixed
        self.commands.append({
            "command": self.command, "label": label, "mul_calls": mul_calls,
            "mixed_ratio": mixed_calls / mul_calls if mul_calls else 0.0,
            "nf_cache_entries": self.nf_cache_max})
        return result

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        def calls(key):
            return self.stats.get(key, [0, 0.0, 0.0])[0]

        def incl(key):
            return self.stats.get(key, [0, 0.0, 0.0])[1]

        def self_s(key):
            return self.stats.get(key, [0, 0.0, 0.0])[2]
        c = self.counts.get
        mul = calls("cyclotomic.mul")
        verified = c("search.verified", 0)
        values = {
            "cyclotomic.mul.calls": mul,
            "cyclotomic.mul.mixed_calls": c("mul.mixed", 0),
            "cyclotomic.mixed_ratio": c("mul.mixed", 0) / mul if mul else 0.0,
            "cyclotomic.mul.self_s": self_s("cyclotomic.mul"),
            "cyclotomic.mul.us_per_call": incl("cyclotomic.mul") / mul * 1e6 if mul else 0.0,
            "cyclotomic.add.calls": calls("cyclotomic.add"),
            "cyclotomic.add.self_s": self_s("cyclotomic.add"),
            "cyclotomic.eq.calls": calls("cyclotomic.eq"),
            "cyclotomic.eq.self_s": self_s("cyclotomic.eq"),
            "cyclotomic.lift.calls": calls("cyclotomic.lift"),
            "cyclotomic.inverse.calls": calls("cyclotomic.inverse"),
            "cyclotomic.inverse.self_s": self_s("cyclotomic.inverse"),
            "grading.phase.calls": calls("grading.phase"),
            "grading.phase.self_s": self_s("grading.phase"),
            "algebra.spec_build.calls": calls("algebra.spec_build"),
            "algebra.spec_build.self_s": self_s("algebra.spec_build"),
            "algebra.verify.calls": calls("algebra.verify"),
            "algebra.verify.s": incl("algebra.verify"),
            "algebra.witnesses": c("witnesses", 0),
            "algebra.tensor_nnz": c("tensor_nnz", 0),
            "constructions.build.s": incl("constructions.build"),
            "envelope.relations.s": incl("envelope.relations"),
            "envelope.rewrite_build.s": incl("envelope.rewrite_build"),
            "envelope.rules": c("rules", 0),
            "envelope.nf.calls": calls("envelope.nf"),
            "envelope.nf.self_s": self_s("envelope.nf"),
            "envelope.nf_cache.entries": max((cmd["nf_cache_entries"] for cmd in self.commands),
                                             default=0),
            "envelope.confluence.s": incl("envelope.confluence"),
            "envelope.confluence.words": c("confluence.words", 0),
            "envelope.confluence.divergences": c("confluence.divergences", 0),
            "envelope.quotient.s": incl("envelope.quotient"),
            "envelope.quotient.confluence_calls": c("quotient.confluence_calls", 0),
            "anyspace.parse.s": incl("anyspace.parse"),
            "anyspace.mul.calls": calls("anyspace.mul"),
            "anyspace.mul.self_s": self_s("anyspace.mul"),
            "anyspace.terms": c("anyspace.terms", 0),
            "cli.load_spec.s": incl("cli.load_spec"),
            "cli.render.s": incl("cli.render"),
            "cli.search.s": incl("cli.search"),
            "cli.search.candidates": c("search.candidates", 0),
            "cli.search.specs_built": c("search.specs_built", 0),
            "cli.search.solutions": c("search.solutions", 0),
            "cli.search.useful_ratio": c("search.solutions", 0) / verified if verified else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("grading", "coalgebra", "bracket_counit", "delta_bracket",
                     "cocommutation", "braided_jacobi", "antisymmetry"):
            values[f"algebra.check.{name}.s"] = incl(f"algebra.check.{name}")
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}

    def write(self, path, header: dict):
        """Spans as JSON lines after one header line with the per-command
        summaries."""
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(header, commands=self.commands)) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
