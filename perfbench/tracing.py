"""Outside-in layer tracing for wpinterp.

Nothing inside ``src/`` knows about tracing.  ``Tracer.install`` rebinds
wpinterp's public functions at every module that imports them (for example
``wpinterp.interpolation.group_ranks_mod_p`` and
``wpinterp.veronese.group_ranks_mod_p`` both become the same wrapper) and
``Tracer.uninstall`` puts the originals back.  Spans live in memory; the
runner writes them out when it exits.

Two kinds of wrapper exist.  A span wrapper records (id, name, start, end,
parent id, op id) and accumulates calls, total time and self time, where
self time is the span's duration minus the durations of its direct child
spans.  A count-only wrapper is used for functions called more than about
1e5 times per pass (``count_monomials``, ``Weights.drop``,
``is_probable_prime``): it only bumps a counter, so its cost lands in the
caller's self time instead of inflating the run with span records.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (metric prefix, module, attribute) of every span.  The prefix names the
# module that defines the function: that module is the layer.
SPANS = (
    ("grading.enumerate_monomials", "grading", "enumerate_monomials"),
    ("interpolation.sample_trial", "interpolation", "sample_trial"),
    ("interpolation.build_evaluation_matrix", "interpolation", "build_evaluation_matrix"),
    ("interpolation.hilbert_fat_points", "interpolation", "hilbert_fat_points"),
    ("interpolation.ah_profile_scan", "interpolation", "ah_profile_scan"),
    ("linalg.group_ranks_mod_p", "linalg", "group_ranks_mod_p"),
    ("linalg.rank_exact", "linalg", "rank_exact"),
    ("induction.build_certificate", "induction", "build_certificate"),
    ("induction.check_certificate", "induction", "check_certificate"),
    ("induction.teranum_verify", "induction", "teranum_verify"),
    ("induction.numeric_facts_verify", "induction", "numeric_facts_verify"),
    ("bounds.triangle_lattice_check", "bounds", "triangle_lattice_check"),
    ("bounds.interpolation_bound_check", "bounds", "interpolation_bound_check"),
    ("veronese.secant_dimension", "veronese", "secant_dimension"),
    ("cli.main", "cli", "main"),
)

COUNTS = (
    ("grading.count_monomials", "grading", "count_monomials"),
    ("linalg.is_probable_prime", "linalg", "is_probable_prime"),
)


class Tracer:
    """Spans and counters for one process; install around traced passes only."""

    def __init__(self, wpinterp):
        self.pkg = wpinterp
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> calls, self seconds
        self.counters = defaultdict(int)
        self.certificates: list = []
        self.op_id = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self):
        """Drop the spans and counts of the previous pass."""
        self.spans.clear()
        self.stats.clear()
        self.counters.clear()
        self.certificates.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        tracer = self
        clock = time.perf_counter
        stats = self.stats

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st = stats[name]
                st[0] += 1
                st[1] += duration - frame[1]
                tracer.spans.append((sid, name, start, end, parent, tracer.op_id))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters
        calls = name + ".calls"
        hits = name + ".hits"

        def wrapper(*args, **kwargs):
            counters[calls] += 1
            result = fn(*args, **kwargs)
            if result is True:
                counters[hits] += 1
            return result

        return wrapper

    # -- hooks that turn return values into layer counts --------------------

    def _on_ranks(self, args, result):
        rows = args[0]
        self.counters["linalg.elim_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _on_matrix(self, args, mat):
        self.counters["interpolation.matrix_cells"] += mat.nrows * mat.ncols

    def _on_trial(self, args, result):
        prime = result[0]
        self.counters["interpolation.trials_used"] += 1
        if prime is not None:
            self.counters["interpolation.prime_bits_sum"] += prime.bit_length()
            self.counters["interpolation.primes_drawn"] += 1

    def _on_decided(self, args, report):
        """A RankProfile or SecantReport: was it decided on the first trial?"""
        if report.trials == 1:
            self.counters["interpolation.decided_first_trial"] += 1

    def _on_profiles(self, args, profiles):
        # One trial loop decides every profile of a scan call, so it counts once.
        if profiles and profiles[0].trials == 1:
            self.counters["interpolation.decided_first_trial"] += 1

    def _on_certificate(self, args, cert):
        # Walked after the pass, so the walk is not charged to any layer.
        self.certificates.append(cert)

    # -- rebinding ----------------------------------------------------------

    def _modules(self):
        pkg = self.pkg
        return [pkg] + [getattr(pkg, m) for m in
                        ("grading", "ideals", "linalg", "interpolation",
                         "induction", "bounds", "veronese", "cli")]

    def _rebind(self, original, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        hooks = {
            "linalg.group_ranks_mod_p": self._on_ranks,
            "interpolation.build_evaluation_matrix": self._on_matrix,
            "interpolation.sample_trial": self._on_trial,
            "interpolation.hilbert_fat_points": self._on_decided,
            "interpolation.ah_profile_scan": self._on_profiles,
            "veronese.secant_dimension": self._on_decided,
            "induction.build_certificate": self._on_certificate,
        }
        pkg = self.pkg
        for name, module, attr in SPANS:
            original = getattr(getattr(pkg, module), attr)
            self._rebind(original, self._span(name, original, hooks.get(name)))
        for name, module, attr in COUNTS:
            original = getattr(getattr(pkg, module), attr)
            self._rebind(original, self._count(name, original))
        weights_cls = pkg.grading.Weights
        drop = weights_cls.drop
        self._undo.append((weights_cls, "drop", drop))
        weights_cls.drop = self._count("grading.drop", drop)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the pass since the last reset()."""
        out = {}
        for name, _, _ in SPANS:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        c = self.counters
        for name, _, _ in COUNTS:
            out[name + ".calls"] = c[name + ".calls"]
        out["grading.drop.calls"] = c["grading.drop.calls"]
        out["linalg.elim_cells"] = c["linalg.elim_cells"]
        out["interpolation.matrix_cells"] = c["interpolation.matrix_cells"]
        tested = c["linalg.is_probable_prime.calls"]
        out["linalg.prime_hit_ratio"] = c["linalg.is_probable_prime.hits"] / tested if tested else 0.0
        drawn = c["interpolation.primes_drawn"]
        out["interpolation.prime_bits_mean"] = c["interpolation.prime_bits_sum"] / drawn if drawn else 0.0
        trials = c["interpolation.trials_used"]
        out["interpolation.trials_used"] = trials
        out["interpolation.trial_yield"] = c["interpolation.decided_first_trial"] / trials if trials else 0.0
        total, distinct = 0, set()
        for cert in self.certificates:
            todo = [cert]
            while todo:
                node = todo.pop()
                total += 1
                distinct.add((node.kind, node.d, node.r))
                todo.extend(node.children)
        out["induction.cert_nodes_total"] = total
        out["induction.cert_nodes_distinct"] = len(distinct)
        return out
