"""Run one detsums CLI command with a span around every call into each layer.

    PYTHONPATH=src python3 benchmark/trace_child.py SPANS_JSON SCAN_ID CLI_ARGS...

Each public function is replaced at the name its caller looks it up by
(`cli.make_field`, `sums.delta_profile`, `mat2.has_square_root`, the
`Character.index_table` method, ...), then `cli.main(CLI_ARGS)` runs in
this process, exactly as `python -m detsums.cli CLI_ARGS` would.  Spans
stay in memory and are written to SPANS_JSON when main returns, together
with the `_field` cache counters.  The exit code is main's.
"""

import functools
import json
import sys
import time

from detsums import characters, cli, fp_arith, mat2, residues, sifter, sums


def _p(F):
    return int(F.p)


# (span name, [(owner, attribute)], work(args) -> {counter: amount}).  A span
# name is `<module>.<function>`; the counters are summed per span name.
WRAPS = (
    ("fp_arith.make_field", [(cli, "make_field")], lambda p, *_: {"entries": int(p)}),
    ("fp_arith.is_prime", [(cli, "is_prime"), (fp_arith, "is_prime"), (residues, "is_prime")], None),
    (
        "characters.index_table",
        [(characters.Character, "index_table")],
        lambda chi: {"builds": int(getattr(chi, "_ktab", None) is None)},
    ),
    (
        "characters.de_moment",
        [(cli, "de_moment"), (sums, "de_moment")],
        lambda chi, D, *_: {"terms": (_p(chi.field) - 1) * len(set(D))},
    ),
    ("sums.delta_profile", [(sums, "delta_profile")], lambda N: {"quads": int(N) ** 4}),
    ("sums.s_sum_binned", [(sums, "s_sum_binned")], None),
    ("sums.u_sum", [(sums, "u_sum")], None),
    ("sums.ratio_bins", [(sums, "ratio_bins")], lambda F, A, B, C, *_: {"triples": int(A) * int(B) * int(C)}),
    ("sums.t_abs_sum", [(sums, "t_abs_sum")], None),
    ("mat2.census", [(mat2, "census")], lambda F, *_: {"matrices": _p(F) ** 4}),
    ("mat2.has_square_root", [(mat2, "has_square_root")], None),
    ("residues.nonresidue_report", [(residues, "nonresidue_report")], None),
    ("residues.least_nonresidue", [(residues, "least_nonresidue")], None),
    ("residues.count_nonresidues", [(residues, "count_nonresidues")], None),
    ("sifter.sift", [(sifter, "sift")], None),
    ("sifter.primes_upto", [(sifter, "primes_upto")], None),
    ("sifter.measure_constants", [(sifter, "measure_constants")], None),
    ("sifter.tau_square_average", [(sifter, "tau_square_average")], None),
)


class Tracer:
    """In-memory span list; parents come from the stack of open spans."""

    def __init__(self, scan_id):
        self.scan_id = scan_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "scan": self.scan_id,
                "work": work(*args, **kwargs) if work else {},
            }
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self):
        for name, owners, work in WRAPS:
            for owner, attr in owners:
                fn = getattr(owner, attr, None)
                if fn is not None:
                    setattr(owner, attr, self.wrap(name, fn, work))


def main(argv):
    spans_path, scan_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(scan_id)
    tracer.install()
    try:
        code = tracer.wrap("cli", cli.main)(cli_args)
    finally:
        field = getattr(cli, "_field", None)
        info = field.cache_info() if hasattr(field, "cache_info") else None
        cache = {"hits": info.hits, "misses": info.misses} if info else {"hits": 0, "misses": 0}
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "field_cache": cache}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
