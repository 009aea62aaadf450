"""Run one ``lgt`` command in a fresh interpreter and note when set-up ends.

    python3 child.py MARKER [--probe] [--trace SPANS] -- LGT_ARGS...

Set-up ends at the first call into time evolution (``ExactEvolver.evolve``
or ``trotter_step``) for ``run``, and at the entry to
``hamiltonian.assemble`` for ``resources``. At that moment the
``time.monotonic()`` reading, a system-wide clock, is written to MARKER and
the marker wrappers are removed again. With ``--probe`` the process exits
there. With ``--trace`` every layer boundary in ``install_tracer`` gets a
span; spans and counts stay in memory and are written to SPANS as JSON
when the command returns. The program's source is not changed: wrappers
replace the names where their callers look them up.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from collections import Counter


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans ``[name, parent, start, end]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rss_after: dict[str, float] = {}

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if name not in self.rss_after:
                self.rss_after[name] = rss_mb()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "rss_after": self.rss_after}, fh)


def install_tracer(tracer: Tracer) -> None:
    """Span every layer boundary the benchmark reports on."""
    import lgt.cli as cli
    import lgt.dynamics as dyn
    import lgt.hamiltonian as ham
    import lgt.resources as res
    from lgt.pauli import PauliOperator

    wrap, counts = tracer.wrap, tracer.counts

    def on_trotter_step(args, _):
        state, plan = args
        counts["dynamics.trotter_amp_updates"] += (len(plan.strings)
                                                   << state.n_qubits)

    def on_gauss(_, result):
        total, kept = result
        counts["dynamics.gauss_configs"] += total
        counts["dynamics.gauss_kept"] += len(kept)

    def on_assemble(_, h):
        counts["hamiltonian.n_strings"] += h.n_terms

    for name in ("load_config", "validate_config"):
        setattr(cli, name, wrap("cli.config", getattr(cli, name)))
    cli.run_scenario = wrap("cli.run_scenario", cli.run_scenario)
    cli.run_resources = wrap("cli.run_resources", cli.run_resources)

    assemble = wrap("hamiltonian.assemble", ham.assemble, on_assemble)
    cli.assemble = ham.assemble = assemble          # resources imports late
    for part in ("mass", "hopp_wilson", "electric", "plaquette", "gauss"):
        fn = f"build_{part}"
        setattr(ham, fn, wrap(f"hamiltonian.{fn}", getattr(ham, fn)))

    PauliOperator.__mul__ = wrap("pauli.op_mul", PauliOperator.__mul__)
    PauliOperator.__add__ = wrap("pauli.op_add", PauliOperator.__add__)
    from_terms = PauliOperator.__dict__["from_terms"].__func__
    PauliOperator.from_terms = classmethod(wrap("pauli.from_terms", from_terms))

    cli.scaling_table = wrap("resources.scaling_table", cli.scaling_table)
    cnot = wrap("resources.cnot_per_trotter_step", res.cnot_per_trotter_step)
    cli.cnot_per_trotter_step = res.cnot_per_trotter_step = cnot

    dyn.trotter_step = wrap("dynamics.trotter_step", dyn.trotter_step,
                            on_trotter_step)
    dyn.ExactEvolver.__init__ = wrap("dynamics.exact_setup",
                                     dyn.ExactEvolver.__init__)
    dyn.ExactEvolver.evolve = wrap("dynamics.exact_evolve",
                                   dyn.ExactEvolver.evolve)
    dyn.OperatorAction.__call__ = wrap("dynamics.matvec",
                                       dyn.OperatorAction.__call__)
    cli.gauss_filter = wrap("dynamics.gauss_filter", cli.gauss_filter,
                            on_gauss)
    cli.config_probabilities = wrap("dynamics.readout",
                                    cli.config_probabilities)
    # one span per label would distort the readout-heavy workloads
    dyn.basis_config_label = tracer.count_calls("dynamics.labels",
                                                dyn.basis_config_label)
    cli.standard_observables = wrap("dynamics.standard_observables",
                                    cli.standard_observables)


def install_setup_marker(command: str, marker: str, probe: bool) -> None:
    """Stamp the first call that ends set-up, then restore the originals."""
    import lgt.dynamics as dyn
    import lgt.hamiltonian as ham

    if command == "run":
        targets = [(dyn.ExactEvolver, "evolve"), (dyn, "trotter_step")]
    else:
        targets = [(ham, "assemble")]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def stamp():
        now = time.monotonic()
        with open(marker, "w") as fh:
            fh.write(repr(now))
        if probe:
            os._exit(0)
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)

    for owner, attr, fn in originals:
        def first_call(*args, _fn=fn, **kwargs):
            stamp()
            return _fn(*args, **kwargs)
        setattr(owner, attr, first_call)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("marker")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv[:split])
    lgt_args = argv[split + 1:]

    import lgt.cli

    tracer = None
    main_fn = lgt.cli.main
    if args.trace:
        tracer = Tracer()
        install_tracer(tracer)
        main_fn = tracer.wrap("cli.main", main_fn)
    install_setup_marker(lgt_args[0], args.marker, args.probe)
    rc = main_fn(lgt_args)
    if tracer is not None:
        tracer.dump(args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
