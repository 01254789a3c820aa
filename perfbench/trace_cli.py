"""Run one dissentsim CLI invocation with spans around the calls into each module.

Usage: python trace_cli.py SPANS_OUT CLI_ARG...

The program itself is not changed: each traced function is replaced, at the
module attribute its caller looks it up through, by a wrapper that records a
span (name, start, end, parent).  When the invocation ends, the spans are
reduced to per-name self time and call counts, checked for nesting, and
written to SPANS_OUT as JSON together with the counters taken at the same
boundaries.  The CLI's exit code is passed through.
"""

import json
import sys
import time

_t_start = time.perf_counter()
import dissentsim  # noqa: E402,F401  (timed: users pay the import on every invocation)

_t_import = time.perf_counter()

from dissentsim import analysis, cli, engine, scenario  # noqa: E402

# (module whose global the caller reads, attribute, span name).  A span name
# is "<layer>.<function>", the layer being the module the function lives in.
CALL_SITES = (
    (cli, "parse_scenario", "scenario.parse_scenario"),
    (cli, "write_csv", "scenario.write_csv"),
    (scenario, "generate_population", "scenario.generate_population"),
    (engine, "generate_network", "network.generate_network"),
    (engine, "influence_scores", "network.influence_scores"),
    (cli, "init_state", "engine.init_state"),
    (engine, "init_state", "engine.init_state"),
    (cli, "run", "engine.run"),
    (engine, "step", "engine.step"),
    (cli, "apply_events", "engine.apply_events"),
    (engine, "apply_events", "engine.apply_events"),
    (engine, "payoff_nojoin", "model.payoff"),
    (engine, "payoff_statusquo", "model.payoff"),
    (engine, "payoff_rebel", "model.payoff"),
    (engine, "choose_positions", "model.choose_positions"),
    (analysis, "decide", "model.decide"),
    (analysis, "threshold_r_over_nj", "model.threshold"),
    (cli, "threshold_r_over_nj", "model.threshold"),
    (cli, "threshold_nj_over_u", "model.threshold"),
    (cli, "first_movers", "analysis.first_movers"),
    (cli, "share_space_thresholds", "analysis.share_space_thresholds"),
    (cli, "cascade_equilibria", "analysis.cascade_equilibria"),
    (cli, "render_svg", "analysis.render_svg"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.step_s = []
        self.first_step_s = []
        self.counts = {"agent_steps": 0, "flips": 0, "edges": 0, "csv_bytes": 0}

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:  # counters are taken outside the timed interval
                after(args, result, t1 - t0)
            return result

        return traced

    def after_step(self, args, new_state, seconds):
        old = args[0]
        active = ~old.exited
        self.counts["agent_steps"] += int(active.sum())
        self.counts["flips"] += int(((new_state.y != old.y) & active).sum())
        self.step_s.append(seconds)
        if old.t == 0:  # the first step pays the lazy edge-array build
            self.first_step_s.append(seconds)

    def after_network(self, args, network, seconds):
        self.counts["edges"] = max(self.counts["edges"], len(network.edges))

    def count_csv_bytes(self, write_csv):
        def counted(records, sink):
            start = sink.tell()
            write_csv(records, sink)
            self.counts["csv_bytes"] += sink.tell() - start

        return counted

    def install(self):
        hooks = {"engine.step": self.after_step, "network.generate_network": self.after_network}
        for module, attr, name in CALL_SITES:
            fn = getattr(module, attr)
            if name == "scenario.write_csv":
                fn = self.count_csv_bytes(fn)
            setattr(module, attr, self.wrap(name, fn, hooks.get(name)))

    def summary(self):
        """Per-name self time and calls; self time = duration minus child spans."""
        child = [0.0] * len(self.spans)
        nested = True
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                nested &= p_start <= start <= end <= p_end
                child[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {
            "self_s": self_s,
            "calls": calls,
            "root_s": roots,
            "self_sum_s": sum(self_s.values()),
            "nested": nested,
            "step_s": self.step_s,
            "first_step_s": self.first_step_s,
            "counts": self.counts,
        }


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(["import", _t_start, _t_import, -1])
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
