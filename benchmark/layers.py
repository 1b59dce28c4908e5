#!/usr/bin/env python3
"""Per-layer self-time table from a ustbench Chrome trace.

    python3 benchmark/layers.py <trace.json>

For every span name: count, total time and self time. Self time is the
span's duration minus the part of it covered by its child spans on the same
thread (a child is a span that starts and ends inside its parent). Spans are
grouped by module: the benchmark's own probe spans carry a `<module>.` prefix
(index.prune, query.sample, ...); the system's built-in spans are mapped by
the table below.
"""
import argparse
import json
import sys

# Built-in span names of the serving pipeline (src/util/trace.h) -> module.
MODULE_OF = {
    "exec_mc": "query",
    "exec_markov": "query",
    "exec_exact": "query",
    "arena_build": "query",
    "delta_probe": "index",
    "compact": "index",
    "session_warm": "model",
}


def module_of(name):
    if "." in name:
        return name.split(".", 1)[0]
    return MODULE_OF.get(name, "server")


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(events):
    """Per-span rows {name, count, total_ms, self_ms} from Chrome 'X' events."""
    by_thread = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        start = float(e["ts"])
        by_thread.setdefault(e.get("tid", 0), []).append(
            (start, start + float(e.get("dur", 0.0)), e["name"]))
    rows = {}
    for spans in by_thread.values():
        # Parents before children: earlier start first, longer span first.
        spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        children = [[] for _ in spans]
        stack = []
        for i, (start, end, _) in enumerate(spans):
            while stack and not (spans[stack[-1]][0] <= start and
                                 end <= spans[stack[-1]][1]):
                stack.pop()
            if stack:
                children[stack[-1]].append((start, end))
            stack.append(i)
        for i, (start, end, name) in enumerate(spans):
            row = rows.setdefault(name, {"name": name, "module": module_of(name),
                                         "count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e3
            row["self_ms"] += (end - start - union_length(children[i])) / 1e3
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


def layer_table(trace, trace_overhead=None):
    spans = self_times(trace.get("traceEvents", []))
    modules = {}
    for row in spans:
        m = modules.setdefault(row["module"], {"count": 0, "total_ms": 0.0,
                                               "self_ms": 0.0})
        m["count"] += row["count"]
        m["total_ms"] += row["total_ms"]
        m["self_ms"] += row["self_ms"]
    all_self = sum(m["self_ms"] for m in modules.values()) or 1.0
    for m in modules.values():
        m["self_share"] = m["self_ms"] / all_self
    table = {"spans": spans, "modules": modules}
    if trace_overhead is not None:
        table["trace_overhead"] = trace_overhead
    return table


def format_table(table):
    lines = ["%-8s %-22s %8s %12s %12s" % ("module", "span", "count",
                                          "total_ms", "self_ms")]
    for module in sorted(table["modules"], key=lambda m: -table["modules"][m]["self_ms"]):
        for row in table["spans"]:
            if row["module"] == module:
                lines.append("%-8s %-22s %8d %12.3f %12.3f" % (
                    module, row["name"], row["count"], row["total_ms"],
                    row["self_ms"]))
        m = table["modules"][module]
        lines.append("%-8s %-22s %8d %12.3f %12.3f  (%.1f%% of self time)" % (
            module, "= module", m["count"], m["total_ms"], m["self_ms"],
            100.0 * m["self_share"]))
    if "trace_overhead" in table:
        lines.append("trace_overhead (untraced qps / traced qps): %.4f"
                     % table["trace_overhead"])
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    args = parser.parse_args(argv)
    with open(args.trace) as f:
        print(format_table(layer_table(json.load(f))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
