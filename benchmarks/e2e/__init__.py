"""One wall-clock benchmark for the whole stack, measured from outside.

``python -m benchmarks.e2e run`` times five workloads end to end (a fresh
subprocess each, outputs checked against plain Python) and then attributes
the time to layers in a second, traced pass; ``python -m benchmarks.e2e
compare A.json B.json`` judges one result file against another with the
bounds ``BENCHMARK.json`` fixes.  See ``README.md`` in this directory for
the metric glossary and the measured baseline.

Nothing under ``src/`` knows this package exists: every layer is timed by
calling its public functions, or through instance-level wrappers this
package installs on objects it constructed itself.
"""
