"""The repository benchmark: plan, serve-steady and serve-drift.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one pass untraced and the same pass again with the
layer entry points wrapped (see :mod:`perfbench.spans`) and reports the
per-layer metrics.  The last line of standard output is a JSON object.
``perfbench/spec.json`` records each workload's parameters, what every
metric means, which end-to-end metric each layer metric should move,
and the baseline figures.  Self-tests: ``python3 -m pytest perfbench/tests``.
"""
