"""The paper's Section 7 experiments: the one harness that reproduces them.

* :mod:`paper.runner` — timing utilities, method registries and parameter
  sweeps;
* :mod:`paper.figures` — one entry point per table/figure of Section 7
  (Figures 10 to 13, the INDVE/VE/WE and engine-option ablations and the
  conditioning-overhead claim), each returning a
  :class:`~paper.runner.SweepResult` or a list of table rows;
* :mod:`paper.reporting` — plain-text, Markdown and JSON rendering of the
  results.

``benchmarks/bench_session_batching.py`` reuses the runner and reporting
helpers.  Run one experiment from the repository root with::

    PYTHONPATH=src:benchmarks python -m paper.figures --figure 11a
"""
