"""Same-machine benchmark of the RIPPLE reproduction, run from outside the program.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
times calls into the repository's public functions (``run_scenario``,
``SweepRunner``, ``ResultCache``, ``JobStore``, ``WorkQueue``, ``Worker``,
``SimulationService`` and HTTP through ``ServiceClient``), checks their
outputs and prints every metric with its unit.  See ``perfbench/README.md``.
"""
