"""The repository's benchmark: readings/s from raw reading to flag
decision on the engine, MGDD kernel, D3 network and supervised paths,
with per-layer timing recorded from outside the program.

Run ``python -m bench --help``; see ``bench/README.md``.
"""
