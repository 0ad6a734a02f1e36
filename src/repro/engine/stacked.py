"""Placeholder for the removed batched stacked-instance solve.

Every solve now goes through :func:`repro.engine.runner.run`; this module
defines nothing.  It stays importable only because the service benchmark's
timing launcher (``perfbench/launch.py``) imports it and sets
``bound_components``/``validate_placement`` on it.  Delete this file when
that import goes.
"""
