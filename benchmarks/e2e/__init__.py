"""The end-to-end TPC-B benchmark: one ruler for every deployment shape.

Self-contained: its own load generator (:mod:`loadgen`), deployment-shape
drivers (:mod:`shapes`), timing estimators (:mod:`quiet`), span tracer
(:mod:`spans`) and correctness checks (:mod:`checks`).  It programs only
against ``repro``'s public API; the program under test receives nothing
but generated inputs.  See ``README.md`` in this directory.
"""
