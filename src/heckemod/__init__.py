"""Exact modular-category data from Hecke algebras at roots of unity.

Modules:
    scalars   -- cyclotomic arithmetic, quantum integers, parameter contexts
    diagrams  -- Young-diagram combinatorics, label sets, dimensions, twists
    hecke     -- the Hecke algebra with Markov trace (skein-level oracle)
    moddata   -- S-matrices, global constants, Pieri-rule fusion, Verlinde
                 dimensions
    surgery   -- plumbing-graph invariants of 3-manifolds
    refine    -- spin/cohomological refinements and U(1) Gauss-sum invariants
    cli       -- command-line interface
"""

__version__ = "0.1.0"
