"""Multistage interconnection network (MIN) topologies.

This package constructs the networks studied in the paper:

* :mod:`repro.topology.permutations` -- k-ary digit permutations: the
  i-th butterfly permutation ``beta_i`` (Definition 1), the perfect
  k-shuffle ``sigma`` (Definition 2), their inverses, block-restricted
  variants, and composition/inversion algebra.
* :mod:`repro.topology.spec` -- :class:`~repro.topology.spec.MINSpec`,
  the declarative description of an n-stage unidirectional MIN as
  ``C_0 G_0 C_1 ... C_{n-1} G_{n-1} C_n`` plus its destination-tag rule.
* :mod:`repro.topology.mins` -- builders for the Delta-class MINs the
  paper discusses: butterfly, cube (indirect cube / multistage cube),
  Omega, flip and baseline.
* :mod:`repro.topology.bmin` -- the bidirectional butterfly MIN (BMIN)
  of Section 3, with left/right switch ports and the wiring that makes
  turnaround routing work.
* :mod:`repro.topology.fattree` -- the fat-tree view of a BMIN
  (Section 3.3, Fig. 13) and least-common-ancestor routing.
* :mod:`repro.topology.equivalence` -- executable topological /
  functional equivalence checks for Delta networks, and permutation
  admissibility analysis.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "bmin": ("BidirectionalMIN",),
    "fattree": ("FatTree",),
    "mins": (
        "baseline_min", "butterfly_min", "cube_min", "flip_min", "omega_min",
    ),
    "permutations": (
        "ButterflyPermutation", "Identity", "InverseShuffle", "PerfectShuffle",
        "Permutation", "from_digits", "to_digits",
    ),
    "spec": ("MINSpec",),
})

__all__ = [
    "BidirectionalMIN",
    "ButterflyPermutation",
    "FatTree",
    "Identity",
    "InverseShuffle",
    "MINSpec",
    "PerfectShuffle",
    "Permutation",
    "baseline_min",
    "butterfly_min",
    "cube_min",
    "flip_min",
    "from_digits",
    "omega_min",
    "to_digits",
]
