"""Separability probabilities of random bipartite states by Monte Carlo.

Samples rebit, qubit and quaterbit coefficient balls under the
Hilbert-Schmidt measure, tests positivity and the positive-partial-transpose
criterion, and compares the estimated separable fraction with the
conjectured closed-form series value.

The package root holds only `__version__`; every other name is imported
from its module, so importing one module loads only what it needs:

- `sepmc.algebra`: quaternions and the number systems (the map pair
  `entry_parts`/`complex_form` between matrices and their beta real
  parts, the product table, `mul_conj` and `abs_squared`), the one
  signed-sum program form (`signed_program`, `run_signed`), Pauli-tensor
  generator bases of given labels, Hermitian checks and `min_eigenvalue`;
  no state families.
- `sepmc.states`: the one definition of the three families (`REBIT`,
  `QUBIT`, `QUATERBIT` with their generator labels, `get_case`),
  `CoeffVector`, coefficient/density maps, quaternion block assembly, and
  the eigenvalue-route positivity and PPT tests.
- `sepmc.sampler`: seeded streams (`StreamSpec`; `derive_stream` is a
  second name for it, kept for perfbench), the integer rule `integer_in`,
  and uniform ball sampling.
- `sepmc.kernels`: the counting kernel `count_tallies` and its table
  builder `case_tables`.
- `sepmc.engine`: the chunked estimator `estimate`, the chunk stream
  `chunk_tallies` (the one place that knows about processes), `run_chunk`,
  tallies, checkpoints, and `check_path`, the one rule for a path a run
  will write.
- `sepmc.conjecture`: the conjectured series `p_of_alpha`.
- `sepmc.selftest`: the invariant battery `CHECKS` behind `sepmc selftest`.
- `sepmc.cli`: the `sepmc` command line.
"""

__version__ = "0.1.0"
