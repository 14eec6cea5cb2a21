"""Unitary Cayley graphs of finite rings: construction, classification,
independent-set enumeration, and combinatorial Cohen-Macaulay checks."""

from .complexes import (Complex, codim1_connected, export_stanley_reisner,
                        find_shelling, independence_complex, is_pure,
                        is_shelling_order, minimal_nonfaces, pure_skeleton)
from .constructions import (avoidance_partner, d_family, product_witness,
                            reduced_diagonal, row_mix)
from .graphs import UGraph, build_graph, conjunction_product, export_dot, graph_json
from .indsets import (Budget, BudgetExceededError, WellCoveredReport,
                      enumerate_maximal_independent, greedy_extend,
                      independence_number, is_well_covered, radical_saturate)
from .rings import (GF, M, Prod, RingError, SpecConstraintError,
                    SpecSyntaxError, T, Z, CapExceededError, det_entries,
                    jacobson_radical, jacobson_radical_bruteforce, make_ring,
                    parse_spec, quotient_ring, ring_metadata)
from .structure import (Verdict, classify_cm, classify_gorenstein,
                        classify_well_covered, semisimple_quotient)
from .verify import run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
