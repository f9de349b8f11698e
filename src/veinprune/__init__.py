"""Finite posets, veins, the pruning order, and irreducible elements.

The library half: build a :class:`Poset` from relation pairs, ask for its
veins (irreducible convex chains), prune it (keep x below y only when some
maximal chain of [x, y] dodges every strict vein), and profile which
elements are irreducible, all on the fast cover-graph route
(:mod:`veinprune.veins`, :mod:`veinprune.pruning`,
:mod:`veinprune.irreducibles`). :mod:`veinprune.formats` reads and writes
documents and needs only the poset. The package root exports these, the
generators, the set families and the errors, and nothing else: the
definition-level route (:mod:`veinprune.oracle`) and the property suite
that holds the two routes equal (:mod:`veinprune.suite`) are imported
from their own modules. ``mode="oracle"`` selects the oracle in
``strict_veins``, ``prune`` and ``iterate_prune`` (the CLI's
``--mode``). The function ``irreducibles`` is reached through its
module, :mod:`veinprune.irreducibles`.

The tool half lives in :mod:`veinprune.cli` as the ``veinprune`` command.
"""

from .connectivity import SetFamily
from .errors import (
    CycleDetected,
    DuplicateLabel,
    EmptySet,
    InternalOrderViolation,
    InvalidSpec,
    MemberNotSubset,
    NotAChain,
    NotAConnectivity,
    NotComparable,
    NotConditionallyComplete,
    ParseError,
    PreconditionViolated,
    TooLarge,
    UnknownLabel,
    VeinpruneError,
)
from .families import (
    FIXTURE_NAMES,
    antichain_poset,
    boolean_poset,
    chain_poset,
    downset_corpus,
    downset_lattice,
    fence_poset,
    fixtures,
    random_corpus,
    random_poset,
)
from .formats import (
    PosetDocument,
    emit_dot,
    emit_json,
    emit_text,
    load_document,
    parse_json,
    parse_text,
)
from .irreducibles import (
    IrreducibilityProfile,
    PreservationReport,
    coirreducibles,
    doubly_irreducibles,
    is_coirreducible,
    is_irreducible,
    preservation_report,
    profiles,
)
from .poset import Poset
from .pruning import (
    PruneIteration,
    PruneReport,
    PruneWitness,
    iterate_prune,
    prune,
    pruning_leq,
    pruning_witness,
)
from .veins import (
    bridge_edges,
    is_vein,
    maximal_veins,
    strict_veins,
)

__version__ = "0.1.0"
