"""Constructive local-lemma toolkit: a Moser-Tardos resampler that shares
random streams across a sparse partition, plus the witness-landscape
machinery (sequence decoding, grounding calculus, injective tape encoding)
and exact counting bounds that certify its behaviour on finite instances.
"""

from .graphs import (
    InstanceParams,
    LocalRule,
    Partition,
    VariableGraph,
    ball,
    build_rel,
    greedy_mis,
    interior,
    is_sparse,
    params,
    sparse_partition,
    violating_set,
)
from .instances import (
    CnfInstance,
    ConditionReport,
    TorusSpec,
    bundled_instances,
    check_lll_condition,
    from_cnf,
    instance_from_json,
    instance_to_json,
    parse_dimacs,
    random_bounded_overlap_sat,
    torus_instance,
)
from .engine import (
    MtaSystem,
    RandomTape,
    RunTrace,
    TapeExhausted,
    pad_uniform,
    run_k,
    run_until_satisfied,
    used_unused,
)
from .landscapes import (
    CodeCorruptionError,
    DecoratedLandscape,
    GroundingError,
    LandscapeType,
    TapeCode,
    Window,
    asgn_seq,
    decode_tape,
    default_window_params,
    encode_tape,
    extract_landscape,
    find_window,
    ground,
    join,
    push_all,
    push_tree,
    rebranch,
    restrict,
)
from .counting import (
    CountReport,
    TailEstimate,
    count_labelled_trees,
    enumerate_small_landscapes,
    fuss_catalan,
    labelled_tree_bound,
    landscape_class_bound,
    landscape_count_reports,
    tail_estimate,
    tree_count_iterates,
    tree_count_reports,
)

__version__ = "0.1.0"
