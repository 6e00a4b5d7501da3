"""Exact enumeration and rendering of semiperfect colorings of symmetric patterns."""

from .census import (
    Census,
    CensusEntry,
    ColorGroupTables,
    ColoringSpec,
    GroupAutomorphism,
    conjugate_spec,
    count_semiperfect_type1,
    enumerate_all_semiperfect,
    enumerate_type1,
    enumerate_type2,
    find_conjugating_automorphism,
    reference_grid_csv,
    standard_color_groups,
    type1_reference_grid,
)
from .errors import (
    InvalidParameterError,
    NotAPartitionError,
    ResourceLimitError,
    SemicolorError,
    UnsupportedPatternError,
)
from .geometry import (
    PlanarIsometry,
    SymmetryDiagram,
    classify_by_diagram,
    lift_quotient_element,
    symmetry_diagram,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    build_dihedral,
    build_p4m_quotient,
    generating_words,
    group_from_descriptor,
    left_coset_reps,
    normalizer,
    perfect_coset_count,
    right_coset_reps_outside,
    subgroup_from_words,
    subgroup_generated,
    subgroups_of_index,
    whole_group,
)
from .partitions import (
    Classification,
    ColorAction,
    GroupPartition,
    OrbitTable,
    classify_type1,
    classify_type2,
    color_action,
    equivalence_class,
    equivalence_key,
    general_partition,
    orbit_table,
    partition_stabilizer,
    stabilized_by_whole_group,
    type1_partition,
    type2_partition,
)
from .presentations import (
    BUILTIN_EMBEDDINGS,
    Presentation,
    builtin_presentation,
    low_index_subgroup_count,
)
from .render import PALETTES, render_svg
from .tiles import TileMap, hexagon_tile_map, p4m_tile_map, transfer_coloring, transfer_table
from .verify import action_equivalence_check, run_verification

__version__ = "0.1.0"
