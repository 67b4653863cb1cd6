"""coxrank: rank classification and word combinatorics for right-angled
Coxeter and Artin groups.

The library classifies the algebraic rank of a group from its defining
graph, solves the word problem by rewriting, certifies elements as
essential (rank one when the group is infinite, irreducible and
non-affine: a join-free graph with at least three vertices), synthesizes
the repair multipliers that turn arbitrary elements into certified ones,
and verifies the covering properties behind the classification by
bounded brute force.
"""

from .cancellator import (
    BlockerChoice,
    BlockerVariant,
    MultiplierTrace,
    TraceStep,
    choose_blockers,
    essentialize,
    fix_missing,
    make_good,
    multiplier_word,
)
from .certificates import (
    Counterexample,
    GoodnessReport,
    GoodnessStatus,
    bad_set,
    falsify_essential,
    find_even_completion,
    goodness_report,
    is_all_odd_essential,
    is_good_essential,
    is_s_good,
)
from .errors import CoxrankError
from .graphs import (
    DefiningGraph,
    FactorKind,
    classify_factor,
    dj_double_prime,
    dj_prime,
    is_join,
    join_decompose,
    load_graph,
    parse_graph,
)
from .kernels import BACKEND
from .ranks import RankReport, commensurability_flag, rank_raag, rank_racg
from .subgroups import (
    SubgroupSpec,
    commutator_subgroup,
    enumerate_members,
    index_and_exponent,
    make_subgroup,
    member,
    parse_subgroup_file,
)
from .verify import (
    VerificationReport,
    rewriting_closure_equal,
    verify_cancellator_uniformity,
    verify_covering,
    verify_essential_certificates,
    verify_join_lemma,
    verify_parity_invariance,
    verify_subgroup_covering,
    verify_word_problem,
)
from .words import (
    Word,
    enumerate_ball,
    equal,
    format_word,
    normal_form,
    parity_vector,
    parse_word,
    reduce_word,
    support,
)

__version__ = "0.1.0"
