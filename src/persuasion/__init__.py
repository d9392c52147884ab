"""Solvers, samplers, and verification oracles for Bayesian persuasion.

The package computes optimal and approximately optimal incentive-compatible
signaling schemes for explicit, i.i.d., independent, and black-box priors,
samples signals for realized states, and checks every guarantee against
brute-force oracles at desk scale.
"""

from .errors import (
    DimensionError,
    FileFormatError,
    InfeasibleReducedFormError,
    InstanceTooLargeError,
    PersuasionError,
    SolverError,
    ValidationError,
)
from .lp import LinearProgram, LpOutcome, solve
from .model import (
    AuditReport,
    DirectScheme,
    ExplicitInstance,
    IIDInstance,
    IndependentInstance,
    Marginal,
    PosteriorSummary,
    audit,
    best_response,
    posterior,
)
from .exact import (
    ExactSolution,
    expand_product,
    honest_scheme,
    no_information_scheme,
    profiles_of,
    solve_exact,
)
from .iid import (
    AllocationRule,
    BorderCheck,
    PriorityMixture,
    Signature,
    SSignature,
    border_feasible,
    decompose_reduced_form,
    implement_s_signature,
    priority_decomposition,
    reduced_form_of,
    s_signature_of,
    signature_of,
    solve_s_signature,
    symmetrize,
)
from .approx import IndependentSignalSampler, solve_relaxation
from .blackbox import (
    BlackboxSampler,
    EmpiricalScheme,
    ExplicitOracle,
    SampleOracle,
    sample_count,
    solve_empirical_lp,
)
from .khintchine import (
    TwoSignalSignature,
    khintchine_constant,
    khintchine_lp_witness,
    solve_khintchine_lp,
)
from .verify import (
    DirectSchemeSampler,
    EvalReport,
    ExplicitSource,
    IIDSource,
    OracleSource,
    allocation_exists_bruteforce,
    concavification_value,
    monte_carlo_eval,
    realizability_check,
)
from .files import (
    SchemeRecord,
    corpus_names,
    corpus_path,
    load_corpus,
    load_instance,
    load_scheme,
    save_instance,
    save_scheme,
)

__version__ = "0.1.0"
