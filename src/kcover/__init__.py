"""Online maximum k-interval coverage toolkit.

Sub-intervals of a target segment arrive online; at most k may be accepted,
irrevocably, to maximise the covered length.  The package provides the
interval machinery, an exact offline optimum, threshold-based online
policies, closed-form worst-case ratio bounds, adaptive generators that
realise those bounds, and a CLI harness tying them together.
"""

from .adversaries import (
    Adversary,
    GeometricGadget,
    adv_al,
    adv_fl_an,
    adv_fl_un,
    adv_ul_un_general,
    adv_ul_un_k2,
    adv_us_un,
    geometric_gadget,
)
from .bounds import (
    UNBOUNDED,
    BoundReport,
    bound_table,
    chain_alpha,
    chain_alpha_alt,
    lb_al,
    lb_fl_an,
    lb_fl_un,
    lb_ul_an,
    lb_ul_un,
    lb_us_un,
    ub_multi,
    ub_soa,
    ub_soa_an,
)
from .errors import (
    ConfigError,
    KcoverError,
    ProtocolError,
    SchemaError,
    SettingError,
    SizeGuardError,
    SolverEmptyError,
    StructureError,
)
from .harness import GameRecord, gen_instance, run_game, run_sweep, run_verify
from .instance_io import instance_from_dict, instance_to_dict, read_instance, write_instance
from .intervals import (
    Batch,
    CoverageState,
    Instance,
    Setting,
    SubInterval,
    absorb,
    added_length,
    union_length,
)
from .offline import (
    DpContext,
    SortedInstance,
    brute_force_offline,
    build_predecessors,
    dp_context,
    solve_offline,
    solve_offline_unit,
    sort_instance,
)
from .policies import (
    AcceptAllPolicy,
    AnytimeThresholdPolicy,
    Decision,
    MultiThresholdPolicy,
    Policy,
    RejectUntilForcedPolicy,
    ThresholdPolicy,
    TwoPhaseThresholdPolicy,
    run_policy,
)
from .thresholds import (
    DoaSolution,
    doa_objective,
    soa_an_theta,
    soa_theta,
    solve_doa,
    theta_crossover,
)

__version__ = "0.1.0"
