"""Thermal-noise (KLJN-family) key-exchange simulation and analysis toolkit."""

__version__ = "0.1.0"

from ._streams import bit_seed
from .adversary import (
    EveView,
    GuessRecord,
    ResistorPair,
    SolutionFamilyPoint,
    eve_guess_session,
    eve_pair_extraction,
    eve_rrrt_solution_family,
    wilson_interval,
)
from .errors import (
    AmbiguousRecovery,
    ConfigError,
    GridTooLarge,
    InadmissibleTemperatures,
    InconsistentObservables,
    KeyDisagreement,
    KljnError,
    ModelMismatch,
    NoPositiveRoot,
    SingularSystem,
    TraceTooShort,
)
from .lookup import LookupTable
from .physics import (
    BOLTZMANN,
    NORMALIZED,
    SI,
    BandConfig,
    PartyState,
    PhysicalConstants,
    WireObservables,
    analytic_observables,
)
from .protocol import (
    BitOutcome,
    ProtocolConfig,
    SessionReport,
    build_lookup_table,
    run_bit,
    run_session,
)
from .resolver import (
    RecoveredPartner,
    ReducedObservables,
    VmgTemperatures,
    recover_partner,
    reduce_observables,
    solve_vmg_temperatures,
)
