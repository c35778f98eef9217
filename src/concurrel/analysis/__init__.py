from .config import AnalysisConfig, ClusterConfig, ConfigError, PRESETS, preset  # noqa: F401
from .driver import AnalysisResult, ProgramError, run_analysis  # noqa: F401
from .improved_system import ImprovedState, ImprovedSystem  # noqa: F401
from .base_system import BaseAnalysis  # noqa: F401
from .keys import MutexKey, PointKey, RetKey, render_key  # noqa: F401
from .protections import (  # noqa: F401
    compute_protections, declared_protections, infer_protections, protected_by,
)
from .reporting import (  # noqa: F401
    AssertVerdict, LockInvariant, check_asserts, derive_lock_invariants,
    dump_solution,
)
