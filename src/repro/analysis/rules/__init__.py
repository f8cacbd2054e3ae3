"""Rule registry for the invariant linter."""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.durability import DurableFsyncRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.obs_impact import ObsZeroImpactRule
from repro.analysis.rules.sim_purity import SimPurityRule
from repro.errors import ConfigError

#: Every shipped rule, in report order.
ALL_RULES: tuple[type[Rule], ...] = (
    SimPurityRule,
    ObsZeroImpactRule,
    LockOrderRule,
    DurableFsyncRule,
)


def get_rules(names: list[str] | None = None) -> list[Rule]:
    """Instantiate the full rule set, or the named subset."""
    by_name = {cls.name: cls for cls in ALL_RULES}
    if names is None:
        return [cls() for cls in ALL_RULES]
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ConfigError(
            f"unknown rule(s) {unknown}; available: {sorted(by_name)}"
        )
    return [by_name[n]() for n in names]
