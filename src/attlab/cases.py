"""Channel-selection cases for the ablation matrix.

Seven 3-channel groups can feed the regressor, always concatenated in
the fixed order below. A case is a subset of groups:

* C1a..C1f progressively widen the input from the two measured vectors
  to all seven groups (6, 9, 12, 15, 18, 21 channels).
* C2* drops both magnetic groups from the C1 definitions.
* C3* drops the Sun-sensor measurements and the Sun model vector.
* C4f keeps only the scaled gyro rates.

C3b and C3e collapse onto C3a and C3d after the removal, so the default
catalog skips them; ``case_catalog(include_redundant=True)`` yields them
anyway.
"""

from dataclasses import dataclass

GROUP_ORDER = ("uS_c", "uB_m", "uE_c", "uS_i", "uB_i", "uE_i", "W_g")

SUN_GROUPS = frozenset({"uS_c", "uE_c", "uS_i"})
MAG_GROUPS = frozenset({"uB_m", "uB_i"})

_C1_VARIANTS = {
    "a": ("uS_c", "uB_m"),
    "b": ("uS_c", "uB_m", "uE_c"),
    "c": ("uS_c", "uB_m", "uS_i", "uB_i"),
    "d": ("uS_c", "uB_m", "uS_i", "uB_i", "uE_i"),
    "e": ("uS_c", "uB_m", "uE_c", "uS_i", "uB_i", "uE_i"),
    "f": GROUP_ORDER,
}

DEFAULT_CASE_IDS = (
    "C1a", "C1b", "C1c", "C1d", "C1e", "C1f",
    "C2a", "C2b", "C2c", "C2d", "C2e", "C2f",
    "C3a", "C3c", "C3d", "C3f",
    "C4f",
)


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    groups: tuple  # subset of GROUP_ORDER, in canonical order

    @property
    def channel_count(self):
        return 3 * len(self.groups)


def case_spec(case_id):
    """Parse a case id like 'C2f' into its group selection."""
    cid = case_id.strip()
    if len(cid) != 3 or cid[0] != "C" or cid[1] not in "1234" or cid[2] not in "abcdef":
        raise ValueError(f"unknown case id {case_id!r}")
    family = int(cid[1])
    groups = set(_C1_VARIANTS[cid[2]])
    if family == 2:
        groups -= MAG_GROUPS
    elif family == 3:
        groups -= SUN_GROUPS
    elif family == 4:
        groups &= {"W_g"}
    ordered = tuple(g for g in GROUP_ORDER if g in groups)
    if not ordered:
        raise ValueError(f"case {case_id!r} selects no channel groups")
    return CaseSpec(case_id=cid, groups=ordered)


def case_catalog(include_redundant=False):
    """The reported case list; optionally also the collapsed C3b/C3e rows."""
    ids = list(DEFAULT_CASE_IDS)
    if include_redundant:
        ids[ids.index("C3c"):ids.index("C3c")] = ["C3b"]
        ids[ids.index("C3f"):ids.index("C3f")] = ["C3e"]
    return [case_spec(cid) for cid in ids]
