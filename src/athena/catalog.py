"""Shipped requirement suite: formulas, manual scores, and search boxes.

Each entry bundles everything a falsification run needs against one of
the built-in plants: the requirement, a hand-written manual fitness
expression encoding a plausible failure strategy, the admissible input
shapes, a robustness normalizer, and a recommended integration step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .fitness import ManualFitnessExpr, parse_manual
from .models import PlantModel, builtin
from .search import Assumption, PortAssumption, simulation_grid
from .signals import InterpolationKind, TimeGrid
from .stl import Formula, parse

__all__ = ["CatalogEntry", "catalog", "catalog_ids", "parsed"]

_PCHIP = InterpolationKind.PCHIP


@dataclass(frozen=True)
class CatalogEntry:
    """One ready-to-run falsification problem."""

    id: str
    plant_name: str
    formula_text: str
    formula: Formula
    manual_text: str
    manual: ManualFitnessExpr
    assumption: Assumption
    auto_scale: float
    step: float
    description: str

    def make_plant(self) -> PlantModel:
        return builtin(self.plant_name)

    def grid(self) -> TimeGrid:
        return simulation_grid(self.make_plant(), self.formula, self.step)


def _at_box() -> Assumption:
    return Assumption(
        (
            PortAssumption("Throttle", _PCHIP, 0.0, 100.0, 7),
            PortAssumption("Brake", _PCHIP, 0.0, 325.0, 3),
        )
    )


def _cc_box() -> Assumption:
    return Assumption(
        (
            PortAssumption("throttle", _PCHIP, 0.0, 1.0, 7),
            PortAssumption("brake", _PCHIP, 0.0, 1.0, 3),
        )
    )


_AT6_MANUAL = (
    "0.5 * dist(scale(mean(Throttle,[0,33]),[0,100]),0.45)"
    " + 0.5 * scale(mean(Brake,[0,25]),[0,325])"
)

_CC_RUNAWAY_MANUAL = (
    "scale(max(brake,[0,100]),[0,1]) - scale(min(throttle,[0,100]),[0,1])"
)

_SPECS: dict[str, tuple[str, str, str, str, float, float, str]] = {
    # id: (plant, formula, manual, box, auto_scale, step, description)
    "AT1": (
        "at_lite",
        "G[0,20] (Speed < 120)",
        "scale(max(Brake,[0,25]),[0,325]) - scale(min(Throttle,[0,17]),[0,100])",
        "at",
        120.0,
        0.05,
        "Speed must stay under 120 mph for the first 20 s; the manual score "
        "favors wide-open throttle with no braking.",
    ),
    "AT2": (
        "at_lite",
        "G[0,10] (RPM < 4750)",
        "scale(mean(Brake,[0,25]),[0,325]) - scale(mean(Throttle,[0,8]),[0,100])",
        "at",
        4750.0,
        0.05,
        "RPM must stay under 4750 for the first 10 s; the manual score "
        "favors high early throttle and low braking.",
    ),
    "AT6a": (
        "at_lite",
        "G[0,30] (RPM < 3000) -> G[0,4] (Speed < 35)",
        _AT6_MANUAL,
        "at",
        3000.0,
        0.05,
        "If RPM stays under 3000 for 30 s, Speed must stay under 35 mph "
        "for the first 4 s; the manual score holds throttle near 45% with "
        "little braking so the premise stays true while speed builds.",
    ),
    "AT6b": (
        "at_lite",
        "G[0,30] (RPM < 3000) -> G[0,8] (Speed < 50)",
        _AT6_MANUAL,
        "at",
        3000.0,
        0.05,
        "If RPM stays under 3000 for 30 s, Speed must stay under 50 mph "
        "for the first 8 s; same throttle-shaping strategy as AT6a.",
    ),
    "AT6c": (
        "at_lite",
        "G[0,30] (RPM < 3000) -> G[0,20] (Speed < 65)",
        _AT6_MANUAL,
        "at",
        3000.0,
        0.05,
        "If RPM stays under 3000 for 30 s, Speed must stay under 65 mph "
        "for the first 20 s; same throttle-shaping strategy as AT6a.",
    ),
    "CC1": (
        "chasing_cars",
        "G[0,100] (y5 - y4 <= 40)",
        _CC_RUNAWAY_MANUAL,
        "cc",
        40.0,
        0.05,
        "The front gap must never exceed 40 m; the manual score favors "
        "full throttle and no braking so the lead car pulls away.",
    ),
    "CC2": (
        "chasing_cars",
        "G[0,70] (F[0,30] (y5 - y4 >= 15))",
        "scale(max(throttle,[0,100]),[0,1]) - scale(min(brake,[0,100]),[0,1])",
        "cc",
        15.0,
        0.05,
        "From any time up to 70 s the front gap must reach 15 m within "
        "30 s; the manual score favors braking with no throttle so the "
        "platoon bunches up.",
    ),
    "CC3": (
        "chasing_cars",
        "G[0,80] (G[0,20] (y2 - y1 <= 20) or F[0,20] (y5 - y4 >= 40))",
        _CC_RUNAWAY_MANUAL,
        "cc",
        40.0,
        0.05,
        "At all times up to 80 s, either the rear gap stays within 20 m "
        "for 20 s or the front gap reaches 40 m within 20 s; the manual "
        "score favors full throttle and no braking.",
    ),
    "CC4": (
        "chasing_cars",
        "G[0,65] (F[0,30] (G[0,20] (y5 - y4 >= 8)))",
        "scale(min(y5 - y4,[0,100]),[0,40])",
        "cc",
        8.0,
        0.05,
        "From any time up to 65 s, within 30 s the front gap must hold at "
        "least 8 m for 20 s straight; the manual score drives the smallest "
        "front gap down.",
    ),
    "CC5": (
        "chasing_cars",
        "G[0,72] (F[0,8] (G[0,5] (y2 - y1 >= 9) -> G[5,20] (y5 - y4 >= 9)))",
        "0.5 * dist(scale(mean(throttle,[0,33]),[0,1]),0.3)"
        " - 0.5 * scale(mean(brake,[0,50]),[0,1])",
        "cc",
        9.0,
        0.05,
        "Whenever the rear gap holds 9 m for 5 s, the front gap must hold "
        "9 m over the following [5,20] s band; the manual score keeps "
        "throttle near 30% and brakes hard.",
    ),
    "CCx": (
        "chasing_cars",
        "G[0,50] (y2 - y1 > 7.5) and G[0,50] (y3 - y2 > 7.5)"
        " and G[0,50] (y4 - y3 > 7.5) and G[0,50] (y5 - y4 > 7.5)",
        "scale(mean(throttle,[16.4,16.9]),[0,1])"
        " - scale(mean(throttle,[0,0.5]),[0,1])",
        "cc",
        7.5,
        0.05,
        "All four gaps must stay above 7.5 m for 50 s; the manual score "
        "favors an opening throttle surge followed by a dip around the "
        "second control point, which sends a compression wave down the "
        "platoon.",
    ),
}


def catalog_ids() -> tuple[str, ...]:
    """All shipped requirement ids, in a stable order."""
    return tuple(_SPECS)


# Parsed (formula, manual) text pairs kept per process, the least recently
# used dropped first: room for every requirement's pair and as many
# inline configs'.
PARSE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parsed(
    formula_text: str, manual_text: str | None
) -> tuple[Formula, ManualFitnessExpr | None]:
    """The formula and manual trees of these texts; the manual is None
    when its text is.

    The trees are frozen, so every caller of the same texts shares them:
    each requirement's entries and every `harness.resolve` of an inline
    config. A text that fails to parse raises on every call, since an
    exception is not cached.
    """
    manual = parse_manual(manual_text) if manual_text is not None else None
    return parse(formula_text), manual


def catalog(requirement_id: str) -> CatalogEntry:
    """Look up one shipped requirement by id (e.g. "AT1", "CC4").

    Each call returns a fresh entry; its formula and manual trees, which
    are immutable, are parsed once and shared (`parsed`)."""
    try:
        plant, formula_text, manual_text, box, auto_scale, step, desc = _SPECS[
            requirement_id
        ]
    except KeyError:
        raise KeyError(
            f"unknown requirement {requirement_id!r}; available: "
            f"{', '.join(_SPECS)}"
        ) from None
    formula, manual = parsed(formula_text, manual_text)
    return CatalogEntry(
        id=requirement_id,
        plant_name=plant,
        formula_text=formula_text,
        formula=formula,
        manual_text=manual_text,
        manual=manual,
        assumption=_at_box() if box == "at" else _cc_box(),
        auto_scale=auto_scale,
        step=step,
        description=desc,
    )
