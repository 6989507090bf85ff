"""Analog device health: degradation fault models, monitoring, gating.

The paper's hybrid pipeline stands on one assumption: the analog seed
is good enough (5.38 % RMS, Figure 6) that undamped digital Newton
starts inside the quadratic basin. The rest of the repo calibrates a
:class:`~repro.analog.fabric.Fabric` once at construction and then
trusts every seed unconditionally — but real analog hardware degrades
*between* calibrations: bias currents drift with temperature, devices
age, tiles stick at a rail, DAC channels die. This module makes the
analog substrate a first-class fault domain:

* :class:`DegradationModel` / :class:`DegradationSchedule` — seeded,
  picklable, time-dependent fault models layered on top of the
  post-calibration residual errors drawn by
  :class:`~repro.analog.calibration.ProcessVariation`: calibration
  drift as a per-component random walk, deterministic bias toward
  saturation, stuck tiles, dead DAC channels. The schedule advances by
  one step on every ``exec_start`` of the fabric it is attached to —
  degradation is a function of *use and time*, not of construction.
* :class:`SeedQualityGate` / :class:`SeedQuality` — a cheap
  residual-norm acceptance test that judges an analog seed *before* it
  is handed to undamped Newton. The score is always finite (NaN/Inf in
  a saturated or dead-tile seed clamp to a large rejectable value, see
  :data:`NONFINITE_QUALITY`), so a broken seed can never propagate
  non-finite values into the digital polish.
* :class:`HealthMonitor` / :class:`TileHealth` — online per-tile
  residual statistics across solves (EWMA of per-variable residual in
  full-scale units, settle-time EWMA, saturation counts), tile
  flagging when the observed drift exceeds the calibration tolerance,
  quarantine bookkeeping, and recalibration-pressure accounting.

Randomness discipline matches :mod:`repro.runtime`: every draw is
keyed by a SHA-256 ``stable_seed`` of ``(seed, purpose, step,
component name)``, so a schedule replays identically in any process,
at any worker count, and regardless of how many fabrics it has been
attached to — the property the workers=1 == workers=4 bitwise
determinism harness checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NONFINITE_QUALITY",
    "DegradationModel",
    "DegradationSchedule",
    "SeedQuality",
    "SeedQualityGate",
    "TileHealth",
    "HealthMonitor",
]

# The finite sentinel a non-finite seed's quality score clamps to:
# large enough that no gate accepts it, small enough that downstream
# arithmetic (logging, comparisons, EWMA updates) stays finite.
NONFINITE_QUALITY = 1e30


def _stable_seed(*parts: Any) -> int:
    """Process-stable 63-bit seed (mirrors ``repro.runtime.api.stable_seed``).

    Duplicated here rather than imported so the analog layer never
    depends on the runtime package above it.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Degradation fault models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationModel:
    """Parameters of one board's degradation processes (picklable).

    All rates and sigmas are *per schedule step*; one step is one
    ``exec_start`` of the attached fabric.

    Attributes
    ----------
    gain_drift_sigma:
        Sigma of the per-component random walk added to relative gain
        errors each step (temperature drift of bias currents).
    offset_drift_sigma:
        Sigma of the per-component offset random walk, in full-scale
        units (the dominant long-run error per the memristor analog
        simulator literature).
    gain_drift_bias:
        Deterministic per-step gain drift applied to every component —
        a positive bias models the saturation-prone datapath whose
        signals creep toward the rails with age.
    stuck_tile_rate:
        Per-step probability that each still-healthy tile sticks at
        the rail (its datapath multipliers pin their offsets at full
        scale).
    dead_dac_rate:
        Per-step probability that each live DAC channel dies (output
        reads zero; the missing programmed constant appears as a
        full-scale equation offset to first order).
    stuck_tiles / dead_dacs:
        Deterministic component names applied on the first step, for
        targeted scenarios and tests.
    seed:
        Root of every draw the schedule makes.
    """

    gain_drift_sigma: float = 0.0
    offset_drift_sigma: float = 0.0
    gain_drift_bias: float = 0.0
    stuck_tile_rate: float = 0.0
    dead_dac_rate: float = 0.0
    stuck_tiles: Tuple[str, ...] = ()
    dead_dacs: Tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("gain_drift_sigma", "offset_drift_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("stuck_tile_rate", "dead_dac_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    @classmethod
    def from_spec(cls, text: str) -> "DegradationModel":
        """Parse a ``key=value,key=value`` spec (the CLI's
        ``--degradation`` flag) into a model.

        List-valued keys take ``;``-separated names, e.g.
        ``offset_drift_sigma=0.2,stuck_tiles=chip0.tile1;chip0.tile3``.
        """
        kwargs: Dict[str, Any] = {}
        fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in fields:
                raise ValueError(
                    f"degradation spec {part!r} is not of the form key=value "
                    f"with key one of {sorted(fields)}"
                )
            if key in ("stuck_tiles", "dead_dacs"):
                kwargs[key] = tuple(name for name in value.split(";") if name)
            elif key == "seed":
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)

    @property
    def active(self) -> bool:
        return bool(
            self.gain_drift_sigma
            or self.offset_drift_sigma
            or self.gain_drift_bias
            or self.stuck_tile_rate
            or self.dead_dac_rate
            or self.stuck_tiles
            or self.dead_dacs
        )


class DegradationSchedule:
    """Seeded, picklable degradation state advanced once per ``exec_start``.

    The schedule owns the *drift state* (accumulated random walks keyed
    by component name, the stuck-tile and dead-DAC sets, the step
    counter); the fabric's components carry their post-calibration
    baselines (``calibrated_gain_error`` / ``calibrated_offset``), so
    applying the schedule is idempotent and works identically whether
    the accelerator reuses one fabric (``solve_batch``) or builds a
    fresh one per solve — same component names, same walks.

    Recalibration (:meth:`reset`) zeroes the drift walks — the trim
    DACs re-null what drifted — but stuck tiles and dead DACs are
    *hardware* faults and survive recalibration.
    """

    def __init__(self, model: DegradationModel, seed: Optional[int] = None):
        self.model = model
        self.seed = int(model.seed if seed is None else seed)
        self.step = 0
        self.gain_drift: Dict[str, float] = {}
        self.offset_drift: Dict[str, float] = {}
        self.stuck_tiles = set(model.stuck_tiles)
        self.dead_dacs = set(model.dead_dacs)
        self.resets = 0

    def __getstate__(self):
        return self.__dict__.copy()

    def __setstate__(self, state):
        self.__dict__.update(state)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot of the mutable wear state (the model's
        parameters live in ``self.model`` and are serialized by the
        runtime config, not here). Sets become sorted lists so the
        encoding — and any content hash over it — is deterministic."""
        return {
            "seed": self.seed,
            "step": self.step,
            "gain_drift": {name: self.gain_drift[name] for name in sorted(self.gain_drift)},
            "offset_drift": {name: self.offset_drift[name] for name in sorted(self.offset_drift)},
            "stuck_tiles": sorted(self.stuck_tiles),
            "dead_dacs": sorted(self.dead_dacs),
            "resets": self.resets,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Reinstall wear state captured by :meth:`state_dict` (the
        checkpoint-resume path: a restored board has the same drift
        walks, stuck tiles, dead DACs and step count as the original)."""
        self.seed = int(state["seed"])
        self.step = int(state["step"])
        self.gain_drift = dict(state.get("gain_drift") or {})
        self.offset_drift = dict(state.get("offset_drift") or {})
        self.stuck_tiles = set(state.get("stuck_tiles") or ())
        self.dead_dacs = set(state.get("dead_dacs") or ())
        self.resets = int(state.get("resets", 0))

    def _draw(self, purpose: str, name: str) -> np.random.Generator:
        return np.random.default_rng(_stable_seed(self.seed, purpose, self.step, name))

    def advance(self, fabric) -> None:
        """One degradation step: walk the drift, maybe break hardware.

        Called by :meth:`repro.analog.fabric.Fabric.exec_start` so
        every accelerator run ages the board by one step. Applies the
        accumulated state to the fabric's components on top of their
        calibrated baselines.
        """
        model = self.model
        self.step += 1
        for chip in fabric.chips:
            for tile in chip.tiles:
                if model.stuck_tile_rate > 0.0 and tile.name not in self.stuck_tiles:
                    if self._draw("stuck", tile.name).uniform() < model.stuck_tile_rate:
                        self.stuck_tiles.add(tile.name)
                for component in tile.components():
                    name = component.name
                    if model.gain_drift_sigma > 0.0 or model.gain_drift_bias:
                        step = model.gain_drift_bias
                        if model.gain_drift_sigma > 0.0:
                            step += model.gain_drift_sigma * float(
                                self._draw("gain_drift", name).standard_normal()
                            )
                        self.gain_drift[name] = self.gain_drift.get(name, 0.0) + step
                    if model.offset_drift_sigma > 0.0:
                        walk = model.offset_drift_sigma * float(
                            self._draw("offset_drift", name).standard_normal()
                        )
                        self.offset_drift[name] = self.offset_drift.get(name, 0.0) + walk
                for dac in tile.dacs:
                    if model.dead_dac_rate > 0.0 and dac.name not in self.dead_dacs:
                        if self._draw("dead_dac", dac.name).uniform() < model.dead_dac_rate:
                            self.dead_dacs.add(dac.name)
        self.apply(fabric)

    def apply(self, fabric) -> None:
        """Impose the current degradation state on a fabric's components.

        Idempotent: each component's error is its calibrated baseline
        plus the accumulated drift, never drift-on-drift.
        """
        full_scale = fabric.noise.full_scale
        for chip in fabric.chips:
            for tile in chip.tiles:
                stuck = tile.name in self.stuck_tiles
                tile.stuck = stuck
                for component in tile.components():
                    name = component.name
                    component.gain_error = (
                        component.calibrated_gain_error + self.gain_drift.get(name, 0.0)
                    )
                    component.offset = (
                        component.calibrated_offset + self.offset_drift.get(name, 0.0)
                    )
                if stuck:
                    # A stuck tile's datapath pins at the rail: each
                    # multiplier stage contributes a full-scale offset.
                    for multiplier in tile.multipliers:
                        multiplier.offset = full_scale
                for dac in tile.dacs:
                    dac.dead = dac.name in self.dead_dacs

    def reset(self) -> None:
        """Recalibration: re-null the drift; hardware faults persist."""
        self.gain_drift.clear()
        self.offset_drift.clear()
        self.resets += 1

    def drift_magnitude(self) -> float:
        """Largest accumulated drift across components (diagnostics)."""
        magnitudes = [abs(v) for v in self.gain_drift.values()]
        magnitudes += [abs(v) for v in self.offset_drift.values()]
        return max(magnitudes, default=0.0)


# ---------------------------------------------------------------------------
# Seed-quality gating
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedQuality:
    """Verdict of the gate on one analog seed. ``quality`` is always
    finite: the residual norm of the seed relative to the residual at
    the digital initial guess (< 1 means the seed improved on it)."""

    quality: float
    accepted: bool
    threshold: float
    finite: bool
    """False when the raw analog solution carried NaN/Inf (the gate
    clamped the score to :data:`NONFINITE_QUALITY`)."""


@dataclass(frozen=True)
class SeedQualityGate:
    """Cheap residual-norm acceptance test for analog seeds.

    ``max_relative_residual`` is the acceptance bound on
    ``|F(seed)| / max(|F(guess)|, floor)``. The default of 1.0 accepts
    any seed that is no worse than the naive initial guess — at the
    paper's 5.38 %-RMS operating point a healthy seed scores far below
    it (typically 0.05–0.3), so the default only rejects seeds that
    are actively harmful, where undamped Newton would start outside
    the quadratic basin and burn a failed hybrid rung.
    """

    max_relative_residual: float = 1.0
    reference_floor: float = 1e-12
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_relative_residual <= 0.0:
            raise ValueError("max_relative_residual must be positive")
        if self.reference_floor <= 0.0:
            raise ValueError("reference_floor must be positive")

    def assess(
        self,
        solution: np.ndarray,
        residual_norm: float,
        reference_norm: float,
    ) -> SeedQuality:
        """Judge a seed from its residual norm; never returns NaN/Inf."""
        solution = np.asarray(solution, dtype=float)
        finite = bool(np.all(np.isfinite(solution))) and bool(np.isfinite(residual_norm))
        if finite and np.isfinite(reference_norm):
            reference = max(float(reference_norm), self.reference_floor)
            quality = min(float(residual_norm) / reference, NONFINITE_QUALITY)
        else:
            quality = NONFINITE_QUALITY
            finite = False
        accepted = (not self.enabled) or quality <= self.max_relative_residual
        return SeedQuality(
            quality=quality,
            accepted=accepted,
            threshold=self.max_relative_residual,
            finite=finite,
        )


# ---------------------------------------------------------------------------
# Online health monitoring
# ---------------------------------------------------------------------------


def _slotted(cls: type) -> type:
    """Rebuild a dataclass with ``__slots__`` and no per-instance
    ``__dict__``: what ``dataclass(slots=True)`` does on Python >= 3.10."""
    names = tuple(f.name for f in fields(cls))
    namespace = {
        key: value
        for key, value in cls.__dict__.items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    namespace["__slots__"] = names
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return slotted


@_slotted
@dataclass
class TileHealth:
    """Running statistics for one tile, updated per accelerator run."""

    name: str
    observations: int = 0
    residual_ewma: float = 0.0
    """EWMA of the tile's per-variable seed residual in full-scale
    (scaled) units — the per-tile slice of Equation 6's error metric."""
    settle_ewma: float = 0.0
    saturation_count: int = 0
    flagged: bool = False
    quarantined: bool = False
    flag_reason: Optional[str] = None

    def observe(
        self,
        residual: float,
        settle_time: float,
        saturated: bool,
        alpha: float,
        settled: bool = True,
    ) -> None:
        if saturated:
            self.saturation_count += 1
        if not settled:
            # An unsettled run's residual reflects the time budget, not
            # the tile — only saturation evidence counts.
            return
        residual = float(residual)
        if not np.isfinite(residual):
            residual = NONFINITE_QUALITY
        if self.observations == 0:
            self.residual_ewma = residual
            self.settle_ewma = float(settle_time)
        else:
            self.residual_ewma += alpha * (residual - self.residual_ewma)
            self.settle_ewma += alpha * (float(settle_time) - self.settle_ewma)
        self.observations += 1


class HealthMonitor:
    """Tracks per-tile health across solves; flags, quarantines, and
    decides when recalibration is due.

    Parameters
    ----------
    drift_tolerance:
        Bound on a tile's residual EWMA (full-scale units) before it is
        flagged as drifted beyond calibration tolerance. Defaults to
        :attr:`repro.analog.calibration.CalibrationConfig.drift_tolerance`
        when a config is given, else 1.2 — comfortably above the worst
        per-tile residual a healthy 5.38 %-RMS seed leaves (unlucky
        dies reach ~0.5 full-scale units), far below a drifted board's.
    saturation_limit:
        Saturation observations before a tile is flagged saturation-prone.
    min_observations:
        Observations required before residual flagging can fire (one
        bad solve is weather; two is climate).
    settle_anomaly_factor:
        A run settling this many times slower than the board-wide EWMA
        is recorded as a settle anomaly (reported, not flagged on).
    recalibration_pressure:
        Quarantined fraction of the board at which recalibration is
        scheduled.
    ewma_alpha:
        Smoothing factor of every EWMA.
    """

    def __init__(
        self,
        drift_tolerance: Optional[float] = None,
        saturation_limit: int = 3,
        min_observations: int = 2,
        settle_anomaly_factor: float = 5.0,
        recalibration_pressure: float = 0.25,
        ewma_alpha: float = 0.5,
        calibration=None,
    ):
        if drift_tolerance is None:
            drift_tolerance = getattr(calibration, "drift_tolerance", None)
        self.drift_tolerance = 1.2 if drift_tolerance is None else float(drift_tolerance)
        if self.drift_tolerance <= 0.0:
            raise ValueError("drift_tolerance must be positive")
        if saturation_limit < 1:
            raise ValueError("saturation_limit must be at least 1")
        if min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        if not 0.0 < recalibration_pressure <= 1.0:
            raise ValueError("recalibration_pressure must be in (0, 1]")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.saturation_limit = int(saturation_limit)
        self.min_observations = int(min_observations)
        self.settle_anomaly_factor = float(settle_anomaly_factor)
        self.recalibration_pressure = float(recalibration_pressure)
        self.ewma_alpha = float(ewma_alpha)
        self.tiles: Dict[str, TileHealth] = {}
        self.board_settle_ewma = 0.0
        self.solves_observed = 0
        self.settled_solves = 0
        self.unsettled_solves = 0
        self.settle_anomalies = 0
        # The three reconciliation counters of the health layer.
        self.seeds_rejected = 0
        self.tiles_quarantined = 0
        self.recalibrations = 0

    # -- observation ----------------------------------------------------

    def tile(self, name: str) -> TileHealth:
        health = self.tiles.get(name)
        if health is None:
            health = self.tiles[name] = TileHealth(name=name)
        return health

    def observe_solve(
        self,
        tile_names: Sequence[str],
        scaled_residuals: np.ndarray,
        settle_time_units: float,
        saturated: np.ndarray,
        settled: bool = True,
    ) -> List[str]:
        """Fold one accelerator run into the statistics.

        ``scaled_residuals`` are per-variable |residual| in full-scale
        units, ordered like ``tile_names`` (one variable per tile);
        ``saturated`` flags variables measured at the ADC rails.
        ``settled=False`` (the flow ran out of its time budget) records
        saturation evidence only: an unsettled residual says nothing
        about calibration drift. Returns the names of tiles *newly*
        flagged by this observation.
        """
        scaled_residuals = np.asarray(scaled_residuals, dtype=float)
        saturated = np.asarray(saturated, dtype=bool)
        settle = float(settle_time_units)
        if not np.isfinite(settle):
            settle = 0.0
        if settled:
            if self.settled_solves == 0:
                self.board_settle_ewma = settle
            else:
                if (
                    self.board_settle_ewma > 0.0
                    and settle > self.settle_anomaly_factor * self.board_settle_ewma
                ):
                    self.settle_anomalies += 1
                self.board_settle_ewma += self.ewma_alpha * (settle - self.board_settle_ewma)
            self.settled_solves += 1
        else:
            self.unsettled_solves += 1
        self.solves_observed += 1
        newly_flagged: List[str] = []
        for index, name in enumerate(tile_names):
            health = self.tile(name)
            health.observe(
                residual=scaled_residuals[index],
                settle_time=settle,
                saturated=bool(saturated[index]),
                alpha=self.ewma_alpha,
                settled=settled,
            )
            if health.flagged:
                continue
            if (
                health.observations >= self.min_observations
                and health.residual_ewma > self.drift_tolerance
            ):
                health.flagged = True
                health.flag_reason = (
                    f"residual EWMA {health.residual_ewma:.3g} beyond "
                    f"calibration tolerance {self.drift_tolerance:.3g}"
                )
            elif health.saturation_count >= self.saturation_limit:
                health.flagged = True
                health.flag_reason = (
                    f"saturated {health.saturation_count} times (limit "
                    f"{self.saturation_limit})"
                )
            if health.flagged:
                newly_flagged.append(name)
        return newly_flagged

    def note_seed_rejected(self) -> None:
        self.seeds_rejected += 1

    # -- quarantine and recalibration -----------------------------------

    @property
    def quarantined(self) -> Tuple[str, ...]:
        return tuple(
            sorted(name for name, h in self.tiles.items() if h.quarantined)
        )

    def flagged(self) -> Tuple[str, ...]:
        return tuple(sorted(name for name, h in self.tiles.items() if h.flagged))

    def quarantine_flagged(self) -> List[str]:
        """Quarantine every flagged-but-free tile; returns the new names."""
        newly = []
        for name in self.flagged():
            health = self.tiles[name]
            if not health.quarantined:
                health.quarantined = True
                newly.append(name)
        self.tiles_quarantined += len(newly)
        return newly

    def quarantine_pressure(self, total_tiles: int) -> float:
        if total_tiles <= 0:
            return 0.0
        return len(self.quarantined) / float(total_tiles)

    def should_recalibrate(self, total_tiles: int) -> bool:
        return self.quarantine_pressure(total_tiles) >= self.recalibration_pressure

    def note_recalibration(self) -> None:
        """Recalibration resets the drift story: statistics restart from
        a trimmed board and every quarantine lifts (a tile whose fault
        is *hardware*, not drift, will re-flag within
        ``min_observations`` solves and be re-quarantined)."""
        self.recalibrations += 1
        self.tiles.clear()
        self.board_settle_ewma = 0.0
        self.solves_observed = 0
        self.settled_solves = 0
        self.unsettled_solves = 0

    def apply_quarantine(self, fabric) -> None:
        """Mark this monitor's quarantined tiles on a (fresh) fabric."""
        names = set(self.quarantined)
        for chip in fabric.chips:
            for tile in chip.tiles:
                tile.quarantined = tile.name in names

    # -- reporting -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "seeds_rejected": self.seeds_rejected,
            "tiles_quarantined": self.tiles_quarantined,
            "recalibrations": self.recalibrations,
        }

    def board_summary(self) -> Dict[str, Any]:
        """Board-level rates, safe on a board that never settled.

        Every rate is ``None`` when its denominator is zero — a board
        with zero settled attempts (fresh, fully vetoed, or freshly
        recalibrated) is idle, not broken, and must render as "-"
        rather than divide by zero.
        """
        tiles = list(self.tiles.values())
        observed = self.solves_observed
        return {
            "solves_observed": observed,
            "settled_solves": self.settled_solves,
            "settle_rate": (self.settled_solves / observed) if observed else None,
            "rejection_rate": (self.seeds_rejected / observed) if observed else None,
            "mean_residual_ewma": (
                sum(tile.residual_ewma for tile in tiles) / len(tiles) if tiles else None
            ),
            "tiles_flagged": len(self.flagged()),
            "tiles_quarantined": len(self.quarantined),
        }

    def report_rows(self) -> List[dict]:
        rows = []
        for name in sorted(self.tiles):
            health = self.tiles[name]
            rows.append(
                {
                    "tile": name,
                    "obs": health.observations,
                    "residual EWMA": f"{health.residual_ewma:.3g}",
                    "settle EWMA": f"{health.settle_ewma:.3g}",
                    "saturations": health.saturation_count,
                    "flagged": "yes" if health.flagged else "-",
                    "quarantined": "yes" if health.quarantined else "-",
                    "reason": health.flag_reason or "-",
                }
            )
        return rows

    def render_report(self) -> str:
        from repro.reporting import ascii_table

        if not self.tiles:
            body = "(no solves observed)"
        else:
            body = ascii_table(self.report_rows())
        counter_rows = [
            {"counter": name, "value": value}
            for name, value in sorted(self.counters().items())
        ]
        summary = (
            f"{self.solves_observed} solve(s) observed "
            f"({self.unsettled_solves} unsettled), "
            f"{len(self.flagged())} tile(s) flagged, "
            f"{len(self.quarantined)} quarantined, "
            f"{self.settle_anomalies} settle anomaly(ies), "
            f"drift tolerance {self.drift_tolerance:.3g}"
        )
        return "\n\n".join(
            ["analog health report", summary, body, ascii_table(counter_rows)]
        )
