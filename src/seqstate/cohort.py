"""Patient-trajectory data model, CSV ingestion, splits and normalization.

CSV schema (exact header, one row per (patient, step), UTF-8, '.' decimal):

    patient_id,step,action_id,outcome,sofa,saps2,oasis,demog_0,...,demog_4,obs_0,...,obs_32

``outcome`` is 0 (survived) or 1 (died), repeated on every row of a
trajectory. A JSON sidecar ``<csv path>.meta.json`` carries provenance and,
when available, normalization statistics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_OBS = 33
N_DEMOG = 5
N_ACTION_BINS = 5
N_ACTIONS = N_ACTION_BINS * N_ACTION_BINS
DEFAULT_MAX_STEPS = 19  # 72h window at 4h bins

# age and weight are continuous; gender / ventilation / readmission are binary
DEMOG_CONTINUOUS = np.array([True, False, True, False, False])

CSV_HEADER = (
    ["patient_id", "step", "action_id", "outcome", "sofa", "saps2", "oasis"]
    + [f"demog_{i}" for i in range(N_DEMOG)]
    + [f"obs_{i}" for i in range(N_OBS)]
)


class CohortError(Exception):
    """Base class for ingestion and validation failures."""


class MissingColumnError(CohortError):
    pass


class NonFiniteValueError(CohortError):
    pass


class ActionRangeError(CohortError):
    pass


class DuplicateStepError(CohortError):
    pass


# -- domain types ----------------------------------------------------------------


@dataclass
class Trajectory:
    patient_id: str
    obs: np.ndarray        # (T, 33)
    demog: np.ndarray      # (5,)
    actions: np.ndarray    # (T,) ints in [0, 24]
    sofa: np.ndarray       # (T,)
    saps2: np.ndarray      # (T,)
    oasis: np.ndarray      # (T,)
    outcome: int           # 0 survived, 1 died

    @property
    def n_steps(self) -> int:
        return self.obs.shape[0]

    def validate(self, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        t = self.n_steps
        if not 1 <= t <= max_steps:
            raise CohortError(
                f"{self.patient_id}: length {t} outside [1, {max_steps}]"
            )
        if self.actions.min() < 0 or self.actions.max() >= N_ACTIONS:
            raise ActionRangeError(f"{self.patient_id}: action out of range")
        for name, arr in (("obs", self.obs), ("demog", self.demog),
                          ("sofa", self.sofa), ("saps2", self.saps2),
                          ("oasis", self.oasis)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteValueError(f"{self.patient_id}: non-finite {name}")


@dataclass
class NormStats:
    obs_mean: np.ndarray
    obs_std: np.ndarray
    demog_mean: np.ndarray
    demog_std: np.ndarray
    constant_obs: np.ndarray    # bool flags: features passed through unscaled
    constant_demog: np.ndarray

    def to_dict(self) -> dict:
        return {
            "obs_mean": self.obs_mean.tolist(),
            "obs_std": self.obs_std.tolist(),
            "demog_mean": self.demog_mean.tolist(),
            "demog_std": self.demog_std.tolist(),
            "constant_obs": self.constant_obs.astype(int).tolist(),
            "constant_demog": self.constant_demog.astype(int).tolist(),
            "demog_continuous": DEMOG_CONTINUOUS.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(
            obs_mean=np.asarray(d["obs_mean"], dtype=float),
            obs_std=np.asarray(d["obs_std"], dtype=float),
            demog_mean=np.asarray(d["demog_mean"], dtype=float),
            demog_std=np.asarray(d["demog_std"], dtype=float),
            constant_obs=np.asarray(d["constant_obs"], dtype=bool),
            constant_demog=np.asarray(d["constant_demog"], dtype=bool),
        )


@dataclass
class Cohort:
    trajectories: list[Trajectory]
    provenance: str = "unknown"
    stats: NormStats | None = None

    def __len__(self) -> int:
        return len(self.trajectories)

    def patient_ids(self) -> list[str]:
        return [t.patient_id for t in self.trajectories]

    def mortality(self) -> float:
        if not self.trajectories:
            return 0.0
        return float(np.mean([t.outcome for t in self.trajectories]))

    def validate(self, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        ids = self.patient_ids()
        if len(set(ids)) != len(ids):
            raise CohortError("duplicate patient ids in cohort")
        for t in self.trajectories:
            t.validate(max_steps)


@dataclass
class SplitSpec:
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 0

    def __post_init__(self):
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {self.ratios}")


# -- action coding -----------------------------------------------------------------


def encode_action(vaso_bin: int, fluid_bin: int) -> int:
    """Vasopressor-major pairing of the two 5-bin dose axes."""
    if not (0 <= vaso_bin < N_ACTION_BINS and 0 <= fluid_bin < N_ACTION_BINS):
        raise ValueError(f"bins out of range: ({vaso_bin}, {fluid_bin})")
    return N_ACTION_BINS * vaso_bin + fluid_bin


def decode_action(action_id: int) -> tuple[int, int]:
    if not 0 <= action_id < N_ACTIONS:
        raise ValueError(f"action_id out of range: {action_id}")
    return divmod(action_id, N_ACTION_BINS)


# -- CSV round trip ------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def save_cohort(cohort: Cohort, path: str | Path) -> None:
    """Write the cohort CSV plus its JSON sidecar, each atomically."""
    from .runio import atomic_write_text  # runio imports this module

    path = Path(path)
    lines = [",".join(CSV_HEADER)]
    for traj in cohort.trajectories:
        for t in range(traj.n_steps):
            row = [
                traj.patient_id,
                str(t),
                str(int(traj.actions[t])),
                str(int(traj.outcome)),
                _fmt(traj.sofa[t]),
                _fmt(traj.saps2[t]),
                _fmt(traj.oasis[t]),
            ]
            row.extend(_fmt(v) for v in traj.demog)
            row.extend(_fmt(v) for v in traj.obs[t])
            lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "provenance": cohort.provenance,
        "n_patients": len(cohort),
        "normalization": cohort.stats.to_dict() if cohort.stats else None,
    }
    atomic_write_text(str(path) + ".meta.json", json.dumps(sidecar, indent=1))


def load_cohort(path: str | Path, max_steps: int = DEFAULT_MAX_STEPS) -> Cohort:
    """Parse and validate a cohort CSV (see module docstring for the schema).

    Raises named ingestion errors carrying 1-based row numbers (the header
    is row 1).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            missing = [c for c in CSV_HEADER if c not in header]
            if missing:
                raise MissingColumnError(f"{path}: missing columns {missing}")
            raise CohortError(f"{path}: header does not match schema")

        per_patient: dict[str, dict[int, tuple]] = {}
        order: list[str] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CohortError(f"{path}:{row_no}: expected {len(CSV_HEADER)} fields")
            pid = row[0]
            try:
                step = int(row[1])
                action = int(row[2])
                outcome = int(row[3])
                values = np.array([float(v) for v in row[4:]], dtype=np.float64)
            except ValueError as exc:
                raise CohortError(f"{path}:{row_no}: {exc}") from None
            if not np.all(np.isfinite(values)):
                raise NonFiniteValueError(f"{path}:{row_no}: non-finite value")
            if not 0 <= action < N_ACTIONS:
                raise ActionRangeError(
                    f"{path}:{row_no}: action_id {action} outside [0, {N_ACTIONS - 1}]"
                )
            if outcome not in (0, 1):
                raise CohortError(f"{path}:{row_no}: outcome must be 0 or 1")
            if pid not in per_patient:
                per_patient[pid] = {}
                order.append(pid)
            if step in per_patient[pid]:
                raise DuplicateStepError(
                    f"{path}:{row_no}: duplicate step {step} for patient {pid}"
                )
            per_patient[pid][step] = (action, outcome, values)

    trajectories = []
    for pid in order:
        steps = sorted(per_patient[pid].keys())
        actions, outcomes, rows = [], [], []
        for s in steps:
            a, o, v = per_patient[pid][s]
            actions.append(a)
            outcomes.append(o)
            rows.append(v)
        block = np.stack(rows)
        trajectories.append(Trajectory(
            patient_id=pid,
            obs=block[:, 3 + N_DEMOG:],
            demog=block[0, 3:3 + N_DEMOG],
            actions=np.array(actions, dtype=np.int64),
            sofa=block[:, 0],
            saps2=block[:, 1],
            oasis=block[:, 2],
            outcome=int(outcomes[0]),
        ))

    sidecar_path = Path(str(path) + ".meta.json")
    provenance = f"ingested({path.name})"
    stats = None
    if sidecar_path.exists():
        meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
        provenance = meta.get("provenance", provenance)
        if meta.get("normalization"):
            stats = NormStats.from_dict(meta["normalization"])

    cohort = Cohort(trajectories=trajectories, provenance=provenance, stats=stats)
    cohort.validate(max_steps)
    return cohort


# -- stratified splitting ---------------------------------------------------------------


def stratified_split(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort, Cohort]:
    """Patient-disjoint train/val/test split preserving outcome proportions."""
    rng = np.random.default_rng(spec.seed)
    by_outcome: dict[int, list[int]] = {0: [], 1: []}
    for i, t in enumerate(cohort.trajectories):
        by_outcome[t.outcome].append(i)
    for outcome, members in by_outcome.items():
        if members and len(members) < 3:
            raise CohortError(
                f"outcome class {outcome} has {len(members)} patients; "
                "need at least 3 to stratify"
            )

    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    ratios = np.array(spec.ratios)
    exact_totals = np.zeros(3)
    assigned_totals = np.zeros(3, dtype=int)
    for members in by_outcome.values():
        if not members:
            continue
        members = np.array(members)
        members = members[rng.permutation(len(members))]
        n = len(members)
        # floor allocation per class, then hand leftovers to whichever split
        # is furthest behind its exact share overall; this keeps every class
        # within one patient of exact stratification and the split sizes on
        # target across classes
        exact = ratios * n
        counts = np.floor(exact).astype(int)
        exact_totals += exact
        assigned_totals += counts
        for _ in range(n - counts.sum()):
            k = int(np.argmax(exact_totals - assigned_totals))
            counts[k] += 1
            assigned_totals[k] += 1
        start = 0
        for k in range(3):
            buckets[k].extend(members[start:start + counts[k]].tolist())
            start += counts[k]

    splits = []
    for members in buckets:
        members = sorted(members)
        splits.append(Cohort(
            trajectories=[cohort.trajectories[i] for i in members],
            provenance=cohort.provenance,
            stats=cohort.stats,
        ))
    return splits[0], splits[1], splits[2]


# -- z-normalization ------------------------------------------------------------------------


_STD_FLOOR = 1e-12


def compute_norm_stats(cohort: Cohort) -> NormStats:
    """Per-feature moments over every step; pass cohort = the training split."""
    obs = np.concatenate([t.obs for t in cohort.trajectories], axis=0)
    demog = np.stack([t.demog for t in cohort.trajectories])
    obs_mean = obs.mean(axis=0)
    obs_std = obs.std(axis=0)
    demog_mean = demog.mean(axis=0)
    demog_std = demog.std(axis=0)
    return NormStats(
        obs_mean=obs_mean,
        obs_std=obs_std,
        demog_mean=demog_mean,
        demog_std=demog_std,
        constant_obs=obs_std < _STD_FLOOR,
        constant_demog=demog_std < _STD_FLOOR,
    )


def _scale(values, mean, std, constant, inverse=False):
    safe_std = np.where(constant, 1.0, std)
    if inverse:
        return np.where(constant, values, values * safe_std + mean)
    return np.where(constant, values, (values - mean) / safe_std)


def znormalize(cohort: Cohort, stats: NormStats) -> Cohort:
    """Z-score the 33 observations and the continuous demographics.

    Constant features (std below 1e-12) pass through untouched; action ids
    and acuity scores are never scaled.
    """
    demog_mask = DEMOG_CONTINUOUS & ~stats.constant_demog
    out = []
    for t in cohort.trajectories:
        demog = t.demog.copy()
        demog[demog_mask] = (
            (t.demog[demog_mask] - stats.demog_mean[demog_mask])
            / stats.demog_std[demog_mask]
        )
        out.append(Trajectory(
            patient_id=t.patient_id,
            obs=_scale(t.obs, stats.obs_mean, stats.obs_std, stats.constant_obs),
            demog=demog,
            actions=t.actions,
            sofa=t.sofa,
            saps2=t.saps2,
            oasis=t.oasis,
            outcome=t.outcome,
        ))
    return Cohort(trajectories=out, provenance=cohort.provenance, stats=stats)


def denormalize(cohort: Cohort, stats: NormStats) -> Cohort:
    demog_mask = DEMOG_CONTINUOUS & ~stats.constant_demog
    out = []
    for t in cohort.trajectories:
        demog = t.demog.copy()
        demog[demog_mask] = (
            t.demog[demog_mask] * stats.demog_std[demog_mask]
            + stats.demog_mean[demog_mask]
        )
        out.append(Trajectory(
            patient_id=t.patient_id,
            obs=_scale(t.obs, stats.obs_mean, stats.obs_std, stats.constant_obs,
                       inverse=True),
            demog=demog,
            actions=t.actions,
            sofa=t.sofa,
            saps2=t.saps2,
            oasis=t.oasis,
            outcome=t.outcome,
        ))
    return Cohort(trajectories=out, provenance=cohort.provenance, stats=stats)


# -- surrogate acuity scores ------------------------------------------------------------------


# feature groups scored by each surrogate; the narrower panels mirror how the
# simpler clinical scores depend on fewer measurements
SOFA_GROUP = np.arange(N_OBS)
SAPS2_GROUP = np.arange(22)
OASIS_GROUP = np.arange(10)

SAPS2_AGE_WEIGHT = 0.05
OASIS_AGE_WEIGHT = 0.03
_AGE_KNEE = 40.0


def surrogate_acuity(
    obs: np.ndarray,
    demog: np.ndarray,
    ref_mean: np.ndarray | None = None,
    ref_std: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Severity scores from abnormal-feature magnitudes.

    Each feature contributes max(0, |z| - 1) where z is its deviation from
    the reference population in standard-deviation units; the saps2/oasis
    variants add an age term. Pass ``ref_mean``/``ref_std`` for raw inputs,
    or leave None when ``obs`` is already z-scored.
    """
    obs = np.asarray(obs, dtype=np.float64)
    z = obs if ref_mean is None else (obs - ref_mean) / ref_std
    excess = np.maximum(np.abs(z) - 1.0, 0.0)
    age_excess = max(float(demog[0]) - _AGE_KNEE, 0.0)
    sofa = float(excess[SOFA_GROUP].sum())
    saps2 = float(excess[SAPS2_GROUP].sum()) + SAPS2_AGE_WEIGHT * age_excess
    oasis = float(excess[OASIS_GROUP].sum()) + OASIS_AGE_WEIGHT * age_excess
    return sofa, saps2, oasis
