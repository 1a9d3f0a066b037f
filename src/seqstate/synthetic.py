"""Deterministic synthetic ICU cohort generator.

Each patient carries a scalar latent health h in [0, 1]:

    h_0   ~ Normal(init_mean - age_pull, init_std), clipped to [0.02, 0.98]
    h_t+1 = clip(h_t - decline * (1 - h_t) + effect + noise, 0, 1)

where ``effect = treatment_effect * (vaso_dose + fluid_dose) / 2``. The
behavior policy emits a severity-seeking treatment intensity per drug,
``intensity = behavior_severity_weight * (1 - h) + behavior_noise * eps``;
the delivered dose is ``max(intensity, 0)`` while the recorded action bins
the raw intensity, so every bin stays populated.

Death is declared after ``death_consecutive`` steps below
``death_threshold``; sustained recovery above ``discharge_threshold``
discharges the patient early. Observations are fixed per-feature affine
loadings of h plus noise, demographics are sampled once per patient, and
acuity columns come from the surrogate scorer against the generator's own
emission statistics.

Recorded action ids are quintile bins of the pooled continuous dose
distribution, one axis per drug, combined vasopressor-major.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cohort import (
    Cohort,
    N_ACTION_BINS,
    N_OBS,
    Trajectory,
    encode_action,
    surrogate_acuity,
)

# maps the configured mortality target to an initial-health shift; the slope
# was measured on n=8000 cohorts around the default operating point
_BASE_INIT_MEAN = 0.62
_TARGET_SLOPE = 1.67
_DEFAULT_TARGET = 0.09


@dataclass
class SyntheticConfig:
    max_steps: int = 19
    mortality_target: float = _DEFAULT_TARGET
    init_health_std: float = 0.18
    age_pull: float = 0.05
    decline: float = 0.10
    treatment_effect: float = 0.10
    noise_std: float = 0.06
    behavior_severity_weight: float = 1.0
    behavior_noise: float = 0.50
    death_threshold: float = 0.15
    death_consecutive: int = 2
    discharge_threshold: float = 0.93
    discharge_consecutive: int = 2
    emission_noise_lo: float = 0.10
    emission_noise_hi: float = 0.30

    @property
    def init_health_mean(self) -> float:
        return _BASE_INIT_MEAN - _TARGET_SLOPE * (self.mortality_target - _DEFAULT_TARGET)

    def validate(self) -> None:
        if self.max_steps < 2:
            raise ValueError("max_steps must be at least 2")
        if not 0.0 <= self.mortality_target <= 1.0:
            raise ValueError(
                f"mortality target must lie in [0, 1], got {self.mortality_target}")
        if self.death_threshold >= self.discharge_threshold:
            raise ValueError("death threshold must sit below discharge threshold")
        if self.noise_std == 0.0 and self.behavior_noise == 0.0:
            raise ValueError("fully deterministic dynamics cannot produce a cohort")


def null_treatment_config(**overrides) -> SyntheticConfig:
    """Config whose actions neither affect nor reflect patient state.

    Used as the independence null: with both the treatment effect and the
    severity-seeking behavior weight at zero, recorded actions carry no
    information about outcomes.
    """
    cfg = SyntheticConfig(treatment_effect=0.0, behavior_severity_weight=0.0)
    return replace(cfg, **overrides)


def _emission_params(rng: np.random.Generator, cfg: SyntheticConfig):
    sign = rng.choice([-1.0, 1.0], size=N_OBS)
    slope = sign * rng.uniform(0.5, 2.0, size=N_OBS)
    offset = rng.normal(0.0, 1.0, size=N_OBS)
    noise = rng.uniform(cfg.emission_noise_lo, cfg.emission_noise_hi, size=N_OBS)
    return slope, offset, noise


def _quintile_bins(doses: np.ndarray) -> np.ndarray:
    edges = np.quantile(doses, [0.2, 0.4, 0.6, 0.8])
    return np.clip(np.searchsorted(edges, doses, side="right"), 0, N_ACTION_BINS - 1)


def generate_synthetic(
    n_patients: int,
    seed: int,
    config: SyntheticConfig | None = None,
) -> Cohort:
    """Simulate a cohort; byte-identical for identical arguments."""
    if n_patients < 10:
        raise ValueError("need at least 10 patients")
    cfg = config or SyntheticConfig()
    cfg.validate()
    rng = np.random.default_rng(seed)

    slope, offset, emit_noise = _emission_params(rng, cfg)

    # demographics: age, gender, weight, ventilation, readmission
    age = np.clip(rng.normal(65.0, 15.0, size=n_patients), 18.0, 100.0)
    gender = rng.integers(0, 2, size=n_patients).astype(float)
    weight = np.clip(rng.normal(80.0, 18.0, size=n_patients), 35.0, 200.0)
    vent = (rng.random(n_patients) < 0.35).astype(float)
    readmit = (rng.random(n_patients) < 0.12).astype(float)
    demog = np.stack([age, gender, weight, vent, readmit], axis=1)

    h0 = np.clip(
        rng.normal(cfg.init_health_mean, cfg.init_health_std, size=n_patients)
        - cfg.age_pull * (age - 65.0) / 35.0,
        0.02,
        0.98,
    )

    t_max = cfg.max_steps
    health = np.zeros((n_patients, t_max))
    vaso_dose = np.zeros((n_patients, t_max))
    fluid_dose = np.zeros((n_patients, t_max))
    lengths = np.full(n_patients, t_max, dtype=int)
    died = np.zeros(n_patients, dtype=bool)
    below = np.zeros(n_patients, dtype=int)
    above = np.zeros(n_patients, dtype=int)
    active = np.ones(n_patients, dtype=bool)

    h = h0.copy()
    for t in range(t_max):
        health[:, t] = h
        severity = 1.0 - h
        v = (cfg.behavior_severity_weight * severity
             + cfg.behavior_noise * rng.normal(size=n_patients))
        f = (cfg.behavior_severity_weight * severity
             + cfg.behavior_noise * rng.normal(size=n_patients))
        vaso_dose[:, t] = v
        fluid_dose[:, t] = f
        effect = cfg.treatment_effect * 0.5 * (np.maximum(v, 0.0) + np.maximum(f, 0.0))
        h = np.clip(
            h - cfg.decline * (1.0 - h) + effect
            + cfg.noise_std * rng.normal(size=n_patients),
            0.0,
            1.0,
        )

        # terminal checks start once a minimum 2-step trajectory exists
        below = np.where(h < cfg.death_threshold, below + 1, 0)
        above = np.where(h > cfg.discharge_threshold, above + 1, 0)
        if t >= 1:
            dying = active & (below >= cfg.death_consecutive)
            leaving = active & ~dying & (above >= cfg.discharge_consecutive)
            closing = dying | leaving
            lengths[closing] = t + 1
            died[dying] = True
            active &= ~closing
        if not active.any():
            break

    # every array below holds one row per real step, patients in order
    step_mask = np.arange(t_max) < lengths[:, None]
    # bin the pooled realized doses into quintiles, one axis per drug
    actions = encode_action(_quintile_bins(vaso_dose[step_mask]),
                            _quintile_bins(fluid_dose[step_mask]))
    eps = rng.normal(size=(int(lengths.sum()), N_OBS))
    obs = slope * health[step_mask][:, None] + offset + emit_noise * eps

    # emission reference used for the surrogate scores
    ref_mean = slope * cfg.init_health_mean + offset
    ref_std = np.sqrt((slope * 0.25) ** 2 + emit_noise**2)
    scores = surrogate_acuity(obs, np.repeat(demog, lengths, axis=0),
                              ref_mean, ref_std)

    cuts = np.cumsum(lengths)[:-1]
    trajectories = list(map(
        Trajectory,
        map("syn{:06d}".format, range(n_patients)),
        np.split(obs, cuts),
        demog,
        np.split(actions, cuts),
        *(np.split(score, cuts) for score in scores),
        died.astype(int).tolist(),
    ))

    cohort = Cohort(trajectories=trajectories, provenance=f"synthetic(seed={seed})")
    cohort.validate(cfg.max_steps)
    return cohort
