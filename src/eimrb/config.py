"""Flat key-value configuration files for the command line driver.

Format: one `section.key = value` per line, `#` starts a comment.
Unknown and repeated keys are rejected.  Example:

    mesh.n = 32
    fem.degree = 2
    train.grid_n1 = 20
    train.grid_n2 = 20
    test.count = 225
    test.seed = 42
    ser.r = 1            # integer, or "standard"
    ser.rebuild_wn = false
    ser.n_max = 20
    eim.m_max = 25
    newton.abs_tol = 1e-10
    newton.rel_tol = 1e-10
    newton.max_iter = 50
    output.dir = out
"""

from dataclasses import asdict, dataclass

from .benchmark import SampleSet, default_checkpoints
from .nonlinear import NewtonConfig
from .ser import SerBuildError, SerConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunSettings:
    mesh_n: int = 32
    degree: int = 2
    train_grid_n1: int = 20
    train_grid_n2: int = 20
    test_count: int = 225
    test_seed: int = 42
    r: object = 1
    rebuild_wn: bool = False
    n_max: int = 20
    m_max: int = 25
    newton_abs_tol: float = 1e-10
    newton_rel_tol: float = 1e-10
    newton_max_iter: int = 50
    output_dir: str = "out"

    def newton(self):
        return NewtonConfig(abs_tol=self.newton_abs_tol,
                            rel_tol=self.newton_rel_tol,
                            max_iter=self.newton_max_iter)

    def train_set(self):
        return SampleSet.log_grid(self.train_grid_n1, self.train_grid_n2)

    def test_set(self):
        return SampleSet.log_random(self.test_count, self.test_seed)

    def ser_config(self):
        """The build config of these settings, checkpointed at the five
        default stages."""
        return SerConfig(r=self.r, rebuild_wn=self.rebuild_wn,
                         n_max=self.n_max, m_max=self.m_max,
                         train_set=self.train_set(), newton=self.newton(),
                         checkpoints=default_checkpoints(self.r, self.n_max,
                                                         self.m_max))

    def fingerprint_dict(self):
        d = asdict(self)
        d.pop("output_dir")
        return d


def _parse_bool(text):
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_r(text):
    if text == "standard":
        return "standard"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer or 'standard', got {text!r}")


_KEYS = {
    "mesh.n": ("mesh_n", int),
    "fem.degree": ("degree", int),
    "train.grid_n1": ("train_grid_n1", int),
    "train.grid_n2": ("train_grid_n2", int),
    "test.count": ("test_count", int),
    "test.seed": ("test_seed", int),
    "ser.r": ("r", _parse_r),
    "ser.rebuild_wn": ("rebuild_wn", _parse_bool),
    "ser.n_max": ("n_max", int),
    "eim.m_max": ("m_max", int),
    "newton.abs_tol": ("newton_abs_tol", float),
    "newton.rel_tol": ("newton_rel_tol", float),
    "newton.max_iter": ("newton_max_iter", int),
    "output.dir": ("output_dir", str),
}


def parse_config(text):
    settings = RunSettings()
    seen = {}       # line of each key read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line "
                              f"{seen[key]}")
        seen[key] = lineno
        attr, parse = _KEYS[key]
        try:
            setattr(settings, attr, parse(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
    _validate(settings)
    return settings


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate(s):
    if s.mesh_n < 1:
        raise ConfigError("mesh.n must be >= 1")
    if s.degree not in (1, 2, 3):
        raise ConfigError("fem.degree must be 1, 2 or 3")
    if s.train_grid_n1 < 1 or s.train_grid_n2 < 1:
        raise ConfigError("training grid sizes must be >= 1")
    if s.test_count < 1:
        raise ConfigError("test.count must be >= 1")
    if s.test_seed < 0:
        raise ConfigError("test.seed must be >= 0")
    try:
        s.newton()      # NewtonConfig owns the rules for its settings
    except ValueError as exc:
        raise ConfigError(f"newton settings: {exc}") from None
    try:
        s.ser_config()  # and SerConfig those for the build's
    except SerBuildError as exc:
        raise ConfigError(f"build settings: {exc}") from None
