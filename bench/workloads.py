"""The benchmark's workloads: input generation, the CLI calls of one
operation, and the output checks run after each operation.

Every workload draws from the mixture mechanism of the README demo:
Weibull(shape 0.8, scale 0.8) latency, 40% cured, administrative censoring
at 7.3 plus uniform dropout on (0, 14.6).  The draw layout (three blocks of
n uniforms for cure, latency and censoring) is the one ``curecheck simulate``
uses, so a data seed here reproduces ``curecheck simulate ... --seed <s>``.

Inputs are made with numpy alone, so set-up time depends on the program only
through ``import curecheck``.  The output checks call the public
``curecheck`` API on samples built from these arrays, never on anything the
operation under test produced.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import curecheck
from curecheck import FAMILIES, FamilySpec, Params

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

CURE, SHAPE, SCALE, ADMIN, DROPOUT = 0.4, 0.8, 0.8, 7.3, 14.6
CENSORING = f"composite:{ADMIN},{DROPOUT}"
DAYS_PER_YEAR = 365.25

LL_RTOL = 1e-10  # reported log-likelihood vs curecheck.log_likelihood
LL_SLACK = 1e-6  # how far below the stored reference a fit may land
SIM_RTOL = 1e-9  # simulated times vs the stored reference

# A censor mark in km_plot_svg: one <line> in the tick colour per censored record.
CENSOR_MARK = re.compile(r'<line [^>]*stroke="#86bbd8"')
TEXT_ROW = re.compile(
    r"^  (\w+ (?:non-cure|cure)) +(\d+) +(\S+) +(\S+)  (yes|no)$", re.MULTILINE
)


def demo_mechanism(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(times, events) of n subjects, in draw order."""
    rng = np.random.default_rng(seed)
    u_cure, u_latency, u_censor = rng.random(n), rng.random(n), rng.random(n)
    censor = np.minimum(ADMIN, DROPOUT * u_censor)
    t_event = SCALE * np.power(-np.log1p(-u_latency), 1.0 / SHAPE)
    events = (u_cure >= CURE) & (t_event <= censor)
    return np.where(events, t_event, censor), events


def write_rows(path: Path, times: np.ndarray, events: np.ndarray, as_days: bool) -> None:
    if as_days:
        rows = [f"{int(t)},{int(e)}" for t, e in zip(times.tolist(), events.tolist())]
    else:
        rows = [f"{t!r},{int(e)}" for t, e in zip(times.tolist(), events.tolist())]
    path.write_text("time,event\n" + "\n".join(rows) + "\n")


def restrict(times: np.ndarray, events: np.ndarray, cutoff: float):
    beyond = times > cutoff
    return np.where(beyond, cutoff, times), events & ~beyond


def canonical(times: np.ndarray, events: np.ndarray):
    """The sample order curecheck uses: ascending time, events first at ties."""
    order = np.lexsort((~events, times))
    return times[order], events[order]


def unique_ratio(times: np.ndarray, events: np.ndarray) -> float:
    pairs = np.unique(np.stack([times, events.astype(float)]), axis=1)
    return pairs.shape[1] / times.size


def km_final_survival(times: np.ndarray, events: np.ndarray) -> tuple[int, float]:
    """(number of distinct event times, survival after the last one)."""
    t_sorted = np.sort(times)
    event_times, d = np.unique(times[events], return_counts=True)
    at_risk = times.size - np.searchsorted(t_sorted, event_times, side="left")
    return event_times.size, float(np.prod(1.0 - d / at_risk))


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def read_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text().split()
    body = [line.split(",") for line in lines[1:]]
    return (
        np.array([float(t) for t, _ in body]),
        np.array([e == "1" for _, e in body], dtype=bool),
    )


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """One named workload: ``prepare`` makes the inputs, ``operation`` lists
    the CLI argv lists that make up one operation, ``check`` returns a list
    of problems with one operation's (exit code, stdout) results."""

    name: str
    sizes: dict

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def operation(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, results: list[tuple[int, str]]) -> list[str]:
        raise NotImplementedError

    def warmup(self) -> list[list[str]]:
        """The untimed first operation; by default an ordinary one."""
        return self.operation()

    def check_warmup(self, results: list[tuple[int, str]]) -> list[str]:
        return self.check(results)

    def assessed_unique_ratio(self) -> float:
        raise NotImplementedError


class AssessWorkload(Workload):
    """``curecheck assess`` on one data set drawn with a fixed data seed.

    The run seed permutes the order of the CSV rows; curecheck sorts on
    read, so every run fits the same likelihood surfaces.
    """

    def __init__(self, name, n, data_seed, fmt, plot, expect_verdict, as_days=False,
                 restrict_at=None):
        self.name = name
        self.n = n
        self.data_seed = data_seed
        self.fmt = fmt
        self.plot = plot
        self.expect_verdict = expect_verdict
        self.expect_code = 0 if expect_verdict == curecheck.VERDICT_APPROPRIATE else 2
        self.as_days = as_days
        self.restrict_at = restrict_at
        self.sizes = {"n": n, "data_seed": data_seed}

    def prepare(self, workdir: Path, seed: int) -> None:
        times, events = demo_mechanism(self.n, self.data_seed)
        if self.as_days:
            times = np.ceil(times * DAYS_PER_YEAR)
        perm = np.random.default_rng(seed).permutation(self.n)
        self.data = workdir / f"{self.name}.csv"
        self.plot_out = workdir / f"{self.name}_km.{self.plot}"
        write_rows(self.data, times[perm], events[perm], self.as_days)
        if self.as_days:
            times = times / DAYS_PER_YEAR
        if self.restrict_at is not None:
            times, events = restrict(times, events, self.restrict_at)
        self.times, self.events = canonical(times, events)
        self.sample = curecheck.validate_sample(zip(self.times.tolist(), self.events.tolist()))
        self.reference_ll = load_reference()["log_likelihood"].get(self.ref_key(), {})
        self.json_rows: list[dict] | None = None

    def ref_key(self) -> str:
        return f"{self.name}/n={self.n}/data_seed={self.data_seed}"

    def _argv(self, fmt: str) -> list[str]:
        argv = ["assess", str(self.data)]
        if self.as_days:
            argv += ["--time-scale", str(DAYS_PER_YEAR)]
        if self.restrict_at is not None:
            argv += ["--restrict", str(self.restrict_at)]
        return argv + ["--format", fmt, "--plot", self.plot, "--plot-out", str(self.plot_out)]

    def operation(self) -> list[list[str]]:
        return [self._argv(self.fmt)]

    def warmup(self) -> list[list[str]]:
        return [self._argv("json")]

    def assessed_unique_ratio(self) -> float:
        return unique_ratio(self.times, self.events)

    def check_warmup(self, results):
        """Full checks of a JSON report, whose table then checks the text reports."""
        (code, out), = results
        errors = self._check_code(code)
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return errors + [f"report is not JSON: {exc}"]
        errors += self._check_json(doc)
        errors += self._check_plot()
        if not errors:
            self.json_rows = doc["model_table"]
        return errors

    def check(self, results):
        if self.fmt == "json":
            return self.check_warmup(results)
        (code, out), = results
        return self._check_code(code) + self._check_text(out) + self._check_plot()

    def _check_code(self, code: int) -> list[str]:
        if code != self.expect_code:
            return [f"exit code {code}, expected {self.expect_code}"]
        return []

    def _check_json(self, doc: dict) -> list[str]:
        errors = []
        verdict = doc["assessment"]["verdict"]
        if verdict != self.expect_verdict:
            errors.append(f"verdict {verdict!r}, expected {self.expect_verdict!r}")
        rows = doc["model_table"]
        if len(rows) != 2 * len(FAMILIES):
            return errors + [f"model table has {len(rows)} rows, expected {2 * len(FAMILIES)}"]
        for row in rows:
            spec = FamilySpec(row["family"], cure=row["cure"])
            if "log_likelihood" not in row:
                errors.append(f"{spec.label}: no fit ({row.get('error')})")
                continue
            p = row["params"]
            params = Params(
                latency=tuple(p[k] for k in spec.latency_param_names),
                cure_fraction=p.get("cure_fraction"),
            )
            ll = row["log_likelihood"]
            oracle = curecheck.log_likelihood(spec, params, self.sample)
            if not close(ll, oracle, LL_RTOL):
                errors.append(f"{spec.label}: loglik {ll!r} != log_likelihood() {oracle!r}")
            if not close(row["aic"], 2.0 * spec.n_params - 2.0 * ll, 1e-12):
                errors.append(f"{spec.label}: AIC {row['aic']!r} != 2k - 2ll")
            ref = self.reference_ll.get(spec.label)
            if ref is not None and ll < ref - LL_SLACK:
                errors.append(f"{spec.label}: loglik {ll!r} is below the reference {ref!r}")
        return errors

    def _check_text(self, out: str) -> list[str]:
        if self.json_rows is None:
            return ["no checked JSON report to compare the text report with"]
        errors = []
        want = f"Verdict: {self.expect_verdict} ("
        if want not in out:
            errors.append(f"text report lacks {want!r}")
        rows = TEXT_ROW.findall(out)
        if len(rows) != len(self.json_rows):
            return errors + [f"text table has {len(rows)} rows, expected {len(self.json_rows)}"]
        for (label, k, aic, ll, conv), ref in zip(rows, self.json_rows):
            ref_label = f"{ref['family']} {'cure' if ref['cure'] else 'non-cure'}"
            expect = (ref_label, str(ref["n_params"]), f"{ref['aic']:.6g}",
                      f"{ref['log_likelihood']:.6g}", "yes" if ref["converged"] else "no")
            if (label, k, aic, ll, conv) != expect:
                errors.append(f"text row {(label, k, aic, ll, conv)} != JSON row {expect}")
        return errors

    def _check_plot(self) -> list[str]:
        text = self.plot_out.read_text()
        if self.plot == "svg":
            marks = len(CENSOR_MARK.findall(text))
            n_censored = int(np.count_nonzero(~self.events))
            if marks != n_censored:
                return [f"SVG has {marks} censor marks, expected {n_censored}"]
            return []
        return check_km_csv(text, self.times, self.events)


def check_km_csv(text: str, times: np.ndarray, events: np.ndarray) -> list[str]:
    lines = text.split()
    n_steps, final = km_final_survival(times, events)
    if len(lines) != n_steps + 2:
        return [f"KM CSV has {len(lines) - 2} steps, expected {n_steps}"]
    got = float(lines[-1].split(",")[1])
    if not close(got, final, 1e-12):
        return [f"KM CSV final survival {got!r}, expected {final!r}"]
    return []


# Latency parameters for each family in the simulate step, chosen so that
# every family has a median latency near 0.5-1 time units.
SIM_PARAMS = {
    "exponential": "1.0",
    "weibull": "0.8,0.8",
    "gamma": "0.7,0.8",
    "loglogistic": "1.5,1.0",
    "lognormal": "0.7,1.2",
}


class AuxWorkload(Workload):
    """``simulate`` for each family, then ``km --plot svg`` and ``restrict``
    on a continuous CSV drawn from the run seed.  No likelihood fits.

    ``simulate`` runs with a fixed seed so its output can be compared with
    the stored reference times.
    """

    def __init__(self, name, sim_n, sim_seed, km_n, cutoff):
        self.name = name
        self.sim_n = sim_n
        self.sim_seed = sim_seed
        self.km_n = km_n
        self.cutoff = cutoff
        self.sizes = {"simulate_n": sim_n, "simulate_seed": sim_seed, "km_n": km_n}

    def prepare(self, workdir: Path, seed: int) -> None:
        times, events = demo_mechanism(self.km_n, seed)
        self.data = workdir / f"{self.name}.csv"
        write_rows(self.data, times, events, as_days=False)
        self.times, self.events = canonical(times, events)
        self.svg = workdir / f"{self.name}_km.svg"
        self.restricted = workdir / f"{self.name}_restricted.csv"
        self.sim_out = {f: workdir / f"{self.name}_sim_{f}.csv" for f in FAMILIES}
        ref = load_reference()["simulate"].get(f"n={self.sim_n}/seed={self.sim_seed}")
        self.sim_reference = ref

    def operation(self) -> list[list[str]]:
        cmds = [
            ["simulate", "--n", str(self.sim_n), "--cure-fraction", str(CURE),
             "--family", f, "--params", SIM_PARAMS[f], "--censoring", CENSORING,
             "--seed", str(self.sim_seed), "--out", str(self.sim_out[f])]
            for f in FAMILIES
        ]
        cmds.append(["km", str(self.data), "--plot", "svg", "--out", str(self.svg)])
        cmds.append(["restrict", str(self.data), "--cutoff", str(self.cutoff),
                     "--out", str(self.restricted)])
        return cmds

    def assessed_unique_ratio(self) -> float:
        return unique_ratio(self.times, self.events)

    def check(self, results):
        errors = [f"command {i} exited {code}" for i, (code, _) in enumerate(results) if code]
        for family in FAMILIES:
            errors += self._check_simulated(family)
        marks = len(CENSOR_MARK.findall(self.svg.read_text()))
        n_censored = int(np.count_nonzero(~self.events))
        if marks != n_censored:
            errors.append(f"SVG has {marks} censor marks, expected {n_censored}")
        got_t, got_e = read_rows(self.restricted)
        want_t, want_e = canonical(*restrict(self.times, self.events, self.cutoff))
        if not (np.array_equal(got_t, want_t) and np.array_equal(got_e, want_e)):
            errors.append("restrict output differs from the cutoff applied to the input")
        return errors

    def _check_simulated(self, family: str) -> list[str]:
        times, events = read_rows(self.sim_out[family])
        if times.size != self.sim_n:
            return [f"simulate {family}: {times.size} rows, expected {self.sim_n}"]
        if self.sim_reference is None:
            return []
        ref = self.sim_reference[family]
        ref_t = np.array(ref["times"])
        ref_e = np.array([c == "1" for c in ref["events"]])
        if not np.array_equal(events, ref_e):
            return [f"simulate {family}: event flags differ from the reference"]
        if not np.allclose(times, ref_t, rtol=SIM_RTOL, atol=0.0):
            worst = float(np.max(np.abs(times - ref_t) / ref_t))
            return [f"simulate {family}: times differ from the reference by {worst:.3g} relative"]
        return []


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The named workloads; ``smoke`` gives tiny inputs for a fast self-test."""
    scale = 0.1 if smoke else 1.0
    items = [
        AssessWorkload("assess_plateau", n=int(5000 * scale), data_seed=7, fmt="json",
                       plot="svg", expect_verdict=curecheck.VERDICT_APPROPRIATE),
        AssessWorkload("assess_short_days", n=int(10000 * scale), data_seed=7, fmt="text",
                       plot="csv",
                       # at the smoke size the best fit is a cure model, and follow-up too short
                       expect_verdict=(curecheck.VERDICT_INSUFFICIENT if smoke
                                       else curecheck.VERDICT_NONCURE),
                       as_days=True, restrict_at=1.0),
        AuxWorkload("aux_simulate_km", sim_n=int(200 * scale), sim_seed=11,
                    km_n=int(12000 * scale), cutoff=1.0),
    ]
    return {w.name: w for w in items}
