"""Command-line entry points: scenario runs, stiffness fits, stream replay.

Bad input (a missing or unreadable file, a malformed header or stream, an
invalid config) prints one `shankexo: error: ...` line to stderr and exits
2, as argparse does for bad arguments, and so does a loop kernel that
cannot be built (no C compiler `cc`). A run that the safety monitor
aborted exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .gait_signals import (IMU_PERIOD_MS, STANCE_CAPACITY, GaitEventKind,
                           GaitPhase, SignalLossError, SignalQualityError,
                           read_replay_columns)
from .plant import Activity, TemplateError
from .profile import EstimationPath, ParameterError
from .tendon import IdentificationError, identify_stiffness, load_calibration_csv

if TYPE_CHECKING:
    from .metrics import MetricsReport

# What a user mends by changing a file or a flag, not the program.
INPUT_ERRORS = (OSError, json.JSONDecodeError, TemplateError,
                ParameterError, SignalQualityError, SignalLossError,
                IdentificationError)


def _add_run_parser(sub) -> None:
    from .harness import ScenarioConfig, ScenarioKind
    p = sub.add_parser("run", help="run one closed-loop scenario")
    p.add_argument("--activity", choices=[a.value for a in Activity],
                   default=ScenarioConfig.activity)
    p.add_argument("--scenario", choices=[k.value for k in ScenarioKind],
                   default=ScenarioConfig.scenario)
    p.add_argument("--strides", type=int, default=ScenarioConfig.n_strides)
    p.add_argument("--seed", type=int, default=ScenarioConfig.seed)
    p.add_argument("--amp", type=float, default=ScenarioConfig.amp_fraction,
                   help="assistance amplitude as a fraction of body weight")
    p.add_argument("--bw-n", type=float, default=ScenarioConfig.body_weight,
                   help="body weight in newtons")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="JSON file with controller/plant/template overrides")


def _run(args) -> int:
    from .harness import (OVERRIDE_GROUPS, ConfigError, ScenarioConfig,
                          run_scenario)
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
        unknown = ", ".join(sorted(overrides.keys() - OVERRIDE_GROUPS.keys()))
        if unknown:
            raise ConfigError(f"{args.config}: unknown key(s) {unknown}")
    cfg = ScenarioConfig(
        activity=args.activity, scenario=args.scenario,
        n_strides=args.strides, seed=args.seed, amp_fraction=args.amp,
        body_weight=args.bw_n, output_dir=args.out,
        **{group: overrides.get(group, {}) for group in OVERRIDE_GROUPS})
    report = run_scenario(cfg)
    _print_report(report)
    return 1 if report.aborted else 0


def _print_report(report: MetricsReport) -> None:
    agg = report.aggregate
    print(f"activity={report.config['activity']} "
          f"scenario={report.config['scenario']} "
          f"strides={report.config['n_strides']} seed={report.config['seed']}")
    if report.aborted:
        print("SAFETY ABORT latched during the run")
    conv = report.convergence_stride
    print(f"convergence_stride={conv}")
    def fmt(m, s):
        if agg[m] is None:
            return "n/a"
        sd = agg[s]
        return f"{agg[m]:.4f} +/- {sd:.4f}" if sd is not None else f"{agg[m]:.4f}"
    print(f"rmse_pct          {fmt('rmse_pct_mean', 'rmse_pct_sd')}")
    print(f"pearson_shank     {fmt('pearson_shank_mean', 'pearson_shank_sd')}")
    print(f"pearson_time      {fmt('pearson_time_mean', 'pearson_time_sd')}")
    print(f"swing_max_force_n {fmt('swing_max_force_mean', 'swing_max_force_sd')}")
    print(f"stance_ratio_mean {agg['stance_ratio_mean']}")


def _fit_stiffness(args) -> int:
    fit = identify_stiffness(load_calibration_csv(args.csv))
    print(f"k_all={fit.k_all:.6f} N/mm  r_squared={fit.r_squared:.6f}")
    return 0


def _replay(args) -> int:
    estimation = EstimationPath(args.amp_n)
    strides = 0
    for cols in read_replay_columns(args.csv):
        at, n = 0, cols.shape[1]
        while (hit := estimation.run(cols, at, n)) is not None:
            at, ev = hit
            if ev.kind is GaitEventKind.FOOT_OFF:
                p = estimation.estimator.params
                print(f"stride {strides}: mu={p.mu:.3f} "
                      f"sigma1={p.sigma1:.3f} sigma2={p.sigma2:.3f} "
                      f"fc={p.theta_fc:.3f} fo={p.theta_fo:.3f}")
                strides += 1
        if n:
            t_ms = cols[0, -1]
    # A stance longer than the assembler holds means the foot-off seeker
    # never armed: the strides after that foot contact are lost.
    mode, fc_t_ms, threshold = estimation.detector_state()
    longest = STANCE_CAPACITY * IMU_PERIOD_MS
    if mode is GaitPhase.STANCE and t_ms - fc_t_ms > longest:
        raise SignalLossError(
            f"no foot-off within {longest:g} ms of the foot contact at "
            f"t={fc_t_ms} ms: the foot-pitch rate never fell below the "
            f"arming threshold of {threshold:g} deg/s")
    print(f"{strides} strides estimated")
    return 0


def main(argv=None) -> int:
    try:
        # `harness` runs the loop kernel, which `kernel` builds at
        # import; its parsers read the run's defaults.
        from .harness import ConfigError, ScenarioConfig
    except ImportError as exc:
        print(f"shankexo: error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="shankexo",
        description="Shank-angle-based exoskeleton control, simulated")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    p_fit = sub.add_parser("fit-stiffness",
                           help="least-squares stiffness from a force/deflection CSV")
    p_fit.add_argument("csv")
    p_rep = sub.add_parser("replay",
                           help="run the estimation pipeline over a recorded stream")
    p_rep.add_argument("csv")
    p_rep.add_argument("--amp-n", type=float,
                       default=(ScenarioConfig.amp_fraction
                                * ScenarioConfig.body_weight),
                       help="peak assistance force in newtons")
    args = parser.parse_args(argv)
    command = {"run": _run, "fit-stiffness": _fit_stiffness,
               "replay": _replay}[args.command]
    try:
        return command(args)
    except (*INPUT_ERRORS, ConfigError) as exc:
        print(f"shankexo: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
