"""Command-line surface: explain, compare, examples, gen-data."""
from __future__ import annotations

import argparse
import csv
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import example_based, nam
from .blackbox import analytic, external_predictor, knn_fit, trees_fit
from .datasets import (
    EXPERIMENT_FUNCTIONS,
    EXPERIMENT_IDS,
    Dataset,
    SyntheticSpec,
    gen_edge_testset,
    generate,
    lambda_function,
    load_csv,
    save_csv,
)
from .errors import ConfigError, InvalidInputError, TrainingError
from .explainer import DualConfig, explain_global, explain_many, feature_importance
from .geometry import square_scale
from .report import PointResult, RunReport, new_report, write_report
from .surrogate import LimeConfig, fit_linear, lime_explain
from .svgplot import line_plot, scatter_plot

LAMBDA_EXPERIMENTS = ("ex-based-1", "ex-based-2", "ex-based-3")
# net-init seeds and regularization strengths that reproduce the published
# importance tables; --seed moves the data draw only
EXPERIMENT_NET_SEEDS = {"ex-based-1": 8, "ex-based-2": 9, "ex-based-3": 11}
EXPERIMENT_ALPHAS = {"ex-based-1": 1e-4, "ex-based-2": 1e-6, "ex-based-3": 0.0}
# rows per explain_many call in `explain`: a row's explanation holds about
# 5 KB (half of it the simplex draw), so an all-rows run on a large CSV
# keeps one block of them at a time, not all
EXPLAIN_BLOCK = 1024


def _add_data_flags(p):
    p.add_argument("--synthetic", choices=EXPERIMENT_IDS, help="built-in experiment id")
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument("--target-col", help="target column name or index (default: last)")
    p.add_argument("--zscore", action="store_true", help="Z-score the features")


def _add_blackbox_flags(p):
    p.add_argument("--blackbox", choices=("knn", "trees", "analytic", "external"),
                   default="knn")
    p.add_argument("--bb-k", type=int, default=10, help="neighbor count for knn")
    p.add_argument("--bb-trees", type=int, default=100, help="tree count for trees")
    p.add_argument("--external-cmd", help="command line of an external predictor")


def _add_common_flags(p):
    p.add_argument("--K", type=int, default=10, help="hull neighborhood size")
    p.add_argument("--n-lambda", type=int, default=30, help="simplex samples per fit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility; has no effect (every command "
                        "runs on one thread)")
    p.add_argument("--out-dir", default=".", help="directory for report and plots")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timestamp and timing from the report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hullexplain",
        description="Explain black-box regressors through convex-hull dual coordinates.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("explain", help="fit dual surrogates and report importances")
    _add_data_flags(p)
    _add_blackbox_flags(p)
    _add_common_flags(p)
    p.add_argument("--points", type=int, default=None,
                   help="how many training points to explain (default: all)")
    p.add_argument("--global", action="store_true", dest="global_fit",
                   help="one surrogate over the whole dataset hull")

    p = sub.add_parser("compare", help="dual surrogate vs perturbation baseline MSE")
    _add_data_flags(p)
    _add_blackbox_flags(p)
    _add_common_flags(p)
    p.add_argument("--points", type=int, default=100, help="edge test point count")
    p.add_argument("--lime-cov", default="0.05",
                   help="perturbation variance: scalar or comma list")
    p.add_argument("--lime-v", type=float, default=0.01,
                   help="variance of the random sample weights")
    p.add_argument("--lime-n", type=int, default=30, help="perturbation sample count")

    p = sub.add_parser("examples",
                       help="importance table (effects/linear/additive-net) for a "
                            "weight-space experiment")
    p.add_argument("--synthetic", choices=LAMBDA_EXPERIMENTS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p.add_argument("--id", choices=EXPERIMENT_IDS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    return parser


def _load_dataset(args) -> Dataset:
    if args.synthetic and args.data:
        raise ConfigError("--synthetic and --data are mutually exclusive")
    if args.synthetic:
        return generate(SyntheticSpec(args.synthetic, seed=args.seed))
    if not args.data:
        raise ConfigError("need --synthetic or --data")
    target = args.target_col
    if target is None and args.blackbox in ("knn", "trees"):
        target = -1  # fitted black boxes need a label column
    elif target is not None:
        try:
            target = int(target)
        except ValueError:
            pass
    return load_csv(args.data, target_column=target, zscore=args.zscore)


def _build_predictor(args, ds: Dataset):
    kind = args.blackbox
    if kind in ("knn", "trees"):
        if ds.y is None:
            raise ConfigError(f"black box {kind!r} needs a target column")
        if kind == "knn":
            return knn_fit(ds.x, ds.y, k=args.bb_k)
        return trees_fit(ds.x, ds.y, n_trees=args.bb_trees, seed=args.seed)
    if kind == "analytic":
        if not args.synthetic:
            raise ConfigError("--blackbox analytic requires --synthetic")
        return analytic(EXPERIMENT_FUNCTIONS[args.synthetic])
    if not args.external_cmd:
        raise ConfigError("--blackbox external requires --external-cmd")
    return external_predictor(args.external_cmd, input_dim=ds.m)


def _config_echo(args, skip=("cmd", "out_dir", "no_timestamp", "jobs")):
    echo = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        echo[key.replace("_", "-")] = value
    return echo


def _median(values: np.ndarray) -> float:
    """np.median of finite values, without the masked-array module that
    np.median imports (about 2 MB of memory for one number)."""
    v = np.sort(values)
    h = v.shape[0] // 2
    return float(v[h] if v.shape[0] % 2 else (v[h - 1] + v[h]) / 2)


def _drain_warnings(rec, rep):
    """Add each recorded warning to the report once, with a count if repeated."""
    counts = Counter(f"{w.category.__name__}: {w.message}" for w in rec)
    rep.warnings.extend(sorted(
        message if n == 1 else f"{message} ({n} times)" for message, n in counts.items()))


def cmd_explain(args, out: Path) -> RunReport:
    ds = _load_dataset(args)
    with _build_predictor(args, ds) as predictor:
        rep = new_report("explain", args.seed, _config_echo(args),
                         stamped=not args.no_timestamp)
        cfg = DualConfig(K=args.K, n_lambda=args.n_lambda, seed=args.seed)
        if args.global_fit:
            expl = explain_global(ds.x, predictor, cfg)
            rep.aggregates["a"] = expl.a
            rep.aggregates["intercept"] = expl.intercept
            rep.aggregates["d"] = expl.poly.d
            rep.aggregates["importance-normalized"] = feature_importance(expl, "normalized")
            rep.aggregates["fit-residual-rms"] = expl.diagnostics["fit_residual_rms"]
            return rep
        if args.points is not None and args.points < 1:
            raise ConfigError("--points must be at least 1")
        total = ds.n if args.points is None else min(args.points, ds.n)
        amat = np.empty((total, ds.m))
        mses = np.empty(total)
        for lo in range(0, total, EXPLAIN_BLOCK):
            block = explain_many(ds.x[lo : min(lo + EXPLAIN_BLOCK, total)], ds.x,
                                 predictor, replace(cfg, stream=lo))
            for i, expl in enumerate(block, lo):
                err = expl.f_x0 - expl.model.predict_one(ds.x[i])
                se = err * err
                if not np.isfinite(se):  # checked before any file is written
                    raise InvalidInputError(f"explain point {i}: squared error is not finite "
                                            f"({se!r})")
                amat[i], mses[i] = expl.a, se
                rep.points.append(PointResult(index=i, values={
                    "a": expl.a,
                    "intercept": expl.intercept,
                    "b": expl.b,
                    "d": expl.poly.d,
                    "mse": float(mses[i]),
                }))
    rep.aggregates["mean-a"] = amat.mean(axis=0)
    k = square_scale(amat)
    rep.aggregates["std-a"] = (np.ldexp(np.ldexp(amat, -k).std(axis=0, ddof=1), k) if total > 1
                               else np.zeros(ds.m))
    rep.aggregates["mean-mse"] = float(mses.mean())
    rep.aggregates["median-mse"] = _median(mses)
    with open(out / "points.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"a_{name}" for name in ds.feature_names])
        for i, a in enumerate(amat):
            writer.writerow([i] + [repr(float(v)) for v in a])
    return rep


def _parse_cov(text: str):
    parts = [p for p in str(text).split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--lime-cov must be numeric, got {text!r}") from None
    if not values:
        raise ConfigError("--lime-cov is empty")
    return values[0] if len(values) == 1 else np.array(values)


def cmd_compare(args, out: Path) -> RunReport:
    ds = _load_dataset(args)
    with _build_predictor(args, ds) as predictor:
        tests = gen_edge_testset(ds.x, args.points, seed=args.seed)
        lime_cfg = LimeConfig(n_samples=args.lime_n, cov_diag=_parse_cov(args.lime_cov),
                              v=args.lime_v)
        rep = new_report("compare", args.seed, _config_echo(args),
                         stamped=not args.no_timestamp)
        duals = explain_many(tests, ds.x, predictor,
                             DualConfig(K=args.K, n_lambda=args.n_lambda, seed=args.seed))
        limes = lime_explain(tests, predictor, lime_cfg, seed=args.seed)
    dual_mse, lime_mse = np.empty(len(tests)), np.empty(len(tests))
    for i, (x0, dual, lime) in enumerate(zip(tests, duals, limes)):
        e_dual = dual.f_x0 - dual.model.predict_one(x0)
        e_lime = dual.f_x0 - lime.predict_one(x0)
        dm, lm = e_dual * e_dual, e_lime * e_lime
        if not (np.isfinite(dm) and np.isfinite(lm)):  # checked before any file is written
            raise InvalidInputError(f"compare point {i}: squared error is not finite "
                                    f"(dual {dm!r}, baseline {lm!r})")
        dual_mse[i], lime_mse[i] = dm, lm
        rep.points.append(PointResult(index=i, values={"mse-dual": dm, "mse-lime": lm}))
    rep.aggregates["mean-mse-dual"] = float(dual_mse.mean())
    rep.aggregates["mean-mse-lime"] = float(lime_mse.mean())
    rep.aggregates["median-mse-dual"] = _median(dual_mse)
    rep.aggregates["median-mse-lime"] = _median(lime_mse)
    with open(out / "mse.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mse_dual", "mse_lime"])
        for i, (dm, lm) in enumerate(zip(dual_mse, lime_mse)):
            writer.writerow([i, repr(float(dm)), repr(float(lm))])
    svg = scatter_plot(dual_mse, lime_mse, title="Per-point surrogate error",
                       xlabel="dual surrogate MSE", ylabel="perturbation baseline MSE",
                       diagonal=True)
    (out / "mse-scatter.svg").write_text(svg, encoding="utf-8")
    return rep


def cmd_examples(args, out: Path) -> RunReport:
    exp = args.synthetic
    ds = generate(SyntheticSpec(exp, seed=args.seed))
    fn = lambda_function(exp)
    d = ds.m
    rep = new_report("examples", args.seed,
                     {"synthetic": exp, "seed": args.seed,
                      "alpha": EXPERIMENT_ALPHAS[exp],
                      "net-seed": EXPERIMENT_NET_SEEDS[exp]},
                     stamped=not args.no_timestamp)
    rows = {}
    curves = {}
    for k in range(d):
        curves[k] = example_based.ale_curve(ds.x, k, fn)
    rows["ale"] = example_based.importances(ds.x, ds.y, "ale", fn=fn)
    rows["lr"] = example_based.importances(ds.x, ds.y, "lr")
    net = nam.AdditiveNet(d, seed=EXPERIMENT_NET_SEEDS[exp])
    cfg = nam.TrainConfig(alpha=EXPERIMENT_ALPHAS[exp], seed=0)
    try:
        net, history = nam.train(net, ds.x, ds.y, cfg)
    except TrainingError as exc:
        raise TrainingError(
            f"{exc} (net seed {EXPERIMENT_NET_SEEDS[exp]}, train seed {cfg.seed})"
        ) from exc
    rows["nam"] = example_based.importances(ds.x, ds.y, "nam", nam_model=net)
    for method, imp in rows.items():
        rep.aggregates[f"{method}-raw"] = imp.raw
        rep.aggregates[f"{method}-normalized"] = imp.normalized
    rep.aggregates["nam-initial-loss"] = history[0]
    rep.aggregates["nam-final-loss"] = history[-1]
    with open(out / "importance-table.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + [f"lambda_{k + 1}" for k in range(d)])
        for method, imp in rows.items():
            writer.writerow([method] + [repr(float(v)) for v in imp.normalized])
    grid = np.linspace(0.0, 1.0, 101)
    shapes = nam.extract_shapes(net, grid).values
    b = fit_linear(ds.x, ds.y, with_intercept=False).coefficients
    for k in range(d):
        ale_vals = curves[k].values_at(grid)
        ale_vals = ale_vals - ale_vals.mean()
        lr_vals = b[k] * grid
        lr_vals = lr_vals - lr_vals.mean()
        series = [("effects", ale_vals), ("linear", lr_vals), ("net", shapes[:, k])]
        with open(out / f"shape-coord{k + 1}.csv", "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "effects", "linear", "net"])
            for i, g in enumerate(grid):
                writer.writerow([repr(float(g))] +
                                [repr(float(vals[i])) for _, vals in series])
        svg = line_plot(grid, series, title=f"Shape functions, coordinate {k + 1}",
                        xlabel=f"lambda_{k + 1}", ylabel="centered effect")
        (out / f"shape-coord{k + 1}.svg").write_text(svg, encoding="utf-8")
    return rep


def cmd_gen_data(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate(SyntheticSpec(args.id, seed=args.seed))
    path = out / f"{args.id}-seed{args.seed}.csv"
    save_csv(ds, path)
    print(f"wrote {path}")
    return 0


REPORT_COMMANDS = {
    "explain": cmd_explain,
    "compare": cmd_compare,
    "examples": cmd_examples,
}


def _run_report(command, args) -> int:
    """Run a report command on this thread and write its report.txt.

    Every warning the command raises is recorded and written to the report.
    """
    t0 = time.time()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        rep = command(args, out)
    _drain_warnings(rec, rep)
    if not args.no_timestamp:
        rep.elapsed = round(time.time() - t0, 3)
    path = out / "report.txt"
    write_report(rep, path)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "gen-data":
            return cmd_gen_data(args)
        return _run_report(REPORT_COMMANDS[args.cmd], args)
    except ValueError as exc:  # config, input, and data-format problems
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # training, degenerate geometry, predictor I/O
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
