"""Experiment runner.

Commands: simulate, train-drl, train-erm, drst, drssl, plugin-sim,
calibrate, compare. Every run is driven by a JSON config plus optional
--seed/--out overrides and writes machine-readable outputs into its own
directory: metrics.jsonl (per-epoch or per-round records), report.json
(resolved config, tool version, and one calibration block per evaluated
model), reliability.csv, predictions.csv, and model.json checkpoints where
a model is trained. A run either completes all its files or removes the
partial ones. Each command checks its config and loads its data before it
takes the output directory's lock, and trains only after that.

All randomness derives from the single top-level seed by fixed offsets:
data generation uses seed, classifier init seed+100, domain-net init
seed+101, batch shuffling seed, the temperature-scaling split seed+7, the
labeled-subset draw seed+50, augmentation seed+60.

Exit codes: 0 success, 2 config error, 3 numeric divergence, 64 usage
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.special import softmax

from . import __version__
from .benchmarks import (
    CALIBRATION_RECIPE,
    SELF_TRAIN_RECIPE,
    SEMI_SUP_RECIPE,
    class_balanced_subset,
)
from .calibration import calibration_report, fit_temperature, nll
from .data import (
    AugmentationSpec,
    GaussianShiftSpec,
    default_shift_spec,
    generate_gaussian_shift,
    load_csv,
    save_csv,
)
from .domain import default_domain_classifier
from .errors import ConfigError, ContractError, CsvParseError, DivergenceError
from .kde import run_plugin_simulation
from .robust import (
    TrainConfig,
    checkpoint_from_json,
    checkpoint_to_json,
    class_scores,
    default_classifier,
    target_predictions,
    train_end_to_end,
    train_erm,
)
from .selftrain import SelfTrainSchedule, run_drst
from .semisup import SslConfig, run_drssl

TOOL_VERSION = f"drshift {__version__}"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling


def _section(cfg, path):
    """The JSON object at a dotted path; {} where the path is absent."""
    node = cfg
    parts = path.split(".")
    for i, p in enumerate(parts):
        node = node.get(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{'.'.join(parts[:i + 1])}: expected an object, got {node!r}")
    return node


def _lookup(cfg, path, default):
    section, _, key = path.rpartition(".")
    val = (_section(cfg, section) if section else cfg).get(key, default)
    if val is None:
        raise ConfigError(f"{path}: required value missing")
    return val


def _path(cfg, path):
    """A required file or directory path: a non-empty string."""
    val = _lookup(cfg, path, None)
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{path}: expected a non-empty path string, got {val!r}")
    return val


def _num(cfg, path, default=None, **checks):
    return _check_num(_lookup(cfg, path, default), path, **checks)


def _num_list(cfg, path, default=None, **checks):
    """A list, or nested rectangular lists, of numbers that each pass the _num checks."""
    val = _lookup(cfg, path, default)
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {val!r}")

    def walk(v, where):
        if isinstance(v, (list, tuple)):
            return [walk(x, f"{where}[{i}]") for i, x in enumerate(v)]
        return _check_num(v, where, **checks)

    out = walk(val, path)
    try:
        np.array(out, dtype=float)
    except ValueError:
        raise ConfigError(f"{path}: nested lists must be rectangular, got {val!r}") from None
    return out


def _check_num(val, path, lo=None, hi=None, strict=False, integer=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {val}")
    if integer and int(val) != val:
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    if lo is not None and (val <= lo if strict else val < lo):
        raise ConfigError(f"{path}: must be {'>' if strict else '>='} {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {val}")
    return int(val) if integer else float(val)


def load_config(path, seed_override=None, out_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["out_dir"] = out_override
    if "seed" not in cfg:
        raise ConfigError("seed: required value missing")
    _num(cfg, "seed", integer=True)
    _path(cfg, "out_dir")
    return cfg


def _data_spec(cfg):
    kind = _section(cfg, "data").get("kind", "gaussian")
    seed = int(cfg["seed"])
    if kind == "csv":
        paths = {key: _path(cfg, f"data.{key}") for key in ("source_path", "target_path")}
        for key, p in paths.items():
            if not os.path.exists(p):
                raise ConfigError(f"data.{key}: no such file {p}")
        has_label = _lookup(cfg, "data.target_has_label", True)
        if not isinstance(has_label, bool):
            raise ConfigError(f"data.target_has_label: expected true or false, got {has_label!r}")
        return ("csv", {**paths, "target_has_label": has_label})
    if kind != "gaussian":
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    base = default_shift_spec(seed=seed)
    arrays = {
        key: _num_list(cfg, f"data.{key}", getattr(base, key).tolist())
        for key in ("source_mean", "target_mean", "source_cov", "target_cov", "boundary_weights")
    }
    spec = GaussianShiftSpec(
        **arrays,
        boundary_bias=_num(cfg, "data.boundary_bias", base.boundary_bias),
        n_source=_num(cfg, "data.n_source", base.n_source, lo=1, integer=True),
        n_target=_num(cfg, "data.n_target", base.n_target, lo=1, integer=True),
        seed=seed,
    )
    return ("gaussian", spec)


def _load_datasets(cfg):
    kind, spec = _data_spec(cfg)
    if kind == "gaussian":
        source, target, _ = generate_gaussian_shift(spec)
        return source, target
    source = load_csv(spec["source_path"], has_label=True, domain="source")
    target = load_csv(spec["target_path"], has_label=spec["target_has_label"], domain="target")
    if source.dim != target.dim:
        raise ConfigError(
            f"data.target_path: target has {target.dim} features, source has {source.dim}"
        )
    return source, target


def _train_config(cfg, recipe):
    return TrainConfig(
        lr_domain=_num(cfg, "train.lr_domain", recipe["lr_domain"], lo=0, strict=True),
        lr_model=_num(cfg, "train.lr_model", recipe["lr_model"], lo=0, strict=True),
        momentum=_num(cfg, "train.momentum", recipe["momentum"], lo=0),
        batch_size=_num(cfg, "train.batch_size", recipe["batch_size"], lo=1, integer=True),
        epochs=_num(cfg, "train.epochs", recipe["epochs"], lo=0, integer=True),
        domain_update_period=_num(
            cfg, "train.domain_update_period", TrainConfig.domain_update_period, lo=1, integer=True
        ),
        seed=int(cfg["seed"]),
    )


def _build_models(cfg, recipe, dim, class_count):
    """Initial classifier and domain net, plus r; sizes the config omits keep their defaults."""
    bounds = tuple(_num_list(cfg, "model.ratio_bounds", list(recipe["ratio_bounds"])))
    if len(bounds) != 2:
        raise ConfigError("model.ratio_bounds: expected [min, max]")
    r = _num(cfg, "model.r", recipe["r"], lo=0, hi=1)
    sizes = {}
    if "hidden" in _section(cfg, "model"):
        sizes["hidden"] = _num_list(cfg, "model.hidden", lo=1, integer=True)
    if "feature_dim" in _section(cfg, "model"):
        sizes["feature_dim"] = _num(cfg, "model.feature_dim", lo=1, integer=True)
    seed = int(cfg["seed"])
    clf = default_classifier(dim, class_count, seed=seed + 100, r=r, ratio_bounds=bounds, **sizes)
    dom = default_domain_classifier(dim, seed=seed + 101, ratio_bounds=bounds)
    return clf, dom, r


# ---------------------------------------------------------------------------
# Output files


class RunDir:
    """Exclusive run directory: lock file plus all-or-nothing writes; a failed
    run removes the files and the directory it created."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []
        self.lock_path = os.path.join(out_dir, ".lock")
        self._lock_fd = None

    def __enter__(self):
        self._created = not os.path.isdir(self.out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        try:
            self._lock_fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output directory {self.out_dir} is locked by another run"
            ) from None
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self.written:
                try:
                    os.remove(path)
                except OSError:
                    pass
        if self._lock_fd is not None:
            os.close(self._lock_fd)
        try:
            os.remove(self.lock_path)
            if exc_type is not None and self._created:
                os.rmdir(self.out_dir)
        except OSError:
            pass
        return False

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.written.append(p)
        return p


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _model_block(name, report=None, class_count=None, extra=None):
    block = {"name": name, "class_count": class_count}
    if report is not None:
        block.update(
            accuracy=report.accuracy,
            brier=report.brier,
            ece=report.ece,
            miscls_entropy=report.miscls_entropy,
            bins=[
                {
                    "lower": b.lower,
                    "upper": b.upper,
                    "count": b.count,
                    "confidence": b.mean_confidence,
                    "accuracy": b.accuracy,
                }
                for b in report.bins
            ],
        )
    if extra:
        block.update(extra)
    return block


def write_report(path, command, cfg, models):
    doc = {"tool_version": TOOL_VERSION, "command": command, "config": cfg, "models": models}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reliability(path, bins):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lower,upper,count,confidence,accuracy\n")
        for b in bins:
            fh.write(f"{b.lower},{b.upper},{b.count},{b.mean_confidence},{b.accuracy}\n")


def write_predictions(path, probs, labels, ratios):
    probs = np.asarray(probs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,label,predicted,confidence,ratio\n")
        for i in range(probs.shape[0]):
            lab = "" if labels is None else str(int(labels[i]))
            fh.write(
                f"{i},{lab},{int(probs[i].argmax())},{probs[i].max()},{ratios[i]}\n"
            )


def _write_trained(run, command, cfg, history, clf, dom, target, name, unit_ratio=False):
    """Metrics, checkpoint and target evaluation files of a training command."""
    write_jsonl(run.path("metrics.jsonl"), history)
    with open(run.path("model.json"), "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(clf, dom, cfg))
    probs, ratios = target_predictions(clf, dom, target, unit_ratio=unit_ratio)
    labels = target.y if target.labeled else None
    report = None
    if target.labeled:
        report = calibration_report(probs, labels)
        write_reliability(run.path("reliability.csv"), report.bins)
    write_predictions(run.path("predictions.csv"), probs, labels, ratios)
    block = _model_block(name, report, target.class_count, {"n_eval": len(target)})
    write_report(run.path("report.json"), command, cfg, [block])


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg):
    kind, spec = _data_spec(cfg)
    if kind != "gaussian":
        raise ConfigError("simulate requires gaussian data")
    source, target, _ = generate_gaussian_shift(spec)
    with RunDir(cfg["out_dir"]) as run:
        save_csv(run.path("source.csv"), source)
        save_csv(run.path("target.csv"), target)
        write_jsonl(
            run.path("metrics.jsonl"),
            [{"n_source": len(source), "n_target": len(target), "dim": source.dim}],
        )
        write_report(run.path("report.json"), "simulate", cfg, [])
    return 0


def cmd_train_drl(cfg):
    source, target = _load_datasets(cfg)
    recipe = CALIBRATION_RECIPE
    tcfg = _train_config(cfg, recipe)
    clf0, dom0, _ = _build_models(cfg, recipe, source.dim, source.class_count)
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = train_end_to_end(source, target, clf0, dom0, tcfg)
        _write_trained(run, "train-drl", cfg, history, clf, dom, target, "drl")
    return 0


def cmd_train_erm(cfg):
    source, target = _load_datasets(cfg)
    recipe = CALIBRATION_RECIPE
    tcfg = _train_config(cfg, recipe)
    clf0, _, _ = _build_models(cfg, recipe, source.dim, source.class_count)
    with RunDir(cfg["out_dir"]) as run:
        clf, history = train_erm(source, tcfg, clf=clf0)
        _write_trained(run, "train-erm", cfg, history, clf, None, target, "erm", unit_ratio=True)
    return 0


def cmd_drst(cfg):
    source, target = _load_datasets(cfg)
    recipe = SELF_TRAIN_RECIPE
    tcfg = _train_config(cfg, recipe)
    clf0, dom0, r = _build_models(cfg, recipe, source.dim, source.class_count)
    defaults = SelfTrainSchedule()
    schedule = SelfTrainSchedule(
        p0=_num(cfg, "schedule.p0", defaults.p0, lo=0, hi=1),
        dp=_num(cfg, "schedule.dp", defaults.dp, lo=0),
        pmax=_num(cfg, "schedule.pmax", defaults.pmax, lo=0, hi=1),
        rounds=_num(cfg, "schedule.rounds", recipe["rounds"], lo=0, integer=True),
    )
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = run_drst(source, target, schedule, tcfg, r=r, clf=clf0, dom=dom0)
        _write_trained(run, "drst", cfg, history, clf, dom, target, "drst")
    return 0


def cmd_drssl(cfg):
    source, target = _load_datasets(cfg)
    recipe = SEMI_SUP_RECIPE
    tcfg = _train_config(cfg, recipe)
    n_labeled = _num(cfg, "ssl.labeled_count", recipe["labeled_count"], lo=1, integer=True)
    labeled = class_balanced_subset(source, n_labeled, int(cfg["seed"]) + 50)
    aug = "ssl.augmentation."
    scfg = SslConfig(
        threshold=_num(cfg, "ssl.threshold", recipe["threshold"], lo=0, hi=1),
        unlabeled_batch=_num(cfg, "ssl.unlabeled_batch", recipe["unlabeled_batch"], lo=1, integer=True),
        loss_weight=_num(cfg, "ssl.loss_weight", recipe["loss_weight"], lo=0),
        augmentation=AugmentationSpec(
            weak_noise_std=_num(cfg, aug + "weak_noise_std", recipe["weak_noise_std"], lo=0),
            strong_noise_std=_num(cfg, aug + "strong_noise_std", recipe["strong_noise_std"], lo=0),
            strong_mask_fraction=_num(
                cfg, aug + "strong_mask_fraction", recipe["strong_mask_fraction"], lo=0, hi=1
            ),
            seed=int(cfg["seed"]) + 60,
        ),
        base=tcfg,
    )
    clf0, dom0, r = _build_models(cfg, recipe, source.dim, source.class_count)
    with RunDir(cfg["out_dir"]) as run:
        clf, dom, history = run_drssl(labeled, target, scfg, r=r, clf=clf0, dom=dom0)
        _write_trained(run, "drssl", cfg, history, clf, dom, target, "drssl")
    return 0


def cmd_plugin_sim(cfg):
    kind, spec = _data_spec(cfg)
    if kind != "gaussian":
        raise ConfigError("plugin-sim requires gaussian data")
    bandwidths = _num_list(cfg, "plugin.bandwidths", [0.05, 0.2, 0.5, 1.0], lo=0, strict=True)
    if not bandwidths:
        raise ConfigError("plugin.bandwidths: expected a non-empty list")
    with RunDir(cfg["out_dir"]) as run:
        rows = run_plugin_simulation(spec, bandwidths)
        write_jsonl(run.path("metrics.jsonl"), rows)
        with open(run.path("plugin_sim.csv"), "w", encoding="utf-8") as fh:
            fh.write("h,ll_source,ll_target,target_logloss\n")
            for row in rows:
                fh.write(
                    f"{row['h']},{row['ll_source']},{row['ll_target']},{row['target_logloss']}\n"
                )
        write_report(run.path("report.json"), "plugin-sim", cfg, [])
    return 0


def cmd_calibrate(cfg):
    ckpt_path = _path(cfg, "calibrate.checkpoint")
    if not os.path.exists(ckpt_path):
        raise ConfigError(f"calibrate.checkpoint: no such file {ckpt_path}")
    with open(ckpt_path, "r", encoding="utf-8") as fh:
        clf, dom, _ = checkpoint_from_json(fh.read())
    _, target = _load_datasets(cfg)
    if not target.labeled:
        raise ConfigError("calibrate requires a labeled target dataset")
    split = _num(cfg, "calibrate.split", 0.5, lo=0, hi=1)
    with RunDir(cfg["out_dir"]) as run:
        rng = np.random.default_rng(int(cfg["seed"]) + 7)
        perm = rng.permutation(len(target))
        cut = max(1, min(len(target) - 1, int(round(split * len(target)))))
        fit_idx, eval_idx = perm[:cut], perm[cut:]
        logits = class_scores(clf, target.X)
        temperature = fit_temperature(logits[fit_idx], target.y[fit_idx])
        probs_raw = softmax(logits[eval_idx], axis=1)
        probs_ts = softmax(logits[eval_idx] / temperature, axis=1)
        y_eval = target.y[eval_idx]
        rep_raw = calibration_report(probs_raw, y_eval)
        rep_ts = calibration_report(probs_ts, y_eval)
        write_jsonl(
            run.path("metrics.jsonl"),
            [
                {
                    "temperature": temperature,
                    "nll_before": nll(logits[eval_idx], y_eval, 1.0),
                    "nll_after": nll(logits[eval_idx], y_eval, temperature),
                }
            ],
        )
        write_reliability(run.path("reliability.csv"), rep_ts.bins)
        write_predictions(run.path("predictions.csv"), probs_ts, y_eval, np.ones(len(y_eval)))
        write_report(
            run.path("report.json"),
            "calibrate",
            cfg,
            [
                _model_block("raw", rep_raw, target.class_count, {"n_eval": len(y_eval)}),
                _model_block(
                    "temperature_scaled",
                    rep_ts,
                    target.class_count,
                    {"n_eval": len(y_eval), "temperature": temperature},
                ),
            ],
        )
    return 0


def cmd_compare(report_paths):
    rows = []
    class_counts = []
    for path in report_paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            models = doc["models"]
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ConfigError(f"malformed report {path}: {exc}") from exc
        if not models:
            raise ConfigError(f"malformed report {path}: no evaluated models")
        for block in models:
            rows.append((path, block))
            class_counts.append(block.get("class_count"))
    mismatch = len(set(class_counts)) > 1
    print("name,accuracy,brier,ece,miscls_entropy,warning")
    for path, block in rows:
        warn = "class_count_mismatch" if mismatch else ""
        name = block.get("name", os.path.basename(path))
        print(
            f"{name},{block.get('accuracy')},{block.get('brier')},"
            f"{block.get('ece')},{block.get('miscls_entropy')},{warn}"
        )
    return 0


# ---------------------------------------------------------------------------


RUN_COMMANDS = {
    "simulate": cmd_simulate,
    "train-drl": cmd_train_drl,
    "train-erm": cmd_train_erm,
    "drst": cmd_drst,
    "drssl": cmd_drssl,
    "plugin-sim": cmd_plugin_sim,
    "calibrate": cmd_calibrate,
}


def build_parser():
    parser = _Parser(prog="drshift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUN_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    p = sub.add_parser("compare")
    p.add_argument("reports", nargs="+", help="report.json files to tabulate")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    try:
        if args.command == "compare":
            if len(args.reports) < 2:
                print("usage error: compare needs at least two reports", file=sys.stderr)
                return 64
            return cmd_compare(args.reports)
        cfg = load_config(args.config, args.seed, args.out)
        return RUN_COMMANDS[args.command](cfg)
    except (ConfigError, CsvParseError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
