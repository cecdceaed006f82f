"""Scratch calibration probe for the synthetic-benefit experiment defaults."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from conceptdistill.losses import DistillConfig
from conceptdistill.synthetic import GeneratorConfig, generate
from conceptdistill.train import TrainConfig, evaluate_macro_pr_f1, pretrain_teacher, train_student


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=0.55)
    ap.add_argument("--rho", type=float, default=0.6)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--teacher-epochs", type=int, default=30)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--teacher-lr", type=float, default=3e-3)
    ap.add_argument("--wd", type=float, default=0.0)
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--beta", type=float, default=0.05)
    ap.add_argument("--tau", type=float, default=10.0)
    ap.add_argument("--scale", type=float, default=1.0, help="train count multiplier")
    args = ap.parse_args()

    rows = []
    t0 = time.time()
    for seed in range(args.seeds):
        gen = GeneratorConfig(teacher_dominance=args.rho, noise_sigma=args.sigma, seed=seed)
        if args.scale != 1.0:
            for mod in ("student", "teacher"):
                gen.counts[mod]["train"] = [
                    max(5, int(c * args.scale)) for c in gen.counts[mod]["train"]
                ]
        ds, pool = generate(gen)
        tcfg = TrainConfig(learning_rate=args.teacher_lr, epochs=args.teacher_epochs,
                           weight_decay=args.wd, seed=seed)
        teacher = pretrain_teacher(tcfg, ds, pool)

        def student(alpha, beta):
            cfg = TrainConfig(
                learning_rate=args.lr, epochs=args.epochs, weight_decay=args.wd,
                seed=seed,
                distill=DistillConfig(alpha=alpha, beta=beta, tau=args.tau),
            )
            return train_student(cfg, ds, pool,
                                 teacher=teacher if (alpha or beta) else None)

        x, y = ds.split_arrays("student", "test")
        xt, yt = ds.split_arrays("teacher", "test")
        base = student(0.0, 0.0)
        gpd_only = student(args.alpha, 0.0)
        lcd_only = student(0.0, args.beta)
        combined = student(args.alpha, args.beta)
        f1 = {
            "base": 100.0 * evaluate_macro_pr_f1(base, pool, x, y),
            "gpd": 100.0 * evaluate_macro_pr_f1(gpd_only, pool, x, y),
            "lcd": 100.0 * evaluate_macro_pr_f1(lcd_only, pool, x, y),
            "comb": 100.0 * evaluate_macro_pr_f1(combined, pool, x, y),
            "teacher": 100.0 * evaluate_macro_pr_f1(teacher, pool, xt, yt),
        }
        rows.append(f1)
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.2f}" for k, v in f1.items()),
              flush=True)

    keys = rows[0].keys()
    means = {k: np.mean([r[k] for r in rows]) for k in keys}
    print("MEANS: " + "  ".join(f"{k}={v:.2f}" for k, v in means.items()))
    print(f"gain comb-base: {means['comb'] - means['base']:.2f}")
    print(f"gain gpd-base : {means['gpd'] - means['base']:.2f}")
    print(f"gain lcd-base : {means['lcd'] - means['base']:.2f}")
    wins = sum(1 for r in rows if r["comb"] - r["base"] >= 2.0)
    print(f"seeds with comb-base >= 2.0: {wins}/{len(rows)}")
    print(f"elapsed: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
