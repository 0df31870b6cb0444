"""``copyattack``: the paper's attack protocol on the ML20M-Netflix analogue.

Set-up is the program's own ``prepare_experiment`` with the config's own
seed: data generation, PinSage target training and source-MF training,
then pretend users and cold target items.  The dataset and target items
are therefore the same in every run, as in the paper, so the item mix
adds no run-to-run spread; ``--seed`` drives the attack's randomness
(agent initialisation and sampling) and the evaluation's negatives.

The timed attack phase attacks the target items in order, each a whole
unit of work: a fresh ``CopyAttackAgent`` (tree build included) trains
for 40 REINFORCE episodes against the transparent single-node platform
and runs one greedy episode.  Items are attacked until ``--seconds`` of
attack time have passed; the no-attack and post-attack HR@20
evaluations and the clean-up reset run with the clock stopped.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import checks

#: PinSage epochs: a fixed count (no early stop) keeps set-up work equal
#: across seeds; the config's own 150 with patience 20 stops anywhere
#: from ~30 to ~55 epochs here, 40-75 s of set-up.
PINSAGE_EPOCHS = 8
EVAL_K = 20


def experiment_config():
    from repro.experiments.configs import ML20M_NF, scaled_copy

    pinsage = dict(ML20M_NF.pinsage_kwargs, n_epochs=PINSAGE_EPOCHS, patience=PINSAGE_EPOCHS)
    return scaled_copy(ML20M_NF, pinsage_kwargs=pinsage)


def _candidates(model, item: int, eval_users, n_negatives: int, rng):
    """(user, [target, negatives...]) for every eval user not holding ``item``."""
    n_items = model.dataset.n_items
    out = []
    for user in eval_users:
        profile = model.dataset.user_profile(user)
        if item in profile:
            continue
        unseen = np.setdiff1d(np.arange(n_items), np.asarray(profile + (item,)))
        negatives = rng.choice(unseen, size=n_negatives, replace=False)
        out.append((user, np.concatenate(([item], negatives))))
    return out


def _hit_ratio(model, candidates) -> float:
    users = sorted({u for u, _ in candidates})
    scores = model.scores_batch(np.asarray(users, dtype=np.int64))
    return checks.hit_ratio_at_k(scores, candidates, {u: i for i, u in enumerate(users)}, EVAL_K)


class _Timed:
    """Times the attacker's queries and injections while the clock runs."""

    def __init__(self, blackbox) -> None:
        self.on = False
        self.request_s: list[float] = []
        self.inject_s: list[float] = []
        self.users = 0
        query, inject = blackbox.query, blackbox.inject
        clock = time.perf_counter

        def timed_query(user_ids, k):
            t0 = clock()
            lists = query(user_ids, k)
            if self.on:
                self.request_s.append(clock() - t0)
                self.users += len(user_ids)
            return lists

        def timed_inject(profile):
            t0 = clock()
            user_id = inject(profile)
            if self.on:
                self.inject_s.append(clock() - t0)
            return user_id

        blackbox.query = timed_query
        blackbox.inject = timed_inject


def run(seed: int, seconds: float, tracer, t_import: float) -> dict:
    """One copyattack run; returns the raw measurements for ``run.py``."""
    from repro.attack.copyattack import CopyAttackAgent, CopyAttackConfig
    from repro.attack.environment import AttackEnvironment
    from repro.experiments.runner import prepare_experiment

    class CheckedEnvironment(AttackEnvironment):
        """Records the platform's user count after every reset."""

        def reset(self) -> None:
            super().reset()
            reset_counts.append(self.blackbox.n_users)

    cfg = experiment_config()
    clock = time.perf_counter
    t0 = clock()
    prep = prepare_experiment(cfg)
    setup_s = t_import + clock() - t0

    agent_cfg = CopyAttackConfig(
        tree_depth=cfg.tree_depth,
        hidden_dim=cfg.hidden_dim,
        lr=cfg.agent_lr,
        gamma=cfg.gamma,
        n_episodes=cfg.n_episodes,
    )
    rng = np.random.default_rng(seed)
    timed = _Timed(prep.blackbox)
    base_users = prep.blackbox.n_users
    reset_counts: list[int] = []
    failures: list[str] = []
    hr_before: list[float] = []
    hr_after: list[float] = []
    attack_s = 0.0
    episodes = 0
    items = [int(v) for v in prep.target_items]
    for round_index, item in enumerate(itertools.cycle(items)):
        candidates = _candidates(prep.model, item, prep.eval_users, cfg.n_negatives, rng)
        hr_before.append(_hit_ratio(prep.model, candidates))
        if tracer is not None:
            tracer.open_window()
        timed.on = True
        t0 = clock()
        env = CheckedEnvironment(
            prep.blackbox,
            item,
            prep.pretend_user_ids,
            budget=cfg.budget,
            query_interval=cfg.query_interval,
            reward_k=cfg.reward_k,
        )
        agent = CopyAttackAgent(
            prep.cross.source,
            prep.mf.user_factors,
            prep.mf.item_factors,
            agent_cfg,
            seed=np.random.default_rng([seed, round_index]),
        )
        result = agent.attack(env)
        attack_s += clock() - t0
        timed.on = False
        if tracer is not None:
            tracer.close_window()
        episodes += agent_cfg.n_episodes + 1
        hr_after.append(_hit_ratio(prep.model, candidates))
        trace = result.trace
        if not 0 < trace.n_injected <= cfg.budget or len(trace.selected_users) != trace.n_injected:
            failures.append(f"item {item}: greedy episode injected {trace.n_injected} profiles")
        for profile, user in zip(trace.injected_profiles, trace.selected_users):
            problem = checks.check_injected_window(
                profile, prep.cross.source.user_profile(user), item
            )
            if problem:
                failures.append(f"item {item}: {problem}")
        env.reset()
        if attack_s >= seconds:
            break
    failures += checks.check_promotion(hr_before, hr_after)
    failures += checks.check_resets(reset_counts, base_users)
    return {
        "attempted": episodes,
        "failed": 0,
        "failures": failures,
        "setup_s": setup_s,
        "elapsed_s": attack_s,
        "ops": episodes,
        "users": timed.users,
        "request_s": timed.request_s,
        "inject_s": timed.inject_s,
        "shard_rss_mib": None,  # the single-node platform lives in this process
        "notes": {
            "items_attacked": len(hr_after),
            "hr20_before": float(np.mean(hr_before)),
            "hr20_after": float(np.mean(hr_after)),
            "resets": len(reset_counts),
            "target_test_hr10": float(prep.trained.test_metrics["hr@10"]),
        },
    }
