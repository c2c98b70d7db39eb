"""Repeated play: best-response and log-linear learning with seeded traces.

Each round a uniformly random robot updates its action against the others'
fixed actions. Best response keeps the current action when it is already
among the exact argmax set and otherwise picks uniformly among the argmax
actions, so the global value never decreases and play stops changing exactly
at the equilibria. Log-linear learning samples from a softmax over the
robot's utilities with noise ``epsilon``, which keeps every action at
positive probability and concentrates long-run play on global optima as the
noise shrinks. Both rules read the robot's utilities as the 1-D int64 array
the kernel (``ProfileState.utilities_over_actions``) returns; the chosen
action ids and the trace records are plain Python ints.

Randomness is pinned: ``numpy.random.Generator(PCG64)`` seeded through
``SeedSequence(seed).spawn(2)``. Stream 0 picks the updating robot each
round; stream 1 draws everything else (the random initial plan, one draw per
robot in id order, then per-round action sampling and best-response
tie-breaks). Batch run ``j`` uses ``base_seed + j``. Identical (game, config)
inputs reproduce traces exactly.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ValidationError
from .game import JointPlan, ProfileState
from .grid import _as_integer

BEST_RESPONSE = "br"
LOG_LINEAR = "lll"

# input name -> (test, rule); LearningConfig, run_batch, the log-linear
# kernels and scenario defaults all check their inputs here
_INPUT_RULES = {
    "algorithm": (
        lambda v: v in (BEST_RESPONSE, LOG_LINEAR),
        f"must be {BEST_RESPONSE!r} or {LOG_LINEAR!r}",
    ),
    "rounds": (lambda v: _as_integer(v) is not None and v >= 1, "must be an integer of at least 1"),
    "runs": (lambda v: _as_integer(v) is not None and v >= 1, "must be an integer of at least 1"),
    "seed": (lambda v: _as_integer(v) is not None and v >= 0, "must be a non-negative integer"),
    "epsilon": (
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and v > 0,
        "must be positive: a real number above 0, or inf",
    ),
}


def _check_input(name, value, field=None, error=ValidationError):
    """Raise ``error`` unless ``value`` passes the rule on input ``name``.

    The message names ``field``, which defaults to ``name``.
    """
    test, rule = _INPUT_RULES[name]
    if not test(value):
        raise error(f"{field or name} {rule}")


@dataclass(frozen=True)
class LearningConfig:
    """Algorithm choice, noise, round count, seed, and initial plan.

    ``initial`` is either the string "random" or an explicit JointPlan.
    """

    algorithm: str
    rounds: int
    seed: int = 0
    epsilon: float = 0.2
    initial: object = "random"

    def __post_init__(self):
        _check_input("algorithm", self.algorithm)
        _check_input("rounds", self.rounds)
        _check_input("seed", self.seed)
        _check_input("epsilon", self.epsilon)


@dataclass
class RunTrace:
    """One run: initial plan and value, then one record per round.

    ``records[k - 1] == (k, robot_id, action_id, value)`` gives the
    updating robot, its chosen action id, and the global value after the
    update in round ``k`` (1-based).
    """

    initial_plan: JointPlan
    initial_value: object
    records: list = field(default_factory=list)
    final_plan: JointPlan = None

    @property
    def final_value(self):
        return self.records[-1][3] if self.records else self.initial_value

    def values(self):
        """Global values by round, index 0 being the initial plan."""
        return [self.initial_value] + [r[3] for r in self.records]

    def plans(self):
        """Joint plan after each round, index 0 being the initial plan."""
        out = [self.initial_plan]
        ids = list(self.initial_plan.action_ids)
        for _, robot_id, action_id, _ in self.records:
            ids[robot_id - 1] = action_id
            out.append(JointPlan(tuple(ids)))
        return out


def _streams(seed):
    pick, act = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(pick)),
        np.random.Generator(np.random.PCG64(act)),
    )


def _initial_plan(game, config, act_rng):
    # an explicit plan is validated by the ProfileState that run builds on it
    if isinstance(config.initial, JointPlan):
        return config.initial
    if config.initial == "random":
        return game.random_plan(act_rng)
    raise ValidationError("initial must be 'random' or a JointPlan")


def best_response_set(game, plan, robot_id):
    """Action ids maximizing the robot's utility against the fixed rest."""
    row = ProfileState(game, plan).utilities_over_actions(robot_id)
    return set(np.flatnonzero(row == row.max()).tolist())


def lll_distribution(game, plan, robot_id, epsilon):
    """Softmax sampling distribution over the robot's full action set.

    Probabilities are proportional to exp(utility / epsilon). The maximum
    utility is subtracted, in exact integers, before the division by
    epsilon, so every weight lies in [0, 1] and the best actions weigh 1 at
    every epsilon. A positive epsilon gives every action positive
    probability unless it underflows (below about 1e-308 times a utility
    gap); ``epsilon = inf`` is valid and gives the uniform law.
    """
    _check_epsilon(epsilon)
    state = ProfileState(game, plan)
    return _softmax(state.utilities_over_actions(robot_id), epsilon)


def _check_epsilon(epsilon):
    _check_input("epsilon", epsilon, error=DomainError)


def _softmax(u, epsilon):
    # integer utilities: the subtraction is exact, so no inf - inf at tiny
    # epsilon; a gap whose quotient passes the float range becomes -inf
    with np.errstate(over="ignore"):
        w = np.exp((u - u.max()) / epsilon)
    return w / w.sum()


def run_best_response(game, config):
    if config.algorithm != BEST_RESPONSE:
        raise ValidationError("config.algorithm must be 'br'")
    return run(game, config)


def run_log_linear(game, config):
    if config.algorithm != LOG_LINEAR:
        raise ValidationError("config.algorithm must be 'lll'")
    return run(game, config)


def run(game, config):
    """Execute one learning run and return its trace."""
    pick_rng, act_rng = _streams(config.seed)
    plan = _initial_plan(game, config, act_rng)
    state = ProfileState(game, plan)
    trace = RunTrace(initial_plan=plan, initial_value=state.global_value())
    n = game.n_robots
    br = config.algorithm == BEST_RESPONSE
    for k in range(1, config.rounds + 1):
        robot_id = int(pick_rng.integers(n)) + 1
        row = state.utilities_over_actions(robot_id)
        current = state.action_ids[robot_id - 1]
        if br:
            best = row.max()
            if row[current] == best:
                chosen = current
            else:
                ties = np.flatnonzero(row == best)
                chosen = int(ties[act_rng.integers(len(ties))])
        else:
            probs = _softmax(row, config.epsilon)
            chosen = int(act_rng.choice(len(probs), p=probs))
        state.switch(robot_id, chosen)
        trace.records.append((k, robot_id, chosen, state.global_value()))
    trace.final_plan = state.plan()
    return trace


@dataclass
class BatchResult:
    """Aggregates over independent runs of one configuration.

    ``series`` rows are (round, min, avg, max) over runs, for rounds
    0..K with round 0 the initial plans. The histogram counts terminal
    values.
    """

    series: list
    terminal_values: list
    terminal_histogram: dict
    final_plans: list
    traces: list


def run_batch(game, config, n_runs, base_seed=None):
    """Run ``n_runs`` independent seeded copies and aggregate per round.

    Run ``j`` uses seed ``base_seed + j`` (``base_seed`` defaults to the
    config seed). Runs share nothing but the immutable game.
    """
    _check_input("runs", n_runs)
    if base_seed is None:
        base_seed = config.seed
    traces = [run(game, replace(config, seed=base_seed + j)) for j in range(n_runs)]
    values = np.array([t.values() for t in traces])  # runs x (rounds + 1)
    series = [
        (k, values[:, k].min().item(), values[:, k].mean().item(), values[:, k].max().item())
        for k in range(values.shape[1])
    ]
    terminal = [t.final_value for t in traces]
    histogram = {}
    for v in terminal:
        histogram[v] = histogram.get(v, 0) + 1
    return BatchResult(
        series=series,
        terminal_values=terminal,
        terminal_histogram=dict(sorted(histogram.items())),
        final_plans=[t.final_plan for t in traces],
        traces=traces,
    )
