"""Plan-space DSE engine tests (repro.dse + repro.vectorize.plan).

The contract under test, layer by layer:

* **Enumeration** — every emitted :class:`PlanPoint` is legal: it
  materializes into a real vectorization plan (or is the scalar
  point), the scalar point comes first, and the natural-VF default
  leads the vector points.
* **Oracle batching** — one batched predict over the candidate set is
  bit-identical to scoring each pseudo-sample individually.
* **Drivers** — deterministic under a seed (bandit and hill-climb
  replay exactly), and the ``verified`` driver can never do worse
  than the natural-VF default (its shortlist always contains it).
* **Plan space** — a search scores first and measures only what its
  driver reads (``verified`` its shortlist in one call, ``bandit`` each
  pulled arm once), builds each vector recipe once and lowers it at
  most once per target, and returns exactly what the eager path (every
  point measured and scored up front) returns.
* **Memoization** — warm searches return the cached object; bumping
  the model (refit on different data → new weights) changes the model
  fingerprint and invalidates every dependent search.
* **Chaos** — injected faults drain deterministically and a faulted
  search returns the bit-identical result of an unfaulted one.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.codegen.interleave import interleave_stream, interleaved_counts
from repro.costmodel.speedup import SpeedupModel
from repro.dse import SEARCHES, model_fingerprint, search_kernel
from repro.dse import oracle, points as points_mod, search
from repro.fitting.nnls import NonNegativeLeastSquares
from repro.ir.stmt import IfBlock
from repro.pipeline.faultinject import parse_faults
from repro.serve.chaos import suite_payloads
from repro.settings import current, use
from repro.sim import measure as measure_mod
from repro.targets import ARMV8_NEON, X86_AVX2
from repro.tsvc import all_kernels
from repro.vectorize.plan import (
    PlanPoint,
    default_plan_point,
    enumerate_plan_points,
    is_plan,
    scalar_point,
)

from tests.helpers import SMALL

SUITE = list(all_kernels(dims=SMALL))


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path):
    """An empty search memo on a private cache dir, so that no search
    another test stored is read back where this one counts computations."""
    use(current().replace(cache_dir=tmp_path))
    SEARCHES.clear()
    yield
    SEARCHES.clear()


@pytest.fixture(scope="module")
def model():
    samples = [s for _, _, s in suite_payloads(12)]
    return SpeedupModel(NonNegativeLeastSquares()).fit(samples)


@pytest.fixture(scope="module")
def bumped_model():
    """Same family, different fit → different weights → new version."""
    samples = [s for _, _, s in suite_payloads(8)]
    return SpeedupModel(NonNegativeLeastSquares()).fit(samples)


# -- plan-space enumeration ---------------------------------------------------


def test_planpoint_validation():
    with pytest.raises(ValueError):
        # vector points need vf >= 2
        PlanPoint(vf=1, interleave=1, unroll=1, strategy="llv", target="t")
    with pytest.raises(ValueError):
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="bogus", target="t")
    with pytest.raises(ValueError):
        # scalar carries no vector knobs
        PlanPoint(vf=1, interleave=2, unroll=1, strategy="scalar", target="t")
    p = scalar_point(ARMV8_NEON)
    assert p.is_scalar and p.label() == "scalar"


@pytest.mark.parametrize("kernel", SUITE[:24], ids=lambda k: k.name)
def test_enumeration_emits_only_legal_points(kernel):
    """Every emitted vector point materializes into a real plan —
    enumeration prunes by legality, it does not re-walk dependences
    per point and it never emits a point the vectorizer rejects."""
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    assert points[0].is_scalar, "scalar point must come first"
    assert len(set(points)) == len(points), "duplicate plan points"
    bases: dict = {}
    for point in points[1:]:
        result = measure_mod.materialize_point(
            kernel, ARMV8_NEON, point, bases=bases
        )
        assert is_plan(result), (
            f"{kernel.name}: emitted point {point.label()} does not "
            f"materialize: {getattr(result, 'reason', result)}"
        )


def test_default_leads_vector_points():
    for kernel in SUITE[:16]:
        points = enumerate_plan_points(kernel, ARMV8_NEON)
        vector = [p for p in points if not p.is_scalar]
        if not vector:
            continue
        default = default_plan_point(kernel, ARMV8_NEON)
        assert vector[0] == default
        assert default.interleave == 1 and default.unroll == 1


# -- the interleave transform -------------------------------------------------


def test_interleave_stream_shape():
    from repro.codegen.vector_gen import lower_vector
    from repro.vectorize import vectorize_loop

    kernel = next(k for k in SUITE if k.name == "s000")
    plan = vectorize_loop(kernel, ARMV8_NEON)
    stream = lower_vector(plan, ARMV8_NEON)
    ic2 = interleave_stream(stream, 2)
    assert ic2.iters == stream.iters // 2
    assert ic2.elems_per_iter == stream.elems_per_iter * 2
    assert len(ic2.body) == 2 * len(stream.body)
    assert ic2.name.endswith(".ic2")
    # ids must stay unique after replication
    ids = [ins.id for ins in ic2.all_instrs()]
    assert len(ids) == len(set(ids))
    with pytest.raises(ValueError):
        interleave_stream(stream, 7)  # does not divide iters


def _interleave_by_replace(stream, ic):
    """The transform written with ``dataclasses.replace``: the reference
    the direct ``MInstr`` construction must equal."""
    from dataclasses import replace

    if ic == 1:
        return stream
    stride = max((i.id for i in stream.all_instrs()), default=-1) + 1

    def remap(ins, c):
        extra, carried = [], []
        for producer, dist in ins.carried:
            if producer == ins.id and dist == 1:
                carried.append((producer + c * stride, 1))
                continue
            q, src_copy = divmod(c - dist, ic)
            if q == 0:
                extra.append(producer + src_copy * stride)
            else:
                carried.append((producer + src_copy * stride, -q))
        return replace(
            ins,
            id=ins.id + c * stride,
            srcs=tuple(s + c * stride for s in ins.srcs) + tuple(extra),
            carried=tuple(carried),
            mem_stride=(
                ins.mem_stride * ic
                if ins.mem_stride not in (None, 0)
                else ins.mem_stride
            ),
        )

    out = type(stream)(
        name=f"{stream.name}.ic{ic}",
        iters=stream.iters // ic,
        elems_per_iter=stream.elems_per_iter * ic,
        remainder=stream.remainder,
        working_set_bytes=stream.working_set_bytes,
    )
    for c in range(ic):
        out.body.extend(remap(ins, c) for ins in stream.body)
        out.prologue.extend(replace(i, id=i.id + c * stride) for i in stream.prologue)
        out.epilogue.extend(replace(i, id=i.id + c * stride) for i in stream.epilogue)
    return out


_BASE_STREAMS: dict = {}


def _suite_base_streams(target) -> list:
    """``(point, lowering, base stream)`` of every vector point of the
    (small) suite on ``target``, lowered for the target and GENERIC_IR;
    built once per target for the tests below."""
    from repro.targets.generic_ir import GENERIC_IR

    if target.name not in _BASE_STREAMS:
        out = _BASE_STREAMS[target.name] = []
        for kernel in SUITE:
            space = points_mod.PlanSpace(kernel, target)
            for point in enumerate_plan_points(kernel, target):
                if point.is_scalar or not is_plan(space.plan(point)):
                    continue
                for lowering in (target, GENERIC_IR):
                    out.append((point, lowering, space._base_stream(point, lowering)))
    return _BASE_STREAMS[target.name]


@pytest.mark.parametrize("target", [ARMV8_NEON, X86_AVX2], ids=lambda t: t.name)
def test_interleaved_counts_equal_the_built_stream(target):
    """Scoring counts an interleaved point from its base stream: the
    dict (keys, their order, every float) equals the built stream's
    ``counts()`` on every plan point of the suite."""
    cases = interleaved = 0
    for point, _, base in _suite_base_streams(target):
        built = interleave_stream(base, point.interleave).counts()
        counted = interleaved_counts(base, point.interleave)
        assert counted == built and list(counted) == list(built), point
        cases += 1
        interleaved += point.interleave > 1
    assert interleaved > 1000 and cases > interleaved


def test_interleaved_counts_raise_like_the_stream():
    base = next(
        b for p, _, b in _suite_base_streams(ARMV8_NEON) if b.iters % 7
    )
    for ic in (0, 7):
        with pytest.raises(ValueError) as built:
            interleave_stream(base, ic)
        with pytest.raises(ValueError) as counted:
            interleaved_counts(base, ic)
        assert str(counted.value) == str(built.value)


def test_direct_instructions_equal_dataclass_replace():
    checked = 0
    for point, lowering, base in _suite_base_streams(ARMV8_NEON):
        if point.interleave == 1 or lowering is not ARMV8_NEON:
            continue
        assert interleave_stream(base, point.interleave) == _interleave_by_replace(
            base, point.interleave
        ), point
        checked += 1
    assert checked > 500


# -- batched oracle -----------------------------------------------------------


def test_batched_scores_match_per_point_predict(model):
    """One batched predict == per-sample predicts, bit for bit."""
    kernel = SUITE[0]
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    scores = oracle.score_points(kernel, ARMV8_NEON, points, model)
    samples, indices = oracle.candidate_samples(kernel, ARMV8_NEON, points)
    assert len(samples) == len(points) - 1  # all vector points scored
    for sample, i in zip(samples, indices):
        assert scores[i] == model.predict_speedup(sample)
    for i, p in enumerate(points):
        if p.is_scalar:
            assert scores[i] == 1.0


def test_pick_best_margin_anchors_to_default():
    target = ARMV8_NEON.name
    points = [
        scalar_point(ARMV8_NEON),
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=4, interleave=2, unroll=1, strategy="llv", target=target),
    ]
    # epsilon above the anchor: stay at the default
    i, best, _ = oracle.pick_best(points, [1.0, 2.0, 2.0000001])
    assert i == 1 and best == points[1]
    # clearly above the margin: deviate
    i, best, _ = oracle.pick_best(points, [1.0, 2.0, 2.5])
    assert i == 2


# -- drivers ------------------------------------------------------------------


def test_drivers_deterministic_under_seed(model):
    kernel = SUITE[1]
    for driver in search.DRIVERS:
        a = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=3)
        SEARCHES.clear()
        b = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=3)
        assert a.to_dict() == b.to_dict(), driver


def test_verified_never_below_default(model):
    """The deployment arm's measured speedup ≥ the natural-VF default
    on every kernel — by construction (the default is shortlisted)."""
    for kernel in SUITE[:12]:
        res = search_kernel(kernel, ARMV8_NEON, model, driver="verified")
        meas = points_mod.measure_points(kernel, ARMV8_NEON, res.points)
        d_idx = oracle.default_index(res.points)
        default_speedup = meas[d_idx].speedup if meas[d_idx].ok else 0.0
        assert res.scores[res.best_index] >= default_speedup, kernel.name
        assert res.evaluations <= 1 + search.VERIFY_SHORTLIST


def test_hill_climb_neighbors_single_coordinate():
    target = ARMV8_NEON.name
    points = [
        scalar_point(ARMV8_NEON),
        PlanPoint(vf=4, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=8, interleave=1, unroll=1, strategy="llv", target=target),
        PlanPoint(vf=8, interleave=2, unroll=1, strategy="llv", target=target),
    ]
    n1 = search._neighbors(points, 1)
    assert 0 in n1 and 2 in n1 and 3 not in n1  # two coords differ
    assert search._neighbors(points, 0) == [1, 2, 3]  # scalar reaches all


# -- plan space: score first, measure only what the driver reads -------------

#: Name-ordered suite slice: guarded kernels, SLP points and unrolled
#: recipes all occur in it (asserted below).
IDENTITY_SLICE = sorted(SUITE, key=lambda k: k.name)[:40]


def _recipe_kinds(points) -> set:
    """Which of SLP points and unrolled points ``points`` holds."""
    return {
        "slp" if p.strategy == "slp" else "unroll"
        for p in points
        if p.strategy == "slp" or p.unroll > 1
    }


def _eager_result(kernel, model, driver, seed):
    """The driver's result from every point measured and scored up
    front, each call through its own private plan space."""
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    measured = points_mod.measure_points(kernel, ARMV8_NEON, points)
    rewards = [m.speedup if m.ok else 0.0 for m in measured]
    scores = oracle.score_points(kernel, ARMV8_NEON, points, model)
    name, target = kernel.name, ARMV8_NEON.name
    if driver == "bandit":
        return search.bandit(
            name, target, points, rewards.__getitem__, seed=seed
        )
    if driver == "verified":
        return search.verified(
            name, target, points, scores,
            lambda indices: [rewards[i] for i in indices], seed=seed,
        )
    return getattr(search, driver)(name, target, points, scores, seed=seed)


def test_search_bit_identical_to_eager_reference(model):
    """Measuring only what a driver reads changes no result: best
    index, exact scores and evaluations equal the eager path's."""
    covered = set()
    for kernel in IDENTITY_SLICE:
        for driver in search.DRIVERS:
            got = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=3)
            want = _eager_result(kernel, model, driver, seed=3)
            assert repr(got) == repr(want), (kernel.name, driver)
        if any(isinstance(s, IfBlock) for s in kernel.stmts()):
            covered.add("guarded")
        covered |= _recipe_kinds(got.points)
    assert covered == {"guarded", "slp", "unroll"}


@pytest.fixture
def measure_calls(monkeypatch):
    """Every ``measure_points`` call's points, in call order."""
    calls: list[list] = []
    real = points_mod.measure_points

    def counting(kernel, target, points, **kwargs):
        calls.append(list(points))
        return real(kernel, target, points, **kwargs)

    monkeypatch.setattr(points_mod, "measure_points", counting)
    return calls


def test_verified_measures_only_its_shortlist(model, measure_calls):
    total = 0
    for kernel in SUITE[:12]:
        measure_calls.clear()
        res = search_kernel(kernel, ARMV8_NEON, model, driver="verified")
        assert len(measure_calls) == 1, kernel.name
        assert len(measure_calls[0]) == res.evaluations
        assert res.evaluations <= 1 + search.VERIFY_SHORTLIST
        total += len(res.points)
    assert total > 12 * (1 + search.VERIFY_SHORTLIST)


def test_bandit_measures_each_pulled_arm_once(model, measure_calls):
    measured = points = 0
    for kernel in SUITE[:12]:
        measure_calls.clear()
        res = search_kernel(kernel, ARMV8_NEON, model, driver="bandit", seed=1)
        arms = [p for batch in measure_calls for p in batch]
        assert all(len(batch) == 1 for batch in measure_calls)
        assert len(arms) == len(set(arms)) == res.evaluations, kernel.name
        measured += len(arms)
        points += len(res.points)
    assert measured < points  # arms never pulled are never measured


@pytest.mark.parametrize("driver", search.DRIVERS)
def test_plan_space_builds_each_recipe_once(model, monkeypatch, driver):
    """Within one search each vector recipe ``(strategy, vf, unroll)``
    is vectorized once and lowered at most once per target."""
    builds: list = []
    lowerings: Counter = Counter()
    for name in ("vectorize_loop", "slp_vectorize"):
        real = getattr(measure_mod, name)

        def build(base, target, vf, _real=real):
            builds.append(vf)
            return _real(base, target, vf)

        monkeypatch.setattr(measure_mod, name, build)
    for name in ("lower_vector", "lower_slp"):
        real = getattr(measure_mod, name)

        def lower(plan, target, *rest, _real=real):
            lowerings[id(plan), target.name] += 1
            return _real(plan, target, *rest)

        monkeypatch.setattr(measure_mod, name, lower)
    kernels = [
        k for k in IDENTITY_SLICE
        if _recipe_kinds(enumerate_plan_points(k, ARMV8_NEON)) == {"slp", "unroll"}
    ][:4]
    assert len(kernels) == 4
    for kernel in kernels:
        builds.clear()
        lowerings.clear()
        res = search_kernel(kernel, ARMV8_NEON, model, driver=driver, seed=1)
        recipes = {
            (p.strategy, p.vf, p.unroll) for p in res.points if not p.is_scalar
        }
        if driver == "bandit":  # builds only the recipes of pulled arms
            assert len(builds) <= len(recipes), kernel.name
        else:
            assert len(builds) == len(recipes), kernel.name
        assert lowerings and max(lowerings.values()) == 1, kernel.name


def test_e14_vectorizes_each_recipe_once_per_kernel(model, monkeypatch):
    """E14's four drivers and its measure-everything pass share one plan
    space per kernel: one vectorizer run per distinct recipe, and every
    search returns what a search in its own private space returns."""
    from repro.dse.experiment import E14_DRIVERS, _evaluate_kernel

    builds: list = []
    for name in ("vectorize_loop", "slp_vectorize"):
        real = getattr(measure_mod, name)

        def build(base, target, vf, _real=real):
            builds.append(vf)
            return _real(base, target, vf)

        monkeypatch.setattr(measure_mod, name, build)
    covered = set()
    for kernel in IDENTITY_SLICE[:16]:
        builds.clear()
        _evaluate_kernel(kernel, ARMV8_NEON, model, seed=0)
        runs = len(builds)
        shared = {  # memo hits: the searches E14 just ran
            d: search_kernel(kernel, ARMV8_NEON, model, driver=d, seed=0)
            for d in E14_DRIVERS
        }
        points = shared["exhaustive"].points
        recipes = {(p.strategy, p.vf, p.unroll) for p in points if not p.is_scalar}
        assert runs == len(recipes), kernel.name
        SEARCHES.clear()
        for d in E14_DRIVERS:
            private = search_kernel(kernel, ARMV8_NEON, model, driver=d, seed=0)
            assert repr(private) == repr(shared[d]), (kernel.name, d)
        covered |= _recipe_kinds(points)
    assert covered == {"slp", "unroll"}


def test_lowering_error_is_kept_per_recipe(model, monkeypatch):
    """A recipe whose lowering raises ``ValueError`` before reading the
    target is lowered once in total; every point of it fails measurement
    with that reason and scores 0.0, as when each point lowered on its
    own."""
    from repro.targets.generic_ir import GENERIC_IR

    kernel = SUITE[0]
    points = enumerate_plan_points(kernel, ARMV8_NEON)
    space = points_mod.PlanSpace(kernel, ARMV8_NEON)
    broken = next(p for p in points if p.strategy == "llv" and p.interleave > 1)
    broken_plan = space.plan(broken)
    calls: Counter = Counter()
    real = measure_mod.lower_vector

    def lower(plan, target):
        if plan is broken_plan:
            calls[target.name] += 1
            raise ValueError("no lowering")
        return real(plan, target)

    monkeypatch.setattr(measure_mod, "lower_vector", lower)
    same = [
        i for i, p in enumerate(points)
        if (p.strategy, p.vf, p.unroll) == (broken.strategy, broken.vf, broken.unroll)
    ]
    assert len(same) > 1
    measured = points_mod.measure_points(kernel, ARMV8_NEON, points, space=space)
    scores = oracle.score_points(kernel, ARMV8_NEON, points, model, space=space)
    for i in same:
        assert not measured[i].ok and measured[i].reason == "no lowering"
        assert scores[i] == 0.0
    assert calls == {ARMV8_NEON.name: 1}


# -- memoization --------------------------------------------------------------


def test_memo_hits_and_model_bump_invalidates(model, bumped_model):
    kernel = SUITE[2]
    a = search_kernel(kernel, ARMV8_NEON, model)
    before = SEARCHES.info()
    b = search_kernel(kernel, ARMV8_NEON, model)
    after = SEARCHES.info()
    assert b is a, "warm search must return the memoized object"
    assert after["hits"] == before["hits"] + 1

    assert model_fingerprint(model) != model_fingerprint(bumped_model)
    c = search_kernel(kernel, ARMV8_NEON, bumped_model)
    assert c is not a
    assert SEARCHES.info()["misses"] == after["misses"] + 1


def test_cache_disabled_recomputes(model):
    kernel = SUITE[3]
    with SEARCHES.disabled():
        a = search_kernel(kernel, ARMV8_NEON, model)
        b = search_kernel(kernel, ARMV8_NEON, model)
    assert a is not b
    assert a.to_dict() == b.to_dict()


# -- chaos --------------------------------------------------------------------

@pytest.mark.parametrize("driver", ["exhaustive", "verified"])
def test_faulted_search_bit_identical(model, driver):
    kernel = SUITE[4]
    clean = search_kernel(kernel, ARMV8_NEON, model, driver=driver)
    SEARCHES.clear()
    plan = parse_faults("crash:0.5", seed=11)
    faulted = search_kernel(
        kernel, ARMV8_NEON, model, driver=driver, faults=plan
    )
    assert faulted.to_dict() == clean.to_dict()
