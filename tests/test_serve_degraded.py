"""Degraded-mode matrix: every combination answers, none ever raises.

The grid crosses four availability dimensions of the service — model
bytes intact on disk × model published × analysis-prepass breaker open
× prepass analyses faulting — and asserts that every cell (a) returns a
verdict, (b) emits exactly one consolidated ``-Rpass-missed=serve``
remark when anything is degraded and none when healthy, and (c)
produces the same verdict bits as every other cell with the same model
availability: degradation is allowed to slow or annotate an answer,
never to change it.
"""

import itertools

import pytest

import repro.serve.advisor as advisor_mod
from repro.serve import Advisor, ModelRegistry, canonical_verdict

GUARDED = """
kernel guarded {
    f32 a[128], b[128];
    for (i = 0; i < 128; i++) {
        if (b[i] > 0.0) { a[i] = b[i]; } else { a[i] = 0.0 - b[i]; }
    }
}
"""

REAL_PROVE_SAFE = advisor_mod.prove_safe


def faulting_prove_safe(*_args, **_kwargs):
    raise RuntimeError("injected analysis fault")


@pytest.fixture(scope="module")
def fitted_entry():
    """One fitted entry, shared by every model-present cell."""
    from repro.fitting.nnls import NonNegativeLeastSquares
    from repro.costmodel.speedup import SpeedupModel
    from repro.serve import entry_from_model
    from repro.serve.chaos import suite_payloads

    selected = suite_payloads(10)
    samples = [s for _, _, s in selected]
    model = SpeedupModel(NonNegativeLeastSquares()).fit(samples)
    return entry_from_model(
        model, samples, target="armv8-neon", vectorizer="llv"
    )


def cell_advisor(
    root,
    monkeypatch,
    entry,
    disk_intact,
    with_model,
    prepass_open,
    prepass_faults,
):
    """An advisor whose registry, breaker and analyses match one cell.

    A damaged disk means different things with and without a model:
    with one, the active entry's bytes rot after publish and the
    registry must heal from its in-memory copy on reload; without one,
    ``CURRENT`` points at an entry that never landed.
    """
    registry = ModelRegistry(root)
    key_dir = root / entry.model_key
    if with_model:
        registry.publish(entry)
        if not disk_intact:
            path = key_dir / f"entry-{entry.version}.json"
            path.write_bytes(b"\x00garbage\x00" + path.read_bytes()[8:])
            registry.reload()
    elif not disk_intact:
        key_dir.mkdir(parents=True)
        (key_dir / "CURRENT").write_text("never-installed")
    monkeypatch.setattr(
        advisor_mod,
        "prove_safe",
        faulting_prove_safe if prepass_faults else REAL_PROVE_SAFE,
    )
    advisor = Advisor(registry)
    if prepass_open:
        advisor.prepass_breaker.force_open()
    return advisor


GRID = list(itertools.product([True, False], repeat=4))


@pytest.mark.parametrize(
    "disk_intact, with_model, prepass_open, prepass_faults", GRID
)
def test_degraded_cell_returns_verdict_with_one_remark(
    tmp_path,
    monkeypatch,
    fitted_entry,
    disk_intact,
    with_model,
    prepass_open,
    prepass_faults,
):
    advisor = cell_advisor(
        tmp_path / "registry",
        monkeypatch,
        fitted_entry,
        disk_intact,
        with_model,
        prepass_open,
        prepass_faults,
    )

    resp = advisor.advise({"kernel": GUARDED})  # must never raise

    assert isinstance(resp["vectorized"], bool)
    assert resp["predicted_speedup"] is not None
    assert resp["model"] == (
        fitted_entry.version if with_model else "llvm-static"
    )
    # Rotten bytes are healed silently from memory: the model keeps
    # serving and no degraded clause is added for it.
    expected_heals = 1 if with_model and not disk_intact else 0
    assert advisor.registry.stats.heals == expected_heals

    # An open breaker skips the prepass, so a fault inside it never
    # fires: the two prepass dimensions collapse into one clause.
    if prepass_open:
        assert "analysis prepass skipped (breaker open)" in resp["degraded"]
    elif prepass_faults:
        assert "analysis prepass faulted" in resp["degraded"]
    expected_clauses = sum((not with_model, prepass_open or prepass_faults))
    serve_remarks = [r for r in resp["remarks"] if r["pass"] == "serve"]
    assert len(serve_remarks) == (1 if expected_clauses else 0)
    assert len(resp["degraded"]) == expected_clauses
    if expected_clauses:
        assert serve_remarks[0]["flag"] == "-Rpass-missed"
        assert serve_remarks[0]["severity"] == "warning"
        assert serve_remarks[0]["args"]["degraded"] == str(expected_clauses)


@pytest.mark.parametrize("with_model", [True, False])
def test_verdict_bits_invariant_across_degradations(
    tmp_path, monkeypatch, fitted_entry, with_model
):
    """All 8 availability cells of one model group agree bit-for-bit."""
    cores = set()
    for disk_intact, prepass_open, prepass_faults in itertools.product(
        [True, False], repeat=3
    ):
        advisor = cell_advisor(
            tmp_path / f"reg-{disk_intact}-{prepass_open}-{prepass_faults}",
            monkeypatch,
            fitted_entry,
            disk_intact,
            with_model,
            prepass_open,
            prepass_faults,
        )
        cores.add(canonical_verdict(advisor.advise({"kernel": GUARDED})))
    assert len(cores) == 1

