"""The advisor: one request in, one vectorization verdict out.

This is the service's brain, kept deliberately free of HTTP and
threading so it can be driven directly by tests, the chaos harness,
and the CLI.  A request names a kernel (DSL text or an IR JSON
envelope), a target, and a vectorizer; the advisor runs the same
pipeline the experiment engine uses — parse, verify/lint prepass,
deterministic measurement (``jitter=0, seed=0``), featurization — and
answers from the registry's fitted model, falling back to the static
LLVM-like baseline when no model is published.

Robustness contract:

* the **verdict core** (kernel, target, vectorizer, VF, vectorized
  flag, predicted/reference speedups, model version) is a pure
  function of the request and the published weights — degraded modes
  reproduce it bit-exactly, which is what the chaos gate checks;
* everything that may legitimately differ under degradation (remarks,
  the ``degraded`` list, timings) lives *outside* the core;
* the analysis prepass sits behind a circuit breaker; a tripped
  breaker skips the prepass with a single consolidated
  ``-Rpass-missed=serve`` remark, never an exception;
* client errors (unparsable kernel, unknown target, lint-rejected
  body) raise :class:`InvalidRequest` — they are *answers*, not
  faults, and do not move any breaker.
"""

from __future__ import annotations

import json
import threading
from typing import Optional

from ..analysis.framework.diagnostics import Diagnostics, Severity
from ..analysis.framework.lint import lint_kernel
from ..analysis.framework.passmanager import default_manager
from ..analysis.framework.ranges import prove_safe
from ..costmodel import matrix
from ..costmodel.base import sample_from_measurement
from ..costmodel.llvm_like import LLVMLikeCostModel
from ..frontend import LexError, ParseError, parse_kernel
from ..ir.kernel import LoopKernel
from ..ir.verify import VerificationError, verify_kernel
from ..sim.measure import measure_kernel
from ..targets.registry import available_targets, get_target
from ..vectorize.plan import VectorizationFailure
from .breaker import CircuitBreaker
from .registry import ModelRegistry

#: Pass name on every service-level remark (renders as
#: ``[-Rpass-missed=serve]`` at WARNING severity).
PASS_NAME = "serve"

#: The verdict-core fields — the bit-identity surface of the service.
CORE_FIELDS = (
    "kernel",
    "target",
    "vectorizer",
    "vf",
    "vectorized",
    "predicted_speedup",
    "reference_speedup",
    "model",
)


class AdvisorError(Exception):
    """Base for request-path errors that map to an HTTP status."""

    status = 500


class InvalidRequest(AdvisorError):
    """The client sent something we can answer only with a 400."""

    status = 400


def verdict_core(response: dict) -> dict:
    """The bit-identity slice of a response (chaos-parity surface)."""
    return {k: response.get(k) for k in CORE_FIELDS}


def canonical_verdict(response: dict) -> str:
    """Canonical JSON of the verdict core; equal strings ⇔ equal bits.

    ``json.dumps`` renders floats with ``repr``, which round-trips
    IEEE-754 doubles exactly — two cores serialize identically iff
    every float in them is bit-identical.
    """
    return json.dumps(verdict_core(response), sort_keys=True)


def kernel_from_payload(payload: dict) -> LoopKernel:
    """Parse the request's kernel: DSL text or an IR JSON envelope.

    The IR form is ``{"ir": {"name": ..., "body": ...}}`` where
    ``body`` is the printer-canonical statement block — the same text
    ``ir.printer`` emits, so print → submit → parse round-trips.
    """
    if not isinstance(payload, dict):
        raise InvalidRequest("request body must be a JSON object")
    src = payload.get("kernel")
    ir = payload.get("ir")
    if src is None and ir is None:
        raise InvalidRequest("request needs a 'kernel' (DSL text) or 'ir' entry")
    if src is None:
        if not isinstance(ir, dict) or "name" not in ir or "body" not in ir:
            raise InvalidRequest("'ir' must be {'name': ..., 'body': ...}")
        name = str(ir["name"])
        if not name.isidentifier():
            raise InvalidRequest(f"'ir'.name {name!r} is not an identifier")
        src = f"kernel {name} {{\n{ir['body']}\n}}"
    if not isinstance(src, str):
        raise InvalidRequest("'kernel' must be DSL source text")
    try:
        return parse_kernel(src)
    except (ParseError, LexError) as exc:
        raise InvalidRequest(f"kernel does not parse: {exc}") from exc


class AdvisorStats:
    """Thread-safe request counters for the ``/v1/stats`` endpoint."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.verdicts = 0
        self.invalid = 0
        self.degraded = 0
        self.model_hits = 0
        self.static_fallbacks = 0

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "verdicts": self.verdicts,
                "invalid": self.invalid,
                "degraded": self.degraded,
                "model_hits": self.model_hits,
                "static_fallbacks": self.static_fallbacks,
            }


class Advisor:
    """Stateless-per-request verdict engine with stateful protection.

    One instance is shared by every worker thread: the registry, the
    prepass breaker, and the counters are the only mutable state, each
    individually thread-safe.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        failure_threshold: int = 3,
        recovery_time: float = 5.0,
        clock=None,
    ):
        self.registry = registry if registry is not None else ModelRegistry()
        self.prepass_breaker = CircuitBreaker(
            "prepass",
            failure_threshold=failure_threshold,
            recovery_time=recovery_time,
            clock=clock,
        )
        self.static_model = LLVMLikeCostModel()
        self.stats = AdvisorStats()
        self._am = default_manager()

    # -- request path -------------------------------------------------------

    def advise(self, payload: dict) -> dict:
        """Answer one request; raises only :class:`AdvisorError`."""
        self.stats.bump("requests")
        kernel = kernel_from_payload(payload)
        target = self._resolve_target(payload)
        vectorizer = self._resolve_vectorizer(payload)
        vf = payload.get("vf")
        if vf is not None:
            try:
                vf = int(vf)
            except (TypeError, ValueError):
                raise InvalidRequest(f"'vf' must be an integer, got {vf!r}")
            if vf < 2 or vf > 64:
                raise InvalidRequest(f"'vf' must be in [2, 64], got {vf}")

        diags = Diagnostics()
        degraded: list[str] = []

        self._prepass(kernel, degraded)
        measured = measure_kernel(
            kernel, target, vf, vectorizer=vectorizer, jitter=0.0, seed=0
        )

        if isinstance(measured, VectorizationFailure):
            response = {
                "kernel": kernel.name,
                "target": target.name,
                "vectorizer": vectorizer,
                "vf": None,
                "vectorized": False,
                "predicted_speedup": None,
                "reference_speedup": None,
                "model": None,
                "reason": measured.reason,
            }
            diags.warning(
                "loop-vectorize",
                kernel.name,
                f"loop not vectorized: {measured.reason}",
            )
        else:
            sample = sample_from_measurement(measured)
            reference = float(self.static_model.predict_speedup(sample))
            entry = self.registry.current(target.name, vectorizer)
            if entry is not None:
                row = matrix.featurizer_by_key(entry.featurization)(sample)
                predicted = float(
                    entry.predict(row[None, :], [float(sample.vf)])[0]
                )
                model_id = entry.version
                self.stats.bump("model_hits")
            else:
                predicted = reference
                model_id = self.static_model.name
                degraded.append("no fitted model (static baseline)")
                self.stats.bump("static_fallbacks")
            response = {
                "kernel": kernel.name,
                "target": target.name,
                "vectorizer": vectorizer,
                "vf": int(sample.vf),
                "vectorized": bool(predicted > 1.0),
                "predicted_speedup": predicted,
                "reference_speedup": reference,
                "model": model_id,
            }

        if degraded:
            # One consolidated remark per request, however many
            # dimensions are degraded — clients grep for exactly one
            # [-Rpass-missed=serve] line.
            diags.warning(
                PASS_NAME,
                kernel.name,
                "serving degraded: " + "; ".join(degraded),
                args=[("degraded", str(len(degraded)))],
            )
            self.stats.bump("degraded")
        response["degraded"] = list(degraded)
        response["remarks"] = diags.to_json()
        self.stats.bump("verdicts")
        return response

    # -- stages -------------------------------------------------------------

    def _resolve_target(self, payload: dict):
        name = payload.get("target", "armv8-neon")
        try:
            return get_target(str(name))
        except (KeyError, ValueError) as exc:
            raise InvalidRequest(
                f"unknown target {name!r}; known: "
                + ", ".join(available_targets())
            ) from exc

    @staticmethod
    def _resolve_vectorizer(payload: dict) -> str:
        vec = str(payload.get("vectorizer", "llv"))
        if vec not in ("llv", "slp"):
            raise InvalidRequest(
                f"unknown vectorizer {vec!r}; known: llv, slp"
            )
        return vec

    def _prepass(self, kernel: LoopKernel, degraded: list[str]) -> None:
        """Verify + lint + range-prove behind the prepass breaker.

        A kernel the prepass *rejects* is a client error (the prepass
        itself worked — record success).  An exception from inside the
        analyses is a service fault: count it against the breaker and
        keep serving without the prepass.
        """
        if not self.prepass_breaker.allow():
            degraded.append("analysis prepass skipped (breaker open)")
            return
        try:
            verify_kernel(kernel)
            errors = [
                r
                for r in lint_kernel(kernel, self._am)
                if r.severity is Severity.ERROR
            ]
            if errors:
                self.prepass_breaker.record_success()
                raise InvalidRequest(
                    "kernel rejected by lint: "
                    + "; ".join(r.message for r in errors)
                )
            safety = prove_safe(kernel, self._am)
            if safety.classification == "proven-unsafe":
                self.prepass_breaker.record_success()
                raise InvalidRequest(
                    "range analysis proves an out-of-bounds access: "
                    + "; ".join(safety.reasons)
                )
        except VerificationError as exc:
            self.prepass_breaker.record_success()
            raise InvalidRequest(f"kernel fails verification: {exc}") from exc
        except AdvisorError:
            raise
        except Exception:
            self.prepass_breaker.record_failure()
            degraded.append("analysis prepass faulted")
            return
        self.prepass_breaker.record_success()

    # -- introspection ------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "ok",
            "breakers": [self.prepass_breaker.stats()],
            "registry": self.registry.stats.as_dict(),
            "advisor": self.stats.as_dict(),
        }
