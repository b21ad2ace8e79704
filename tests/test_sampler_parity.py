"""Parity of the one product reverse loop with the independent serial reference.

Every ``model.impute`` runs
:meth:`~repro.inference.engine.InferenceEngine._reverse_loop`, eagerly or as
a compiled replay.  This matrix pins both executions to the plain-numpy
serial sampler in ``tests/serial_reference.py`` (per window, per sample,
batch-1 network calls) under a shared seed, so compiled == eager ==
independent reference: PriSTI with the ``epsilon`` objective and the
``x0_residual`` preset × {DDPM, DDIM η=0, DDIM η>0} × {compiled, eager}.
"""

import numpy as np
import pytest

from repro import PriSTI, PriSTIConfig
from repro.inference.compiled import FALLBACK
from repro.telemetry import PROCESS_METRICS
from serial_reference import impute_serial

SAMPLERS = {
    "ddpm": (None, 0.0),
    "ddim": (4, 0.0),
    "ddim-eta": (4, 0.5),
}


def _compile_counts():
    return {name: PROCESS_METRICS.counter(name).value
            for name in ("compiled.cache.hits", "compiled.cache.misses",
                         "compiled.fallbacks")}


@pytest.fixture(scope="module")
def trained_models(tiny_traffic_dataset):
    models = {}
    for parameterization in ("epsilon", "x0_residual"):
        config = PriSTIConfig.fast(window_length=12, epochs=1, iterations_per_epoch=1,
                                   num_diffusion_steps=8, num_samples=3, batch_size=4,
                                   parameterization=parameterization)
        models[parameterization] = PriSTI(config).fit(tiny_traffic_dataset)
    return models


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("parameterization", ["epsilon", "x0_residual"])
def test_impute_matches_serial_reference(trained_models, tiny_traffic_dataset,
                                         monkeypatch, parameterization, sampler, compiled):
    monkeypatch.delenv("REPRO_COMPILE", raising=False)
    model = trained_models[parameterization]
    config = model.config
    monkeypatch.setattr(config, "ddim_steps", SAMPLERS[sampler][0])
    monkeypatch.setattr(config, "ddim_eta", SAMPLERS[sampler][1])
    monkeypatch.setattr(config, "compile_inference", compiled)

    cache = model.compiled_step_cache()
    before = _compile_counts()
    model.diffusion.rng = np.random.default_rng(31)
    result = model.impute(tiny_traffic_dataset, segment="test", num_samples=3, stride=5)
    model.diffusion.rng = np.random.default_rng(31)
    reference = impute_serial(model, tiny_traffic_dataset, num_samples=3, stride=5)

    np.testing.assert_allclose(result.samples, reference.samples, atol=1e-10, rtol=0)
    np.testing.assert_allclose(result.median, reference.median, atol=1e-10, rtol=0)
    if compiled:
        # Parity must come from compiled programs, not from the fallback:
        # every chunk of this impute was a cache hit or a validated trace.
        delta = {name: value - before[name]
                 for name, value in _compile_counts().items()}
        assert delta["compiled.cache.hits"] + delta["compiled.cache.misses"] > 0
        assert delta["compiled.fallbacks"] == 0
        # No signature of this model is negative-cached.
        assert FALLBACK not in cache._entries.values()
    else:
        assert cache is None
