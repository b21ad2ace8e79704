"""Versioned on-disk persistence for trained imputers.

An artifact is a directory with two files:

``manifest.json``
    JSON metadata: artifact format marker + schema version, the model class
    and family, the floating-point dtype, the full model configuration, the
    scaler statistics, the loss history, the accumulated training wall-clock,
    the trainer state scalars (epoch counter, optimiser step, learning rate,
    scheduler position) and the exact RNG stream state.
``arrays.npz``
    Every numpy array: network parameters (``param.<name>``), the graph
    adjacency (``adjacency``), optimiser moment buffers (``optim.<name>``)
    and model-specific extras (``extra.<name>``, e.g. rGAIN's discriminator).

Versioning policy: ``SCHEMA_VERSION`` is bumped on any incompatible layout
change; :func:`load_model` refuses manifests whose version it does not read
(no silent migration).  Floats in the manifest round-trip exactly (JSON uses
shortest-repr), and parameters are stored in their native dtype, so

* ``load_model(path).impute(...)`` is **bit-identical** to the saved model's
  next ``impute`` call (the RNG stream state is part of the artifact), and
* training E epochs, checkpointing, loading and training the remaining
  epochs reproduces an uninterrupted run exactly (optimiser moments, LR
  schedule position and RNG streams all resume).

Supported families: the conditional-diffusion imputers (PriSTI, CSDI) and
every :class:`~repro.baselines.neural_base.WindowedNeuralImputer` subclass.
The statistical baselines retrain in milliseconds and are deliberately not
persisted.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zipfile
from dataclasses import asdict

import numpy as np

__all__ = ["ArtifactError", "PersistableModel", "SCHEMA_VERSION", "save_model",
           "load_model", "supports_persistence"]

#: Bumped on any incompatible change to the artifact layout.
SCHEMA_VERSION = 1

FORMAT_NAME = "repro-model-artifact"
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"


class ArtifactError(RuntimeError):
    """Raised for unreadable, incompatible or unsupported artifacts."""


class PersistableModel:
    """Persistence surface shared by every imputer hierarchy.

    Mixed into both :class:`~repro.core.imputer.ConditionalDiffusionImputer`
    and :class:`~repro.baselines.base.Imputer` (which share no other base
    class) so ``save``, the artifact hooks and the shared-trainer plumbing
    exist exactly once.
    """

    #: Trainer state restored from an artifact, applied lazily by
    #: :meth:`_ensure_trainer`: a fully trained model loaded for inference
    #: never allocates the optimiser's flat parameter/moment buffers.
    _pending_trainer_state = None

    def save(self, path):
        """Persist the trained model as a versioned artifact.

        Raises :class:`ArtifactError` for families without artifact support
        (the cheap statistical baselines retrain in milliseconds, so nothing
        is gained by persisting them).
        """
        return save_model(self, path)

    # ------------------------------------------------------------------
    # Shared-trainer plumbing (trainable families only)
    # ------------------------------------------------------------------
    def _make_trainer(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _ensure_trainer(self):
        """The persistent shared trainer (created once, survives ``fit`` calls)."""
        if self.trainer is None:
            self.trainer = self._make_trainer()
            if self._pending_trainer_state is not None:
                self.trainer.load_state_dict(self._pending_trainer_state)
                self._pending_trainer_state = None
        return self.trainer

    def _budget_exhausted(self):
        """Whether the epoch budget is spent — without building the trainer."""
        state = self._pending_trainer_state
        if state is not None:
            return state["epochs_completed"] >= state["total_epochs"]
        trainer = getattr(self, "trainer", None)
        return trainer is not None and trainer.budget_exhausted

    def _trainer_state_for_artifact(self):
        """Trainer state to persist: the live trainer's, else the unapplied restore."""
        trainer = getattr(self, "trainer", None)
        if trainer is not None:
            return trainer.state_dict()
        return self._pending_trainer_state

    # Models with state beyond the network / optimiser (e.g. rGAIN's
    # discriminator) override these to ride extra arrays in the artifact.
    def _artifact_extra_arrays(self):
        return {}

    def _load_artifact_extra(self, arrays):
        pass


def _model_registry():
    """Class-name → class for every persistable imputer.

    Resolved dynamically from the live subclass trees, so user-defined
    subclasses of the two families (the documented extension points) are
    loadable too — provided the module defining them has been imported
    before :func:`load_model` runs (the usual pickle-style contract).
    """
    from ..baselines.neural_base import WindowedNeuralImputer
    from ..core.imputer import ConditionalDiffusionImputer

    registry = {}

    def visit(cls):
        registry[cls.__name__] = cls
        for subclass in cls.__subclasses__():
            visit(subclass)

    visit(ConditionalDiffusionImputer)
    visit(WindowedNeuralImputer)
    return registry


def _family_of(model):
    from ..baselines.neural_base import WindowedNeuralImputer
    from ..core.imputer import ConditionalDiffusionImputer

    if isinstance(model, ConditionalDiffusionImputer):
        return "diffusion"
    if isinstance(model, WindowedNeuralImputer):
        return "windowed"
    return None


def supports_persistence(model):
    """Whether ``model``'s family can be saved as an artifact.

    The statistical baselines refit in milliseconds and are deliberately not
    persisted; callers (e.g. the artifact cache) use this to skip them
    without relying on :func:`save_model`'s error.
    """
    return _family_of(model) is not None


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def save_model(model, path):
    """Write ``model`` to ``path`` (a directory, created if needed).

    Returns ``path``.  The model must have been fitted (or at least built):
    an unfitted model has no parameters worth persisting.
    """
    family = _family_of(model)
    if family is None:
        raise ArtifactError(
            f"{type(model).__name__} does not support artifact persistence "
            "(only the diffusion and windowed-neural imputers are persisted)"
        )
    if model.network is None:
        raise ArtifactError("cannot save an unfitted model — call fit() first")

    if family == "diffusion":
        config = asdict(model.config)
        dtype = np.dtype(model.config.dtype)
    else:
        config = model.config_dict()
        # Windowed networks follow the ambient default dtype at build time;
        # record what the parameters actually are so the artifact loads
        # regardless of the saving process's default.
        dtype = next(model.network.parameters()).data.dtype

    arrays = {"adjacency": np.asarray(model.adjacency)}
    for name, value in model.network.state_dict().items():
        arrays[f"param.{name}"] = value
    for name, value in model._artifact_extra_arrays().items():
        arrays[f"extra.{name}"] = np.asarray(value)

    trainer_manifest = None
    trainer_state = model._trainer_state_for_artifact()
    if trainer_state is not None:
        finished = trainer_state["epochs_completed"] >= trainer_state["total_epochs"]
        optimizer_scalars = None
        # A budget-exhausted model can never train again, so its optimiser
        # moments (~2x the parameter bytes) are dead weight: persist only the
        # epoch counters that keep a reloaded fit() a no-op.
        if not finished and trainer_state["optimizer"] is not None:
            optimizer_scalars = {}
            for key, value in trainer_state["optimizer"].items():
                if isinstance(value, np.ndarray):
                    arrays[f"optim.{key}"] = value
                else:
                    optimizer_scalars[key] = value
        trainer_manifest = {
            "epochs_completed": trainer_state["epochs_completed"],
            "total_epochs": trainer_state["total_epochs"],
            "optimizer_type": trainer_state["optimizer_type"],
            "optimizer": optimizer_scalars,
            "scheduler": trainer_state["scheduler"],
        }

    from .. import __version__

    # A random token stored in BOTH files pairs the manifest with the arrays
    # it was written alongside: load_model rejects a directory whose two
    # files come from different saves (e.g. hand-copied or partially synced)
    # instead of silently combining new weights with an old epoch counter /
    # RNG state.
    token = os.urandom(16).hex()
    arrays["artifact_token"] = np.frombuffer(bytes.fromhex(token), dtype=np.uint8).copy()

    manifest = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "saved_with": __version__,
        "arrays_token": token,
        "model_class": type(model).__name__,
        "family": family,
        "dtype": dtype.name,
        "config": config,
        "num_nodes": int(model.num_nodes),
        "scaler": {"mean": model.scaler.mean_, "std": model.scaler.std_},
        "history": model.history,
        "training_seconds": float(model.training_seconds),
        "trainer": trainer_manifest,
        "rng": model.rng.bit_generator.state,
    }

    # Crash-safe write: the artifact is assembled in a temp sibling directory
    # and swapped in with two renames, so a save that dies mid-write (the
    # Checkpoint callback overwrites the same path every epoch) never
    # destroys the previous good checkpoint — at worst it leaves a stray
    # ``.tmp-*`` / ``.bak-*`` sibling holding a complete artifact.
    path = os.fspath(path)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    staging = _sibling(path, "tmp", token)
    os.makedirs(staging)
    try:
        # Arrays first, manifest last: the manifest is the commit marker (no
        # manifest → not an artifact) and the paired token above catches any
        # manually mixed-and-matched files.
        np.savez(os.path.join(staging, ARRAYS_NAME), **arrays)
        with open(os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
        backup = None
        if os.path.isdir(path):
            backup = _sibling(path, "bak", token)
            os.rename(path, backup)
        try:
            os.rename(staging, path)
        except OSError as error:
            if backup is not None:
                os.rename(backup, path)   # put the previous artifact back
            raise ArtifactError(
                f"cannot write artifact to '{path}' "
                f"(is it an existing file?): {error}"
            ) from error
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if backup is not None:
        shutil.rmtree(backup, ignore_errors=True)
    return path


#: ``save_model``'s transient siblings of an artifact ``<path>``:
#: ``<path>.tmp-<pid>-<token>`` while staging, ``<path>.bak-<pid>-<token>``
#: while swapping.  Each holds a complete manifest for a moment.
_SIBLING = re.compile(r"\.(?:tmp|bak)-[0-9]+-[0-9a-f]{8}$")


def _sibling(path, kind, token):
    base = path.rstrip("/\\")
    return f"{base}.{kind}-{os.getpid()}-{token[:8]}"


def is_save_sibling(name):
    """Whether ``name`` is one of :func:`save_model`'s transient ``.tmp-*``
    / ``.bak-*`` siblings rather than an artifact of its own."""
    return _SIBLING.search(name) is not None


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------
#: The files whose ``os.stat`` identifies one save of an artifact: every
#: :func:`save_model` writes both afresh in a staging directory and swaps it
#: in, so a republish in place changes the signature of each.
_ARTIFACT_FILES = (MANIFEST_NAME, ARRAYS_NAME)


def _artifact_signature(path):
    """The on-disk identity of the artifact at ``path`` (two ``os.stat``).

    The one staleness rule of every process-level cache of a published
    artifact (a rehydrated backend, a manifest's shape): what was read
    from it stays valid exactly while this signature is unchanged, whoever
    republished it.  ``None`` means the files are not there — inside
    :func:`save_model`'s two renames, or after the version was pulled — and
    keeps whatever a cache already holds, since there is nothing newer to
    read.
    """
    try:
        stats = [os.stat(os.path.join(path, name)) for name in _ARTIFACT_FILES]
    except OSError:
        return None
    return tuple((stat.st_ino, stat.st_mtime_ns, stat.st_size) for stat in stats)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def _read_manifest(path):
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise ArtifactError(f"no model artifact at '{path}' (missing {MANIFEST_NAME})")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactError(f"unreadable manifest at '{manifest_path}': {error}") from error
    if manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(f"'{path}' is not a {FORMAT_NAME} artifact")
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION}); re-save the model "
            "with the matching library version"
        )
    return manifest


def load_model(path):
    """Restore a model saved with :func:`save_model` / ``model.save``.

    The returned imputer is bit-identical to the saved one: parameters,
    scaler, loss history, optimiser/scheduler state and RNG streams are all
    restored, so ``impute`` reproduces the original's output exactly and
    ``fit`` resumes the remaining epochs as if training was never
    interrupted.
    """
    manifest = _read_manifest(path)
    arrays_path = os.path.join(path, ARRAYS_NAME)
    if not os.path.isfile(arrays_path):
        raise ArtifactError(f"artifact at '{path}' is missing {ARRAYS_NAME}")
    try:
        with np.load(arrays_path) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise ArtifactError(f"unreadable arrays file at '{arrays_path}': {error}") from error

    token_array = arrays.pop("artifact_token", None)
    stored_token = None if token_array is None else bytes(token_array).hex()
    if stored_token != manifest.get("arrays_token"):
        raise ArtifactError(
            f"artifact at '{path}' is torn: {MANIFEST_NAME} and {ARRAYS_NAME} "
            "come from different saves (an overwrite was interrupted) — "
            "re-save the model"
        )

    registry = _model_registry()
    class_name = manifest.get("model_class")
    if class_name not in registry:
        raise ArtifactError(
            f"unknown model class '{class_name}' in artifact '{path}' — if it is "
            "a custom subclass, import its defining module before load_model"
        )
    cls = registry[class_name]

    expected_dtype = np.dtype(manifest["dtype"])
    parameters = {name[len("param."):]: value
                  for name, value in arrays.items() if name.startswith("param.")}
    for name, value in parameters.items():
        if value.dtype != expected_dtype:
            raise ArtifactError(
                f"dtype mismatch in artifact '{path}': manifest declares "
                f"{expected_dtype.name} but parameter '{name}' is stored as "
                f"{value.dtype.name}"
            )

    family = manifest.get("family")
    expected_base = {"diffusion": "ConditionalDiffusionImputer",
                     "windowed": "WindowedNeuralImputer"}.get(family)
    if expected_base is not None and expected_base not in (
            base.__name__ for base in cls.__mro__):
        # Same class name registered by the other family (name shadowing):
        # fail clearly instead of misconstructing the model.
        raise ArtifactError(
            f"artifact '{path}' was saved from a {family}-family '{class_name}', "
            f"but the imported class of that name is not one"
        )
    if family == "diffusion":
        from ..core.config import PriSTIConfig

        config_fields = dict(manifest["config"])
        # JSON has no tuples; restore the one tuple-typed config field.
        if "lr_milestones" in config_fields:
            config_fields["lr_milestones"] = tuple(config_fields["lr_milestones"])
        try:
            config = PriSTIConfig(**config_fields)
        except (TypeError, ValueError) as error:
            raise ArtifactError(
                f"artifact '{path}' config does not match this build's "
                f"PriSTIConfig: {error}"
            ) from error
        if np.dtype(config.dtype) != expected_dtype:
            raise ArtifactError(
                f"dtype mismatch in artifact '{path}': manifest declares "
                f"{expected_dtype.name} but the model config says {config.dtype}"
            )
        model = cls(config)
        model._build(int(manifest["num_nodes"]), arrays["adjacency"])
    elif family == "windowed":
        from ..tensor import dtype_scope

        try:
            model = cls(**manifest["config"])
        except (TypeError, ValueError) as error:
            raise ArtifactError(
                f"artifact '{path}' config does not match this build's "
                f"{cls.__name__} constructor: {error}"
            ) from error
        model.num_nodes = int(manifest["num_nodes"])
        model.adjacency = np.asarray(arrays["adjacency"], dtype=np.float64)
        # Rebuild under the artifact's dtype — not the loading process's
        # ambient default — so the parameters restore without casting.
        with dtype_scope(expected_dtype):
            model.network = model.build_network(model.num_nodes, model.adjacency)
    else:
        raise ArtifactError(f"unknown model family '{family}' in artifact '{path}'")

    try:
        model.network.load_state_dict(parameters)
    except (KeyError, ValueError) as error:
        raise ArtifactError(
            f"artifact '{path}' does not match the rebuilt network: {error}"
        ) from error

    model.scaler.mean_ = manifest["scaler"]["mean"]
    model.scaler.std_ = manifest["scaler"]["std"]
    model.history = {name: list(values) for name, values in manifest["history"].items()}
    model.training_seconds = float(manifest["training_seconds"])

    if manifest.get("trainer") is not None:
        trainer_manifest = manifest["trainer"]
        optimizer_state = None
        if trainer_manifest["optimizer"] is not None:
            optimizer_state = dict(trainer_manifest["optimizer"])
            for name, value in arrays.items():
                if name.startswith("optim."):
                    optimizer_state[name[len("optim."):]] = value
        # Stashed for _ensure_trainer to apply lazily at the next fit():
        # loading a fully trained model for inference skips the optimiser's
        # flat parameter/moment buffers entirely.
        model._pending_trainer_state = {
            "epochs_completed": trainer_manifest["epochs_completed"],
            "total_epochs": trainer_manifest["total_epochs"],
            "optimizer_type": trainer_manifest["optimizer_type"],
            "optimizer": optimizer_state,
            "scheduler": trainer_manifest["scheduler"],
        }

    extras = {name[len("extra."):]: value
              for name, value in arrays.items() if name.startswith("extra.")}
    if extras:
        try:
            model._load_artifact_extra(extras)
        except (KeyError, ValueError) as error:
            raise ArtifactError(
                f"artifact '{path}' extra arrays do not match the rebuilt model: {error}"
            ) from error

    # Restore the RNG stream last so nothing during reconstruction can
    # advance it; for the diffusion family model.rng IS diffusion.rng, so
    # sampling resumes on the exact saved stream.
    try:
        model.rng.bit_generator.state = manifest["rng"]
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(f"artifact '{path}' has an invalid RNG state: {error}") from error
    return model
