"""Versioned model registry resolving ``name@version`` to artifacts.

A registry root is a plain directory tree of :mod:`repro.io` artifacts::

    <root>/<name>/<version>/manifest.json
    <root>/<name>/<version>/arrays.npz

``publish`` writes a trained model into the tree (auto-incrementing the
version when none is given); ``resolve`` pins a spec — ``"aqi@2"`` names a
version, ``"aqi"`` means the latest — to its artifact path.  The registry
holds no loaded model: ``backend`` hands out the calling process's resident
backend from :func:`repro.inference.backend.process_backend`, the one model
cache a pool child and an inline service flush both use, and ``load`` is a
plain uncached :func:`repro.io.load_model`.  The tree on disk is the only
state registries share: what any cache read from an artifact stays valid
while the artifact's on-disk signature is unchanged
(:func:`repro.io.artifacts._artifact_signature`), so a publish made by
another registry object or process is seen like one made by this one.
"""

from __future__ import annotations

import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..inference.backend import process_backend
from ..io import load_model, save_model
from ..io.artifacts import (
    MANIFEST_NAME,
    _artifact_signature,
    _read_manifest,
    is_save_sibling,
)

__all__ = ["ModelRegistry", "RegistryError", "ResolvedModel"]

#: How many artifacts' manifest shapes a registry keeps (see ``_shape``).
_SHAPE_CACHE_SIZE = 16

#: name / version components must be filesystem-safe.
_COMPONENT = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RegistryError(RuntimeError):
    """Raised for unknown names/versions or malformed specs."""


@dataclass(frozen=True)
class ResolvedModel:
    """A fully pinned registry entry."""

    name: str
    version: str
    path: str

    @property
    def spec(self):
        """The canonical ``name@version`` string."""
        return f"{self.name}@{self.version}"


def _version_order(version):
    """Sort key: numeric versions in numeric order, others lexicographic
    (numeric versions sort after non-numeric so auto-published ``1, 2, …``
    always win the "latest" race against ad-hoc tags)."""
    try:
        return (1, int(version), "")
    except ValueError:
        return (0, 0, version)


class ModelRegistry:
    """Resolve ``name@version`` specs to published artifacts.

    Parameters
    ----------
    root:
        Directory holding the artifact tree (created on first ``publish``).

    The subscribers and the cached manifest shapes are guarded by a lock,
    so concurrent serving threads — the service's inline path, its
    background flush worker and any direct callers — can share one
    registry.
    """

    def __init__(self, root):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        # artifact path -> (signature, (num_nodes, window_length)), the
        # least recently used first
        self._shapes = OrderedDict()
        self._subscribers = []

    def subscribe(self, callback):
        """Register ``callback(resolved)`` to run after every
        :meth:`publish` (outside the registry lock, on the publishing
        thread).  This is the warm pre-fork hook:
        :meth:`repro.serving.WorkerPool.watch` subscribes the pool so workers
        pre-load a model the moment it is published, instead of rehydrating
        it on the first request.  Returns ``callback`` for symmetry."""
        with self._lock:
            self._subscribers.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, model, name, version=None):
        """Save ``model`` under ``name`` and return its :class:`ResolvedModel`.

        ``version`` defaults to one past the highest numeric version already
        published (starting at ``"1"``), so repeated publishes form a linear
        history; any explicit filesystem-safe string (e.g. ``"prod"``) is
        accepted too, and re-publishing an existing version overwrites it
        atomically (the artifact writer stages and swaps).
        """
        self._check_component(name, "model name")
        if version is None:
            numeric = [int(v) for v in self.versions(name) if v.isdigit()]
            version = str(max(numeric, default=0) + 1)
        else:
            version = str(version)
            self._check_component(version, "version")
            if is_save_sibling(version):
                raise RegistryError(
                    f"invalid version '{version}': the name of an artifact "
                    "writer's staging or backup directory")
        path = os.path.join(self.root, name, version)
        save_model(model, path)
        with self._lock:
            subscribers = list(self._subscribers)
        resolved = ResolvedModel(name=name, version=version, path=path)
        for callback in subscribers:
            callback(resolved)
        return resolved

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def names(self):
        """Published model names (sorted)."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry for entry in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, entry))
        )

    def versions(self, name):
        """Published versions of ``name``, oldest-to-latest (never a
        ``save_model`` staging or backup sibling)."""
        return [version for version in self._candidates(name)
                if self._is_published(name, version)]

    def _candidates(self, name):
        """Entries of ``name``'s directory that may be versions, in version
        order: no manifest is read."""
        directory = os.path.join(self.root, name)
        if not os.path.isdir(directory):
            return []
        return sorted((entry for entry in os.listdir(directory)
                       if not is_save_sibling(entry)), key=_version_order)

    def _is_published(self, name, version):
        """Is ``name@version`` a complete artifact (one ``stat``)?"""
        return (not is_save_sibling(version) and os.path.isfile(
            os.path.join(self.root, name, version, MANIFEST_NAME)))

    def resolve(self, spec):
        """Resolve ``"name"`` / ``"name@version"`` to a :class:`ResolvedModel`.

        An explicit version costs one ``stat`` of its manifest.  ``"name"``
        (the latest) lists the name's directory once and stats manifests
        newest-first, stopping at the first complete version; only the
        error path stats them all.  Nothing is cached: a directory mtime
        can be too coarse to show a rename made in the same clock tick.
        """
        name, _, version = str(spec).partition("@")
        self._check_component(name, "model name")
        if version:
            self._check_component(version, "version")
            if self._is_published(name, version):
                return self._pinned(name, version)
            available = self.versions(name)
            if available:
                raise RegistryError(
                    f"model '{name}' has no version '{version}' "
                    f"(available: {', '.join(available)})"
                )
        else:
            for candidate in reversed(self._candidates(name)):
                if self._is_published(name, candidate):
                    return self._pinned(name, candidate)
        raise RegistryError(f"no model named '{name}' in registry '{self.root}'")

    def _pinned(self, name, version):
        return ResolvedModel(name=name, version=version,
                             path=os.path.join(self.root, name, version))

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _resolved(self, spec):
        return spec if isinstance(spec, ResolvedModel) else self.resolve(spec)

    def load(self, spec):
        """A fresh model restored from the artifact a spec resolves to
        (uncached: serving goes through :meth:`backend`)."""
        return load_model(self._resolved(spec).path)

    def num_nodes(self, spec):
        """The node count a spec's model was trained on (see :meth:`_shape`)."""
        return self._shape(spec)[0]

    def window_length(self, spec):
        """The window length a spec's model was trained on (see :meth:`_shape`)."""
        return self._shape(spec)[1]

    def _shape(self, spec):
        """``(num_nodes, window_length)`` of a spec's model.

        Read from the published manifest — no model load, so a service
        whose models live in pool workers can check it too — and cached
        under the artifact's on-disk signature, by the rule
        :class:`~repro.inference.backend.BackendCache` keeps: a republish
        by anyone reads the new manifest, and a missing artifact keeps the
        cached shape.  Only the ``_SHAPE_CACHE_SIZE`` most recently used
        shapes are kept; an evicted one is read from its manifest again.
        """
        path = self._resolved(spec).path
        signature = _artifact_signature(path)
        with self._lock:
            cached = self._shapes.get(path)
            if cached is not None:
                self._shapes.move_to_end(path)
        if cached is not None and signature in (None, cached[0]):
            return cached[1]
        manifest = _read_manifest(path)
        shape = (int(manifest["num_nodes"]),
                 int(manifest["config"]["window_length"]))
        with self._lock:
            self._shapes[path] = (signature, shape)
            self._shapes.move_to_end(path)
            if len(self._shapes) > _SHAPE_CACHE_SIZE:
                self._shapes.popitem(last=False)
        return shape

    def backend(self, spec):
        """The stateless imputation backend of a spec's model: this
        process's resident copy from
        :func:`~repro.inference.backend.process_backend`."""
        return process_backend(self._resolved(spec).path)

    @staticmethod
    def _check_component(value, what):
        if not _COMPONENT.match(value or ""):
            raise RegistryError(
                f"invalid {what} '{value}': use letters, digits, '.', '_' or '-'"
            )
