"""repro.lab — parallel experiment orchestration.

The paper's tables are embarrassingly parallel (circuit x config)
grids of ``run_ced_flow`` invocations.  This subsystem runs such grids
on a pluggable execution backend (``local`` process pool, distributed
``tcp`` coordinator/worker, in-process ``workqueue`` work stealer) with
deterministic per-job seeds, a content-addressed artifact cache
(``.lab_cache/``) that makes killed runs resumable — and doubles as the
``tcp`` backend's result-transfer medium — and structured run manifests
under ``results/runs/<run_id>/``; :func:`merge_manifests` folds the
manifests of a sweep split across hosts back into one document.

Task functions live in :mod:`repro.lab.tasks` (imported lazily — it
pulls in the whole flow stack).
"""

from .backends import (BACKEND_ENV, ExecutorBackend,  # noqa: F401
                       JobRequest, LocalBackend, TcpBackend,
                       WorkqueueBackend, backend_names,
                       create_backend, register_backend,
                       resolve_backend)
from .cache import (MISS, ArtifactStore, cache_key,  # noqa: F401
                    code_fingerprint)
from .executor import (WORKERS_ENV, JobResult, JobTimeout,  # noqa: F401
                       LabRun, LabRunner, resolve_workers, run_jobs)
from .job import (Job, JobGraph, canonical_params,  # noqa: F401
                  derive_seed)
from .manifest import (JOB_STATUSES,  # noqa: F401
                       MANIFEST_SCHEMA_VERSION, build_manifest,
                       load_manifest, merge_manifests, new_run_id,
                       validate_manifest, write_manifest)
from .proofs import ConeFingerprinter, ProofCache  # noqa: F401

__all__ = [
    "Job", "JobGraph", "derive_seed", "canonical_params",
    "ArtifactStore", "MISS", "cache_key", "code_fingerprint",
    "JobResult", "JobTimeout", "LabRun", "LabRunner", "run_jobs",
    "resolve_workers", "WORKERS_ENV",
    "ExecutorBackend", "JobRequest", "LocalBackend", "TcpBackend",
    "WorkqueueBackend", "register_backend", "create_backend",
    "backend_names", "resolve_backend", "BACKEND_ENV",
    "MANIFEST_SCHEMA_VERSION", "JOB_STATUSES", "build_manifest",
    "load_manifest", "merge_manifests", "new_run_id",
    "validate_manifest", "write_manifest",
    "ProofCache", "ConeFingerprinter",
]
