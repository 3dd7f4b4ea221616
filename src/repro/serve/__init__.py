"""CED-synthesis-as-a-service: async HTTP front end over lab workers.

See DESIGN.md §14 for the architecture.  The public surface:

* :class:`ServeConfig` / :class:`CedService` — the asyncio application
  (``repro.cli serve`` is a thin wrapper around it), which runs every
  submission as a :mod:`repro.lab.backends` job;
* :class:`ServeClient` — a blocking stdlib client for tests and tools;
* :func:`run_flow_request` — the job function behind one submission;
* :class:`AdmissionController` — bounded-queue + token-bucket admission.
"""

from .app import CedService, ServeConfig
from .client import ServeClient, ServeError
from .jobs import (JOB_STATES, TERMINAL_STATES, JobRegistry, ServeJob,
                   run_flow_request)
from .quota import Admission, AdmissionController, TokenBucket

__all__ = [
    "CedService", "ServeConfig", "ServeClient", "ServeError",
    "JobRegistry", "ServeJob", "JOB_STATES", "TERMINAL_STATES",
    "run_flow_request",
    "Admission", "AdmissionController", "TokenBucket",
]
