"""HTTP/JSON surface of the tuning service (stdlib only).

:class:`TuningService` composes the whole deployable system — a
:class:`~repro.service.store.JobStore`, a quota-checked
:class:`~repro.service.queue.JobQueue`, a fleet-draining
:class:`~repro.service.runner.JobRunner`, and a
:class:`~http.server.ThreadingHTTPServer` — behind one ``start()`` /
``stop()`` pair.  No framework: handlers are a routing table over
``BaseHTTPRequestHandler``, which keeps the service importable
anywhere the library runs.

Endpoints (all JSON unless noted)::

    GET  /                      dashboard (HTML)
    GET  /api/health            runner liveness + job counts by state
                                (503 once a started runner stopped)
    GET  /api/fleet             fleet spec, queue depth, utilization
    POST /api/jobs              submit a job (JobSpec JSON body)
    GET  /api/jobs              list jobs (?tenant=&state=)
    GET  /api/jobs/<id>         job detail + per-task results
    GET  /api/jobs/<id>/progress?since=N   cursor-polled progress:
                                new best-curve points + RunSummary
                                snapshots per task
    GET  /api/jobs/<id>/records final measurement records
    GET  /api/jobs/<id>/curve   best-so-far curve per task (JSON feed)
    POST /api/jobs/<id>/cancel  cancel a queued job

Every rejection is a structured body ``{"error": {"code": ..., ...}}``
(see :class:`~repro.service.jobs.ServiceError`), with the HTTP status
the error class dictates — 400 for malformed specs, 404 for unknown
jobs, 409 for illegal transitions, 429 for quota rejections.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.service.dashboard import DASHBOARD_HTML
from repro.service.jobs import (
    JobNotFoundError,
    JobSpec,
    ServiceError,
    ValidationError,
)
from repro.service.queue import JobQueue
from repro.service.runner import JobRunner
from repro.service.store import JobStore, aggregate_utilization
from repro.utils.log import get_logger

logger = get_logger("service.api")

#: largest accepted request body (a JobSpec is tiny; anything bigger
#: is either a mistake or a memory-exhaustion attempt)
MAX_BODY_BYTES = 64 * 1024


class TuningService:
    """The long-running tuning service: store + queue + runner + HTTP.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after construction) — the in-process test harness and parallel CI
    both rely on this.  ``start_runner=False`` leaves jobs queued so
    admission/priority behaviour can be observed without execution.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        devices: str = "gtx1080ti,gtx1080ti",
        fleet_jobs: Optional[int] = None,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: int = 8,
        tlog: bool = True,
        warm_start: bool = False,
        start_runner: bool = True,
    ):
        from repro.fleet.devices import parse_fleet

        parse_fleet(devices)  # fail fast on a bad service fleet spec
        if fleet_jobs is not None and fleet_jobs < 1:
            raise ValueError(f"fleet_jobs must be >= 1, got {fleet_jobs}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.store = JobStore(self.data_dir / "jobs.sqlite")
        self.queue = JobQueue(
            self.store, quotas=quotas, default_quota=default_quota
        )
        self.runner = JobRunner(
            self.store,
            self.queue,
            self.data_dir,
            devices=devices,
            fleet_jobs=fleet_jobs,
            tlog=tlog,
            warm_start=warm_start,
        )
        self.devices = devices
        self._start_runner = start_runner
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._server_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TuningService":
        """Start the runner (recovery first) and the HTTP listener."""
        if self._start_runner:
            self.runner.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._server_thread.start()
        logger.info("tuning service listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop accepting requests, finish the current job, close up."""
        self._server.shutdown()
        self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=10.0)
            self._server_thread = None
        self.runner.stop()
        self.store.close()

    def __enter__(self) -> "TuningService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request-level operations (HTTP-agnostic; the handler maps them)

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        spec = JobSpec.from_dict(payload)
        job = self.queue.submit(spec)
        return {"job": job.to_dict()}

    def job_detail(self, job_id: str) -> Dict[str, Any]:
        job = self.store.get(job_id)
        tasks = self.store.tasks_for(job_id)
        body = job.to_dict()
        body["tasks"] = tasks
        body["tasks_done"] = len(tasks)
        body["best_gflops"] = round(
            max((t["best_gflops"] for t in tasks), default=0.0), 6
        )
        report = self.store.fleet_report(job_id)
        if report is not None:
            body["fleet_report"] = report
        return body

    def job_rows(
        self, tenant: Optional[str], state: Optional[str]
    ) -> Dict[str, Any]:
        jobs = []
        for job in self.store.list_jobs(tenant=tenant, state=state):
            row = job.to_dict()
            tasks = self.store.tasks_for(job.job_id)
            row["tasks_done"] = len(tasks)
            row["best_gflops"] = round(
                max((t["best_gflops"] for t in tasks), default=0.0), 6
            )
            jobs.append(row)
        return {"jobs": jobs}

    def progress(self, job_id: str, since: int) -> Dict[str, Any]:
        job = self.store.get(job_id)  # 404 for unknown ids
        feed = self.runner.feed(job_id)
        points, cursor = feed.since(since)
        return {
            "job_id": job_id,
            "state": job.state,
            "since": since,
            "next": cursor,
            "points": points,
            "summaries": feed.summaries(),
        }

    def records(self, job_id: str) -> Dict[str, Any]:
        job = self.store.get(job_id)
        return {
            "job_id": job_id,
            "state": job.state,
            "records": self.store.records_for(job_id),
        }

    def curve(self, job_id: str) -> Dict[str, Any]:
        """Best-so-far GFLOPS per task, derived from stored records."""
        self.store.get(job_id)
        curves: Dict[str, list] = {}
        for rec in self.store.records_for(job_id):
            key = f"task-{rec['task_id']:03d}"
            series = curves.setdefault(key, [])
            prev = series[-1] if series else 0.0
            gflops = rec["gflops"] if not rec["error"] else 0.0
            series.append(round(max(prev, gflops), 6))
        return {"job_id": job_id, "curves": curves}

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return {"job": self.queue.cancel(job_id).to_dict()}

    def fleet_status(self) -> Dict[str, Any]:
        return {
            "devices": self.devices,
            "fleet_jobs": self.runner.fleet_jobs,
            "queue_depth": self.queue.depth(),
            "current_job": self.runner.current_job,
            "counts": self.store.counts_by_state(),
            "by_class": aggregate_utilization(
                self.store.fleet_reports().values()
            ),
        }

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """(HTTP status, body) of the health check.

        The body reports the runner (see :meth:`JobRunner.health`) and
        the job counts by state.  Once a started runner's thread has
        ended, admitted jobs will never run: the answer is then a 503
        whose body adds a structured ``error`` naming the runner state.
        A service built with ``start_runner=False`` reports its runner
        as ``"disabled"`` and stays a 200.
        """
        runner = self.runner.health()
        body: Dict[str, Any] = {
            "status": "ok",
            "runner": runner,
            "counts": self.store.counts_by_state(),
        }
        if runner["state"] in ("running", "disabled"):
            return 200, body
        body["status"] = "unavailable"
        body["error"] = {
            "code": f"runner_{runner['state']}",
            "message": (
                f"the job runner is {runner['state']}; admitted jobs "
                "will not run"
            ),
        }
        return 503, body


def _make_handler(service: TuningService):
    """Bind a handler class to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"
        protocol_version = "HTTP/1.1"

        # --- plumbing ---------------------------------------------------

        def log_message(self, fmt: str, *args) -> None:
            logger.debug("%s %s", self.address_string(), fmt % args)

        def _send_json(self, status: int, body: Dict[str, Any]) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _send_html(self, html: str) -> None:
            data = html.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _read_json(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                raise ValidationError(
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                    limit=MAX_BODY_BYTES,
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ValidationError("request body must be JSON")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(
                    f"request body is not valid JSON: {exc}"
                ) from exc

        def _route(
            self, method: str
        ) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
            """Dispatch one request; returns (status, json, html)."""
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            query = parse_qs(parsed.query)

            if method == "GET" and parts in ([], ["dashboard"]):
                return 200, None, DASHBOARD_HTML
            if parts[:1] != ["api"]:
                raise JobNotFoundError(
                    f"no such path {parsed.path!r}", path=parsed.path
                )
            rest = parts[1:]
            if method == "GET":
                if rest == ["health"]:
                    status, body = service.health()
                    return status, body, None
                if rest == ["fleet"]:
                    return 200, service.fleet_status(), None
                if rest == ["jobs"]:
                    return 200, service.job_rows(
                        tenant=_one(query, "tenant"),
                        state=_one(query, "state"),
                    ), None
                if len(rest) == 2 and rest[0] == "jobs":
                    return 200, service.job_detail(rest[1]), None
                if len(rest) == 3 and rest[0] == "jobs":
                    job_id, leaf = rest[1], rest[2]
                    if leaf == "progress":
                        since = int(_one(query, "since") or 0)
                        return 200, service.progress(job_id, since), None
                    if leaf == "records":
                        return 200, service.records(job_id), None
                    if leaf == "curve":
                        return 200, service.curve(job_id), None
            elif method == "POST":
                if rest == ["jobs"]:
                    return 201, service.submit(self._read_json()), None
                if len(rest) == 3 and rest[0] == "jobs" \
                        and rest[2] == "cancel":
                    return 200, service.cancel(rest[1]), None
            raise JobNotFoundError(
                f"no such endpoint {method} {parsed.path!r}",
                path=parsed.path,
            )

        def _handle(self, method: str) -> None:
            try:
                status, body, html = self._route(method)
            except ServiceError as exc:
                self._send_json(exc.http_status, exc.to_dict())
                return
            except Exception as exc:  # noqa: BLE001 - must answer HTTP
                logger.exception("unhandled error serving %s", self.path)
                self._send_json(
                    500,
                    {"error": {"code": "internal", "message": str(exc)}},
                )
                return
            if html is not None:
                self._send_html(html)
            else:
                self._send_json(status, body or {})

        # --- verbs ------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._handle("POST")

    return Handler


def _one(query: Dict[str, list], key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None
