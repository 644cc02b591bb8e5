"""The tuning-log database: versioned index + per-signature segments.

Layout under the database root::

    <root>/index.json          versioned index (atomic rewrite)
    <root>/segments/<key>.jsonl  append-only records of one signature

The index maps each :class:`~repro.tlog.signature.TaskSignature` key to
its signature dict, segment file, record count, committed byte length,
best score, and the set of run keys that already contributed (so a
resumed compile never double-appends).  Segment files are JSON lines
appended in measurement order.

The index is the commit record: a contribution appends to its segment
first and then rewrites the index, so a process killed in between
leaves segment bytes no index counts.  Reads see only a segment's
committed bytes, and the next contribution to the segment drops the
uncommitted tail before it appends (an index written before byte
lengths were kept commits each segment's first ``count`` lines).  Like
:class:`~repro.pipeline.records.RecordStore`, reading drops a torn
*final* line with a warning and raises :class:`ValueError` naming the
line for anything else malformed.

The index carries a schema version; :meth:`TuningLogDB.load` rejects a
future version with a clear error instead of misreading it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.tlog.signature import TaskSignature, shape_distance
from repro.utils.io import atomic_write_text
from repro.utils.log import get_logger

logger = get_logger("tlog.db")

#: bump when the index/segment layout changes incompatibly
TLOG_VERSION = 1


class TlogVersionError(ValueError):
    """The on-disk database was written by an incompatible version."""


@dataclass(frozen=True)
class TlogRecord:
    """One logged measurement inside a segment.

    ``knob_indices`` (the mixed-radix digits of ``config_index``) are
    stored explicitly so a record can be projected into a *similar*
    task's space — per-knob digit clamping — without reconstructing the
    source space.
    """

    config_index: int
    knob_indices: Tuple[int, ...]
    gflops: float
    tuner: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.gflops > 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_index": self.config_index,
                "knobs": list(self.knob_indices),
                "gflops": self.gflops,
                "tuner": self.tuner,
                "error": self.error,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "TlogRecord":
        data = json.loads(line)  # JSONDecodeError is a ValueError
        if not isinstance(data, dict):
            raise ValueError(f"segment line is not a JSON object: {line!r}")
        try:
            return TlogRecord(
                config_index=int(data["config_index"]),
                knob_indices=tuple(int(d) for d in data["knobs"]),
                gflops=float(data["gflops"]),
                tuner=str(data.get("tuner", "")),
                error=str(data.get("error", "")),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed segment fields: {exc}") from exc


@dataclass
class _Segment:
    """Index entry for one signature's record file."""

    signature: TaskSignature
    filename: str
    count: int = 0
    #: committed length of the segment file in bytes; ``None`` until
    #: first used when the index was written before lengths were kept
    size: Optional[int] = 0
    best_gflops: float = 0.0
    #: run keys that already contributed (idempotent re-contribution)
    runs: Optional[set] = None

    def __post_init__(self) -> None:
        if self.runs is None:
            self.runs = set()


class TuningLogDB:
    """Content-addressed store of tuning measurements across runs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._segments: Dict[str, _Segment] = {}
        if self._index_path.exists():
            self._load_index()

    # ------------------------------------------------------------------
    # paths

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def _segment_dir(self) -> Path:
        return self.root / "segments"

    def _segment_path(self, segment: _Segment) -> Path:
        return self._segment_dir / segment.filename

    # ------------------------------------------------------------------
    # index persistence

    @classmethod
    def load(cls, root: Union[str, Path]) -> "TuningLogDB":
        """Open an existing database; :class:`TlogVersionError` if the
        on-disk index was written by an unknown schema version."""
        db = cls(root)
        if not db._index_path.exists():
            raise FileNotFoundError(
                f"no tuning-log index at {db._index_path}"
            )
        return db

    def _load_index(self) -> None:
        raw = json.loads(self._index_path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError(f"{self._index_path}: index is not an object")
        version = raw.get("version")
        if version != TLOG_VERSION:
            raise TlogVersionError(
                f"{self._index_path}: tuning-log version {version!r} is "
                f"not readable by this build (expected {TLOG_VERSION}); "
                "re-create the database or upgrade the library"
            )
        self._segments = {}
        for key, entry in raw.get("segments", {}).items():
            try:
                segment = _Segment(
                    signature=TaskSignature.from_dict(entry["signature"]),
                    filename=str(entry["file"]),
                    count=int(entry.get("count", 0)),
                    size=int(entry["bytes"]) if "bytes" in entry else None,
                    best_gflops=float(entry.get("best_gflops", 0.0)),
                    runs=set(entry.get("runs", [])),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{self._index_path}: malformed segment entry "
                    f"{key!r}: {exc}"
                ) from exc
            self._segments[key] = segment

    def _committed_size(self, segment: _Segment) -> int:
        """A segment's committed byte length.

        An index written before byte lengths were kept committed each
        segment's first ``count`` lines; their length is measured the
        first time the segment is read or appended to, so loading such
        an index still reads the index alone.
        """
        if segment.size is None:
            path = self._segment_path(segment)
            segment.size = 0
            if path.exists():
                with path.open("rb") as fh:
                    segment.size = sum(
                        len(line) for _, line in zip(range(segment.count), fh)
                    )
        return segment.size

    def flush(self) -> None:
        """Atomically rewrite the index from in-memory state."""
        self.root.mkdir(parents=True, exist_ok=True)
        segments = {}
        for key, seg in sorted(self._segments.items()):
            segments[key] = {
                "signature": seg.signature.to_dict(),
                "file": seg.filename,
                "count": seg.count,
                "best_gflops": seg.best_gflops,
                "runs": sorted(seg.runs or ()),
            }
            if seg.size is not None:  # a legacy entry not yet used has none
                segments[key]["bytes"] = seg.size
        document = {"version": TLOG_VERSION, "segments": segments}
        atomic_write_text(
            self._index_path, json.dumps(document, sort_keys=True) + "\n"
        )

    # ------------------------------------------------------------------
    # writing

    def record_task(
        self,
        signature: TaskSignature,
        records: Sequence[TlogRecord],
        run_key: Optional[str] = None,
    ) -> int:
        """Append one finished task's measurements under ``signature``.

        ``run_key`` (when given) makes the contribution idempotent: a
        resumed or re-run compile that already contributed under the
        same run key is skipped, so crash/resume cycles never duplicate
        segment lines.  The contribution counts once the index is
        rewritten; segment bytes past the committed length (an append
        whose index rewrite never happened) are dropped first.  Returns
        the number of records appended.
        """
        if not records:
            return 0
        key = signature.key
        segment = self._segments.get(key)
        if segment is None:
            segment = _Segment(
                signature=signature, filename=f"{key}.jsonl"
            )
            self._segments[key] = segment
        if run_key is not None and run_key in segment.runs:
            return 0
        self._segment_dir.mkdir(parents=True, exist_ok=True)
        path = self._segment_path(segment)
        committed = self._committed_size(segment)
        if path.exists() and path.stat().st_size > committed:
            os.truncate(path, committed)
        with path.open("ab") as fh:
            fh.write(
                "".join(record.to_json() + "\n" for record in records)
                .encode("utf-8")
            )
            segment.size = fh.tell()
        if run_key is not None:
            segment.runs.add(run_key)
        segment.count += len(records)
        best = max(
            (r.gflops for r in records if r.ok), default=0.0
        )
        segment.best_gflops = max(segment.best_gflops, best)
        self.flush()
        return len(records)

    # ------------------------------------------------------------------
    # reading

    def __len__(self) -> int:
        return len(self._segments)

    def signatures(self) -> List[TaskSignature]:
        """All signatures with at least one stored record."""
        return [
            seg.signature
            for _, seg in sorted(self._segments.items())
            if seg.count > 0
        ]

    def lookup_exact(
        self, signature: TaskSignature
    ) -> Optional[List[TlogRecord]]:
        """All records stored under exactly ``signature`` (or None)."""
        segment = self._segments.get(signature.key)
        if segment is None or segment.count == 0:
            return None
        records = self._read_segment(segment)
        return records or None

    def best_exact(self, signature: TaskSignature) -> Optional[TlogRecord]:
        """The best valid record under exactly ``signature``."""
        records = self.lookup_exact(signature)
        if not records:
            return None
        valid = [r for r in records if r.ok]
        if not valid:
            return None
        return max(valid, key=lambda r: r.gflops)

    def top_k_similar(
        self,
        signature: TaskSignature,
        k: int = 16,
        include_exact: bool = True,
        same_device: bool = False,
        cross_device: bool = False,
    ) -> List[Tuple[TaskSignature, List[TlogRecord]]]:
        """Segments transferable to ``signature``, nearest shapes first.

        "Similar" means same operator kind, template, and feature
        dimension (see :meth:`TaskSignature.transferable_to`); ties on
        shape distance break by key so the order is deterministic.  At
        most ``k`` segments are returned, each with its records.

        ``same_device`` keeps only segments measured on the
        signature's own device class; ``cross_device`` keeps only
        segments measured on *other* classes (the cross-device transfer
        scenario).  The two filters are mutually exclusive.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if same_device and cross_device:
            raise ValueError(
                "same_device and cross_device are mutually exclusive"
            )
        scored = []
        for key, segment in self._segments.items():
            if segment.count == 0:
                continue
            other = segment.signature
            if not other.transferable_to(signature):
                continue
            if not include_exact and key == signature.key:
                continue
            if same_device and other.device_class != signature.device_class:
                continue
            if cross_device and other.device_class == signature.device_class:
                continue
            scored.append((shape_distance(other, signature), key, segment))
        scored.sort(key=lambda item: (item[0], item[1]))
        out = []
        for _, _, segment in scored[:k]:
            records = self._read_segment(segment)
            if records:
                out.append((segment.signature, records))
        return out

    def _read_segment(self, segment: _Segment) -> List[TlogRecord]:
        """The committed records of one segment."""
        path = self._segment_path(segment)
        if not path.exists():
            logger.warning("tlog segment missing: %s", path)
            return []
        size = self._committed_size(segment)
        with path.open("rb") as fh:
            text = fh.read(size).decode("utf-8")
        lines = [
            (number, line.strip())
            for number, line in enumerate(text.split("\n"), start=1)
        ]
        lines = [(number, line) for number, line in lines if line]
        records: List[TlogRecord] = []
        for position, (number, line) in enumerate(lines):
            is_final = position == len(lines) - 1
            try:
                records.append(TlogRecord.from_json(line))
            except json.JSONDecodeError:
                if is_final:
                    logger.warning(
                        "%s:%d: dropping torn final tlog line "
                        "(crash mid-append?)",
                        path,
                        number,
                    )
                    break
                raise ValueError(f"{path}:{number}: malformed tlog line")
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
        return records

    def __repr__(self) -> str:
        records = sum(seg.count for seg in self._segments.values())
        return (
            f"TuningLogDB({str(self.root)!r}, "
            f"{len(self._segments)} signatures, {records} records)"
        )
