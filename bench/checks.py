"""Output checks behind ``error_rate``.

Every simulated result the benchmark sees is reduced to the sha256 of
its canonical ``SimStats.to_dict()`` JSON and compared with
``digests.json``, which ``record_digests.py`` wrote from the object
engine (the repository's independent timing oracle) for every
(config, workload) pair any seed can draw.  A digest mismatch means the
simulated machine behaved differently — a behaviour change, never
noise.  Event counts of the ``explain`` pairs are recorded and checked
the same way.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().with_name("digests.json")


def stats_digest(entry: dict) -> str:
    blob = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def stats_key(entry: dict) -> str:
    return f"{entry['machine']}::{entry['workload']}"


def load_table(path: Path = DIGESTS_FILE) -> dict:
    return json.loads(path.read_text())


class Checker:
    """Counts attempted and failed operations against a digest table.

    Thread-safe: the serve clients record from their own threads.
    """

    def __init__(self, table: dict) -> None:
        self.digests: dict[str, str] = table["digests"]
        self.events: dict[str, int] = table.get("events", {})
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def stats_problems(self, entry: dict) -> list[str]:
        """Why a serialized ``SimStats`` is wrong (empty when it is right)."""
        key = stats_key(entry)
        expected = self.digests.get(key)
        if expected is None:
            return [f"{key}: no recorded digest"]
        if stats_digest(entry) != expected:
            return [f"{key}: statistics digest mismatch"]
        return []

    def events_problems(self, key: str, events: int) -> list[str]:
        expected = self.events.get(key)
        if expected != events:
            return [f"{key}: {events} events, recorded {expected}"]
        return []

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed if ``problems`` is non-empty."""
        with self._lock:
            self.attempted += 1
            if problems:
                self.failures.append("; ".join(problems))
