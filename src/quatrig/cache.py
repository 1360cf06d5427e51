"""Census cache: one file per census spec, keyed by a content hash of the
canonical spec JSON plus the artifact version.  The file is a CSV table with
a JSON header line; a content hash in the header detects corruption.  Files
are renamed into place once written; an unparsable header line is a miss."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .census import CountTable

VERSION = "quatrig-0.1.0"


class CacheCorruption(RuntimeError):
    pass


def canonical_spec(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_key(spec: dict) -> str:
    payload = VERSION + "\n" + canonical_spec(spec)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def default_cache_dir() -> Path:
    env = os.environ.get("QUATRIG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "quatrig"


class CensusCache:
    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, spec: dict) -> Path:
        return self.directory / f"{spec_key(spec)}.csv"

    def load(self, spec: dict) -> CountTable | None:
        path = self._path(spec)
        if not path.exists():
            return None
        text = path.read_text()
        header_line, _, body = text.partition("\n")
        try:
            header = json.loads(header_line)
        except ValueError:  # empty, or cut off inside the header line
            return None
        if (not isinstance(header, dict) or header.get("version") != VERSION
                or header.get("spec") != canonical_spec(spec)):
            return None
        digest = hashlib.sha256(body.encode()).hexdigest()
        if digest != header.get("content_sha256"):
            raise CacheCorruption(f"content hash mismatch in {path}")
        rows = [line.split(",") for line in body.strip().splitlines()[1:]]
        thresholds = tuple(int(r[0]) for r in rows)
        counts = tuple(int(r[1]) for r in rows)
        return CountTable(thresholds, counts)

    def store(self, spec: dict, table: CountTable) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        body = "x,count\n" + "".join(f"{x},{c}\n" for x, c in table.rows())
        header = {
            "version": VERSION,
            "spec": canonical_spec(spec),
            "content_sha256": hashlib.sha256(body.encode()).hexdigest(),
        }
        path = self._path(spec)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(header, sort_keys=True) + "\n" + body)
        os.replace(tmp, path)
        return path
