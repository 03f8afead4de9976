"""On-disk incremental lint cache: content-addressed per-file findings.

Warm ``repro lint src`` should not re-analyse four hundred functions
because nothing changed.  The cache stores, per linted file, the
findings anchored in it (post-suppression, pre ``--select``/``--ignore``
— filters are cheap and applied on the way out) together with a
**transitive dependency fingerprint**: the content hash of every file
whose change could alter those findings (imports, call-graph edges and
class-hierarchy edges, transitively — exactly the relation
:meth:`~repro.lint.callgraph.CallGraph.transitive_dependencies`
computes).

An entry is valid only when

* the engine version and the registered rule set are unchanged (both
  are folded into the entry's *filename*, so a new rule or an engine
  change invalidates everything at once, atomically), and
* the file's own content hash matches, and
* every recorded dependency still exists with its recorded hash.

That third clause is what makes per-file caching sound for
*project-wide* rules: a finding in ``a.py`` caused by an edit in
``b.py`` invalidates ``a.py``'s entry because ``b.py`` is in its
fingerprint.  The one edit no fingerprint can anticipate — a **new**
file appearing that an existing file now resolves against — is covered
by the runner, which re-analyses the reverse-dependency closure of
every miss over the *new* call graph.  A project rule's ``find_file``
lookup resolves by lint set, not by import: the files matching its
suffix record the current pick (path and hash) as one more dependency,
so linting ``tests`` after ``src tests`` re-analyses them.

Entries are written atomically (temp file + ``os.replace``) so a
crashed or concurrent lint can never leave a torn entry; a corrupt or
unreadable entry is treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.lint.findings import Finding

ENGINE_VERSION = 4
"""Bump when analysis semantics change; invalidates every entry."""

_ENTRY_SCHEMA = 1


def source_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CacheEntry:
    """One file's cached findings plus its dependency fingerprint."""

    def __init__(
        self,
        src: str,
        deps: Mapping[str, str],
        findings: Sequence[Finding],
    ) -> None:
        self.source_sha = src
        self.deps = dict(deps)
        self.findings = list(findings)

    def to_payload(self) -> Dict[str, object]:
        return {
            "schema": _ENTRY_SCHEMA,
            "source_sha": self.source_sha,
            "deps": dict(sorted(self.deps.items())),
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "CacheEntry":
        if payload.get("schema") != _ENTRY_SCHEMA:
            raise ValueError("unknown cache entry schema")
        findings = [
            Finding(
                path=f["path"],
                line=f["line"],
                col=f["col"],
                rule=f["rule"],
                message=f["message"],
                severity=f["severity"],
            )
            for f in payload["findings"]
        ]
        return cls(payload["source_sha"], payload["deps"], findings)


class LintCache:
    """Directory of per-file cache entries keyed by engine + ruleset."""

    def __init__(self, root: Path, ruleset: Sequence[str]) -> None:
        self.root = Path(root)
        # Engine version + rule ids are part of every key: changing
        # either silently orphans old entries instead of misreading them.
        self._key_prefix = hashlib.sha256(
            json.dumps(
                {"engine": ENGINE_VERSION, "rules": sorted(ruleset)},
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        self.hits = 0
        self.misses = 0

    def _entry_path(self, path: str) -> Path:
        digest = hashlib.sha256(
            f"{self._key_prefix}:{path}".encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def load(
        self, path: str, src: str, current_shas: Mapping[str, str]
    ) -> Optional[CacheEntry]:
        """The valid entry for ``path``, or ``None`` (a miss).

        ``current_shas`` maps every file in the current lint set to its
        content hash; a dependency that changed, or vanished from the
        set, invalidates the entry.
        """
        try:
            payload = json.loads(self._entry_path(path).read_text())
            entry = CacheEntry.from_payload(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if entry.source_sha != src:
            self.misses += 1
            return None
        for dep, sha in entry.deps.items():
            if current_shas.get(dep) != sha:
                self.misses += 1
                return None
        self.hits += 1
        return entry

    def store(
        self,
        path: str,
        src: str,
        deps: Mapping[str, str],
        findings: Sequence[Finding],
    ) -> None:
        entry = CacheEntry(src, deps, findings)
        target = self._entry_path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        # Atomic publish: a concurrent reader sees the old entry or the
        # new one, never a torn write.
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry.to_payload(), handle, sort_keys=True)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


def hash_files(paths: Sequence[Path]) -> Dict[str, bytes]:
    """Read every file once; the bytes feed both hashing and parsing."""
    contents: Dict[str, bytes] = {}
    for path in paths:
        try:
            contents[str(path)] = path.read_bytes()
        except OSError:
            contents[str(path)] = b""
    return contents
