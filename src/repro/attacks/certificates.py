"""Machine-checkable DNH-violation certificates and their verifier.

A violation found by :class:`~repro.attacks.search.AttackSearch` is only
as good as its replay: the searcher's own estimates could be wrong in
exactly the way that manufactures a "violation".  So every find is
emitted as a :class:`ViolationCertificate` — the serialised base
instance, the mechanism and scenario specs, the committed edit chain,
the engine parameters and seeds, and the pre/post correct-probability
estimates — and :func:`verify_certificate` replays the whole claim
*from scratch*, sharing no state with the search: it rebuilds the
instance from its wire form, re-runs a fresh
:class:`~repro.incremental.session.DeltaSession`, and requires every
estimate field to match **bitwise**, mirroring the repo's
``_reference``-oracle contract (a patched result is only trusted
against an independent recomputation).

Certificates are content-addressed: :meth:`ViolationCertificate.digest`
hashes the canonical JSON of everything above, so a tampered field —
even one float — fails verification at the digest check before any
replay runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cache import _canonical_json, _sha256_hex, instance_token
from repro.core.instance import ProblemInstance
from repro.incremental.edits import edit_chain_digest, edit_from_dict
from repro.voting.montecarlo import CorrectnessEstimate
from repro.voting.outcome import TiePolicy

CERTIFICATE_SCHEMA = 2
"""Bumped whenever the certificate layout changes incompatibly, or the
replayed values change bits (``direct`` is compared with ``==``; 2: exact
PMFs through the FFT merge ladder)."""


def instance_digest(instance: ProblemInstance) -> str:
    """Content digest of an instance (competencies, graph, alpha)."""
    return _sha256_hex(_canonical_json(instance_token(instance)).encode())


@dataclass(frozen=True)
class ViolationCertificate:
    """A machine-checkable claim that a scenario broke do-no-harm.

    The claim: starting from ``instance`` (the serialised base state)
    and applying ``edits`` (the committed attack chain, in canonical
    wire form, one batch per committed move), the mechanism's
    correct-probability estimate under the recorded engine parameters
    falls short of the direct-majority probability on the same attacked
    state by ``harm`` — and ``harm`` clears ``min_harm`` with a
    ``margin``-sigma statistical cushion.  Every float in ``pre`` /
    ``post`` is the exact value the search observed; the verifier
    replays them bitwise.
    """

    scenario: Dict[str, Any]
    mechanism: Dict[str, Any]
    instance: Dict[str, Any]
    instance_digest: str
    rounds: int
    seed: int
    engine: str
    tie_policy: str
    edits: Tuple[Tuple[Dict[str, Any], ...], ...]
    chain_digest: str
    pre: Dict[str, Any]
    post: Dict[str, Any]
    harm: float
    min_harm: float
    margin: float
    schema: int = CERTIFICATE_SCHEMA

    def payload(self) -> Dict[str, Any]:
        """The digestable content (everything except the digest itself)."""
        return {
            "schema": self.schema,
            "scenario": self.scenario,
            "mechanism": self.mechanism,
            "instance": self.instance,
            "instance_digest": self.instance_digest,
            "rounds": self.rounds,
            "seed": self.seed,
            "engine": self.engine,
            "tie_policy": self.tie_policy,
            "edits": [list(batch) for batch in self.edits],
            "chain_digest": self.chain_digest,
            "pre": self.pre,
            "post": self.post,
            "harm": self.harm,
            "min_harm": self.min_harm,
            "margin": self.margin,
        }

    def digest(self) -> str:
        """Content digest of the whole certificate."""
        return _sha256_hex(_canonical_json(self.payload()).encode())

    def to_dict(self) -> Dict[str, Any]:
        """Wire form: the payload plus its content digest."""
        data = self.payload()
        data["digest"] = self.digest()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ViolationCertificate":
        """Parse a certificate's wire form (digest field ignored here;
        :func:`verify_certificate` is what checks it)."""
        try:
            return cls(
                schema=int(data["schema"]),
                scenario=dict(data["scenario"]),
                mechanism=dict(data["mechanism"]),
                instance=dict(data["instance"]),
                instance_digest=str(data["instance_digest"]),
                rounds=int(data["rounds"]),
                seed=int(data["seed"]),
                engine=str(data["engine"]),
                tie_policy=str(data["tie_policy"]),
                edits=tuple(
                    tuple(dict(edit) for edit in batch)
                    for batch in data["edits"]
                ),
                chain_digest=str(data["chain_digest"]),
                pre=dict(data["pre"]),
                post=dict(data["post"]),
                harm=float(data["harm"]),
                min_harm=float(data["min_harm"]),
                margin=float(data["margin"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate payload: {exc}") from None

    def describe(self) -> str:
        """One human-readable summary line."""
        n = len(self.instance.get("competencies", ()))
        moves = sum(len(batch) for batch in self.edits)
        return (
            f"DNH violation by scenario {self.scenario.get('name')!r} on "
            f"n={n}: {moves} edit(s) in {len(self.edits)} move(s) drop the "
            f"mechanism to p={self.post['estimate']['probability']:.4f} vs "
            f"direct {self.post['direct']:.4f} (harm {self.harm:.4f} > "
            f"min {self.min_harm:g} at {self.margin:g} sigma)"
        )


@dataclass
class VerificationReport:
    """The verifier's verdict: one row per independent check."""

    checks: List[Dict[str, Any]] = field(default_factory=list)

    def record(self, check: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"check": check, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        """Whether every check passed (and at least one ran)."""
        return bool(self.checks) and all(c["ok"] for c in self.checks)

    def failures(self) -> List[Dict[str, Any]]:
        return [c for c in self.checks if not c["ok"]]

    def describe(self) -> str:
        lines = [
            f"{'PASS' if c['ok'] else 'FAIL'}  {c['check']}"
            + (f": {c['detail']}" if c["detail"] else "")
            for c in self.checks
        ]
        verdict = "certificate verifies" if self.ok else "certificate REJECTED"
        return "\n".join(lines + [verdict])


def _match_estimate(
    report: VerificationReport,
    check: str,
    recorded: Mapping[str, Any],
    replayed: CorrectnessEstimate,
) -> None:
    for key, value in replayed.to_dict().items():
        if recorded.get(key) != value:
            report.record(
                check, False,
                f"field {key!r}: recorded {recorded.get(key)!r} != "
                f"replayed {value!r}",
            )
            return
    report.record(check, True, "all estimate fields bitwise equal")


def verify_certificate(
    certificate: Any, *, cache: Optional[Any] = None
) -> VerificationReport:
    """Replay a certificate from scratch and check every claim bitwise.

    Accepts a :class:`ViolationCertificate` or its wire dict.  The
    replay shares nothing with the search that emitted the certificate:
    the instance is rebuilt from its serialised form, the mechanism and
    scenario come from their declarative specs, and a fresh
    :class:`~repro.incremental.session.DeltaSession` re-estimates the
    pre and post states under the recorded parameters.  Checks:

    1. schema and (for wire dicts) the content digest;
    2. the base instance's content digest;
    3. the edit chain parses and its digest matches;
    4. pre/post mechanism estimates replay bitwise (every field);
    5. pre/post direct-majority probabilities replay bitwise;
    6. the harm arithmetic and the ``harm - margin*se > min_harm``
       violation inequality actually hold.

    Never raises on a bad certificate — a malformed or tampered payload
    yields a report whose failures say what broke.
    """
    from repro.incremental.session import DeltaSession
    from repro.io import instance_from_dict
    from repro.voting.exact import direct_voting_probability

    report = VerificationReport()
    claimed_digest = None
    if isinstance(certificate, Mapping):
        claimed_digest = certificate.get("digest")
        try:
            certificate = ViolationCertificate.from_dict(certificate)
        except ValueError as exc:
            report.record("parse", False, str(exc))
            return report
    cert: ViolationCertificate = certificate

    if cert.schema != CERTIFICATE_SCHEMA:
        report.record(
            "schema", False,
            f"schema {cert.schema} != supported {CERTIFICATE_SCHEMA}",
        )
        return report
    report.record("schema", True)

    if claimed_digest is not None:
        recomputed = cert.digest()
        if claimed_digest != recomputed:
            report.record(
                "digest", False,
                f"claimed {claimed_digest[:16]}... != recomputed "
                f"{recomputed[:16]}... (payload was modified)",
            )
            return report
        report.record("digest", True)

    try:
        instance = instance_from_dict(cert.instance)
    except (KeyError, TypeError, ValueError) as exc:
        report.record("instance", False, f"instance does not rebuild: {exc}")
        return report
    rebuilt_digest = instance_digest(instance)
    report.record(
        "instance-digest",
        rebuilt_digest == cert.instance_digest,
        "" if rebuilt_digest == cert.instance_digest
        else f"rebuilt {rebuilt_digest[:16]}... != recorded "
        f"{cert.instance_digest[:16]}...",
    )

    try:
        batches = [
            [edit_from_dict(edit) for edit in batch] for batch in cert.edits
        ]
    except ValueError as exc:
        report.record("edits", False, f"edit chain does not parse: {exc}")
        return report
    replayed_chain = edit_chain_digest(batches)
    report.record(
        "chain-digest",
        replayed_chain == cert.chain_digest,
        "" if replayed_chain == cert.chain_digest
        else f"replayed {replayed_chain[:16]}... != recorded "
        f"{cert.chain_digest[:16]}...",
    )

    try:
        from repro.service.protocol import ServiceError, build_mechanism

        try:
            mechanism = build_mechanism(dict(cert.mechanism))
        except ServiceError as exc:
            report.record("mechanism", False, str(exc))
            return report
        tie_policy = TiePolicy[cert.tie_policy]
    except KeyError:
        report.record(
            "mechanism", False, f"unknown tie policy {cert.tie_policy!r}"
        )
        return report
    report.record("mechanism", True)

    try:
        session = DeltaSession(
            instance,
            mechanism,
            rounds=cert.rounds,
            seed=cert.seed,
            engine=cert.engine,
            tie_policy=tie_policy,
            cache=cache,
        )
        pre_estimate = session.estimate()
        for batch in batches:
            session.apply(batch)
        post_estimate = session.estimate()
    except ValueError as exc:
        report.record("replay", False, f"replay failed: {exc}")
        return report

    _match_estimate(report, "pre-estimate", cert.pre.get("estimate", {}), pre_estimate)
    _match_estimate(
        report, "post-estimate", cert.post.get("estimate", {}), post_estimate
    )

    pre_direct = direct_voting_probability(
        instance.competencies, tie_policy=tie_policy
    )
    post_direct = direct_voting_probability(
        session.instance.competencies, tie_policy=tie_policy
    )
    report.record(
        "pre-direct",
        cert.pre.get("direct") == pre_direct,
        "" if cert.pre.get("direct") == pre_direct
        else f"recorded {cert.pre.get('direct')!r} != replayed {pre_direct!r}",
    )
    report.record(
        "post-direct",
        cert.post.get("direct") == post_direct,
        "" if cert.post.get("direct") == post_direct
        else f"recorded {cert.post.get('direct')!r} != replayed {post_direct!r}",
    )

    harm = post_direct - post_estimate.probability
    report.record(
        "harm",
        cert.harm == harm,
        "" if cert.harm == harm
        else f"recorded harm {cert.harm!r} != replayed {harm!r}",
    )
    cushion = harm - cert.margin * post_estimate.std_error
    violated = cushion > cert.min_harm
    report.record(
        "violation",
        violated,
        f"harm {harm:.6f} - {cert.margin:g}*se "
        f"{post_estimate.std_error:.6f} = {cushion:.6f} "
        + (">" if violated else "<=") + f" min_harm {cert.min_harm:g}",
    )
    return report
