"""In-process service registration center.

Sellers advertise an issue template under a product category; buyers query
by category (optionally requiring specific issues) and then negotiate with
the matched sellers directly. The call interface mirrors a remote service
so a networked deployment can substitute later without touching callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import yaml

from .domain import Issue, NegotiationError


class AlreadyRegisteredError(NegotiationError):
    """The seller id already has a live record."""


class NotFoundError(NegotiationError):
    """The registration handle does not refer to a live record."""


class InvalidRecordError(NegotiationError):
    """The service record fails validation."""


@dataclass(frozen=True)
class ServiceRecord:
    seller_id: str
    category: str
    issue_template: tuple[Issue, ...]  # public option menus
    registered_at: int = -1  # monotonic sequence number, assigned on register


@dataclass(frozen=True)
class RegistrationHandle:
    seller_id: str
    sequence: int


@dataclass(frozen=True)
class DiscoveryQuery:
    category: str
    required_issues: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.category:
            raise InvalidRecordError("query category must be non-empty")

    def matches(self, record: ServiceRecord) -> bool:
        if record.category != self.category:
            return False
        names = {issue.name for issue in record.issue_template}
        return all(req in names for req in self.required_issues)


def _validate_record(record: ServiceRecord) -> None:
    if not record.seller_id:
        raise InvalidRecordError("seller id must be non-empty")
    if not record.category:
        raise InvalidRecordError("category must be non-empty")
    if not record.issue_template:
        raise InvalidRecordError("issue template must list at least one issue")
    for issue in record.issue_template:
        if not issue.options:
            raise InvalidRecordError(f"issue {issue.name!r} has no options")
        labels = issue.labels()
        if len(labels) != len(set(labels)):
            raise InvalidRecordError(f"issue {issue.name!r} has duplicate option labels")


class ServiceRegistry:
    """Thread-safe register/discover/deregister with stable registration order."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._records: dict[str, ServiceRecord] = {}
        self._next_sequence = 0

    def register(self, record: ServiceRecord) -> RegistrationHandle:
        _validate_record(record)
        with self._lock:
            if record.seller_id in self._records:
                raise AlreadyRegisteredError(
                    f"seller {record.seller_id!r} is already registered"
                )
            sequence = self._next_sequence
            self._next_sequence += 1
            self._records[record.seller_id] = replace(record, registered_at=sequence)
            return RegistrationHandle(seller_id=record.seller_id, sequence=sequence)

    def discover(self, query: DiscoveryQuery) -> list[ServiceRecord]:
        with self._lock:
            live = sorted(self._records.values(), key=lambda r: r.registered_at)
        return [record for record in live if query.matches(record)]

    def deregister(self, handle: RegistrationHandle) -> None:
        with self._lock:
            current = self._records.get(handle.seller_id)
            if current is None or current.registered_at != handle.sequence:
                raise NotFoundError(
                    f"no live registration for {handle.seller_id!r} with sequence {handle.sequence}"
                )
            del self._records[handle.seller_id]

    def snapshot(self) -> str:
        """Live records as YAML, in registration order, for inspection."""
        with self._lock:
            live = sorted(self._records.values(), key=lambda r: r.registered_at)
        data = [
            {
                "seller_id": record.seller_id,
                "category": record.category,
                "registered_at": record.registered_at,
                "issues": {
                    issue.name: list(issue.labels()) for issue in record.issue_template
                },
            }
            for record in live
        ]
        return yaml.safe_dump(data, sort_keys=True)
