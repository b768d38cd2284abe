"""Miniature Heat engine: deploy an annotated template via Nova/Cinder.

The engine walks the (Ostro-annotated) template and issues one
server-create or volume-create call per resource, exactly as OpenStack
Heat orchestrates a stack. Because every resource carries a
``force_host``/``force_disk`` hint, the Nova and Cinder surrogates land
each piece where Ostro decided -- completing the Fig. 1 pipeline:
template -> wrapper -> Ostro -> annotated template -> Heat engine ->
Nova/Cinder.

Deployment follows a reserve->commit protocol: the engine applies every
resource inside one state transaction and registers the stack only when
all of them succeeded. *Any* error mid-stack -- a scheduling failure, an
injected API fault, an exhausted retry budget, a wedged surrogate --
rolls the state back bit-exactly, so a failed deploy can never leak
capacity. Optional fault injection and retry/backoff hooks (see
:mod:`repro.faults`) cover every Nova/Cinder call the engine makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.datacenter.state import DataCenterState
from repro.errors import SchedulerError, TemplateError
from repro.faults.retry import retry_call
from repro.heat.template import (
    SERVER_TYPE,
    VOLUME_TYPE,
    parse_template,
)
from repro.openstack.api import Server, ServerRequest, VolumeRecord, VolumeRequest
from repro.openstack.cinder import CinderScheduler
from repro.openstack.nova import NovaScheduler
from repro.openstack.api import flavor_by_name

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.faults.injector import FaultInjector
    from repro.faults.retry import RetryPolicy


@dataclass
class Stack:
    """A deployed stack: resource name -> placement record.

    Attributes:
        name: stack name.
        servers: server records by resource name.
        volumes: volume records by resource name.
        template: the (annotated) template the stack was created from,
            kept for update rollback and deletion.
    """

    name: str
    servers: Dict[str, Server] = field(default_factory=dict)
    volumes: Dict[str, VolumeRecord] = field(default_factory=dict)
    template: Dict[str, Any] = field(default_factory=dict)
    _requests: List[Tuple[str, Any, Any]] = field(default_factory=list)

    def host_of(self, resource: str) -> str:
        """Host name a resource landed on."""
        if resource in self.servers:
            return self.servers[resource].host
        return self.volumes[resource].host


class HeatEngine:
    """Deploys annotated templates onto a shared availability state.

    Args:
        state: the live state Nova and Cinder schedule against. When
            deploying a stack whose placement Ostro already committed,
            pass a *fresh clone* dedicated to deployment -- otherwise the
            resources would be double-counted.
        injector: optional fault injector, forwarded to the Nova and
            Cinder surrogates so their API calls can fail by plan.
        retry: optional retry policy; when set, every Nova/Cinder call
            the engine makes is wrapped in
            :func:`~repro.faults.retry.retry_call`.
    """

    def __init__(
        self,
        state: DataCenterState,
        injector: Optional["FaultInjector"] = None,
        retry: Optional["RetryPolicy"] = None,
    ):
        self.state = state
        self.injector = injector
        self.retry = retry
        self.nova = NovaScheduler(state, injector=injector)
        self.cinder = CinderScheduler(state, injector=injector)
        self.stacks: Dict[str, Stack] = {}

    def _call(
        self, service: str, method: str, fn: Callable[[], Any]
    ) -> Any:
        """Issue one surrogate API call, retried under the policy if set."""
        return retry_call(self.retry, fn, service=service, method=method)

    def deploy(self, template, stack_name: str = "stack") -> Stack:
        """Create every resource of the template; transactional.

        Reserve->commit: the resources are created inside a
        :meth:`~repro.datacenter.state.DataCenterState.transaction` and
        the stack is registered only after every one succeeded, so any
        failure mid-stack leaves state and registry as they were.
        """
        parsed = parse_template(template)
        resources = parsed.get("resources", {})
        if stack_name in self.stacks:
            raise SchedulerError(
                f"stack {stack_name!r} already exists; delete or update it"
            )
        stack = Stack(name=stack_name)
        created: List[Tuple[str, Any, Any]] = []
        with self.state.transaction(app=stack_name):
            for res_name, resource in resources.items():
                res_type = resource.get("type")
                properties = resource.get("properties", {})
                hints = dict(properties.get("scheduler_hints", {}))
                if res_type == SERVER_TYPE:
                    request = self._server_request(res_name, properties, hints)
                    record = self._call(
                        "nova",
                        "create_server",
                        lambda r=request: self.nova.create_server(r),
                    )
                    stack.servers[res_name] = record
                    created.append(("server", record, request))
                elif res_type == VOLUME_TYPE:
                    request = VolumeRequest(
                        name=res_name,
                        size_gb=float(properties["size"]),
                        scheduler_hints=hints,
                    )
                    record = self._call(
                        "cinder",
                        "create_volume",
                        lambda r=request: self.cinder.create_volume(r),
                    )
                    stack.volumes[res_name] = record
                    created.append(("volume", record, request))
        stack.template = parsed
        stack._requests = created
        self.stacks[stack_name] = stack
        return stack

    def delete_stack(self, stack_name: str) -> None:
        """Release every resource of a deployed stack; transactional.

        If a delete call fails mid-stack (e.g. under fault injection),
        the pre-deletion state is restored and the stack stays
        registered, so a failed deletion never half-releases capacity.

        Raises:
            TemplateError: when no stack of that name is deployed.
        """
        stack = self.stacks.get(stack_name)
        if stack is None:
            raise TemplateError(f"unknown stack: {stack_name!r}")
        with self.state.transaction(app=stack_name):
            for kind, record, request in reversed(stack._requests):
                if kind == "server":
                    self._call(
                        "nova",
                        "delete_server",
                        lambda s=record, r=request: self.nova.delete_server(
                            s, r
                        ),
                    )
                else:
                    self._call(
                        "cinder",
                        "delete_volume",
                        lambda v=record, r=request: self.cinder.delete_volume(
                            v, r
                        ),
                    )
        del self.stacks[stack_name]

    def update_stack(self, template, stack_name: str) -> Stack:
        """Replace a deployed stack with a new template, transactionally.

        The old resources are released first (so the new deployment can
        reuse their capacity). If anything fails -- the deletion, the new
        deployment, an injected fault -- the enclosing transaction puts
        the pre-update state back and the old stack record stays
        registered, with no API calls on the rollback path (pure state
        restoration cannot itself fail under injection).

        Raises:
            TemplateError: when no stack of that name is deployed.
        """
        old = self.stacks.get(stack_name)
        if old is None:
            raise TemplateError(f"unknown stack: {stack_name!r}")
        with self.state.transaction(app=stack_name):
            try:
                self.delete_stack(stack_name)
                return self.deploy(template, stack_name)
            finally:
                # no-op once the new stack is registered; re-registers
                # the old record when the deploy failed after the delete
                self.stacks.setdefault(stack_name, old)

    @staticmethod
    def _server_request(
        res_name: str, properties: Dict[str, Any], hints: Dict[str, str]
    ) -> ServerRequest:
        if "flavor" in properties:
            flavor = flavor_by_name(properties["flavor"])
            vcpus, ram_gb = flavor.vcpus, flavor.ram_gb
        else:
            vcpus = float(properties["vcpus"])
            ram_gb = float(properties["ram_gb"])
        return ServerRequest(
            name=res_name,
            vcpus=vcpus,
            ram_gb=ram_gb,
            scheduler_hints=hints,
        )
