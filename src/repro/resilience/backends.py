"""Executor backends: one dispatch protocol, two execution substrates.

The sweep engine (and the ``sharded-execution-parity`` check) runs the
same task stream on any backend and demands bit-identical records:

- ``serial`` (:class:`SerialBackend`) — in-process, no subprocesses.
  The reference implementation: every other backend is defined as
  "produces exactly what serial produces".
- ``pool`` and ``nodes`` — two configurations of one
  :class:`ProcessFleet`: OS processes that each own one end of a
  ``socket.socketpair()`` and speak the CRC-framed protocol in
  :mod:`repro.resilience.transport`.  ``pool`` runs the ``--processes``
  count with round-robin home lanes; ``nodes`` runs one process per
  shard with cache-key home lanes and reports its
  :class:`~repro.resilience.sharding.ShardReport`.  The fleet is also
  importable under its historical names,
  :class:`~repro.resilience.supervisor.Supervisor` and
  :class:`NodesBackend`.

The contract every backend honors:

- ``stream(tasks, ledger)`` yields one outcome per task **in task_id
  order** regardless of completion order — a successful result, or
  None for a batch quarantined after its retry budget,
- every failed attempt lands in the shared
  :class:`~repro.resilience.report.FailureLedger`,
- ``completed_unyielded()`` exposes landed-but-unconsumed results so an
  interrupted sweep can flush them to cache,
- ``close()`` is idempotent and safe mid-stream.

The fleet
---------
Every batch is its own assignment under a wall-clock deadline.  Each
process has a **home lane**; an idle process with an empty lane
*steals* from the richest backlog (ties to the lowest lane id, taking
the victim's tail) — the arbitration rule
:func:`~repro.resilience.sharding.simulate_rebalance` specifies.

A worker exception or a result that fails ``validate`` is a failed
attempt on a live process.  A process that dies, hangs past its
deadline or breaks the frame protocol is killed, and its in-flight
batch is booked by exit code first: the chaos exits
``CHAOS_NODE_LOST_EXIT`` / ``CHAOS_PARTITION_EXIT`` are ``node-lost`` /
``shard-partition``, any other death is a ``crash``; only a link that
fails without an exit code falls back to the transport error's shape.
Recovery is one budgeted ladder: the batch retries under the
deterministic :class:`~repro.resilience.policy.RetryPolicy`; the
process is respawned while ``max_respawns`` lasts; past it the process
is *abandoned* and its backlog reassigned round-robin to the survivors
(``max_reassignments`` abandonments allowed, logged as
:class:`~repro.resilience.sharding.ReassignEvent`); with neither budget
left the stream raises :class:`~repro.errors.ResilienceError`.  Steal
and reassign schedules depend on real execution timing, so they live in
the :class:`~repro.resilience.sharding.ShardReport` and never in the
deterministic :class:`~repro.resilience.report.FailureReport`.

A killed process can never leave the parent blocked on half a message:
every read is deadline-bounded and a partial or corrupt frame surfaces
as a typed :class:`~repro.errors.TruncatedFrameError` /
:class:`~repro.errors.MalformedFrameError`.  Sweep workers send packed
:class:`~repro.frame.columns.RecordBlock` batches whose ``array.array``
columns pickle as raw bytes, so the pipeline stays columnar end to end
(see ``docs/COLUMNAR.md``).
"""

from __future__ import annotations

import abc
import heapq
import multiprocessing
import os
import selectors
import signal
import socket
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.errors import (
    MalformedFrameError,
    PoisonBatchError,
    ResilienceError,
    SweepCancelledError,
    TransportError,
    TruncatedFrameError,
)
from repro.resilience.chaos import (
    CHAOS_NODE_LOST_EXIT,
    CHAOS_PARTITION_EXIT,
    installed_node_fault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import FailureLedger
from repro.resilience.sharding import (
    ReassignEvent,
    ShardPlanner,
    ShardReport,
    StealEvent,
)
from repro.resilience.transport import (
    recv_frame,
    send_frame,
    send_truncated_frame,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "ProcessFleet",
    "SerialBackend",
    "SerialChaosFault",
    "SupervisedTask",
    "NodesBackend",
    "probe_backend",
]

#: The backend axis the parity checks and the CLI iterate over.
BACKEND_NAMES = ("serial", "pool", "nodes")
#: Longest one fleet tick blocks waiting for frames when no deadline or
#: retry is due sooner.
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SupervisedTask:
    """One unit of supervised work.

    ``task_id`` is the submission position (results stream in this
    order); ``index`` is the caller-facing identity used for retry
    jitter, chaos lookup and the failure report; ``identity`` is the
    duck-typed batch the report describes (a ``BatchSpec``).
    """

    task_id: int
    index: int
    payload: object
    timeout_s: float
    identity: object = None


def _probe_task(payload, attempt):
    """Echo task used by :func:`probe_backend` — any result proves the
    substrate can round-trip a dispatch."""
    return payload


def probe_backend(name: str, timeout_s: float = 5.0) -> bool:
    """Health-probe one execution substrate with a single echo task.

    Used by the serving layer's circuit breaker in half-open state: a
    cheap end-to-end dispatch (spawn, send, execute, receive) proves the
    backend can currently do work, without committing a real batch to a
    possibly-broken fleet.  Returns True when the echo round-trips
    within ``timeout_s``; False on any error or mismatch.  ``serial``
    always probes healthy — it is the floor of the degradation ladder.
    """
    if name not in BACKEND_NAMES:
        raise ResilienceError(
            f"unknown backend {name!r} (expected one of {BACKEND_NAMES})"
        )
    if name == "serial":
        return True
    task = SupervisedTask(
        task_id=0, index=0, payload="probe", identity="probe:0",
        timeout_s=timeout_s,
    )
    fleet = ProcessFleet(
        _probe_task, n_processes=1,
        policy=RetryPolicy(max_retries=0, base_delay_s=0.0),
        frame_timeout_s=timeout_s,
    )
    try:
        outcomes = list(fleet.stream([task]))
    except (ResilienceError, OSError):
        return False
    finally:
        fleet.close()
    return outcomes == ["probe"]


class ExecutorBackend(abc.ABC):
    """The dispatch protocol shared by every backend, with the
    bookkeeping they share: task-id validation, attempt settlement
    (validation, ledger, quarantine) and in-order yielding."""

    #: Short identifier ("serial", "pool", "nodes").
    name = "backend"
    #: Optional cooperative-cancellation handle (anything with
    #: ``is_set()``, typically a ``threading.Event``).  When set, the
    #: backend raises :class:`~repro.errors.SweepCancelledError` at the
    #: next safe point — between attempts, never mid-batch — so the
    #: sweep layer can flush landed batches before unwinding.  This is
    #: how a served request's deadline reaches all the way down to the
    #: worker fleet.
    cancel_event = None

    def __init__(
        self,
        fn: Callable,
        policy: RetryPolicy | None = None,
        validate: Callable | None = None,
        fail_fast: bool = False,
    ):
        self.fn = fn
        self.policy = policy or RetryPolicy()
        self.validate = validate
        self.fail_fast = fail_fast
        self.ledger: FailureLedger | None = None
        #: Process respawns performed so far (failure-report field).
        self.worker_respawns = 0
        self._outcomes: dict[int, tuple[str, object]] = {}
        self._yielded = 0

    def _start(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None,
    ) -> list[SupervisedTask]:
        """Validate the task list and reset per-stream state."""
        tasks = list(tasks)
        if [t.task_id for t in tasks] != list(range(len(tasks))):
            raise ResilienceError(
                "task_ids must be the contiguous sequence 0..n-1 in "
                "submission order"
            )
        self.ledger = ledger if ledger is not None else FailureLedger(
            self.policy, "raise" if self.fail_fast else "degrade"
        )
        self._outcomes = {}
        self._yielded = 0
        self.worker_respawns = 0
        return tasks

    def _check_cancelled(self) -> None:
        """Raise if the installed cancel handle has been set."""
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise SweepCancelledError(
                f"sweep cancelled while streaming on the {self.name} "
                "backend"
            )

    def _settle(
        self,
        task: SupervisedTask,
        attempt: int,
        value: object = None,
        kind: str | None = None,
        cause: str | None = None,
    ) -> bool:
        """Book one finished attempt; True when it should be retried.

        With no failure ``kind`` the value is validated (a rejection is
        a ``corrupt-result`` failure) and lands as the task's outcome.
        A failure past the retry budget quarantines the task, raising
        :class:`~repro.errors.PoisonBatchError` under ``fail_fast``.
        """
        if kind is None and self.validate is not None:
            error = self.validate(value)
            if error is not None:
                kind, cause = "corrupt-result", error
        if kind is None:
            self.ledger.record_success(task.index)
            self._outcomes[task.task_id] = ("ok", value)
            return False
        if self.ledger.record_failure(
            task.index, task.identity, attempt, kind, cause
        ):
            return True
        self._outcomes[task.task_id] = ("poison", None)
        if self.fail_fast:
            raise PoisonBatchError(
                f"batch {task.index} quarantined after {attempt + 1} "
                f"failed attempt(s) (last: {kind}: {cause}) under "
                "fail_policy='raise'"
            )
        return False

    def _ready(self) -> Iterator[object]:
        """Yield every outcome that is next in task order."""
        while self._yielded in self._outcomes:
            status, value = self._outcomes.pop(self._yielded)
            self._yielded += 1
            yield value if status == "ok" else None

    @abc.abstractmethod
    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks; yield outcomes in ``task_id`` order."""

    def completed_unyielded(self) -> list[tuple[int, object]]:
        """Landed-but-unconsumed ``(task_id, value)`` pairs."""
        return [
            (task_id, value)
            for task_id, (status, value) in sorted(self._outcomes.items())
            if status == "ok"
        ]

    def close(self) -> None:
        """Release all execution resources; idempotent."""


class SerialChaosFault(Exception):
    """Raised by a serial-mode task function to simulate a fault the
    in-process backend cannot survive for real (a crash, a hang, a lost
    node).  Carries the failure ``kind`` and ``cause`` the ledger
    records — the serial path *books* the failure instead of dying."""

    def __init__(self, kind: str, cause: str):
        super().__init__(f"{kind}: {cause}")
        self.kind = kind
        self.cause = cause


class SerialBackend(ExecutorBackend):
    """In-process reference backend: no subprocesses, no IPC.

    Settles attempts exactly as the fleet does — validation as
    ``corrupt-result``, poison on budget exhaustion — with the
    deterministic backoff as a plain sleep, so its record stream is the
    parity reference the other backends are measured against.
    """

    name = "serial"

    def _attempt(self, task: SupervisedTask, attempt: int) -> tuple:
        """Run one attempt in-process: ``(value, kind, cause)``."""
        try:
            return self.fn(task.payload, attempt), None, None
        except SerialChaosFault as fault:
            return None, fault.kind, fault.cause
        except Exception as exc:
            return None, "error", f"{type(exc).__name__}: {exc}"

    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks in-process; yield outcomes in task order."""
        for task in self._start(tasks, ledger):
            self._check_cancelled()
            attempt = 0
            while self._settle(task, attempt, *self._attempt(task, attempt)):
                time.sleep(self.policy.delay_s(task.index, attempt + 1))
                attempt += 1
            yield from self._ready()


# ----------------------------------------------------------------------
# The process fleet
# ----------------------------------------------------------------------
def _detach_inherited_signals() -> None:
    """Restore default signal handling in a forked child process.

    A parent embedding this fleet in an asyncio loop (the serving
    daemon) registers SIGTERM/SIGINT handlers backed by a wakeup-fd
    self-pipe.  A forked worker inherits both the handler and the pipe,
    so a ``terminate()`` aimed at the worker would write into the pipe
    *shared with the parent's loop* — the parent then observes a
    phantom SIGTERM and begins draining itself.  Detaching the wakeup
    fd and restoring ``SIG_DFL`` makes child kills land on the child
    alone (and lets plain ``terminate()`` actually kill it).
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # not the main thread of the child, or already detached
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _node_main(fn, initializer, initargs, sock):
    """Fleet process body: initialize once, then serve framed tasks.

    Node-level chaos faults fire *here, at the transport layer* —
    a ``node-lost`` fault sends half a result frame before dying, a
    ``shard-partition`` fault severs the link between messages — so the
    parent exercises the real truncated-frame / boundary-EOF recovery
    paths rather than a polite error message.
    """
    _detach_inherited_signals()
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:
        # A process that cannot initialize must say so rather than
        # make every assignment look like a crash.
        try:
            send_frame(sock, ("init-error", f"{type(exc).__name__}: {exc}"))
        except TransportError:
            pass
        return
    try:
        while True:
            try:
                message = recv_frame(sock)
            except TransportError:
                return  # parent went away; nothing left to serve
            if message is None:
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind != "task":
                continue  # unknown kind: skip rather than misinterpret
            _tag, task_id, index, payload, attempt = message
            fault = installed_node_fault(index, attempt)
            if fault == "node-lost":
                try:
                    send_truncated_frame(
                        sock, ("result", task_id, "ok", None)
                    )
                finally:
                    os._exit(CHAOS_NODE_LOST_EXIT)
            if fault == "shard-partition":
                sock.close()
                os._exit(CHAOS_PARTITION_EXIT)
            try:
                result = fn(payload, attempt)
            except Exception as exc:
                send_frame(sock, ("result", task_id, "error",
                                  f"{type(exc).__name__}: {exc}"))
            else:
                send_frame(sock, ("result", task_id, "ok", result))
    except KeyboardInterrupt:
        # Ctrl-C reaches the whole process group; exit quietly and let
        # the parent's own interrupt handling clean up.
        return


@dataclass
class _NodeSlot:
    """One fleet process, its link, and what it is currently running."""

    node_id: int
    sock: socket.socket | None
    process: multiprocessing.Process | None
    #: (task, attempt, deadline) while busy, None while idle.
    current: tuple | None = None
    #: False once the process is abandoned (respawn budget exhausted).
    alive: bool = False


class ProcessFleet(ExecutorBackend):
    """Supervised worker processes over framed socket links (see the
    module docstring for the dispatch and recovery model).

    ``home_shards``, if set before :meth:`stream`, gives each task's
    home lane; by default tasks deal round-robin over the processes.
    ``name`` labels the configuration: ``pool`` unless the sweep's
    ``nodes`` seam relabels it.
    """

    name = "pool"

    def __init__(
        self,
        fn: Callable,
        initializer: Callable | None = None,
        initargs: Sequence = (),
        n_processes: int = 2,
        policy: RetryPolicy | None = None,
        validate: Callable | None = None,
        fail_fast: bool = False,
        max_respawns: int = 32,
        max_reassignments: int | None = None,
        frame_timeout_s: float = 5.0,
    ):
        super().__init__(fn, policy, validate, fail_fast)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.n_processes = max(1, n_processes)
        self.max_respawns = max_respawns
        self.max_reassignments = (
            max_reassignments if max_reassignments is not None
            else self.n_processes - 1
        )
        self.frame_timeout_s = frame_timeout_s
        self.home_shards: Sequence[int] | None = None
        self._slots: list[_NodeSlot] = []
        self._selector: selectors.BaseSelector | None = None
        self._queues: list[deque] = []
        self._home: list[int] = []
        self._steals: list[StealEvent] = []
        self._reassigns: list[ReassignEvent] = []
        self._abandoned = 0
        self._retry_heap: list = []
        self._retry_seq = 0
        self._closed = True

    # -- process lifecycle -----------------------------------------------
    def _spawn(self, node_id: int) -> _NodeSlot:
        parent_sock, child_sock = socket.socketpair()
        process = multiprocessing.Process(
            target=_node_main,
            args=(self.fn, self.initializer, self.initargs, child_sock),
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end closes immediately, so the
        # process is the *only* holder: its death is EOF here.
        child_sock.close()
        self._selector.register(parent_sock, selectors.EVENT_READ, node_id)
        return _NodeSlot(node_id, parent_sock, process, alive=True)

    def _kill(self, slot: _NodeSlot) -> None:
        if slot.sock is not None:
            try:
                self._selector.unregister(slot.sock)
            except (KeyError, ValueError):
                pass
            slot.sock.close()
            slot.sock = None
        process = slot.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        slot.alive = False
        slot.current = None

    def _recover(self, slot: _NodeSlot) -> None:
        """Respawn while the budget lasts; abandon and reassign past it."""
        self._kill(slot)
        self.worker_respawns += 1
        if self.worker_respawns <= self.max_respawns:
            fresh = self._spawn(slot.node_id)
            slot.sock, slot.process = fresh.sock, fresh.process
            slot.alive = True
            return
        if self._abandoned >= self.max_reassignments:
            raise ResilienceError(
                f"respawn budget ({self.max_respawns}) and reassignment "
                f"budget ({self.max_reassignments}) exhausted: the fleet "
                "is crash-looping"
            )
        self._abandoned += 1
        backlog = self._queues[slot.node_id]
        for task, attempt in backlog:
            self._route(task, attempt, front=False)
        backlog.clear()

    def _route(self, task: SupervisedTask, attempt: int,
               front: bool = True) -> None:
        """Queue a task on its home lane, re-homing it round-robin to a
        survivor if the home was abandoned."""
        home = self._home[task.task_id]
        if not self._slots[home].alive:
            survivors = [s for s in self._slots if s.alive]
            if not survivors:
                raise ResilienceError(
                    "every process is lost; no lane can take the backlog"
                )
            target = survivors[task.task_id % len(survivors)].node_id
            self._reassigns.append(ReassignEvent(home, target, task.index))
            self._home[task.task_id] = home = target
        if front:
            self._queues[home].appendleft((task, attempt))
        else:
            self._queues[home].append((task, attempt))

    # -- event loop ------------------------------------------------------
    def stream(
        self,
        tasks: Sequence[SupervisedTask],
        ledger: FailureLedger | None = None,
    ) -> Iterator[object]:
        """Run all tasks; yield outcomes in task order (see class doc)."""
        tasks = self._start(tasks, ledger)
        homes = list(self.home_shards if self.home_shards is not None
                     else ShardPlanner(self.n_processes).assign(tasks))
        if len(homes) != len(tasks):
            raise ResilienceError(
                f"got {len(homes)} home shards for {len(tasks)} tasks"
            )
        self._home = homes
        self._queues = [deque() for _ in range(self.n_processes)]
        for task, home in zip(tasks, homes):
            self._queues[home].append((task, 0))
        self._retry_heap = []
        self._steals = []
        self._reassigns = []
        self._abandoned = 0
        self._selector = selectors.DefaultSelector()
        self._slots = [self._spawn(i) for i in range(self.n_processes)]
        self._closed = False
        try:
            while self._yielded < len(tasks):
                self._check_cancelled()
                self._dispatch()
                self._poll(self._wait_budget())
                self._enforce_deadlines()
                yield from self._ready()
        finally:
            self.close()

    def _dispatch(self) -> None:
        now = time.monotonic()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, task, attempt = heapq.heappop(self._retry_heap)
            # Retries jump their home lane: a flaky batch should resolve
            # (or quarantine) promptly rather than languish behind it.
            self._route(task, attempt)
        for slot in self._slots:
            if not slot.alive or slot.current is not None:
                continue
            item = self._take_for(slot)
            if item is None:
                continue
            task, attempt = item
            try:
                send_frame(slot.sock,
                           ("task", task.task_id, task.index,
                            task.payload, attempt))
            except TransportError:
                # The process died before taking the task: put it back
                # on this lane (recovery reassigns it if the lane is
                # abandoned), surface any final frames it flushed
                # before the link dropped, then recover it.
                self._queues[slot.node_id].appendleft((task, attempt))
                self._drain_final(slot)
                self._recover(slot)
                continue
            slot.current = (task, attempt, now + task.timeout_s)

    def _take_for(self, slot: _NodeSlot) -> tuple | None:
        """Own lane's head, else steal the richest backlog's tail."""
        own = self._queues[slot.node_id]
        if own:
            return own.popleft()
        victim = None
        richest = 0
        for other in self._slots:
            backlog = len(self._queues[other.node_id])
            if other.node_id != slot.node_id and backlog > richest:
                victim, richest = other, backlog
        if victim is None:
            return None
        task, attempt = self._queues[victim.node_id].pop()
        self._home[task.task_id] = slot.node_id
        self._steals.append(
            StealEvent(slot.node_id, victim.node_id, task.index)
        )
        return task, attempt

    def _drain_final(self, slot: _NodeSlot) -> None:
        """Read frames a dead process flushed before its link dropped.

        A process that failed initialization sends one ``init-error``
        frame and exits; that frame sits in the socket buffer and must
        surface (as :class:`~repro.errors.ResilienceError`) rather than
        vanish when recovery closes the socket.
        """
        if slot.sock is None:
            return
        while True:
            try:
                message = recv_frame(slot.sock, 0.05)
            except TransportError:
                return
            if message is None:
                return
            self._handle_message(slot, message)

    def _wait_budget(self) -> float:
        """How long to block on the links this tick."""
        now = time.monotonic()
        budget = POLL_INTERVAL_S
        for slot in self._slots:
            if slot.current is not None:
                budget = min(budget, slot.current[2] - now)
        if self._retry_heap:
            budget = min(budget, self._retry_heap[0][0] - now)
        return max(budget, 0.005)

    def _poll(self, timeout_s: float) -> None:
        """Wait for frames for up to ``timeout_s``; handle them."""
        for key, _mask in self._selector.select(max(timeout_s, 0.0)):
            slot = self._slots[key.data]
            if not slot.alive or slot.sock is not key.fileobj:
                continue  # a slot recovered earlier in this same pass
            try:
                message = recv_frame(slot.sock, self.frame_timeout_s)
            except TransportError as exc:
                self._on_transport_failure(slot, exc)
                continue
            if message is not None:
                self._handle_message(slot, message)

    def _handle_message(self, slot: _NodeSlot, message: tuple) -> None:
        kind = message[0]
        if kind == "init-error":
            raise ResilienceError(
                f"node initialization failed: {message[1]}"
            )
        if kind != "result":
            return  # unknown kind: drop rather than misinterpret
        _tag, task_id, status, value = message
        if slot.current is None or slot.current[0].task_id != task_id:
            return  # stale result from an assignment already retried
        task, attempt, _deadline = slot.current
        slot.current = None
        if status == "ok":
            self._book(task, attempt, value)
        else:
            self._book(task, attempt, kind="error", cause=value)

    def _on_transport_failure(
        self, slot: _NodeSlot, exc: TransportError
    ) -> None:
        """Classify a broken link, book the in-flight task, recover.

        The exit code decides first (see the module docstring); a link
        that broke while the process still runs falls back to the
        error's shape: a truncated or malformed frame is ``node-lost``,
        a boundary EOF is ``shard-partition``.
        """
        slot.process.join(1.0)
        exitcode = slot.process.exitcode
        detail = f"{type(exc).__name__}: {exc} (node exit code {exitcode})"
        if exitcode == CHAOS_NODE_LOST_EXIT:
            kind, cause = "node-lost", detail
        elif exitcode == CHAOS_PARTITION_EXIT:
            kind, cause = "shard-partition", detail
        elif exitcode is not None:
            kind, cause = "crash", f"worker exited with code {exitcode}"
        elif isinstance(exc, (TruncatedFrameError, MalformedFrameError)):
            kind, cause = "node-lost", f"{type(exc).__name__}: {exc}"
        else:
            kind, cause = "shard-partition", f"{type(exc).__name__}: {exc}"
        task_info, slot.current = slot.current, None
        self._recover(slot)
        if task_info is not None:
            task, attempt, _deadline = task_info
            self._book(task, attempt, kind=kind, cause=cause)

    def _book(self, task: SupervisedTask, attempt: int, value=None,
              kind: str | None = None, cause: str | None = None) -> None:
        """Settle one attempt; schedule the retry its backoff allows."""
        if self._settle(task, attempt, value, kind, cause):
            delay = self.policy.delay_s(task.index, attempt + 1)
            self._retry_seq += 1
            heapq.heappush(
                self._retry_heap,
                (time.monotonic() + delay, self._retry_seq, task,
                 attempt + 1),
            )

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.current is None or slot.current[2] > now:
                continue
            task, attempt, _deadline = slot.current
            slot.current = None
            self._recover(slot)  # kills the hung process first
            self._book(
                task, attempt, kind="timeout",
                cause=f"exceeded the {task.timeout_s:.1f}s batch deadline",
            )

    # -- reporting and shutdown ------------------------------------------
    def shard_report(self) -> ShardReport:
        """Operational steal/reassign diagnostics for the last stream."""
        return ShardReport(
            n_shards=self.n_processes,
            assignments=tuple(self._home),
            steals=tuple(self._steals),
            reassignments=tuple(self._reassigns),
            node_respawns=self.worker_respawns,
        )

    def close(self) -> None:
        """Stop every process; idempotent, safe mid-stream."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if (slot.alive and slot.sock is not None
                    and slot.current is None):
                try:
                    send_frame(slot.sock, ("stop",))
                except TransportError:
                    pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(max(0.0, deadline - time.monotonic()))
        for slot in self._slots:
            self._kill(slot)
        if self._selector is not None:
            self._selector.close()
            self._selector = None


#: The fleet under its ``nodes`` name (one process per shard).
NodesBackend = ProcessFleet
