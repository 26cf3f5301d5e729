"""Model-based property test of the serving pipeline's block semantics.

Hypothesis generates short mixed traces over three objects — reads,
puts, updates, deletes, time-travel (``as_of``) reads, unknown objects,
bad ranges and empty payloads — and every trace is served under every
policy with QoS off and on.  Each run is checked against a plain
dict-of-bytes model:

* every live read equals the model replayed in admission order over the
  writes the run acknowledged;
* every ``as_of`` read equals the model after the writes committed at or
  before ``as_of``;
* every request has exactly one terminal outcome (completed or failed);
* a write the model rules invalid fails, and a valid put or delete
  succeeds (a valid update may only fail for lack of a free update slot).

Pure Python: runs without numpy.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import POLICIES, QoSConfig, ServiceConfig, ServicePipeline, TenantQoS
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent

NAMES = ("o0", "o1", "o2", "ghost")
TENANTS = ("t0", "t1")
QOS = QoSConfig(
    profiles={"t0": TenantQoS(rate_blocks_per_hour=2.0, burst_blocks=2.0)},
    window_block_budget=2,
)


def build_store():
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(partition_leaf_count=32, stripe_blocks=2, stripe_width=2)
        )
    )
    block = store.volume.block_size
    seed = {
        "o0": bytes(range(block)),
        "o1": bytes((7 * i) % 251 for i in range(2 * block)),
        "o2": bytes((3 * i + 1) % 253 for i in range(block + block // 2)),
    }
    for name, data in seed.items():
        store.put(name, data)
    return store, seed


@st.composite
def events(draw):
    """One trace event on a half-hour grid (ties are frequent)."""
    time_hours = draw(st.integers(0, 24)) * 0.5
    tenant = draw(st.sampled_from(TENANTS))
    # Mostly the three seeded objects; "ghost" exists only once put.
    name = draw(st.sampled_from(NAMES[:3] * 3 + NAMES[3:]))
    op = draw(st.sampled_from(("read", "read", "put", "update", "update", "delete")))
    if op == "read":
        as_of = None
        if draw(st.booleans()) and time_hours > 0:
            as_of = draw(st.integers(0, int(time_hours * 2) - 1)) * 0.5
        # Mostly in range; sometimes negative or past the end.
        offset = draw(st.just(0) | st.integers(0, 256) | st.integers(-1, 600))
        length = draw(st.none() | st.integers(0, 64) | st.integers(0, 600))
        return RequestEvent(time_hours, tenant, name, offset=offset, length=length, as_of=as_of)
    if op == "delete":
        return RequestEvent(time_hours, tenant, name, op="delete")
    payload = draw(st.binary(min_size=0, max_size=24))
    if op == "put":
        # Usually a fresh name; sometimes a duplicate of a live object.
        name = draw(st.sampled_from(("ghost", "ghost", name)))
        return RequestEvent(time_hours, tenant, name, op="put", payload=payload)
    offset = draw(st.integers(0, 200) | st.integers(0, 600))
    return RequestEvent(time_hours, tenant, name, op="update", offset=offset, payload=payload)


def apply_write(state: dict[str, bytes], event) -> tuple[bool, bool]:
    """``(valid, may_fail)`` of a write against the model state."""
    data = state.get(event.object_name)
    if event.op == "delete":
        return data is not None, False
    if not event.payload:
        return False, False
    if event.op == "put":
        return data is None, False
    end = event.offset + len(event.payload)
    return data is not None and end <= len(data), True


def commit(state: dict[str, bytes], event) -> None:
    if event.op == "delete":
        del state[event.object_name]
    elif event.op == "put":
        state[event.object_name] = event.payload
    else:
        data = state[event.object_name]
        state[event.object_name] = (
            data[: event.offset] + event.payload + data[event.offset + len(event.payload) :]
        )


def expected_read(state: dict[str, bytes], event) -> bytes | None:
    """The bytes a read must return, or None if it must fail."""
    data = state.get(event.object_name)
    if data is None or event.offset < 0:
        return None
    length = len(data) - event.offset if event.length is None else event.length
    if length < 0 or event.offset + length > len(data):
        return None
    return data[event.offset : event.offset + length]


def check_run(trace, seed, report) -> None:
    completed = {item.request.request_id: item for item in report.completed}
    failed = {item.request_id: item for item in report.failed}
    assert len(completed) == len(report.completed)
    assert len(failed) == len(report.failed)
    assert not completed.keys() & failed.keys()
    assert completed.keys() | failed.keys() == set(range(len(trace)))

    state = dict(seed)
    commits = []  # (commit hours, request id, event) of acknowledged writes
    for request_id, event in enumerate(trace):
        if event.op == "read" and event.as_of is None:
            expected = expected_read(state, event)
            if expected is None:
                assert request_id in failed, event
            else:
                assert report.payloads[request_id] == expected, event
        elif event.op != "read":
            valid, may_fail = apply_write(state, event)
            if request_id in completed:
                assert valid, event
                commit(state, event)
                commits.append((completed[request_id].completion_hours, request_id, event))
            else:
                assert not valid or (may_fail and "update slot" in failed[request_id].reason)

    for request_id, event in enumerate(trace):
        if event.as_of is None:
            continue
        history = dict(seed)
        for hours, _, write in sorted(commits, key=lambda c: c[1]):
            if hours <= event.as_of:
                commit(history, write)
        expected = expected_read(history, event)
        if expected is None:
            assert request_id in failed, event
        else:
            assert report.payloads[request_id] == expected, event


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    trace=st.lists(events(), min_size=1, max_size=25),
    lanes=st.integers(1, 3),
    window=st.sampled_from((0.25, 0.5, 1.0)),
)
def test_pipeline_matches_dict_model(trace, lanes, window):
    trace = sorted(trace, key=lambda event: event.time_hours)
    for qos in (None, QOS):
        for policy in POLICIES:
            store, seed = build_store()
            config = ServiceConfig(
                window_hours=window,
                wetlab_lanes=lanes,
                synthesis_setup_hours=3.0,
                cache_capacity_bytes=4 * store.volume.block_size,
                qos=qos,
            )
            report = ServicePipeline(store, config=config).run(trace, policy, keep_data=True)
            check_run(trace, seed, report)
