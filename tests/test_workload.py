from _builders import simple_workload

from quorumsim import ClientOverride, Constant, StreamFactory, UniformKeys, WorkloadSpec
from quorumsim.workload import READ, WRITE, WorkloadDriver


def driver(spec, seed=42):
    return WorkloadDriver(spec, StreamFactory(seed))


def test_all_reads_when_ratio_one():
    spec = simple_workload(1, 200, read_ratio=1.0)
    d = driver(spec)
    now = 0
    for _ in range(200):
        req = d.next_request(0, now)
        assert req.kind == READ
        now = req.issue_time
    assert d.next_request(0, now) is None


def test_constant_think_time_issue_schedule():
    spec = WorkloadSpec(1, 3, 0.0, Constant(1000), UniformKeys(1), Constant(10))
    d = driver(spec)
    issues = []
    now = 0
    while True:
        req = d.next_request(0, now)
        if req is None:
            break
        issues.append(req.issue_time)
        now = req.issue_time  # ops complete instantly
    assert issues == [1000, 2000, 3000]


def test_read_fraction_concentrates():
    spec = simple_workload(1, 100_000, read_ratio=0.5, think=Constant(1))
    d = driver(spec)
    reads = 0
    now = 0
    for _ in range(100_000):
        req = d.next_request(0, now)
        if req.kind == READ:
            reads += 1
        now = req.issue_time
    assert 0.49 <= reads / 100_000 <= 0.51


def test_op_ids_strictly_increase_per_client():
    spec = simple_workload(3, 50)
    d = driver(spec)
    seen = {0: [], 1: [], 2: []}
    clocks = {0: 0, 1: 0, 2: 0}
    for _ in range(150):
        for cid in (0, 1, 2):
            req = d.next_request(cid, clocks[cid])
            if req is not None:
                seen[cid].append(req.op_id)
                clocks[cid] = req.issue_time
    for ids in seen.values():
        assert ids == sorted(ids)
        assert len(ids) == 50
    all_ids = sorted(x for ids in seen.values() for x in ids)
    assert all_ids == list(range(150))


def test_write_ids_unique_and_only_on_writes():
    spec = simple_workload(2, 100, read_ratio=0.3)
    d = driver(spec)
    wids = []
    clocks = [0, 0]
    for _ in range(100):
        for cid in (0, 1):
            req = d.next_request(cid, clocks[cid])
            clocks[cid] = req.issue_time
            if req.kind == WRITE:
                assert req.write_id is not None
                wids.append(req.write_id)
            else:
                assert req.write_id is None
    assert len(wids) == len(set(wids))


def test_warmup_flags_first_ops_per_client():
    spec = simple_workload(2, 10, warmup=3)
    d = driver(spec)
    for cid in (0, 1):
        flags = []
        now = 0
        for _ in range(10):
            req = d.next_request(cid, now)
            flags.append(req.warmup)
            now = req.issue_time
        assert flags == [True] * 3 + [False] * 7


def test_overrides_change_only_named_clients():
    spec = simple_workload(
        2,
        30,
        read_ratio=0.5,
        overrides=[ClientOverride(0, read_ratio=0.0, think_time=Constant(7), ops_per_client=5)],
    )
    d = driver(spec)
    now = 0
    kinds = []
    for _ in range(5):
        req = d.next_request(0, now)
        kinds.append(req.kind)
        assert req.issue_time == now + 7
        now = req.issue_time
    assert d.next_request(0, now) is None
    assert kinds == [WRITE] * 5
    assert d.next_request(1, 0) is not None  # client 1 keeps the shared spec


def test_determinism_under_fixed_seed():
    spec = simple_workload(2, 50)

    def trace(seed):
        d = driver(spec, seed)
        out = []
        clocks = [0, 0]
        for _ in range(50):
            for cid in (0, 1):
                req = d.next_request(cid, clocks[cid])
                clocks[cid] = req.issue_time
                out.append((req.op_id, req.client_id, req.kind, req.key, req.issue_time, req.payload_bytes))
        return out

    assert trace(11) == trace(11)
    assert trace(11) != trace(12)


def test_workload_problem_reporting():
    assert simple_workload(0, 5).problems()
    assert simple_workload(1, 5, read_ratio=-0.1).problems()
    bad_override = simple_workload(1, 5, overrides=[ClientOverride(5)])
    assert bad_override.problems()
    twice = simple_workload(2, 5, overrides=[ClientOverride(1, read_ratio=0.0), ClientOverride(0), ClientOverride(1, read_ratio=1.0)])
    assert twice.problems() == ["overrides name client 1 more than once"]
    assert not simple_workload(2, 5).problems()
