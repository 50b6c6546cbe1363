"""Consistency-level arithmetic: how many acks, and when is a pairing immediate?

Run:  python demos/quorum_arithmetic.py
"""

from quorumsim import ALL, LOCAL_ONE, LOCAL_QUORUM, ONE, QUORUM, THREE, TWO, is_immediately_consistent, required_acks

print("Required acknowledgments per level (single datacenter):")
print(f"{'level':>14} " + " ".join(f"rf={rf}" for rf in (1, 3, 5)))
for level in (ONE, TWO, THREE, QUORUM, ALL):
    row = []
    for rf in (1, 3, 5):
        try:
            row.append(f"{required_acks(level, rf):>4}")
        except Exception:
            row.append("   -")
    print(f"{level:>14} " + " ".join(row))

print("\nA write/read pairing gives immediate consistency iff W + R > RF,")
print("because every read set then intersects every write set.\n")

print(f"{'write':>14} {'read':>14} {'W':>3} {'R':>3} {'RF':>3}  verdict")
rf = 3
for write_cl, read_cl in [(ALL, ONE), (ONE, ALL), (QUORUM, QUORUM), (ONE, ONE), (QUORUM, ONE)]:
    w = required_acks(write_cl, rf)
    r = required_acks(read_cl, rf)
    verdict = "IMMEDIATE" if is_immediately_consistent(w, r, rf) else "EVENTUAL"
    print(f"{write_cl:>14} {read_cl:>14} {w:>3} {r:>3} {rf:>3}  {verdict}")

print("\nLocal variants count only the coordinator datacenter's replicas:")
dc = {"NY": 3, "SF": 3}
for level in (LOCAL_ONE, LOCAL_QUORUM):
    print(f"  {level}: {required_acks(level, 6, dc, 'NY')} ack(s) out of NY's 3 replicas (cluster rf=6)")
w = required_acks(LOCAL_QUORUM, 6, dc, "NY")
r = required_acks(LOCAL_QUORUM, 6, dc, "NY")
verdict = "IMMEDIATE" if is_immediately_consistent(w, r, 6) else "EVENTUAL"
print(f"  LOCAL_QUORUM/LOCAL_QUORUM across the whole 6-replica cluster: {verdict}")
print("  (local quorums guarantee intersection inside one datacenter, not globally)")
