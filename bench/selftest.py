"""Self-tests of the benchmark's own parts; exits non-zero on the first failure.

    python3 bench/selftest.py

Checks that the log generator is byte-deterministic per seed; that the
tracer nests spans, keeps self times within wall time, reports a missing
boundary instead of raising, times each next() on a generator and restores
every patched name; and that host-speed calibrations run inside a step
without counting towards its time.
"""

from __future__ import annotations

import gc
import math
import shutil
import sys
import time
import types
from pathlib import Path

import loggen
import run
import tracer as tracer_mod

OUT = Path(__file__).resolve().parent.parent / ".bench_out" / "selftest"


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_loggen() -> None:
    shape = loggen.LogShape(users=50, items=40, events=600, months=3)
    paths = [OUT / name for name in ("a.csv", "b.csv", "c.csv")]
    loggen.write_csv(shape, 11, str(paths[0]))
    loggen.write_csv(shape, 11, str(paths[1]))
    loggen.write_csv(shape, 12, str(paths[2]))
    a, b, c = (p.read_bytes() for p in paths)
    check(a == b, "loggen: one seed gives a byte-identical log")
    check(a != c, "loggen: another seed gives a different log")
    lines = a.decode().splitlines()
    check(len(lines) == shape.events, "loggen: writes exactly the requested number of events")
    fields = [line.split(",") for line in lines]
    check(all(len(f) == 3 and f[2].isdigit() for f in fields), "loggen: user,item,day lines with integer days")
    check(max(int(f[2]) for f in fields) < shape.months * 30, "loggen: days stay inside the requested months")


def _fake_program() -> types.ModuleType:
    mod = types.ModuleType("bench_selftest_prog")

    def leaf(x):
        time.sleep(0.002)
        return x + 1

    def items(n):
        for k in range(n):
            time.sleep(0.001)
            yield k

    def middle(x):
        return sum(mod.leaf(k) for k in mod.items(x))

    def top(x):
        time.sleep(0.001)
        return mod.middle(x) + mod.leaf(0)

    mod.leaf, mod.items, mod.middle, mod.top = leaf, items, middle, top
    sys.modules[mod.__name__] = mod
    return mod


def test_tracer() -> None:
    mod = _fake_program()
    originals = {name: getattr(mod, name) for name in ("leaf", "items", "middle", "top")}
    boundaries = (
        tracer_mod.Boundary(mod.__name__, "top", "t.top"),
        tracer_mod.Boundary(mod.__name__, "middle", "t.middle"),
        tracer_mod.Boundary(mod.__name__, "leaf", "t.leaf"),
        tracer_mod.Boundary(mod.__name__, "items", "t.items"),
        tracer_mod.Boundary(mod.__name__, "gone", "t.gone"),
        tracer_mod.Boundary("bench_selftest_no_such_module", "f", "t.nomodule"),
    )
    tracer = tracer_mod.Tracer(boundaries)
    tracer.install()
    start = time.perf_counter()
    with tracer.span("t.root"):
        result = mod.top(3)
    wall = time.perf_counter() - start
    tracer.uninstall()

    check(result == originals["top"](3), "tracer: wrapped calls return the same result")
    check(all(getattr(mod, n) is f for n, f in originals.items()), "tracer: uninstall restores every patched name")
    check(
        tracer.missing == [f"{mod.__name__}.gone", "bench_selftest_no_such_module.f"],
        "tracer: missing attributes and modules are reported, not raised",
    )
    names = [tracer.names[i] for i in tracer.name]
    check(names.count("t.leaf") == 4, "tracer: one span per call")
    check(names.count("t.items") == 4, "tracer: one span per next() on a generator, the ending one too")
    check(tracer.nesting_errors() == 0, "tracer: every span nests inside its parent")
    own = tracer.self_times()
    check(all(t >= 0 for t in own), "tracer: self times are non-negative")
    check(sum(own) <= wall, "tracer: self times sum to no more than the traced wall time")
    root = names.index("t.root")
    check(abs(sum(own) - (tracer.end[root] - tracer.start[root])) < 1e-9, "tracer: self times add up to the root span")

    broken = tracer_mod.Tracer(boundaries)
    broken.open(broken._intern("t.outer"))
    broken.open(broken._intern("t.inner"))
    broken.end[1] = broken.start[1] + 10.0  # a child that outlives its parent
    broken.end[0] = broken.start[0] + 1.0
    check(broken.nesting_errors() == 1, "tracer: a child outliving its parent is caught")

    def slow_count(t, args, kwargs, result) -> None:
        time.sleep(0.02)

    counted = tracer_mod.Tracer((tracer_mod.Boundary(mod.__name__, "leaf", "t.leaf", slow_count),))
    counted.install()
    with counted.span("t.root"):
        mod.leaf(1)
    counted.uninstall()
    names = [counted.names[i] for i in counted.name]
    own = counted.self_times()
    check(tracer_mod.BOOKKEEPING in names, "tracer: counters run inside a bookkeeping span")
    check(
        own[names.index("t.root")] < 0.01 <= own[names.index(tracer_mod.BOOKKEEPING)],
        "tracer: counter time is not self time of the calling span",
    )


def test_host_speed() -> None:
    speed = run.HostSpeed()
    speed.begin()
    start, wall_start = speed.clock(), time.perf_counter()
    deadline = wall_start + 3.5 * run.CAL_INTERVAL_S
    while time.perf_counter() < deadline:  # busy, so the alarm is served promptly
        pass
    stepped, wall = speed.clock() - start, time.perf_counter() - wall_start
    factor = speed.end()
    periodic = len(speed.samples) - 2 * run.CAL_END_SAMPLES
    check(periodic >= 2, f"host speed: calibrates periodically inside a step ({periodic} times)")
    check(stepped < wall - 0.5 * periodic * min(speed.samples), "host speed: the clock stands still while it calibrates")
    check(math.isfinite(factor) and factor > 0, "host speed: the scale factor is positive and finite")

    seen = []
    job = run.calibrate
    run.calibrate = lambda: seen.append(gc.isenabled()) or 0.01
    try:
        speed.begin()
        speed.end()
    finally:
        run.calibrate = job
    check(seen and not any(seen) and gc.isenabled(), "host speed: calibrations run with the collector off, then on again")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    try:
        test_loggen()
        test_tracer()
        test_host_speed()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
