from ledger import Tracer, merge, read_totals


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_inclusive_minus_children(tmp_path):
    clock = FakeClock()
    tracer = Tracer(tmp_path, clock=clock)
    tracer.enter("eval.run")        # 0
    clock.now = 1.0
    tracer.enter("elf.parse")       # 1 .. 3
    clock.now = 3.0
    tracer.exit()
    tracer.enter("core.funseeker")  # 3 .. 9, with an index build 4 .. 6
    clock.now = 4.0
    tracer.enter("x86.index")
    clock.now = 6.0
    tracer.exit()
    clock.now = 9.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    t = tracer.totals
    assert t["eval.run"] == [1, 10.0, 2.0]
    assert t["elf.parse"] == [1, 2.0, 2.0]
    assert t["core.funseeker"] == [1, 6.0, 4.0]
    assert t["x86.index"] == [1, 2.0, 2.0]
    # Self times partition the root span's wall exactly.
    assert sum(agg[2] for agg in t.values()) == 10.0


def test_wrapped_callables_nest(tmp_path):
    clock = FakeClock()
    tracer = Tracer(tmp_path, clock=clock)

    def inner():
        clock.now += 2.0

    inner = tracer.wrap(inner, "inner")

    def outer():
        clock.now += 1.0
        inner()
        inner()
        return "ok"

    assert tracer.wrap(outer, lambda args: "outer")() == "ok"
    assert tracer.totals["outer"] == [1, 5.0, 1.0]
    assert tracer.totals["inner"] == [2, 4.0, 4.0]


def test_generator_spans_cover_each_next(tmp_path):
    clock = FakeClock()
    tracer = Tracer(tmp_path, clock=clock)

    def produce():
        for i in range(3):
            clock.now += 1.0
            yield i

    items = list(tracer.wrap_generator(produce, "walk")())
    assert items == [0, 1, 2]
    assert tracer.totals["walk"][0] == 4  # three items plus the final stop
    assert tracer.totals["walk"][1] == 3.0


def test_child_process_totals_are_flushed_and_merged(tmp_path):
    clock = FakeClock()
    tracer = Tracer(tmp_path, clock=clock)
    tracer.owner = -1  # act as a forked child: flush at each outermost exit
    tracer.enter("x86.index")
    clock.now = 2.0
    tracer.exit()
    assert tracer.totals == {}
    tracer.enter("ingest.analyze")
    tracer.enter("x86.index")
    clock.now = 3.0
    tracer.exit()
    assert tracer.totals  # not flushed while a span is still open
    clock.now = 3.5
    tracer.exit()
    assert tracer.totals == {}
    assert read_totals(tmp_path) == {"x86.index": [2, 3.0, 3.0],
                                     "ingest.analyze": [1, 1.5, 0.5]}


def test_merge_adds_counts_and_times():
    into = {"a": [1, 1.0, 0.5]}
    merge(into, {"a": [2, 2.0, 1.0], "b": [1, 0.1, 0.1]})
    assert into == {"a": [3, 3.0, 1.5], "b": [1, 0.1, 0.1]}


def test_a_property_is_wrapped_and_restored(tmp_path):
    clock = FakeClock()
    tracer = Tracer(tmp_path, clock=clock)

    class Box:
        @property
        def value(self):
            clock.now += 1.0
            return 42

    original = Box.__dict__["value"]
    tracer.patch(Box, "value", "box.value")
    assert Box().value == 42
    assert tracer.totals["box.value"] == [1, 1.0, 1.0]
    tracer.uninstall()
    assert Box.__dict__["value"] is original


def test_shared_context_work_is_a_span_of_its_own(tmp_path):
    from repro.baselines import ALL_DETECTORS
    from repro.elf.parser import ELFFile, strip_symbols
    from repro.synth.generate import generate_program
    from repro.synth.linker import link_program
    from repro.synth.profiles import sampled_matrix

    profile = sampled_matrix()[0]
    binary = link_program(generate_program("p", 20, profile, seed=1), profile)
    tracer = Tracer(tmp_path).install()
    try:
        elf = ELFFile(strip_symbols(binary.data))
        for name in ("funseeker", "naive-endbr"):
            ALL_DETECTORS[name]().detect(elf)
    finally:
        tracer.uninstall()
    t = tracer.totals
    # The sweep, PLT map and landing pads FunSeeker asks for first are
    # charged to the context, and naive-endbr's sweep is a memo hit.
    assert t["cache.context"][0] >= 4
    assert set(t) >= {"elf.parse", "core.funseeker", "baselines.naive"}
