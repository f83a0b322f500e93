"""R4 negative fixture: a conforming engine and a waived special surface."""


class SimResult:
    pass


class GoodEngine:
    engine = "good"

    def run(self, schedule, *, max_steps=10_000, recorder=None):
        return SimResult()


def _result_of(outcome):
    return SimResult()


class DelegatingEngine:
    """Annotated -> SimResult: a shared helper builds the result."""

    engine = "delegating"

    def run(self, schedule, *, max_steps=10_000, recorder=None) -> SimResult:
        return _result_of(schedule)


class FlitEngine:  # lint: protocol-exempt(flit-level surface by design)
    engine = "flit"

    def run(self, max_steps=10_000):
        return 7


class NotAnEngine:
    """No engine attribute: the rule must ignore this class entirely."""

    def run(self, whatever):
        return whatever
