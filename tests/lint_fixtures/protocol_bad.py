"""R4 positive fixture: engine classes that break the run() surface."""


class SimResult:
    pass


class DriftingEngine:
    """Wrong first parameter, missing keyword-only params."""

    engine = "drifting"

    def run(self, packets, limit=100):
        return SimResult()


class NoRunEngine:
    """Claims to be an engine but cannot run at all."""

    engine = "inert"

    def step(self):
        return None


class NoResultEngine:
    """Right signature, but run() never produces a SimResult."""

    engine = "resultless"

    def run(self, schedule, *, max_steps=1000, recorder=None):
        return 42


class MisannotatedEngine:
    """Builds a SimResult somewhere, but run() says it returns an int."""

    engine = "misannotated"

    def run(self, schedule, *, max_steps=1000, recorder=None) -> int:
        return 42

    def result(self):
        return SimResult()
