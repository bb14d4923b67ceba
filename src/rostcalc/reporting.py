"""Small pass/fail report container shared by the verification entry points."""


class CheckReport:
    """A titled list of checks, each a (name, ok, detail) triple."""

    def __init__(self, title):
        self.title = title
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def lines(self):
        out = []
        for name, ok, detail in self.checks:
            tag = "ok" if ok else "FAIL"
            suffix = f" -- {detail}" if detail else ""
            out.append(f"{tag}: {self.title}: {name}{suffix}")
        return out
