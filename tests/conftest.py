"""Shared pytest wiring: a reproducible hypothesis profile, and the
acceptance verdict lines surfaced in the terminal summary."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Same examples on every run, and no per-example deadline: a slow
    # machine must not fail a property that holds.
    settings.register_profile("tier1", derandomize=True, deadline=None)
    settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter):
    lines = []
    for reports in terminalreporter.stats.values():
        for report in reports:
            if getattr(report, "when", None) != "call":
                continue
            for name, value in getattr(report, "user_properties", []):
                if name == "criterion_line":
                    lines.append(str(value))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(set(lines)):
        terminalreporter.write_line(line)
