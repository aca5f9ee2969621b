import os
import random
from fractions import Fraction

import pytest

import momentlab


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            if "test_acceptance.py" in rep.nodeid:
                rows.append((rep.nodeid.split("::")[-1], outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{status:>6}  {name}")


@pytest.fixture
def rng():
    return random.Random(20240819)


def random_moment_prefix(rnd, degree: int):
    """A strictly positive exact moment-like prefix with mu_0 = 1.

    Entries grow fast enough to be safely log-convex most of the time, but
    no structural property beyond positivity is guaranteed; callers that
    need log-convexity must build it themselves.
    """
    vals = [Fraction(1)]
    for n in range(1, degree + 1):
        vals.append(vals[-1] * Fraction(rnd.randint(1, 40), rnd.randint(1, 8))
                    + Fraction(rnd.randint(0, 12)))
    return vals


def fresh_env() -> dict:
    """The environment of a new interpreter that finds this checkout's momentlab first."""
    src = os.path.dirname(os.path.dirname(momentlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
