"""Cross-surface differential: one outcome, one exit code, one wire status.

Every request outcome is defined once, in
:data:`repro.guard.errors.OUTCOMES`.  This suite runs the same inputs
through every surface and checks they agree:

* the library — :func:`guarded_espresso_hf` and :func:`minimize_payload`;
* the CLI — ``main()`` in-process and with ``--timeout`` (an isolated
  worker), and for ``no_solution`` also ``--check-existence`` and
  ``--exact``;
* ``serve`` — a daemon started with :func:`start_in_thread`, fresh and,
  for ``no_solution``, from its cache under a renamed, permuted and
  flipped resubmission;
* the corpus shard worker — :func:`repro.corpus.worker.serve_stdio`.

Inputs are one instance per corpus stratum, one malformed PLA text and
one budget-starved options set.  Injected faults (``raise``, ``kill``,
``sleep_s``, a pipeline ``defect``) go only through ``serve`` and the
worker, the two surfaces that honour the test-only ``inject`` seam.

Each surface must report the same outcome name, the table's exit code
and wire status for it, byte-identical cover PLA wherever a cover is
attached, and, for ``no_solution``, the same Theorem 4.1 message naming
the same failing required cubes in the requester's own name and labels.
:data:`CONTRACT` pins every exit code and wire status independently of
the table, so changing one of them in the table fails this suite.
"""

import io
import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from repro.bm.benchmarks import build_benchmark
from repro.cli import main as cli_main
from repro.corpus import generate_corpus
from repro.corpus.executor import encode_line
from repro.corpus.worker import serve_stdio
from repro.guard.budget import RunBudget
from repro.guard.bundle import options_to_dict
from repro.guard.errors import (
    BY_WIRE,
    OUTCOMES,
    BudgetExceeded,
    HFError,
    InvariantViolation,
    MalformedInstance,
    NoSolutionError,
    WorkerCrashed,
    outcome_of,
)
from repro.guard.runner import (
    failure_fields,
    guarded_espresso_hf,
    minimize_payload,
    pla_payload,
)
from repro.hf import EspressoHFOptions
from repro.pla import format_cover, format_pla, parse_pla
from repro.proptest.metamorphic import flip_instance, permute_instance
from repro.serve import ServeClient, ServeConfig, start_in_thread

#: the outcome contract, pinned by hand: name -> (CLI exit code, wire status)
CONTRACT = {
    "ok": (0, "ok"),
    "degraded": (0, "degraded"),
    "budget_exceeded": (0, "budget_exceeded"),
    "no_solution": (2, "no_solution"),
    "invariant_violation": (3, "invariant_violation"),
    "malformed": (4, "malformed"),
    "crash": (1, "error"),
    "timeout": (5, "timeout"),
    "worker_crashed": (6, "worker_crashed"),
    "quarantined": (None, "quarantined"),
    "shed": (None, "shed"),
    "shutting_down": (None, "shutting_down"),
    "usage": (1, "protocol_error"),
}

MALFORMED_TEXT = "# broken\n.i 2\n.o 1\nthis is not a pla\n"
STARVED = EspressoHFOptions(budget=RunBudget(max_checkpoints=1))


def _stratum_instances():
    first = {}
    for inst in generate_corpus(seed=7, count=14):
        first.setdefault(inst.stratum, inst)
    return first


STRATA = _stratum_instances()

#: (case id, PLA text, options or None, runs through the CLI)
CASES = [(s, i.pla_text, None, True) for s, i in STRATA.items()] + [
    ("malformed-text", MALFORMED_TEXT, None, True),
    # the CLI has no budget flag: budget-starved runs skip it
    ("budget-starved", STRATA["bm"].pla_text, STARVED, False),
]


def _name(text: str) -> str:
    return text.splitlines()[0][1:].strip()


def _cover_text(name, cover) -> str:
    return format_cover(cover, pla_type="f", name=f"{name} minimized")


class Observation(NamedTuple):
    """What one surface reported for one input."""

    outcome: str
    cover: Optional[str] = None
    error: Optional[str] = None
    wire: Optional[str] = None


def _library(text, options):
    name = _name(text)
    try:
        instance = parse_pla(text, name=name).to_instance()
        result = guarded_espresso_hf(instance, options)
    except HFError as exc:
        return Observation(outcome_of(exc).name, error=str(exc))
    return Observation(result.status, cover=_cover_text(name, result.cover))


def _payload(text, options=None, **extra):
    payload = pla_payload(text, name=_name(text), options=options)
    payload.update(extra)
    return payload


def _from_row(row):
    return Observation(row["status"], row.get("cover_pla"), row.get("error"))


def _cli(tmp_path, capsys, text, *flags):
    path = tmp_path / f"{_name(text)}.pla"
    path.write_text(text)
    out = tmp_path / "cover.pla"
    if out.exists():
        out.unlink()
    capsys.readouterr()
    code = cli_main([str(path), "-o", str(out), *flags])
    printed = capsys.readouterr()
    return code, printed.out + printed.err, out.read_text() if out.exists() else None


def _worker(payloads, timeout_s=None):
    stdin = io.StringIO(
        "".join(encode_line(dict(p, task_id=str(i))) + "\n"
                for i, p in enumerate(payloads))
    )
    stdout = io.StringIO()
    assert serve_stdio(stdin=stdin, stdout=stdout, timeout_s=timeout_s) == 0
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert [r["task"] for r in replies] == [str(i) for i in range(len(payloads))]
    return [_from_row(r["row"]) for r in replies]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    config = ServeConfig(
        workers=2,
        allow_test_faults=True,
        max_retries=0,
        quarantine_threshold=1000,
        job_timeout_s=30.0,
        bundle_dir=str(tmp_path_factory.mktemp("serve-bundles")),
    )
    handle = start_in_thread(config)
    try:
        with ServeClient(handle.host, handle.port) as client:
            yield client
    finally:
        handle.stop()


def _serve(client, text, options=None, **fields):
    reply = client.minimize(
        text,
        options=options_to_dict(options) if options is not None else None,
        no_cache=True,
        **fields,
    )
    outcome = BY_WIRE[reply["status"]]
    assert reply["ok"] is outcome.ok, reply
    return Observation(
        outcome.name, reply.get("cover_pla"), reply.get("error"), reply["status"]
    )


def _assert_cover(outcome_name, observation, surface):
    """A cover is attached exactly when the outcome's row says so."""
    has_cover = observation.cover is not None
    assert has_cover is OUTCOMES[outcome_name].cover, surface


class TestTable:
    def test_exit_codes_and_wire_statuses_match_the_contract(self):
        assert {
            name: (o.exit_code, o.wire) for name, o in OUTCOMES.items()
        } == CONTRACT

    def test_wire_statuses_are_one_to_one(self):
        assert len(BY_WIRE) == len(OUTCOMES)

    def test_exception_classes_map_to_their_rows(self):
        from repro.pla.reader import PlaError

        cases = [
            (NoSolutionError("x"), "no_solution"),
            (InvariantViolation("final", ["x"]), "invariant_violation"),
            (MalformedInstance("x"), "malformed"),
            (PlaError("x"), "malformed"),
            (BudgetExceeded("x"), "timeout"),
            (WorkerCrashed("x", exitcode=-9), "worker_crashed"),
            (HFError("x"), "crash"),
            (RuntimeError("x"), "crash"),
        ]
        for exc, name in cases:
            assert outcome_of(exc).name == name, exc
            if isinstance(exc, HFError):
                assert exc.exit_code == CONTRACT[name][0], exc


    def test_failures_doc_renders_the_table(self):
        doc = (Path(__file__).parent.parent / "docs" / "FAILURES.md").read_text()
        block = doc.split("| outcome | rank |", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in block.splitlines()[2:]:
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
        assert list(rows) == list(OUTCOMES)
        fallback = outcome_of(Exception())
        tick = {True: "✓", False: ""}
        for name, o in OUTCOMES.items():
            exc = o.exc.__name__ if o.exc else ("any other" if o is fallback else "")
            assert rows[name] == [
                "" if o.rank is None else str(o.rank),
                "" if o.exit_code is None else str(o.exit_code),
                o.wire,
                tick[o.cover],
                tick[o.ok],
                tick[o.cacheable],
                exc,
            ], name


class TestOneExceptionMapping:
    """An escaped BudgetExceeded is a ``timeout`` on every path."""

    def test_failure_fields(self):
        fields = failure_fields(BudgetExceeded("wall clock", phase="expand"))
        assert fields == {
            "status": "timeout",
            "error": "wall clock (during expand)",
            "bundle_path": None,
        }

    def test_minimize_payload_row(self, monkeypatch):
        hf = sys.modules["repro.hf.espresso_hf"]

        def starved(*args, **kwargs):
            raise BudgetExceeded("wall clock", phase="canonicalize")

        monkeypatch.setattr(hf, "espresso_hf", starved)
        row = minimize_payload(_payload(STRATA["tiny"].pla_text))
        assert row["status"] == "timeout"
        assert row["error"] == "wall clock (during canonicalize)"

    @pytest.mark.parametrize(
        "status, exc_class",
        [
            ("no_solution", NoSolutionError),
            ("invariant_violation", InvariantViolation),
            ("malformed", MalformedInstance),
            ("timeout", BudgetExceeded),
            ("worker_crashed", WorkerCrashed),
            ("crash", RuntimeError),
        ],
    )
    def test_per_output_rows_reraise_through_the_table(self, status, exc_class):
        from repro.hf.espresso_hf import _result_from_row

        instance = parse_pla(
            STRATA["tiny"].pla_text, name="tiny"
        ).to_instance()
        row = {"status": status, "error": "boom"}
        expected = "boom"
        if status == "no_solution":
            # rebuilt from the row's cubes, in the sweep's output index
            cube = "-" * instance.n_inputs
            row["failures"] = [[cube, 0, "0" * instance.n_inputs, "1" * instance.n_inputs]]
            expected = f"offending required cubes: {cube} (output 1)"
        with pytest.raises(exc_class) as info:
            _result_from_row(instance, 1, row)
        assert outcome_of(info.value).name == status
        assert expected in str(info.value)


@pytest.mark.parametrize(
    "case, text, options, via_cli", CASES, ids=[c[0] for c in CASES]
)
def test_every_surface_agrees(tmp_path, capsys, daemon, case, text, options,
                              via_cli):
    library = _library(text, options)
    name = library.outcome
    expected_exit, expected_wire = CONTRACT[name]
    _assert_cover(name, library, "library")

    observations = {
        "minimize_payload": _from_row(minimize_payload(_payload(text, options))),
        "serve": _serve(daemon, text, options),
        "worker": _worker([_payload(text, options)])[0],
    }
    assert observations["serve"].wire == expected_wire
    for surface, seen in observations.items():
        assert seen.outcome == name, (surface, seen.error)
        assert seen.cover == library.cover, surface
    if name == "no_solution":
        for surface, seen in observations.items():
            assert seen.error == library.error, surface

    if not via_cli:
        return
    cli_modes = [(), ("--timeout", "60")]
    if name == "no_solution":
        cli_modes += [("--check-existence",), ("--exact",)]
    for flags in cli_modes:
        code, printed, cover = _cli(tmp_path, capsys, text, *flags)
        assert code == expected_exit, (flags, printed)
        assert cover == library.cover, flags
        if name == "no_solution":
            assert printed == f"{library.error}\n", flags


UNSOLVABLE = {s: i.pla_text for s, i in STRATA.items() if not i.solvable}


def _relabeled(text, name):
    """The instance of ``text`` under a new name, input order reversed and
    every other input complemented."""
    instance = parse_pla(text, name=_name(text)).to_instance()
    n = instance.n_inputs
    mask = sum(1 << i for i in range(0, n, 2))
    variant = permute_instance(flip_instance(instance, mask), tuple(reversed(range(n))))
    variant.name = name
    return format_pla(variant)


@pytest.mark.parametrize("case, text", UNSOLVABLE.items(), ids=list(UNSOLVABLE))
def test_cached_no_solution_names_the_requester(daemon, case, text):
    """A cache hit answers in the resubmitter's name and labels.

    The verdict is cached under the canonical key of the first request;
    a renamed, permuted and flipped resubmission hits that entry, and its
    ``error`` must be byte-identical to an uncached run of the same text.
    """
    first = daemon.minimize(text)
    assert first["status"] == "no_solution"
    variant = _relabeled(text, f"{case}-renamed")
    cached = daemon.minimize(variant)
    fresh = daemon.minimize(variant, no_cache=True)
    assert cached["cached"] is True and fresh["cached"] is False
    assert cached["status"] == fresh["status"] == "no_solution"
    assert cached["error"] == fresh["error"] == _library(variant, None).error
    assert cached["error"].startswith(f"{case}-renamed: ")


def test_cli_timeout_and_usage_exit_codes(tmp_path, capsys):
    # a large benchmark: its worker cannot report inside the deadline
    text = format_pla(build_benchmark("stetson-p1"))
    code, err, cover = _cli(tmp_path, capsys, text, "--timeout", "0.001")
    assert code == CONTRACT["timeout"][0]
    assert cover is None
    assert "error: exceeded per-instance timeout of 0.001s" in err
    code, _, _ = _cli(tmp_path, capsys, text, "--no-such-flag")
    assert code == CONTRACT["usage"][0]


#: (inject, outcome name) for the fault-injection surfaces
FAULTS = [
    ({"raise": "boom"}, "crash"),
    ({"raise": "malformed"}, "malformed"),
    ({"kill": True}, "worker_crashed"),
    ({"sleep_s": 5.0}, "timeout"),
    ({"defect": "make_prime_off"}, "invariant_violation"),
]


def test_injected_faults_agree_between_serve_and_worker(daemon):
    text = STRATA["bm"].pla_text
    payloads = [_payload(text, inject=inject) for inject, _ in FAULTS]
    for payload, (inject, _) in zip(payloads, FAULTS):
        if "sleep_s" in inject:
            payload["timeout_s"] = 0.5
    worker = _worker(payloads)
    for (inject, name), from_worker in zip(FAULTS, worker):
        timeout = 0.5 if "sleep_s" in inject else None
        from_serve = _serve(daemon, text, inject=inject, timeout_s=timeout)
        assert from_worker.outcome == name, (inject, from_worker.error)
        assert from_serve.outcome == name, (inject, from_serve.error)
        assert from_serve.wire == CONTRACT[name][1]
        _assert_cover(name, from_serve, "serve")
        _assert_cover(name, from_worker, "worker")
