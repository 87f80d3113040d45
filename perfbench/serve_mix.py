"""serve-mix: a seeded request mix against an ``espresso-hf serve`` daemon.

Why: on small instances the per-request fork and IPC, canonicalization,
queueing and caching cost more than minimization, and only this workload
goes through them.  It also uses the ``hazards`` and ``hf`` layers in a
different way from pla-suite: many tiny instances instead of a few large
ones.

The daemon runs in its own process with one worker slot and a result
cache of :data:`CACHE_ENTRIES` entries, far fewer than the corpus holds,
so every cold request of a later epoch is a real miss.  The benchmark
process drives it in a closed loop over two connections.  Each epoch walks
the pinned corpus in a seeded order:

* a cold request per instance: the instance's own text in epoch 0, a
  seeded input permutation and polarity flip of it later (all 7 corpus
  strata, unsolvable and degenerate ones included);
* for :data:`RESUBMITS_PER_EPOCH` of them, a permuted and flipped
  resubmit that should hit the cache through canonicalization;
* for :data:`COALESCE_PER_EPOCH` of them, a second variant sent on the
  second connection before the cold reply is read, so it coalesces onto
  the running job;
* :data:`CHAINS_PER_EPOCH` ``warm_key`` edit chains (drop one transition
  per edit);
* :data:`MALFORMED_PER_EPOCH` malformed lines.

The class counts are fixed per epoch, so every epoch has the same mix
and only the seeded choice of instances differs between runs.  The
reason for each count stands next to it.

The corpus itself is generated from a fixed seed, so the cover sizes of
epoch 0 do not depend on ``--seed``; the seed drives everything else.
After the loop every reply is checked: statuses against the stratum, and
covers byte for byte against the in-process cover of the same text, or,
for a reply served from the cache, against the in-process cover of the
text that filled the cache, mapped through the canonical forms.
"""

from __future__ import annotations

import json
import os
import random
import socket
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

from measure import Sample, import_program, process_peak_rss_mb, program_env
from refslice import DriftClock

from repro.corpus.generator import generate_corpus
from repro.guard.errors import NoSolutionError
from repro.guard.runner import guarded_espresso_hf, minimize_payload, pla_payload, run_one
from repro.pla import format_cover, format_pla, parse_pla
from repro.proptest.metamorphic import flip_instance, permute_instance, subset_transitions_instance
from repro.serve.canon import canonicalize

IMPORTS = (
    "repro.corpus.generator",
    "repro.guard.runner",
    "repro.pla",
    "repro.proptest.metamorphic",
    "repro.serve.canon",
)

CORPUS_SEED = 2026
#: at this size every one of the 7 strata holds at least 3 instances
CORPUS_SIZE = 42
#: the resubmit share of ``scripts/loadgen.py``'s request mix: 3 permuted
#: and flipped rewrites for every 7 plain requests (18 = 42 * 3 / 7)
RESUBMITS_PER_EPOCH = 18
#: edits per ``warm_key`` chain, as the CI edit workload runs
#: ``scripts/loadgen.py --edit-workload 2``
EDITS_PER_CHAIN = 2
# The next three shares have no traffic to copy; they are chosen, not
# measured: the fewest per epoch that give each class about 30 samples
# in each half of a traced run (8 epochs at ``--seconds 20``), enough for
# a steady class median (``serve.warm_ms``, ``serve.reject_ms``) or a
# steady ``serve.coalesced`` count.
CHAINS_PER_EPOCH = 2
COALESCE_PER_EPOCH = 4
MALFORMED_PER_EPOCH = 4
#: far below the corpus size, so every cold request after epoch 0 is a
#: real miss, but large enough to keep an instance's entry while its own
#: chain inserts ``EDITS_PER_CHAIN`` more, so its resubmit still hits
CACHE_ENTRIES = 8
ISOLATION_SAMPLES = 8

#: every malformed line of this text after the first is answered from
#: the daemon's negative cache
REPEATED_MALFORMED = "# junk\n.i 2\n.o\n"


def _served_name(text: str) -> str:
    """The name the daemon gives an instance: the leading ``# name`` comment."""
    stripped = text.lstrip()
    if stripped.startswith("#"):
        candidate = stripped.splitlines()[0][1:].strip()
        if candidate:
            return candidate.split()[0]
    return "request"


def _malformed(text: str, rng: random.Random) -> str:
    """A line the daemon must answer ``malformed``."""
    kind = rng.randrange(3)
    if kind == 0:
        return REPEATED_MALFORMED
    lines = text.splitlines()
    if kind == 1:
        # an ON row one input wider than ``.i`` says
        at = next(i for i, ln in enumerate(lines) if ln and ln[0] in "01-")
        lines[at] = "-" + lines[at]
    else:
        lines = [ln.replace(".i ", ".i x", 1) if ln.startswith(".i ") else ln for ln in lines]
    return "\n".join(lines) + "\n"


class Connection:
    """One NDJSON connection to the daemon, speaking the wire protocol directly.

    The benchmark keeps its own client so that the client's cost stays
    fixed, and so that it can send on two connections before reading.
    """

    def __init__(self, port: int):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self._fh = self._sock.makefile("rwb")
        self._next = 0

    def send(self, message: dict) -> None:
        self._next += 1
        message = dict(message, id=f"b{self._next}")
        self._fh.write((json.dumps(message) + "\n").encode())
        self._fh.flush()

    def receive(self) -> dict:
        line = self._fh.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.send(message)
        return self.receive()

    def minimize(self, text: str, **fields) -> dict:
        return self.request(dict(fields, op="minimize", pla=text))

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()


class ServeMix:
    name = "serve-mix"
    #: epochs end where they end; the request count only sets how many run
    pass_size = 1
    nominal_rps = 52.0
    #: the work runs in the daemon: no slices while this thread waits for it
    sample_period = None

    def __init__(self, root: str, seed: int):
        import_program(root, IMPORTS)
        self.rng = random.Random(seed)
        self.corpus = generate_corpus(CORPUS_SEED, CORPUS_SIZE)
        self.instances = [
            parse_pla(c.pla_text, name=c.name).to_instance(validate=False) for c in self.corpus
        ]
        self.epoch = 0
        #: (request id, class, corpus index, text, reply, epoch) per reply
        self.records: List[tuple] = []
        self.window: Tuple[int, dict, dict] = (0, {}, {})
        self._inprocess: Dict[str, tuple] = {}
        bundles = os.path.join(root, "perfbench", "out", "bundles")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--workers", "1",
                "--cache-entries", str(CACHE_ENTRIES),
                "--bundle-dir", bundles,
                "--seed", str(seed),
            ],
            env=program_env(root),
            stdout=subprocess.PIPE,
            text=True,
        )
        self.conns: List[Connection] = []
        try:
            line = self.proc.stdout.readline()
            port = int(line.rsplit(":", 1)[1].split()[0])
            self.conns = [Connection(port) for _ in range(2)]
            for conn in self.conns:
                conn.request({"op": "ping"})
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # request plan

    def _variant(self, i: int) -> str:
        instance = self.instances[i]
        perm = list(range(instance.n_inputs))
        self.rng.shuffle(perm)
        mask = self.rng.randrange(1 << instance.n_inputs)
        return format_pla(permute_instance(flip_instance(instance, mask), tuple(perm)))

    def _cold_text(self, i: int) -> str:
        return self.corpus[i].pla_text if self.epoch == 0 else self._variant(i)

    def _chain_texts(self, i: int) -> List[str]:
        current = self.instances[i]
        texts = []
        for _ in range(EDITS_PER_CHAIN):
            drop = self.rng.randrange(len(current.transitions))
            keep = [k for k in range(len(current.transitions)) if k != drop]
            current = subset_transitions_instance(current, keep)
            texts.append(format_pla(current))
        return texts

    def _stats(self) -> dict:
        return self.conns[0].request({"op": "stats"})["stats"]

    # ------------------------------------------------------------------

    def run(self, clock, n: int, rec) -> List[Sample]:
        samples: List[Sample] = []
        a, b = self.conns
        first = len(self.records)
        before = self._stats()

        def timed(klass, index, text, conn, **fields):
            rid = f"r{len(self.records)}"

            def call():
                with rec.span(f"serve.{klass}", rid):
                    return conn.minimize(text, **fields)

            reply, corrected, wall, factor = clock.measure(call)
            self.records.append((rid, klass, index, text, reply, self.epoch))
            samples.append(Sample(rid, klass, wall, corrected, factor))
            return reply

        def pair(cold, variant, rid):
            with rec.span("serve.coalesce", rid):
                a.send({"op": "minimize", "pla": cold})
                b.send({"op": "minimize", "pla": variant})
                return a.receive(), b.receive()

        chainable = [
            i for i, c in enumerate(self.corpus)
            if c.solvable and len(self.instances[i].transitions) > EDITS_PER_CHAIN + 1
        ]
        everyone = range(len(self.corpus))
        while len(samples) < n:
            order = list(everyone)
            self.rng.shuffle(order)
            chains = set(self.rng.sample(chainable, CHAINS_PER_EPOCH))
            pairs = set(self.rng.sample([i for i in everyone if i not in chains], COALESCE_PER_EPOCH))
            resubmits = set(self.rng.sample(everyone, RESUBMITS_PER_EPOCH))
            malformed = set(self.rng.sample(everyone, MALFORMED_PER_EPOCH))
            for i in order:
                cold = self._cold_text(i)
                if i in chains:
                    reply = timed("miss", i, cold, a, session=True)
                    for edited in self._chain_texts(i):
                        reply = timed("warm", i, edited, a, warm_key=reply.get("warm_key"))
                elif i in pairs:
                    # the pair is one closed-loop interval, so one sample
                    variant = self._variant(i)
                    rid = f"r{len(self.records)}"
                    replies, corrected, wall, factor = clock.measure(lambda: pair(cold, variant, rid))
                    pair_records = [("miss", cold, replies[0]), ("coalesce", variant, replies[1])]
                    # either one may have run on the worker; check that one first
                    pair_records.sort(key=lambda r: bool(r[2].get("cached") or r[2].get("coalesced")))
                    for klass, text, reply in pair_records:
                        self.records.append((rid, klass, i, text, reply, self.epoch))
                    samples.append(Sample(rid, "coalesce", wall, corrected, factor))
                else:
                    timed("miss", i, cold, a)
                if i in resubmits:
                    timed("hit", i, self._variant(i), b)
                if i in malformed:
                    timed("reject", i, _malformed(cold, self.rng), b)
            self.epoch += 1
        self.window = (first, before, self._stats())
        return samples

    # ------------------------------------------------------------------
    # checking

    def verify(self, samples: List[Sample]) -> None:
        """Check every reply; mark the sample of each wrong one failed."""
        by_request = {s.request: s for s in samples}
        filler: Dict[str, str] = {}
        for rid, klass, index, text, reply, _ in self.records:
            if not self._check(klass, index, text, reply, filler):
                by_request[rid].ok = False
                print(f"# wrong reply to {rid} ({klass}, {self.corpus[index].name}): "
                      f"status={reply.get('status')} cached={reply.get('cached')} "
                      f"coalesced={reply.get('coalesced')} error={reply.get('error')}",
                      file=sys.stderr)

    def _check(self, klass, index, text, reply, filler) -> bool:
        status = reply.get("status")
        if klass == "reject":
            return status == "malformed"
        if not self.corpus[index].solvable:
            return status == "no_solution"
        if status != "ok":
            return False
        if reply.get("cached") or reply.get("coalesced"):
            source = filler.get(reply.get("key"))
            return source is not None and reply.get("cover_pla") == self._mapped(source, text)
        filler[reply.get("key")] = text
        return reply.get("cover_pla") == self._minimized(text)[2]

    def _minimized(self, text: str) -> tuple:
        """(instance, cover, cover text) of the in-process run on ``text``."""
        if text not in self._inprocess:
            instance = parse_pla(text, name=_served_name(text)).to_instance()
            try:
                cover = guarded_espresso_hf(instance).cover
            except NoSolutionError:
                cover = None
            formatted = None if cover is None else format_cover(
                cover, pla_type="f", name=f"{instance.name} minimized"
            )
            self._inprocess[text] = (instance, cover, formatted)
        return self._inprocess[text]

    def _mapped(self, source: str, text: str) -> str:
        """The cover the cache holds for ``source``, relabeled for ``text``."""
        src, cover, _ = self._minimized(source)
        dst = parse_pla(text, name=_served_name(text)).to_instance()
        canonical = canonicalize(src).cover_to_canonical(cover)
        mapped = canonicalize(dst).cover_from_canonical(canonical)
        return format_cover(mapped, pla_type="f", name=f"{dst.name} minimized")

    # ------------------------------------------------------------------

    def quality(self):
        """Cover size over the corpus texts, which every run serves in epoch 0."""
        covers = [self._minimized(c.pla_text)[1] for c in self.corpus if c.solvable]
        return sum(len(c) for c in covers), sum(c.num_literals() for c in covers)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def layer_metrics(self, samples: List[Sample], layer_ms: Dict[str, float]) -> Dict[str, float]:
        first, before, after = self.window
        by_request = {s.request: s for s in samples}
        by_class: Dict[str, List[float]] = {}
        overhead, worker = [], []
        warm = warm_hits = shed = 0
        for rid, klass, _, _, reply, _ in self.records[first:]:
            sample = by_request[rid]
            by_class.setdefault(klass, []).append(sample.corrected)
            if reply.get("status") == "shed":
                shed += 1
            if klass == "warm":
                warm += 1
                warm_hits += reply.get("warm") in ("warm", "identical")
            if klass == "miss" and sample.klass == "miss" and reply.get("time_s"):
                worked = reply["time_s"] * sample.factor
                worker.append(worked)
                overhead.append(sample.corrected - worked)

        def delta(name, field="value"):
            return after["metrics"].get(name, {}).get(field, 0) - before["metrics"].get(name, {}).get(field, 0)

        def median_ms(values):
            return statistics.median(values) * 1e3 if values else 0.0

        lookups = delta("serve.cache_hits") + delta("serve.cache_misses")
        waits = delta("serve.queue_wait_seconds", "count")
        mean_factor = statistics.mean(s.factor for s in samples)
        return {
            "serve.hit_ms": median_ms(by_class.get("hit", [])),
            "serve.miss_ms": median_ms(by_class.get("miss", [])),
            "serve.warm_ms": median_ms(by_class.get("warm", [])),
            "serve.reject_ms": median_ms(by_class.get("reject", [])),
            "serve.worker_ms": median_ms(worker),
            "serve.overhead_ms": median_ms(overhead),
            "serve.queue_wait_ms": (
                delta("serve.queue_wait_seconds", "sum") / waits * mean_factor * 1e3 if waits else 0.0
            ),
            "serve.cache_hit_ratio": delta("serve.cache_hits") / lookups if lookups else 0.0,
            "serve.warm_hit_ratio": warm_hits / warm if warm else 0.0,
            "serve.coalesced": delta("serve.coalesced"),
            "serve.retries": delta("serve.retries"),
            "serve.shed_ratio": shed / len(self.records[first:]),
            "guard.isolation_ms": self._isolation_ms(),
        }

    def _isolation_ms(self) -> float:
        """Median of run_one(payload) minus minimize_payload(payload)."""
        clock = DriftClock(period=None)
        gaps = []
        solvable = [c for c in self.corpus if c.solvable][:ISOLATION_SAMPLES]
        for c in solvable:
            payload = pla_payload(c.pla_text, name=c.name)
            isolated_row, isolated, _, _ = clock.measure(lambda: run_one(dict(payload)))
            inline_row, inline, _, _ = clock.measure(lambda: minimize_payload(dict(payload)))
            if isolated_row["status"] != "ok" or inline_row["cover_pla"] != isolated_row["cover_pla"]:
                raise RuntimeError(f"isolated and in-process runs of {c.name} disagree")
            gaps.append(isolated - inline)
        return statistics.median(gaps) * 1e3

    def close(self) -> None:
        try:
            if self.conns:
                self.conns[0].request({"op": "shutdown"})
        except OSError:
            pass
        for conn in self.conns:
            conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
